//! Set-associative cache model (tags + MESI state, LRU replacement).

use crate::compressed::CompressedLine;
use crate::LINE_BYTES;

/// Cache geometry and hit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheCfg {
    /// The paper's L1 D-cache: 32 KB, 8-way, 64 B lines, 4-cycle hits.
    pub fn l1_paper() -> Self {
        CacheCfg {
            size_bytes: 32 * 1024,
            assoc: 8,
            hit_latency: 4,
        }
    }

    /// An L1 of `kb` kilobytes, keeping the paper's associativity and
    /// latency — the Figure 9 sweep (8 kB – 128 kB).
    pub fn l1_sized(kb: u32) -> Self {
        CacheCfg {
            size_bytes: kb * 1024,
            assoc: 8,
            hit_latency: 4,
        }
    }

    /// The paper's shared L2: 1.5 MB per core, 16-way, 35-cycle hits.
    pub fn l2_paper(cores: usize) -> Self {
        CacheCfg {
            size_bytes: (3 * 1024 * 1024 / 2) * cores as u32,
            assoc: 16,
            hit_latency: 35,
        }
    }

    fn n_sets(&self) -> u32 {
        (self.size_bytes / LINE_BYTES / self.assoc).max(1)
    }
}

/// MESI stable states; Invalid is represented by absence from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    Modified,
    Exclusive,
    Shared,
}

/// What a cache line holds.
///
/// `Compressed` lines are the paper's compressed version-block lines: eight
/// `(data, version-offset, lock-offset)` entries for one O-structure. They
/// share the L1's sets and ways with ordinary data lines ("caches that are
/// at least two-way associative can store both compressed and uncompressed
/// versions of an O-structure at the same time"). Their tag is the physical
/// address of the O-structure's root word, which uniquely identifies the
/// version-block list; the entries live in the cache's payload slab, in the
/// [`CompressedLine`] the line's slot indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Data,
    Compressed,
}

/// Metadata for one resident cache line.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Line-aligned physical address for `Data`; root word physical address
    /// for `Compressed`.
    pub tag: u32,
    pub kind: LineKind,
    pub state: Mesi,
    /// A `Compressed` line's index into the payload slab, held in what
    /// would otherwise be padding.
    slot: u16,
}

const _: () = assert!(std::mem::size_of::<Line>() == 8);

/// A set-associative, LRU, write-back cache holding line metadata, plus
/// a slab with the payload of each resident compressed line.
///
/// Each set's `Vec` is kept in recency order — coldest line at the front,
/// hottest at the back — so the eviction victim is simply the front element
/// and no per-line timestamp scan is needed.
pub struct Cache {
    cfg: CacheCfg,
    n_sets: u32,
    /// `n_sets`' fastmod multiplier, `2^64 / n_sets` rounded up (wrapping
    /// to 0 for one set): see [`Cache::set_of_kind`].
    set_mul: u64,
    sets: Vec<Vec<Line>>,
    /// Compressed-line payloads, indexed by `Line::slot`. A fill takes a
    /// slot and every departure gives it back to `free_slots`, so the slab
    /// never outgrows the cache's line count.
    payloads: Vec<CompressedLine>,
    free_slots: Vec<u16>,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheCfg) -> Self {
        let n_sets = cfg.n_sets();
        Cache {
            cfg,
            n_sets,
            set_mul: (u64::MAX / u64::from(n_sets)).wrapping_add(1),
            sets: (0..n_sets).map(|_| Vec::new()).collect(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Set index. Data lines index by line address; compressed lines index
    /// by their root *word* (O-structure identity), spreading structures
    /// whose root words share a line across sets — hardware indexes these
    /// by the version-block list's location, which is similarly spread.
    ///
    /// The index is `idx % n_sets`, computed without a divide by Lemire's
    /// fastmod (exact for every `u32` index and divisor): the low 64 bits
    /// of `set_mul * idx` are the fraction `idx / n_sets`, and scaling that
    /// fraction by `n_sets` leaves the remainder in the high 64 bits.
    #[inline]
    fn set_of_kind(&self, tag: u32, kind: LineKind) -> usize {
        let idx = match kind {
            LineKind::Data => tag / LINE_BYTES,
            LineKind::Compressed => tag / 4,
        };
        self.set_index(idx)
    }

    /// `idx % n_sets`.
    #[inline]
    fn set_index(&self, idx: u32) -> usize {
        let frac = self.set_mul.wrapping_mul(u64::from(idx));
        ((u128::from(frac) * u128::from(self.n_sets)) >> 64) as usize
    }

    /// Looks a line up and refreshes its LRU position. The caller may
    /// change the line's state in place.
    pub fn probe(&mut self, tag: u32, kind: LineKind) -> Option<&mut Mesi> {
        self.probe_line(tag, kind).map(|l| &mut l.state)
    }

    #[inline]
    fn probe_line(&mut self, tag: u32, kind: LineKind) -> Option<&mut Line> {
        let set = self.set_of_kind(tag, kind);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.tag == tag && l.kind == kind)?;
        // Move to the back: most recently used.
        lines[idx..].rotate_left(1);
        lines.last_mut()
    }

    /// Looks a line up without touching LRU state (used by coherence
    /// snoops, which must not perturb replacement decisions).
    pub fn peek(&self, tag: u32, kind: LineKind) -> Option<&Line> {
        let set = self.set_of_kind(tag, kind);
        self.sets[set]
            .iter()
            .find(|l| l.tag == tag && l.kind == kind)
    }

    /// Changes the MESI state of a resident line. Panics if absent.
    pub fn set_state(&mut self, tag: u32, kind: LineKind, state: Mesi) {
        let set = self.set_of_kind(tag, kind);
        match self.sets[set]
            .iter_mut()
            .find(|l| l.tag == tag && l.kind == kind)
        {
            Some(line) => line.state = state,
            None => panic!("set_state on absent line"),
        }
    }

    /// Inserts a line, evicting the LRU victim of its set if full.
    /// Returns the victim, if any.
    ///
    /// If the line is already resident its state is updated in place.
    pub fn fill(&mut self, tag: u32, kind: LineKind, state: Mesi) -> Option<Line> {
        self.fill_slot(tag, kind, state).1
    }

    /// [`Cache::fill`], also returning whether the line was inserted and
    /// its payload slot. A compressed line's payload starts empty and a
    /// compressed victim's slot is freed. Inlined so that a data fill stays
    /// a single call, as it was before the slab (a measured miss-path cost).
    #[inline]
    pub(crate) fn fill_slot(
        &mut self,
        tag: u32,
        kind: LineKind,
        state: Mesi,
    ) -> (bool, Option<Line>, u16) {
        let set = self.set_of_kind(tag, kind);
        let ways = self.cfg.assoc as usize;
        let lines = &mut self.sets[set];
        if let Some(idx) = lines.iter().position(|l| l.tag == tag && l.kind == kind) {
            lines[idx].state = state;
            lines[idx..].rotate_left(1);
            return (false, None, lines[lines.len() - 1].slot);
        }
        // The front of the recency order is the LRU victim.
        let victim = (lines.len() >= ways).then(|| lines.remove(0));
        if let Some(v) = victim.filter(|v| v.kind == LineKind::Compressed) {
            self.free_slots.push(v.slot);
        }
        let slot = if kind == LineKind::Data {
            0
        } else if let Some(slot) = self.free_slots.pop() {
            self.payloads[usize::from(slot)] = CompressedLine::new();
            slot
        } else {
            self.payloads.push(CompressedLine::new());
            match u16::try_from(self.payloads.len() - 1) {
                Ok(slot) => slot,
                Err(_) => unreachable!("a cache holding compressed lines has < 2^16 lines"),
            }
        };
        lines.push(Line {
            tag,
            kind,
            state,
            slot,
        });
        (true, victim, slot)
    }

    /// Removes a line, freeing its payload, and returns it if it was
    /// resident.
    pub fn invalidate(&mut self, tag: u32, kind: LineKind) -> Option<Line> {
        let set = self.set_of_kind(tag, kind);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.tag == tag && l.kind == kind)?;
        // `remove`, not `swap_remove`: the order of the survivors *is* the
        // LRU order now.
        let line = lines.remove(idx);
        if kind == LineKind::Compressed {
            self.free_slots.push(line.slot);
        }
        Some(line)
    }

    /// Number of resident lines (all sets, both kinds).
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The payload of the compressed line tagged `root`, refreshing the
    /// line's LRU position.
    pub(crate) fn compressed_probe(&mut self, root: u32) -> Option<&mut CompressedLine> {
        let slot = self.probe_line(root, LineKind::Compressed)?.slot;
        Some(self.payload(slot))
    }

    /// [`Cache::compressed_probe`] without touching LRU state.
    pub(crate) fn compressed_peek(&mut self, root: u32) -> Option<&mut CompressedLine> {
        let slot = self.peek(root, LineKind::Compressed)?.slot;
        Some(self.payload(slot))
    }

    /// The payload in `slot` (from [`Cache::fill_slot`]).
    pub(crate) fn payload(&mut self, slot: u16) -> &mut CompressedLine {
        &mut self.payloads[usize::from(slot)]
    }

    /// Empties every resident payload `stale` picks, keeping its line.
    pub(crate) fn compressed_purge(&mut self, mut stale: impl FnMut(&CompressedLine) -> bool) {
        let lines = self.sets.iter().flatten();
        for line in lines.filter(|l| l.kind == LineKind::Compressed) {
            let payload = &mut self.payloads[usize::from(line.slot)];
            if stale(payload) {
                *payload = CompressedLine::new();
            }
        }
    }

    /// Payload slots allocated so far: the most compressed lines this
    /// cache has held at once.
    pub fn slab_len(&self) -> usize {
        self.payloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CEntry;

    fn tiny() -> Cache {
        // 2 sets x 2 ways of 64 B lines.
        Cache::new(CacheCfg {
            size_bytes: 256,
            assoc: 2,
            hit_latency: 4,
        })
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = tiny();
        assert!(c.probe(0x0, LineKind::Data).is_none());
        assert!(c.fill(0x0, LineKind::Data, Mesi::Exclusive).is_none());
        assert_eq!(c.probe(0x0, LineKind::Data).copied(), Some(Mesi::Exclusive));
    }

    #[test]
    fn lru_eviction_picks_coldest() {
        let mut c = tiny();
        // Set 0 holds lines whose (addr/64) is even: 0x0, 0x80, 0x100...
        c.fill(0x000, LineKind::Data, Mesi::Shared);
        c.fill(0x080, LineKind::Data, Mesi::Shared);
        c.probe(0x000, LineKind::Data); // make 0x0 the hottest
        let victim = c.fill(0x100, LineKind::Data, Mesi::Shared).unwrap();
        assert_eq!(victim.tag, 0x080);
        assert_eq!(
            c.peek(0x000, LineKind::Data).map(|l| l.state),
            Some(Mesi::Shared)
        );
        assert_eq!(
            c.peek(0x100, LineKind::Data).map(|l| l.state),
            Some(Mesi::Shared)
        );
    }

    #[test]
    fn data_and_compressed_with_same_tag_coexist() {
        let mut c = tiny();
        c.fill(0x40, LineKind::Data, Mesi::Modified);
        c.fill(0x40, LineKind::Compressed, Mesi::Exclusive);
        assert_eq!(
            c.peek(0x40, LineKind::Data).map(|l| l.state),
            Some(Mesi::Modified)
        );
        assert_eq!(
            c.peek(0x40, LineKind::Compressed).map(|l| l.state),
            Some(Mesi::Exclusive)
        );
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn refill_updates_state_in_place() {
        let mut c = tiny();
        c.fill(0x0, LineKind::Data, Mesi::Shared);
        assert!(c.fill(0x0, LineKind::Data, Mesi::Modified).is_none());
        assert_eq!(
            c.peek(0x0, LineKind::Data).map(|l| l.state),
            Some(Mesi::Modified)
        );
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(0x0, LineKind::Data, Mesi::Shared);
        let line = c.invalidate(0x0, LineKind::Data).unwrap();
        assert_eq!(line.tag, 0x0);
        assert!(c.probe(0x0, LineKind::Data).is_none());
        assert!(c.invalidate(0x0, LineKind::Data).is_none());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = tiny();
        c.fill(0x000, LineKind::Data, Mesi::Shared);
        c.fill(0x080, LineKind::Data, Mesi::Shared);
        c.peek(0x000, LineKind::Data); // must not refresh 0x000
        let victim = c.fill(0x100, LineKind::Data, Mesi::Shared).unwrap();
        assert_eq!(victim.tag, 0x000);
    }

    fn compressed_fill(c: &mut Cache, root: u32) -> (bool, Option<Line>, &mut CompressedLine) {
        let (inserted, victim, slot) = c.fill_slot(root, LineKind::Compressed, Mesi::Exclusive);
        (inserted, victim, c.payload(slot))
    }

    fn entry(version: u32) -> CEntry {
        CEntry {
            version,
            locked_by: 0,
            data: version,
            block_pa: 0,
        }
    }

    #[test]
    fn compressed_payload_lives_and_dies_with_its_line() {
        let mut c = tiny();
        let (inserted, victim, line) = compressed_fill(&mut c, 0x0);
        assert!(inserted && victim.is_none());
        assert!(line.insert(entry(3)));
        // A refresh keeps the payload; a peek sees it without LRU effects.
        let (inserted, _, line) = compressed_fill(&mut c, 0x0);
        assert!(!inserted);
        assert!(line.get(3).is_some());
        assert!(c.compressed_peek(0x0).unwrap().get(3).is_some());
        // Invalidation frees the payload; a refill starts empty in the
        // recycled slot.
        assert!(c.invalidate(0x0, LineKind::Compressed).is_some());
        assert!(c.compressed_probe(0x0).is_none());
        assert!(compressed_fill(&mut c, 0x0).2.is_empty());
        assert_eq!(c.slab_len(), 1);
    }

    #[test]
    fn evicted_compressed_line_frees_its_slot() {
        let mut c = tiny();
        // Roots 0x0, 0x8 and 0x10 share set 0 (root word / 4 is even).
        compressed_fill(&mut c, 0x0).2.insert(entry(1));
        compressed_fill(&mut c, 0x8).2.insert(entry(2));
        let victim = compressed_fill(&mut c, 0x10).1.unwrap();
        assert_eq!(victim.tag, 0x0);
        assert!(c.compressed_peek(0x0).is_none());
        assert!(c.compressed_peek(0x10).unwrap().is_empty());
        assert_eq!(c.slab_len(), 2, "the victim's slot was reused");
        // A data fill evicting a compressed line frees it too.
        c.fill(0x0, LineKind::Data, Mesi::Shared);
        assert!(c.compressed_peek(0x8).is_none());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn purge_empties_the_payload_but_keeps_the_line() {
        let mut c = tiny();
        compressed_fill(&mut c, 0x0).2.insert(entry(1));
        compressed_fill(&mut c, 0x4).2.insert(entry(2));
        c.compressed_purge(|l| l.get(1).is_some());
        assert!(c.compressed_probe(0x0).unwrap().is_empty());
        assert!(c.compressed_probe(0x4).unwrap().get(2).is_some());
    }

    #[test]
    fn set_index_is_the_remainder_for_every_built_geometry() {
        let mut cfgs: Vec<CacheCfg> = (8..=128).map(CacheCfg::l1_sized).collect();
        cfgs.extend((1..=64).map(CacheCfg::l2_paper));
        // The 4-set L2 of the coherence tests, and a single set.
        for (size_bytes, assoc) in [(4096, 16), (256, 4)] {
            cfgs.push(CacheCfg {
                size_bytes,
                assoc,
                hit_latency: 1,
            });
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for cfg in cfgs {
            let c = Cache::new(cfg);
            let n = c.n_sets;
            let mut idxs = vec![0, 1, n - 1, n, n + 1, 2 * n - 1, u32::MAX - 1, u32::MAX];
            for _ in 0..512 {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                idxs.push(x as u32);
            }
            for idx in idxs {
                assert_eq!(c.set_index(idx), (idx % n) as usize, "{n} sets, idx {idx}");
            }
        }
    }

    #[test]
    fn paper_l1_geometry() {
        let cfg = CacheCfg::l1_paper();
        assert_eq!(cfg.n_sets(), 64); // 32 KiB / 64 B / 8 ways
        assert_eq!(CacheCfg::l2_paper(32).size_bytes, 48 * 1024 * 1024);
    }
}
