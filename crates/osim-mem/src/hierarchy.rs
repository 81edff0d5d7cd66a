//! The cache hierarchy: per-core L1s, shared inclusive L2, DRAM, and
//! invalidation-based coherence.

use crate::cache::{Cache, CacheCfg, Line, LineKind, Mesi};
use crate::compressed::CompressedLine;
use crate::events::{EventLog, MemEvent, MemEventKind};
use crate::line_of;
use crate::pagedir::{PageDir, Vacancy};
use crate::stats::{MemHists, MemStats};

/// Which L1s hold a copy of one line, as a core bitmask, which of those
/// hold it Exclusive or Modified, and the single core (if any) holding it
/// Modified. A pure host-side acceleration structure: it mirrors the
/// per-core caches exactly so coherence actions visit only the cores they
/// change instead of scanning every core.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: u64,
    /// The sharers in E or M: the only ones a read miss must demote.
    excl: u64,
    /// The Modified holder; a `u8` (cores <= 64) keeps the entry at 24
    /// bytes with `excl` added.
    dirty: Option<u8>,
}

const _: () = assert!(std::mem::size_of::<DirEntry>() == 24);

impl Vacancy for DirEntry {
    fn is_vacant(&self) -> bool {
        self.sharers == 0
    }
}

impl DirEntry {
    /// Records `core`'s copy (a sharer) as now being in `state`.
    fn set_state(&mut self, core: usize, state: Mesi) {
        if state == Mesi::Shared {
            self.excl &= !(1 << core);
        } else {
            self.excl |= 1 << core;
        }
        if state == Mesi::Modified {
            self.dirty = Some(core as u8);
        } else if self.dirty == Some(core as u8) {
            self.dirty = None;
        }
    }
}

/// Which L1s hold the compressed line of one O-structure, and which cores
/// lost theirs to another core's mutation since they last asked.
#[derive(Debug, Clone, Copy, Default)]
struct CompEntry {
    sharers: u64,
    /// Coherence-loss marks, consumed by [`Hierarchy::compressed_take_lost`].
    lost: u64,
}

impl Vacancy for CompEntry {
    fn is_vacant(&self) -> bool {
        self.sharers | self.lost == 0
    }
}

/// Data lines per page: one [`DirEntry`] each.
const LINES_PER_PAGE: usize = (crate::PAGE_SIZE / crate::LINE_BYTES) as usize;
/// Root words per page: one [`CompEntry`] each.
const WORDS_PER_PAGE: usize = (crate::PAGE_SIZE / 4) as usize;

/// Calls `f` for each set bit of `mask`, in ascending core order — the
/// same order the previous `0..cores` scans visited cores in.
fn for_each_core(mask: u64, mut f: impl FnMut(usize)) {
    let mut m = mask;
    while m != 0 {
        let c = m.trailing_zeros() as usize;
        f(c);
        m &= m - 1;
    }
}

/// Full hierarchy configuration.
#[derive(Debug, Clone)]
pub struct HierarchyCfg {
    /// Number of cores (each gets a private L1 D-cache).
    pub cores: usize,
    /// L1 geometry/latency.
    pub l1: CacheCfg,
    /// Shared L2 geometry/latency. The paper scales L2 capacity with the
    /// core count (1.5 MB × #cores); use [`CacheCfg::l2_paper`].
    pub l2: CacheCfg,
    /// DRAM access latency in cycles (60 ns at 2 GHz = 120 cycles).
    pub dram_latency: u64,
}

impl HierarchyCfg {
    /// The configuration of Table II for `cores` cores.
    pub fn paper(cores: usize) -> Self {
        HierarchyCfg {
            cores,
            l1: CacheCfg::l1_paper(),
            l2: CacheCfg::l2_paper(cores),
            dram_latency: 120,
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Local L1 hit.
    L1,
    /// Dirty data forwarded from another core's L1.
    RemoteL1,
    /// Shared L2 hit.
    L2,
    /// Main memory.
    Dram,
}

/// Kind of demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Read,
    /// Demand store (requires exclusive ownership).
    Write,
    /// Load that must not allocate in the local L1 — used for the
    /// intermediate blocks of a version-list walk ("to avoid cache
    /// pollution, only the block that holds the requested version is
    /// inserted into the cache"). Still allocates in the shared L2.
    ReadNoAlloc,
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Latency in cycles.
    pub latency: u64,
    /// Level that satisfied the access.
    pub level: Level,
}

/// Per-core L1s over a shared inclusive L2 over DRAM.
pub struct Hierarchy {
    cfg: HierarchyCfg,
    l1s: Vec<Cache>,
    l2: Cache,
    /// Counters; `reset` between warm-up and measurement phases.
    pub stats: MemStats,
    /// Latency distributions; `reset` alongside [`Hierarchy::stats`].
    pub hists: MemHists,
    /// Observable event stream (disabled by default; enable by replacing
    /// with [`EventLog::with_capacity`]). Observation-only: logging never
    /// changes access latencies.
    pub events: EventLog<MemEvent>,
    /// Simulated cycle stamped onto events; the hierarchy has no clock of
    /// its own, so issuing cores publish theirs via [`Hierarchy::set_clock`].
    clock: u64,
    /// L1 presence directory for data lines, keyed by line address.
    data_dir: PageDir<DirEntry, LINES_PER_PAGE>,
    /// L1 presence directory for compressed lines, keyed by root word PA.
    /// An entry lives while it has a sharer or a loss mark.
    comp_dir: PageDir<CompEntry, WORDS_PER_PAGE>,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyCfg) -> Self {
        assert!(
            cfg.cores <= 64,
            "the L1 presence directory packs sharers into a u64 core mask"
        );
        let l1s: Vec<Cache> = (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect();
        let l2 = Cache::new(cfg.l2);
        let stats = MemStats::new(cfg.cores);
        Hierarchy {
            cfg,
            l1s,
            l2,
            stats,
            hists: MemHists::default(),
            events: EventLog::disabled(),
            clock: 0,
            data_dir: PageDir::default(),
            comp_dir: PageDir::default(),
        }
    }

    /// Records that `core`'s L1 now holds `line` (data) in `state`. Any
    /// victim the fill evicted must be removed separately via
    /// [`Hierarchy::dir_remove_victim`].
    fn dir_add_data(&mut self, core: usize, line: u32, state: Mesi) {
        let e = self.data_dir.entry(line);
        e.sharers |= 1 << core;
        e.set_state(core, state);
    }

    /// Removes `core` from the directory entry of an evicted/invalidated
    /// line (either kind).
    #[inline]
    fn dir_remove_victim(&mut self, core: usize, victim: &Line) {
        match victim.kind {
            LineKind::Data => self.dir_remove_data(core, victim.tag),
            LineKind::Compressed => self.dir_remove_comp(core, victim.tag),
        }
    }

    fn dir_remove_data(&mut self, core: usize, line: u32) {
        if let Some(e) = self.data_dir.get_mut(line) {
            e.sharers &= !(1 << core);
            e.excl &= !(1 << core);
            if e.dirty == Some(core as u8) {
                e.dirty = None;
            }
            if e.is_vacant() {
                self.data_dir.remove(line);
            }
        }
    }

    fn dir_set_state_data(&mut self, core: usize, line: u32, state: Mesi) {
        if let Some(e) = self.data_dir.get_mut(line) {
            e.set_state(core, state);
        }
    }

    fn dir_add_comp(&mut self, core: usize, root_pa: u32) {
        self.comp_dir.entry(root_pa).sharers |= 1 << core;
    }

    fn dir_remove_comp(&mut self, core: usize, root_pa: u32) {
        if let Some(e) = self.comp_dir.get_mut(root_pa) {
            e.sharers &= !(1 << core);
            if e.is_vacant() {
                self.comp_dir.remove(root_pa);
            }
        }
    }

    /// Sharer mask of a data line, excluding `core`.
    fn data_sharers_except(&self, core: usize, line: u32) -> u64 {
        self.data_dir
            .get(line)
            .map_or(0, |e| e.sharers & !(1 << core))
    }

    /// The configuration this hierarchy was built with.
    pub fn cfg(&self) -> &HierarchyCfg {
        &self.cfg
    }

    /// Publishes the current simulated cycle for event timestamps.
    pub fn set_clock(&mut self, cycle: u64) {
        self.clock = cycle;
    }

    /// The most recently published simulated cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Performs a demand access by `core` to physical address `pa`.
    ///
    /// Updates MESI state, fills/evicts lines and returns the latency. The
    /// access is for a *data* line; compressed O-structure lines have their
    /// own entry points below.
    pub fn access(&mut self, core: usize, pa: u32, kind: AccessKind) -> AccessResult {
        let line = line_of(pa);
        let is_write = kind == AccessKind::Write;

        if let Some(st) = self.l1s[core].probe(line, LineKind::Data) {
            // L1 hit. A write takes ownership in the same set scan.
            let state = *st;
            if is_write {
                *st = Mesi::Modified;
                self.stats.l1_write_hits[core] += 1;
                if state == Mesi::Shared {
                    // Upgrade: invalidate every other copy.
                    self.stats.upgrades += 1;
                    self.invalidate_others(core, line);
                }
                if state != Mesi::Modified {
                    // A Modified line is already this core's dirty copy.
                    self.dir_set_state_data(core, line, Mesi::Modified);
                }
            } else {
                self.stats.l1_read_hits[core] += 1;
            }
            if is_write && state == Mesi::Shared {
                self.hists.coherence_delay.record(self.cfg.l1.hit_latency);
            }
            self.events.push(MemEvent {
                cycle: self.clock,
                core,
                pa,
                kind: MemEventKind::Access {
                    kind,
                    level: Level::L1,
                    latency: self.cfg.l1.hit_latency,
                },
            });
            return AccessResult {
                latency: self.cfg.l1.hit_latency,
                level: Level::L1,
            };
        }

        // L1 miss.
        if is_write {
            self.stats.l1_write_misses[core] += 1;
        } else {
            self.stats.l1_read_misses[core] += 1;
        }

        // Snoop for a dirty copy — the directory knows the (unique) owner.
        // This one lookup serves the whole miss: nothing below changes the
        // line's sharers before a read's fill, and a write's fill needs none.
        let entry = self.data_dir.get(line).copied().unwrap_or_default();
        let others = entry.sharers & !(1 << core);
        let dirty_owner = entry.dirty.map(usize::from).filter(|&c| c != core);

        let (level, latency) = if let Some(owner) = dirty_owner {
            // Cache-to-cache forward; the paper notes LLC and remote-L1
            // latencies are comparable, so we charge the L2 hit latency.
            self.stats.remote_forwards += 1;
            // Write the dirty data back into the L2 (stays inclusive).
            if let Some(victim) = self.l2.fill(line, LineKind::Data, Mesi::Modified) {
                self.push_l2_evict(core, &victim);
            }
            if is_write {
                self.l1s[owner].invalidate(line, LineKind::Data);
                self.dir_remove_data(owner, line);
                self.stats.invalidations += 1;
            } else {
                self.l1s[owner].set_state(line, LineKind::Data, Mesi::Shared);
                self.dir_set_state_data(owner, line, Mesi::Shared);
            }
            (Level::RemoteL1, self.cfg.l2.hit_latency)
        } else if self.l2.probe(line, LineKind::Data).is_some() {
            if is_write {
                if others != 0 {
                    self.hists.coherence_delay.record(self.cfg.l2.hit_latency);
                }
                self.invalidate_others(core, line);
            }
            (Level::L2, self.cfg.l2.hit_latency)
        } else {
            // DRAM fill; allocate in L2 (inclusive).
            self.stats.l2_misses += 1;
            if let Some(victim) = self.l2.fill(line, LineKind::Data, Mesi::Exclusive) {
                self.push_l2_evict(core, &victim);
                self.back_invalidate(victim.tag);
            }
            (Level::Dram, self.cfg.dram_latency)
        };
        if level == Level::L2 {
            self.stats.l2_hits += 1;
        }
        self.hists.l2_access.record(latency);
        if level == Level::RemoteL1 {
            self.hists.coherence_delay.record(latency);
        }

        // Fill the local L1 unless the caller asked not to pollute it.
        if kind != AccessKind::ReadNoAlloc {
            let state = if is_write {
                Mesi::Modified
            } else if others != 0 {
                Mesi::Shared
            } else {
                Mesi::Exclusive
            };
            // Keep peers coherent: a read next to sharers demotes every
            // E/M holder (the rest are already Shared).
            if state == Mesi::Shared {
                for_each_core(others & entry.excl, |c| {
                    self.l1s[c].set_state(line, LineKind::Data, Mesi::Shared);
                    self.dir_set_state_data(c, line, Mesi::Shared);
                });
            }
            self.fill_l1(core, line, state);
        }

        self.events.push(MemEvent {
            cycle: self.clock,
            core,
            pa,
            kind: MemEventKind::Access {
                kind,
                level,
                latency,
            },
        });
        AccessResult { latency, level }
    }

    /// Installs the line containing `pa` into `core`'s L1 without charging
    /// latency or demand-access statistics.
    ///
    /// Used for the version block that *matched* during a full list walk:
    /// the walk already paid for fetching it (as a no-allocate read), and
    /// the paper's pollution rule says exactly this one block is then
    /// inserted into the cache.
    pub fn fill_local(&mut self, core: usize, pa: u32) {
        let line = line_of(pa);
        if self.l1s[core].peek(line, LineKind::Data).is_some() {
            return;
        }
        let others_share = self.data_sharers_except(core, line) != 0;
        let state = if others_share {
            Mesi::Shared
        } else {
            Mesi::Exclusive
        };
        self.fill_l1(core, line, state);
    }

    /// Fills `core`'s L1 with a data line and keeps the directory in step.
    /// The cache frees an evicted compressed line's payload itself.
    fn fill_l1(&mut self, core: usize, line: u32, state: Mesi) {
        if let Some(victim) = self.l1s[core].fill(line, LineKind::Data, state) {
            self.dir_remove_victim(core, &victim);
        }
        self.dir_add_data(core, line, state);
    }

    /// Records an L2 fill victim (observation only; never changes timing).
    fn push_l2_evict(&mut self, core: usize, victim: &Line) {
        self.events.push(MemEvent {
            cycle: self.clock,
            core,
            pa: victim.tag,
            kind: MemEventKind::L2Evict {
                dirty: victim.state == Mesi::Modified,
            },
        });
    }

    /// Invalidates every remote L1 copy of `line` (write upgrade / RFO).
    fn invalidate_others(&mut self, core: usize, line: u32) {
        let others = self.data_sharers_except(core, line);
        for_each_core(others, |c| {
            if self.l1s[c].invalidate(line, LineKind::Data).is_some() {
                self.stats.invalidations += 1;
            }
            self.dir_remove_data(c, line);
        });
    }

    /// Enforces inclusion: when the L2 evicts a line, every L1 copy goes too.
    /// Compressed lines are not L2-backed, so this never drops one.
    fn back_invalidate(&mut self, line: u32) {
        let mask = self.data_dir.get(line).map_or(0, |e| e.sharers);
        for_each_core(mask, |c| {
            if self.l1s[c].invalidate(line, LineKind::Data).is_some() {
                self.stats.back_invalidations += 1;
            }
            self.dir_remove_data(c, line);
        });
    }

    // ------------------------------------------------------------------
    // Compressed O-structure lines (§III-A). Tagged by the physical address
    // of the O-structure's root word; each payload lives in its core's L1
    // slab beside the slot.
    // ------------------------------------------------------------------

    /// Probes `core`'s L1 for the compressed line of the O-structure rooted
    /// at `root_pa`, counting the hit or miss. On a hit, returns the line's
    /// payload (empty if a collection purged it).
    pub fn compressed_probe(&mut self, core: usize, root_pa: u32) -> Option<&mut CompressedLine> {
        let line = self.l1s[core].compressed_probe(root_pa);
        if line.is_some() {
            self.stats.compressed_hits += 1;
        } else {
            self.stats.compressed_misses += 1;
        }
        line
    }

    /// The payload of `core`'s compressed line for `root_pa`, if resident,
    /// without touching LRU state or statistics.
    pub fn compressed_peek(&mut self, core: usize, root_pa: u32) -> Option<&mut CompressedLine> {
        self.l1s[core].compressed_peek(root_pa)
    }

    /// Allocates (or refreshes) the compressed line for `root_pa` in
    /// `core`'s L1 and returns its payload: empty for a fresh line, kept
    /// for a refreshed one.
    pub fn compressed_fill(&mut self, core: usize, root_pa: u32) -> &mut CompressedLine {
        let (inserted, victim, slot) =
            self.l1s[core].fill_slot(root_pa, LineKind::Compressed, Mesi::Exclusive);
        if let Some(victim) = victim {
            self.dir_remove_victim(core, &victim);
        }
        if inserted {
            self.dir_add_comp(core, root_pa);
        }
        self.l1s[core].payload(slot)
    }

    /// Drops `core`'s own compressed line for `root_pa`, if resident.
    pub fn compressed_drop(&mut self, core: usize, root_pa: u32) -> bool {
        let hit = self.l1s[core]
            .invalidate(root_pa, LineKind::Compressed)
            .is_some();
        if hit {
            self.dir_remove_comp(core, root_pa);
        }
        hit
    }

    /// Coherence broadcast: a version store/lock/unlock by `core` modified
    /// the O-structure rooted at `root_pa`, so every *other* core's
    /// compressed line for it is discarded (the paper's "simplest course of
    /// action") and marked lost. Returns the mask of cores whose line was
    /// dropped.
    pub fn compressed_invalidate_others(&mut self, core: usize, root_pa: u32) -> u64 {
        let Some(e) = self.comp_dir.get_mut(root_pa) else {
            return 0;
        };
        let dropped = e.sharers & !(1u64 << core);
        e.sharers &= !dropped;
        e.lost |= dropped;
        for_each_core(dropped, |c| {
            let was = self.l1s[c].invalidate(root_pa, LineKind::Compressed);
            debug_assert!(was.is_some(), "directory mirrors the L1s");
            self.stats.compressed_coherence_drops += 1;
            self.events.push(MemEvent {
                cycle: self.clock,
                core: c,
                pa: root_pa,
                kind: MemEventKind::CompressedCoherenceDrop,
            });
        });
        dropped
    }

    /// Consumes `core`'s coherence-loss mark for `root_pa`: true exactly
    /// once after another core's mutation discarded this core's compressed
    /// line. The mark survives the core caching the structure again.
    pub fn compressed_take_lost(&mut self, core: usize, root_pa: u32) -> bool {
        let Some(e) = self.comp_dir.get_mut(root_pa) else {
            return false;
        };
        let marked = e.lost & (1 << core) != 0;
        e.lost &= !(1 << core);
        if e.is_vacant() {
            self.comp_dir.remove(root_pa);
        }
        marked
    }

    /// Drops every core's compressed line for `root_pa` and discards its
    /// loss marks (the structure was released, not mutated).
    pub fn compressed_release(&mut self, root_pa: u32) {
        if let Some(&e) = self.comp_dir.get(root_pa) {
            self.comp_dir.remove(root_pa);
            for_each_core(e.sharers, |c| {
                self.l1s[c].invalidate(root_pa, LineKind::Compressed);
            });
        }
    }

    /// Empties, on every core, each compressed payload `stale` picks,
    /// keeping its L1 slot: the line still hits but answers nothing.
    pub fn compressed_purge(&mut self, mut stale: impl FnMut(&CompressedLine) -> bool) {
        for l1 in &mut self.l1s {
            l1.compressed_purge(&mut stale);
        }
    }

    /// `core`'s L1 (inspection only).
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1s[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier(cores: usize) -> Hierarchy {
        Hierarchy::new(HierarchyCfg::paper(cores))
    }

    #[test]
    fn cold_read_goes_to_dram_then_hits_l1() {
        let mut h = hier(2);
        let r = h.access(0, 0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::Dram);
        assert_eq!(r.latency, 120);
        let r = h.access(0, 0x1004, AccessKind::Read); // same line
        assert_eq!(r.level, Level::L1);
        assert_eq!(r.latency, 4);
        assert_eq!(h.stats.l1_read_hits[0], 1);
        assert_eq!(h.stats.l1_read_misses[0], 1);
    }

    #[test]
    fn second_core_hits_shared_l2() {
        let mut h = hier(2);
        h.access(0, 0x1000, AccessKind::Read);
        let r = h.access(1, 0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::L2);
        assert_eq!(r.latency, 35);
    }

    #[test]
    fn dirty_remote_line_is_forwarded() {
        let mut h = hier(2);
        h.access(0, 0x1000, AccessKind::Read);
        h.access(0, 0x1000, AccessKind::Write); // E -> M locally
        let r = h.access(1, 0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::RemoteL1);
        assert_eq!(h.stats.remote_forwards, 1);
        // Both ends are now Shared; a write by core 1 must invalidate core 0.
        let r = h.access(1, 0x1000, AccessKind::Write);
        assert_eq!(r.level, Level::L1);
        assert!(h.stats.upgrades >= 1);
        assert!(h.stats.invalidations >= 1);
        // Core 0 lost its copy.
        let r = h.access(0, 0x1000, AccessKind::Read);
        assert_ne!(r.level, Level::L1);
    }

    #[test]
    fn write_miss_invalidates_remote_dirty_owner() {
        let mut h = hier(2);
        h.access(0, 0x2000, AccessKind::Write); // core 0 owns dirty
        let r = h.access(1, 0x2000, AccessKind::Write);
        assert_eq!(r.level, Level::RemoteL1);
        assert_eq!(h.stats.invalidations, 1);
        // Core 1 now owns it exclusively.
        let r = h.access(1, 0x2000, AccessKind::Write);
        assert_eq!(r.level, Level::L1);
    }

    #[test]
    fn read_no_alloc_skips_l1() {
        let mut h = hier(1);
        let r = h.access(0, 0x3000, AccessKind::ReadNoAlloc);
        assert_eq!(r.level, Level::Dram);
        // Not in L1: the next read hits L2 (which was filled), not L1.
        let r = h.access(0, 0x3000, AccessKind::Read);
        assert_eq!(r.level, Level::L2);
        let r = h.access(0, 0x3000, AccessKind::Read);
        assert_eq!(r.level, Level::L1);
    }

    #[test]
    fn l1_capacity_eviction() {
        // 32 KB, 8-way, 64 sets: 9 lines mapping to the same set evict one.
        let mut h = hier(1);
        for i in 0..9u32 {
            // Stride of 64 sets * 64 B = 4096 keeps the set index equal.
            h.access(0, i * 4096, AccessKind::Read);
        }
        let r = h.access(0, 0, AccessKind::Read);
        assert_ne!(r.level, Level::L1, "LRU line must have been evicted");
    }

    #[test]
    fn compressed_lines_probe_fill_drop() {
        let mut h = hier(2);
        let root = 0x4010;
        assert!(h.compressed_probe(0, root).is_none());
        h.compressed_fill(0, root);
        assert!(h.compressed_probe(0, root).is_some());
        // Other cores do not see it.
        assert!(h.compressed_probe(1, root).is_none());
        h.compressed_fill(1, root);
        // A store by core 0 invalidates core 1's copy only, and marks it
        // lost until core 1 asks once.
        let dropped = h.compressed_invalidate_others(0, root);
        assert_eq!(dropped, 1 << 1);
        assert!(h.compressed_probe(0, root).is_some());
        assert!(h.compressed_probe(1, root).is_none());
        assert_eq!(h.stats.compressed_coherence_drops, 1);
        assert!(!h.compressed_take_lost(0, root));
        assert!(h.compressed_take_lost(1, root));
        assert!(!h.compressed_take_lost(1, root));
        // Release drops every copy and every mark.
        h.compressed_fill(1, root);
        h.compressed_invalidate_others(0, root);
        h.compressed_release(root);
        assert!(h.compressed_peek(0, root).is_none());
        assert!(!h.compressed_take_lost(1, root));
    }

    #[test]
    fn compressed_and_data_share_l1_capacity() {
        let mut h = hier(1);
        // Fill one set with 8 data lines, then a compressed fill evicts one.
        for i in 0..8u32 {
            h.access(0, i * 4096, AccessKind::Read);
        }
        h.compressed_fill(0, 0); // maps to set 0 as well
        assert!(
            h.compressed_probe(0, 0).is_some(),
            "compressed line is resident"
        );
        // The victim was the LRU data line (0x0); the hottest one survives.
        let r = h.access(0, 7 * 4096, AccessKind::Read);
        assert_eq!(r.level, Level::L1);
        let r = h.access(0, 0, AccessKind::Read);
        assert_ne!(r.level, Level::L1, "LRU data line was evicted");
    }

    #[test]
    fn event_log_captures_accesses_and_coherence_drops() {
        let mut h = hier(2);
        h.events = EventLog::with_capacity(64);
        h.set_clock(17);
        h.access(0, 0x1000, AccessKind::Read);
        h.set_clock(42);
        h.access(0, 0x1000, AccessKind::Read);
        let events = h.events.records();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 17);
        assert_eq!(events[0].kind_name(), "access_dram");
        assert_eq!(events[1].cycle, 42);
        assert_eq!(events[1].kind_name(), "access_l1");
        // Coherence drops name their victim core.
        h.compressed_fill(1, 0x4000);
        h.compressed_invalidate_others(0, 0x4000);
        let events = h.events.records();
        let drop = events.last().unwrap();
        assert_eq!(drop.kind, MemEventKind::CompressedCoherenceDrop);
        assert_eq!(drop.core, 1);
        assert_eq!(drop.pa, 0x4000);
    }

    #[test]
    fn event_logging_does_not_change_latency() {
        let mut quiet = hier(1);
        let mut loud = hier(1);
        loud.events = EventLog::with_capacity(4);
        for i in 0..32u32 {
            let a = quiet.access(0, i * 256, AccessKind::Read);
            let b = loud.access(0, i * 256, AccessKind::Read);
            assert_eq!(a.latency, b.latency);
        }
    }

    /// Asserts that the data directory is exactly what scanning every L1
    /// would find: sharers, E/M holders and the Modified owner. It holds a
    /// chunk only for pages with a line resident in some L1.
    fn assert_dir_mirrors(h: &Hierarchy, lines: impl Iterator<Item = u32>) {
        let mut resident_pages = Vec::new();
        for line in lines {
            let mut want = DirEntry::default();
            for (c, l1) in h.l1s.iter().enumerate() {
                if let Some(l) = l1.peek(line, LineKind::Data) {
                    want.sharers |= 1 << c;
                    want.set_state(c, l.state);
                }
            }
            if !want.is_vacant() {
                resident_pages.push(line / crate::PAGE_SIZE);
            }
            let got = h.data_dir.get(line).copied();
            assert_eq!(got.is_some(), !want.is_vacant(), "line {line:#x} entry");
            let got = got.unwrap_or_default();
            assert_eq!(
                (got.sharers, got.excl, got.dirty),
                (want.sharers, want.excl, want.dirty),
                "line {line:#x}"
            );
        }
        for page in h.data_dir.held_pages() {
            assert!(
                resident_pages.contains(&page),
                "chunk held for page {page} with no L1-resident line"
            );
        }
    }

    #[test]
    fn directory_mirrors_every_l1() {
        let tiny = |size_bytes, assoc| CacheCfg {
            size_bytes,
            assoc,
            hit_latency: 1,
        };
        // Line `l` of 24 sits on page `l % 3`: a whole-page stride keeps
        // every line in the set it would have had, in both caches.
        let spread = |l: u64| (l as u32 % 3) * crate::PAGE_SIZE + l as u32 * 64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for cores in 2..=8 {
            let mut h = Hierarchy::new(HierarchyCfg {
                cores,
                l1: tiny(512, 2),
                l2: tiny(1024, 4),
                dram_latency: 120,
            });
            for _ in 0..2000 {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let core = (x % cores as u64) as usize;
                let pa = spread((x >> 8) % 24);
                match (x >> 16) % 7 {
                    0..=2 => h.access(core, pa, AccessKind::Read),
                    3 | 4 => h.access(core, pa, AccessKind::Write),
                    5 => h.access(core, pa, AccessKind::ReadNoAlloc),
                    // A walk's matched block: read, then installed.
                    _ => {
                        let r = h.access(core, pa, AccessKind::ReadNoAlloc);
                        h.fill_local(core, pa);
                        r
                    }
                };
                assert_dir_mirrors(&h, (0..24).map(spread));
            }
        }
    }

    #[test]
    fn determinism() {
        let mut a = hier(4);
        let mut b = hier(4);
        let seq: Vec<(usize, u32, AccessKind)> = (0..2000)
            .map(|i| {
                let core = (i * 7) % 4;
                let pa = ((i * 193) % 4096) as u32 * 64;
                let kind = match i % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::ReadNoAlloc,
                };
                (core, pa, kind)
            })
            .collect();
        for &(c, pa, k) in &seq {
            let ra = a.access(c, pa, k);
            let rb = b.access(c, pa, k);
            assert_eq!(ra.latency, rb.latency);
            assert_eq!(ra.level, rb.level);
        }
    }
}
