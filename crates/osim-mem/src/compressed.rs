//! Compressed version-block cache lines (§III-A, "Data compression").
//!
//! Eight version-block entries are packed into one 64-byte L1 line: an
//! 18-bit *version base*, a 4-bit line offset (absorbed here into
//! [`CompressedLine::head_version`] book-keeping) and eight entries of
//! `(32-bit data, 14-bit version offset, 14-bit lock offset)`. The only
//! restriction compression imposes is that all versions and lockers cached
//! in one line fall within a 2^14 window above the base.
//!
//! Each payload lives in the slab of the [`crate::Cache`] holding its
//! line, taken on fill and freed on eviction, invalidation or drop.
//! Versions and lockers are the O-structure layer's task ids (0 means
//! "unlocked").

/// Window covered by one compressed line: versions in `[base, base + 2^14)`.
pub const VERSION_WINDOW: u32 = 1 << 14;

/// One compressed version-block entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CEntry {
    /// Full version id (stored in hardware as a 14-bit offset from the base).
    pub version: u32,
    /// Full locker id, 0 if unlocked (stored as a 14-bit offset).
    pub locked_by: u32,
    /// The datum.
    pub data: u32,
    /// Physical address of the backing version block. Hardware recovers
    /// this from the version-block list; we carry it so lock/unlock hits
    /// can write the right block without a second walk. It does not change
    /// the modeled line size (the paper's entries are 60 bits and we only
    /// ever charge one L1 lookup for a direct access).
    pub block_pa: u32,
}

/// Capacity of a compressed line (8 entries per 64-byte line).
pub const ENTRIES_PER_LINE: usize = 8;

/// Payload of one compressed version-block line, packed into 128 host
/// bytes as a struct of arrays. The first 64 bytes hold everything a
/// lookup reads (base, head, length, recency ranks and the version and
/// lock offsets); the second 64 hold the data and block addresses, read
/// only once a lookup has found its slot.
///
/// Slot `i < len` is live; slots `len..` are always zeroed, so the derived
/// equality compares only live entries. Versions are stored as offsets
/// from `base`, lockers as `locker - base + 1` (0 means unlocked, so a
/// locker equal to `base` stays locked). `rank` is a recency permutation
/// of `0..len`: the LRU victim has rank 0, the most recent slot `len - 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[repr(C, align(128))]
pub struct CompressedLine {
    /// Version base; all entries satisfy `base <= version < base + 2^14`.
    base: u32,
    /// Version at the head of the version-block list, if this line knows it.
    /// Only when the head version is itself cached can a `LOAD-LATEST` be
    /// answered directly (otherwise a newer version might exist in memory).
    head_version: Option<u32>,
    len: u8,
    rank: [u8; ENTRIES_PER_LINE],
    voff: [u16; ENTRIES_PER_LINE],
    loff: [u16; ENTRIES_PER_LINE],
    values: Values,
}

/// The second half of a [`CompressedLine`], parallel to its offsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[repr(C, align(64))]
struct Values {
    data: [u32; ENTRIES_PER_LINE],
    block_pa: [u32; ENTRIES_PER_LINE],
}

const _: () = assert!(std::mem::size_of::<CompressedLine>() == 128);
const _: () = assert!(std::mem::align_of::<CompressedLine>() == 128);
const _: () = assert!(std::mem::offset_of!(CompressedLine, values) == 64);

impl CompressedLine {
    /// An empty line.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, version: u32) -> Option<usize> {
        if !self.fits(version) {
            return None;
        }
        let off = (version - self.base) as u16;
        self.voff[..self.len()].iter().position(|&o| o == off)
    }

    fn entry(&self, i: usize) -> CEntry {
        CEntry {
            version: self.base + u32::from(self.voff[i]),
            locked_by: match self.loff[i] {
                0 => 0,
                off => self.base + u32::from(off) - 1,
            },
            data: self.values.data[i],
            block_pa: self.values.block_pa[i],
        }
    }

    /// Looks up an exact version.
    pub fn get(&self, version: u32) -> Option<CEntry> {
        self.position(version).map(|i| self.entry(i))
    }

    /// Marks `version` most recently used.
    pub fn touch(&mut self, version: u32) {
        if let Some(i) = self.position(version) {
            self.promote(i);
        }
    }

    /// Gives slot `i` the top rank.
    fn promote(&mut self, i: usize) {
        self.close_rank_gap(self.rank[i]);
        self.rank[i] = self.len - 1;
    }

    /// Moves every rank above `r` down one, as when rank `r`'s slot
    /// leaves. Dead slots rank 0 and are never above anything.
    fn close_rank_gap(&mut self, r: u8) {
        for x in &mut self.rank {
            if *x > r {
                *x -= 1;
            }
        }
    }

    /// The version at the list head, if known to this line.
    pub fn head_version(&self) -> Option<u32> {
        self.head_version
    }

    /// Records which version currently heads the list (or forgets it).
    pub fn set_head_version(&mut self, v: Option<u32>) {
        self.head_version = v;
    }

    /// Answers `LOAD-LATEST(cap)` directly if this line can prove the
    /// answer: the head version must be cached here and `head <= cap`
    /// (the head is the globally newest version, so it is the latest one
    /// not exceeding `cap`).
    pub fn latest_capped(&self, cap: u32) -> Option<CEntry> {
        let head = self.head_version?;
        if head <= cap {
            self.get(head)
        } else {
            None
        }
    }

    /// Tries to insert (or update) an entry; fails if the version or locker
    /// cannot be expressed in this line's 2^14 window. The LRU entry is
    /// evicted when all eight slots are full.
    pub fn insert(&mut self, e: CEntry) -> bool {
        if self.is_empty() {
            // An empty line re-bases itself to the incoming version.
            self.base = e.version & !(VERSION_WINDOW - 1);
        }
        if !self.fits(e.version) || (e.locked_by != 0 && !self.fits(e.locked_by)) {
            return false;
        }
        let i = match self.position(e.version) {
            Some(i) => {
                self.promote(i);
                i
            }
            None => {
                if self.len() == ENTRIES_PER_LINE {
                    let Some(victim) = self.rank.iter().position(|&r| r == 0) else {
                        unreachable!("a full line ranks one slot 0");
                    };
                    if self.head_version == Some(self.entry(victim).version) {
                        self.head_version = None;
                    }
                    self.swap_remove(victim);
                }
                let at = self.len();
                self.rank[at] = self.len;
                self.len += 1;
                at
            }
        };
        self.voff[i] = (e.version - self.base) as u16;
        self.loff[i] = self.lock_offset(e.locked_by);
        self.values.data[i] = e.data;
        self.values.block_pa[i] = e.block_pa;
        true
    }

    /// Updates the lock field of a cached version in place. Returns false
    /// if the version is not cached or the locker does not fit the window.
    pub fn set_lock(&mut self, version: u32, locked_by: u32) -> bool {
        if locked_by != 0 && !self.fits(locked_by) {
            return false;
        }
        match self.position(version) {
            Some(i) => {
                self.loff[i] = self.lock_offset(locked_by);
                true
            }
            None => false,
        }
    }

    /// Removes a version from the line (e.g. its block was reclaimed).
    pub fn remove(&mut self, version: u32) {
        if let Some(i) = self.position(version) {
            self.swap_remove(i);
            if self.head_version == Some(version) {
                self.head_version = None;
            }
        }
    }

    /// Moves the last live entry into slot `i` and zeroes the vacated
    /// slot (the order `Vec::swap_remove` leaves), keeping the ranks a
    /// permutation.
    fn swap_remove(&mut self, i: usize) {
        self.close_rank_gap(self.rank[i]);
        let last = self.len() - 1;
        self.rank[i] = self.rank[last];
        self.voff[i] = self.voff[last];
        self.loff[i] = self.loff[last];
        self.values.data[i] = self.values.data[last];
        self.values.block_pa[i] = self.values.block_pa[last];
        self.rank[last] = 0;
        self.voff[last] = 0;
        self.loff[last] = 0;
        self.values.data[last] = 0;
        self.values.block_pa[last] = 0;
        self.len -= 1;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// All cached entries, in slot order.
    pub fn entries(&self) -> impl Iterator<Item = CEntry> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fits(&self, v: u32) -> bool {
        v >= self.base && v - self.base < VERSION_WINDOW
    }

    /// The stored form of a locker that [`CompressedLine::fits`].
    fn lock_offset(&self, locked_by: u32) -> u16 {
        match locked_by {
            0 => 0,
            l => (l - self.base + 1) as u16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(version: u32, data: u32) -> CEntry {
        CEntry {
            version,
            locked_by: 0,
            data,
            block_pa: version * 16,
        }
    }

    #[test]
    fn insert_and_get() {
        let mut l = CompressedLine::new();
        assert!(l.insert(e(100, 7)));
        assert_eq!(l.get(100).unwrap().data, 7);
        assert!(l.get(99).is_none());
    }

    #[test]
    fn window_restriction() {
        let mut l = CompressedLine::new();
        assert!(l.insert(e(100, 1)));
        // 100 rounds down to base 0; 0x3fff fits, 0x4000 does not.
        assert!(l.insert(e(VERSION_WINDOW - 1, 2)));
        assert!(!l.insert(e(VERSION_WINDOW, 3)), "outside the 2^14 window");
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn empty_line_rebases() {
        let mut l = CompressedLine::new();
        assert!(l.insert(e(5 * VERSION_WINDOW + 3, 1)));
        assert!(l.insert(e(5 * VERSION_WINDOW + 9, 2)));
        assert!(!l.insert(e(3, 9)), "below the re-based window");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut l = CompressedLine::new();
        for v in 0..8 {
            assert!(l.insert(e(v, v)));
        }
        l.touch(0); // keep version 0 hot; version 1 is now LRU
        assert!(l.insert(e(8, 8)));
        assert_eq!(l.len(), 8);
        assert!(l.get(1).is_none(), "LRU victim evicted");
        assert!(l.get(0).is_some());
        assert!(l.get(8).is_some());
    }

    #[test]
    fn latest_capped_requires_known_head() {
        let mut l = CompressedLine::new();
        l.insert(e(10, 1));
        assert!(l.latest_capped(20).is_none(), "head unknown");
        l.set_head_version(Some(10));
        assert_eq!(l.latest_capped(20).unwrap().version, 10);
        assert_eq!(l.latest_capped(10).unwrap().version, 10);
        assert!(l.latest_capped(9).is_none(), "head newer than cap");
    }

    #[test]
    fn evicting_head_entry_forgets_head() {
        let mut l = CompressedLine::new();
        for v in 0..8 {
            l.insert(e(v, v));
        }
        l.set_head_version(Some(7));
        // Make 7 coldest: touch all others.
        for v in 0..7 {
            l.touch(v);
        }
        l.insert(e(9, 9));
        assert!(l.get(7).is_none());
        assert_eq!(l.head_version(), None);
    }

    #[test]
    fn set_lock_updates_in_place() {
        let mut l = CompressedLine::new();
        l.insert(e(4, 0));
        assert!(l.set_lock(4, 9));
        assert_eq!(l.get(4).unwrap().locked_by, 9);
        assert!(l.set_lock(4, 0));
        assert_eq!(l.get(4).unwrap().locked_by, 0);
        assert!(!l.set_lock(5, 9), "absent version");
    }

    #[test]
    fn oversized_locker_rejected() {
        let mut l = CompressedLine::new();
        l.insert(e(4, 0));
        assert!(
            !l.set_lock(4, 2 * VERSION_WINDOW),
            "locker outside window cannot be compressed"
        );
    }

    #[test]
    fn remove_clears_entry_and_head() {
        let mut l = CompressedLine::new();
        l.insert(e(4, 0));
        l.set_head_version(Some(4));
        l.remove(4);
        assert!(l.is_empty());
        assert_eq!(l.head_version(), None);
    }

    #[test]
    fn locker_equal_to_base_stays_locked() {
        let base = 3 * VERSION_WINDOW;
        let mut l = CompressedLine::new();
        assert!(l.insert(CEntry {
            locked_by: base,
            ..e(base + 5, 1)
        }));
        assert_eq!(
            l.get(base + 5).unwrap().locked_by,
            base,
            "offset 0 is a lock"
        );
        assert!(l.set_lock(base + 5, 0));
        assert_eq!(l.get(base + 5).unwrap().locked_by, 0);
        assert!(l.set_lock(base + 5, base));
        assert_eq!(l.get(base + 5).unwrap().locked_by, base);
    }

    #[test]
    fn top_of_window_round_trips() {
        let base = 2 * VERSION_WINDOW;
        let top = base + VERSION_WINDOW - 1;
        let mut l = CompressedLine::new();
        assert!(l.insert(CEntry {
            locked_by: top,
            ..e(base, 1)
        }));
        assert!(l.insert(e(top, 2)));
        assert_eq!(l.get(top), Some(e(top, 2)));
        assert_eq!(l.get(base).unwrap().locked_by, top);
        assert!(l.get(top + 1).is_none());
    }

    #[test]
    fn entries_follow_swap_remove_order() {
        let mut l = CompressedLine::new();
        for v in 0..4 {
            l.insert(e(v, v));
        }
        l.remove(1);
        let order: Vec<u32> = l.entries().map(|x| x.version).collect();
        assert_eq!(order, [0, 3, 2]);
    }

    #[test]
    fn reinsert_same_version_updates() {
        let mut l = CompressedLine::new();
        l.insert(e(4, 1));
        l.insert(e(4, 2));
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(4).unwrap().data, 2);
    }
}
