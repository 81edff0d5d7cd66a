//! Reference-model check for the packed compressed line: random operation
//! sequences drive [`CompressedLine`] and a straightforward two-`Vec` model
//! side by side, and every observable answer must agree after every step.
//! The model keeps entries and LRU ticks in parallel vectors and removes
//! with `Vec::swap_remove`, so it pins the packed line's slot order and
//! its recency ranks' victim choice.

use proptest::prelude::*;

use osim_mem::compressed::{CEntry, CompressedLine, ENTRIES_PER_LINE, VERSION_WINDOW};

/// The two-`Vec` line the inline one must behave like.
#[derive(Debug, Default)]
struct VecLine {
    base: u32,
    entries: Vec<CEntry>,
    lru: Vec<u64>,
    tick: u64,
    head_version: Option<u32>,
}

impl VecLine {
    fn fits(&self, v: u32) -> bool {
        v >= self.base && v - self.base < VERSION_WINDOW
    }

    fn get(&self, version: u32) -> Option<&CEntry> {
        self.entries.iter().find(|e| e.version == version)
    }

    fn touch(&mut self, version: u32) {
        self.tick += 1;
        if let Some(i) = self.entries.iter().position(|e| e.version == version) {
            self.lru[i] = self.tick;
        }
    }

    fn latest_capped(&self, cap: u32) -> Option<&CEntry> {
        let head = self.head_version?;
        if head <= cap {
            self.get(head)
        } else {
            None
        }
    }

    fn insert(&mut self, e: CEntry) -> bool {
        if self.entries.is_empty() {
            self.base = e.version & !(VERSION_WINDOW - 1);
        }
        if !self.fits(e.version) || (e.locked_by != 0 && !self.fits(e.locked_by)) {
            return false;
        }
        self.tick += 1;
        if let Some(i) = self.entries.iter().position(|x| x.version == e.version) {
            self.entries[i] = e;
            self.lru[i] = self.tick;
            return true;
        }
        if self.entries.len() == ENTRIES_PER_LINE {
            let (victim, _) = self.lru.iter().enumerate().min_by_key(|(_, &t)| t).unwrap();
            if self.head_version == Some(self.entries[victim].version) {
                self.head_version = None;
            }
            self.entries.swap_remove(victim);
            self.lru.swap_remove(victim);
        }
        self.entries.push(e);
        self.lru.push(self.tick);
        true
    }

    fn set_lock(&mut self, version: u32, locked_by: u32) -> bool {
        if locked_by != 0 && !self.fits(locked_by) {
            return false;
        }
        match self.entries.iter_mut().find(|e| e.version == version) {
            Some(e) => {
                e.locked_by = locked_by;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, version: u32) {
        if let Some(i) = self.entries.iter().position(|e| e.version == version) {
            self.entries.swap_remove(i);
            self.lru.swap_remove(i);
            if self.head_version == Some(version) {
                self.head_version = None;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert {
        version: u32,
        locked_by: u32,
        data: u32,
    },
    Touch(u32),
    SetLock {
        version: u32,
        locked_by: u32,
    },
    Remove(u32),
    SetHead(Option<u32>),
}

/// Versions cluster in a few 2^14 windows, with a dense low range (drawn
/// twice as often) so lines fill, collide and evict; lockers are 0
/// (unlocked) or span windows.
fn version() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..24,
        0u32..24,
        (VERSION_WINDOW - 8)..(VERSION_WINDOW + 8),
        (3 * VERSION_WINDOW)..(3 * VERSION_WINDOW + 16),
    ]
}

fn locker() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(0u32), version()]
}

fn step() -> impl Strategy<Value = Step> {
    let insert = || {
        (version(), locker(), any::<u32>()).prop_map(|(version, locked_by, data)| Step::Insert {
            version,
            locked_by,
            data,
        })
    };
    prop_oneof![
        insert(),
        insert(),
        version().prop_map(Step::Touch),
        (version(), locker()).prop_map(|(version, locked_by)| Step::SetLock { version, locked_by }),
        version().prop_map(Step::Remove),
        proptest::option::of(version()).prop_map(Step::SetHead),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inline_line_matches_vec_model(steps in proptest::collection::vec(step(), 1..120)) {
        let mut line = CompressedLine::new();
        let mut model = VecLine::default();
        for s in steps {
            match s {
                Step::Insert { version, locked_by, data } => {
                    let e = CEntry { version, locked_by, data, block_pa: version.wrapping_mul(16) };
                    prop_assert_eq!(line.insert(e), model.insert(e));
                }
                Step::Touch(v) => {
                    line.touch(v);
                    model.touch(v);
                }
                Step::SetLock { version, locked_by } => {
                    prop_assert_eq!(line.set_lock(version, locked_by), model.set_lock(version, locked_by));
                }
                Step::Remove(v) => {
                    line.remove(v);
                    model.remove(v);
                }
                Step::SetHead(h) => {
                    line.set_head_version(h);
                    model.head_version = h;
                }
            }
            prop_assert_eq!(line.len(), model.entries.len());
            prop_assert_eq!(line.entries().collect::<Vec<_>>(), model.entries.clone());
            prop_assert_eq!(line.head_version(), model.head_version);
            for probe in model.entries.iter().map(|e| e.version).chain([0, 7, VERSION_WINDOW]) {
                prop_assert_eq!(line.get(probe), model.get(probe).copied());
                prop_assert_eq!(line.latest_capped(probe), model.latest_capped(probe).copied());
            }
            prop_assert_eq!(line.latest_capped(u32::MAX), model.latest_capped(u32::MAX).copied());
        }
    }
}
