//! Reference-model check for the hierarchy's presence directory. Random
//! `Read`, `Write`, `ReadNoAlloc` and `fill_local` steps on 2–8 cores run
//! against [`Hierarchy`] and against a directory-free model built from the
//! same [`Cache`]s. The model finds sharers and dirty owners by peeking
//! every core's L1, and a read miss next to sharers demotes all of them,
//! not only the Exclusive/Modified holders the directory tracks.
//!
//! The L1s (8 lines) and the L2 (16 lines) are tiny, so fills evict and
//! L2 evictions back-invalidate L1 copies. After every step the access's
//! level and latency, the [`MemStats`] counters and every core's MESI
//! state for every line must agree.

use proptest::prelude::*;

use osim_mem::cache::{LineKind, Mesi};
use osim_mem::{AccessKind, Cache, CacheCfg, Hierarchy, HierarchyCfg, Level, MemStats};

/// 512 B, 2-way: 4 sets of 2 lines.
const L1: CacheCfg = CacheCfg {
    size_bytes: 512,
    assoc: 2,
    hit_latency: 4,
};
/// 1 kB, 4-way: 4 sets of 4 lines.
const L2: CacheCfg = CacheCfg {
    size_bytes: 1024,
    assoc: 4,
    hit_latency: 35,
};
const DRAM: u64 = 120;
/// Data lines 0x0, 0x40, ... 0x5c0: six per L1 set, six per L2 set.
const LINES: u32 = 24;

fn cfg(cores: usize) -> HierarchyCfg {
    HierarchyCfg {
        cores,
        l1: L1,
        l2: L2,
        dram_latency: DRAM,
    }
}

/// The hierarchy without a directory: every coherence action scans all
/// cores.
struct Model {
    l1s: Vec<Cache>,
    l2: Cache,
    stats: MemStats,
}

impl Model {
    fn new(cores: usize) -> Self {
        // `MemStats::new` is crate-private; a fresh hierarchy's counters
        // are the same zeroed vectors.
        let stats = Hierarchy::new(cfg(cores)).stats;
        Model {
            l1s: (0..cores).map(|_| Cache::new(L1)).collect(),
            l2: Cache::new(L2),
            stats,
        }
    }

    fn state(&self, core: usize, line: u32) -> Option<Mesi> {
        self.l1s[core].peek(line, LineKind::Data).map(|l| l.state)
    }

    fn holders(&self, core: usize, line: u32) -> Vec<usize> {
        (0..self.l1s.len())
            .filter(|&c| c != core && self.state(c, line).is_some())
            .collect()
    }

    fn access(&mut self, core: usize, line: u32, kind: AccessKind) -> (Level, u64) {
        let is_write = kind == AccessKind::Write;
        if let Some(st) = self.l1s[core].probe(line, LineKind::Data) {
            let state = *st;
            if is_write {
                *st = Mesi::Modified;
                self.stats.l1_write_hits[core] += 1;
                if state == Mesi::Shared {
                    self.stats.upgrades += 1;
                    self.invalidate_others(core, line);
                }
            } else {
                self.stats.l1_read_hits[core] += 1;
            }
            return (Level::L1, L1.hit_latency);
        }
        if is_write {
            self.stats.l1_write_misses[core] += 1;
        } else {
            self.stats.l1_read_misses[core] += 1;
        }
        let others = self.holders(core, line);
        let dirty_owner = others
            .iter()
            .copied()
            .find(|&c| self.state(c, line) == Some(Mesi::Modified));
        let (level, latency) = if let Some(owner) = dirty_owner {
            self.stats.remote_forwards += 1;
            self.l2.fill(line, LineKind::Data, Mesi::Modified);
            if is_write {
                self.l1s[owner].invalidate(line, LineKind::Data);
                self.stats.invalidations += 1;
            } else {
                self.l1s[owner].set_state(line, LineKind::Data, Mesi::Shared);
            }
            (Level::RemoteL1, L2.hit_latency)
        } else if self.l2.probe(line, LineKind::Data).is_some() {
            if is_write {
                self.invalidate_others(core, line);
            }
            self.stats.l2_hits += 1;
            (Level::L2, L2.hit_latency)
        } else {
            self.stats.l2_misses += 1;
            if let Some(victim) = self.l2.fill(line, LineKind::Data, Mesi::Exclusive) {
                for c in 0..self.l1s.len() {
                    if self.l1s[c].invalidate(victim.tag, LineKind::Data).is_some() {
                        self.stats.back_invalidations += 1;
                    }
                }
            }
            (Level::Dram, DRAM)
        };
        if kind != AccessKind::ReadNoAlloc {
            let state = if is_write {
                Mesi::Modified
            } else if !others.is_empty() {
                Mesi::Shared
            } else {
                Mesi::Exclusive
            };
            if state == Mesi::Shared {
                for &c in &others {
                    self.l1s[c].set_state(line, LineKind::Data, Mesi::Shared);
                }
            }
            self.l1s[core].fill(line, LineKind::Data, state);
        }
        (level, latency)
    }

    fn fill_local(&mut self, core: usize, line: u32) {
        if self.state(core, line).is_some() {
            return;
        }
        let state = if self.holders(core, line).is_empty() {
            Mesi::Exclusive
        } else {
            Mesi::Shared
        };
        self.l1s[core].fill(line, LineKind::Data, state);
    }

    fn invalidate_others(&mut self, core: usize, line: u32) {
        for c in self.holders(core, line) {
            self.l1s[c].invalidate(line, LineKind::Data);
            self.stats.invalidations += 1;
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(AccessKind),
    /// A version-list walk's matched block: a `ReadNoAlloc`, then
    /// `fill_local`, in the order the manager calls them. The read keeps the L2
    /// inclusive of the installed line; without it two cores can end up
    /// Modified, and the directory's single dirty owner and the model's
    /// scan then pick different owners.
    FillLocal,
}

fn op() -> impl Strategy<Value = Op> {
    // Reads drawn three times as often as the rest, writes twice.
    prop_oneof![
        Just(Op::Access(AccessKind::Read)),
        Just(Op::Access(AccessKind::Read)),
        Just(Op::Access(AccessKind::Read)),
        Just(Op::Access(AccessKind::Write)),
        Just(Op::Access(AccessKind::Write)),
        Just(Op::Access(AccessKind::ReadNoAlloc)),
        Just(Op::FillLocal),
    ]
}

/// Runs `steps` on both sides, comparing everything observable after each.
fn check(cores: usize, steps: &[(Op, usize, u32)]) {
    let mut h = Hierarchy::new(cfg(cores));
    let mut m = Model::new(cores);
    for (i, &(op, core, line)) in steps.iter().enumerate() {
        let core = core % cores;
        let pa = line * 64 + 4;
        match op {
            Op::Access(kind) => {
                let r = h.access(core, pa, kind);
                assert_eq!(
                    (r.level, r.latency),
                    m.access(core, pa & !63, kind),
                    "step {}",
                    i
                );
            }
            Op::FillLocal => {
                let r = h.access(core, pa, AccessKind::ReadNoAlloc);
                let want = m.access(core, pa & !63, AccessKind::ReadNoAlloc);
                assert_eq!((r.level, r.latency), want, "step {}", i);
                h.fill_local(core, pa);
                m.fill_local(core, pa & !63);
            }
        }
        assert_eq!(&h.stats, &m.stats, "step {}", i);
        for c in 0..cores {
            for l in 0..LINES {
                let got = h.l1(c).peek(l * 64, LineKind::Data).map(|x| x.state);
                assert_eq!(
                    got,
                    m.state(c, l * 64),
                    "step {}, core {}, line {:#x}",
                    i,
                    c,
                    l * 64
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn directory_matches_scanning_model(
        cores in 2usize..=8,
        steps in proptest::collection::vec((op(), 0usize..8, 0..LINES), 1..200),
    ) {
        check(cores, &steps);
    }
}

/// Today's behaviour, pinned: a `ReadNoAlloc` walk plus `fill_local`
/// installs core 1's copy Shared while core 0 still holds the line
/// Exclusive. Core 0's next write then upgrades E→M silently, sending no
/// invalidation, and core 1's stale copy keeps hitting in its L1 beside
/// the Modified one, against the single-writer rule. When the
/// fill is fixed to demote (or invalidate) the Exclusive peer, flip the
/// assertions below to the coherent outcome.
#[test]
fn fill_local_beside_an_exclusive_peer_leaves_a_stale_copy() {
    let mut h = Hierarchy::new(cfg(2));
    h.access(0, 0x100, AccessKind::Read);
    assert_eq!(
        h.l1(0).peek(0x100, LineKind::Data).map(|l| l.state),
        Some(Mesi::Exclusive)
    );
    h.access(1, 0x100, AccessKind::ReadNoAlloc);
    h.fill_local(1, 0x100);
    assert_eq!(
        h.l1(1).peek(0x100, LineKind::Data).map(|l| l.state),
        Some(Mesi::Shared)
    );
    assert_eq!(
        h.l1(0).peek(0x100, LineKind::Data).map(|l| l.state),
        Some(Mesi::Exclusive)
    );

    let before = h.stats.upgrades + h.stats.invalidations;
    assert_eq!(h.access(0, 0x100, AccessKind::Write).level, Level::L1);
    assert_eq!(
        h.stats.upgrades + h.stats.invalidations,
        before,
        "silent E→M"
    );
    assert_eq!(
        h.access(1, 0x100, AccessKind::Read).level,
        Level::L1,
        "stale copy hits"
    );

    // The scanning model agrees step for step.
    let steps = [
        (Op::Access(AccessKind::Read), 0, 4),
        (Op::FillLocal, 1, 4),
        (Op::Access(AccessKind::Write), 0, 4),
        (Op::Access(AccessKind::Read), 1, 4),
    ];
    check(2, &steps);
}
