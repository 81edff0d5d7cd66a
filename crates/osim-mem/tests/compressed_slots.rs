//! Model-based check that each compressed line's payload lives and dies with
//! its L1 slot. Random compressed fills, probes, data accesses that evict
//! compressed lines, drops, coherence invalidations, loss-mark reads,
//! releases and collection purges run on a tiny L1 over 2–4 cores, next to
//! a model that keeps each core's sets in recency order and the payloads in
//! a `HashMap<(core, root), CompressedLine>`. After every step:
//!
//! * every `(core, root)` payload matches the model, so a payload exists
//!   only while its slot is resident and no two lines share a payload;
//! * each L1 holds exactly the lines the model does;
//! * no payload slab outgrows its L1's line count.
//!
//! Loss marks are compared on every read, so each is consumed exactly once.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use osim_mem::cache::LineKind;
use osim_mem::{AccessKind, CEntry, CacheCfg, CompressedLine, Hierarchy, HierarchyCfg, LINE_BYTES};

/// 512 B, 2-way: 4 sets of 2 lines, 8 lines per L1.
const L1: CacheCfg = CacheCfg {
    size_bytes: 512,
    assoc: 2,
    hit_latency: 4,
};
const SETS: u32 = L1.size_bytes / LINE_BYTES / L1.assoc;
/// Root words 0x0, 0x4, ... 0x2c: three per compressed set.
const ROOTS: u32 = 12;
/// Data lines 0x0, 0x40, ... 0x3c0: four per data set.
const LINES: u32 = 16;

#[derive(Debug, Clone)]
enum Op {
    Fill {
        core: usize,
        root: u32,
        version: u32,
        data: u32,
    },
    Probe {
        core: usize,
        root: u32,
    },
    Access {
        core: usize,
        line: u32,
        write: bool,
    },
    Drop {
        core: usize,
        root: u32,
    },
    Invalidate {
        core: usize,
        root: u32,
    },
    TakeLost {
        core: usize,
        root: u32,
    },
    Release {
        root: u32,
    },
    Purge {
        version: u32,
    },
}

fn root() -> impl Strategy<Value = u32> {
    (0..ROOTS).prop_map(|r| r * 4)
}

fn fill() -> impl Strategy<Value = Op> {
    (0usize..4, root(), 0u32..24, any::<u32>()).prop_map(|(core, root, version, data)| Op::Fill {
        core,
        root,
        version,
        data,
    })
}

fn access() -> impl Strategy<Value = Op> {
    (
        0usize..4,
        (0..LINES).prop_map(|l| l * LINE_BYTES),
        any::<bool>(),
    )
        .prop_map(|(core, line, write)| Op::Access { core, line, write })
}

/// Core numbers are drawn below 4 and folded onto the run's core count.
fn op() -> impl Strategy<Value = Op> {
    // Fills and data accesses are listed twice: they drive the evictions.
    prop_oneof![
        fill(),
        fill(),
        access(),
        access(),
        (0usize..4, root()).prop_map(|(core, root)| Op::Probe { core, root }),
        (0usize..4, root()).prop_map(|(core, root)| Op::Drop { core, root }),
        (0usize..4, root()).prop_map(|(core, root)| Op::Invalidate { core, root }),
        (0usize..4, root()).prop_map(|(core, root)| Op::TakeLost { core, root }),
        root().prop_map(|root| Op::Release { root }),
        (0u32..24).prop_map(|version| Op::Purge { version }),
    ]
}

impl Op {
    fn fold(self, cores: usize) -> Op {
        match self {
            Op::Fill {
                core,
                root,
                version,
                data,
            } => Op::Fill {
                core: core % cores,
                root,
                version,
                data,
            },
            Op::Probe { core, root } => Op::Probe {
                core: core % cores,
                root,
            },
            Op::Access { core, line, write } => Op::Access {
                core: core % cores,
                line,
                write,
            },
            Op::Drop { core, root } => Op::Drop {
                core: core % cores,
                root,
            },
            Op::Invalidate { core, root } => Op::Invalidate {
                core: core % cores,
                root,
            },
            Op::TakeLost { core, root } => Op::TakeLost {
                core: core % cores,
                root,
            },
            other => other,
        }
    }
}

/// Each core's L1 as recency-ordered sets of `(tag, kind)`, plus the
/// payloads and loss marks the hierarchy must agree with.
struct Model {
    sets: Vec<Vec<Vec<(u32, LineKind)>>>,
    payloads: HashMap<(usize, u32), CompressedLine>,
    lost: HashSet<(usize, u32)>,
}

impl Model {
    fn new(cores: usize) -> Self {
        Model {
            sets: vec![vec![Vec::new(); SETS as usize]; cores],
            payloads: HashMap::new(),
            lost: HashSet::new(),
        }
    }

    fn set(&mut self, core: usize, tag: u32, kind: LineKind) -> &mut Vec<(u32, LineKind)> {
        let idx = match kind {
            LineKind::Data => tag / LINE_BYTES,
            LineKind::Compressed => tag / 4,
        };
        &mut self.sets[core][(idx % SETS) as usize]
    }

    /// LRU fill or refresh; an evicted compressed line takes its payload.
    fn fill(&mut self, core: usize, tag: u32, kind: LineKind) {
        let set = self.set(core, tag, kind);
        if let Some(i) = set.iter().position(|&k| k == (tag, kind)) {
            let k = set.remove(i);
            set.push(k);
            return;
        }
        let victim = (set.len() >= L1.assoc as usize).then(|| set.remove(0));
        set.push((tag, kind));
        if let Some((root, LineKind::Compressed)) = victim {
            self.payloads.remove(&(core, root));
        }
    }

    fn resident(&mut self, core: usize, tag: u32, kind: LineKind) -> bool {
        self.set(core, tag, kind).contains(&(tag, kind))
    }

    fn refresh(&mut self, core: usize, tag: u32, kind: LineKind) -> bool {
        let hit = self.resident(core, tag, kind);
        if hit {
            self.fill(core, tag, kind);
        }
        hit
    }

    fn remove(&mut self, core: usize, tag: u32, kind: LineKind) -> bool {
        let set = self.set(core, tag, kind);
        let before = set.len();
        set.retain(|&k| k != (tag, kind));
        let hit = set.len() != before;
        if kind == LineKind::Compressed {
            self.payloads.remove(&(core, tag));
        }
        hit
    }
}

fn check(h: &mut Hierarchy, m: &Model, cores: usize) {
    let lines = (L1.size_bytes / LINE_BYTES) as usize;
    for core in 0..cores {
        for root in (0..ROOTS).map(|r| r * 4) {
            prop_assert_eq!(
                h.compressed_peek(core, root).cloned(),
                m.payloads.get(&(core, root)).cloned(),
                "payload of core {} root {:#x}",
                core,
                root
            );
        }
        let modeled: usize = m.sets[core].iter().map(Vec::len).sum();
        prop_assert_eq!(h.l1(core).resident(), modeled, "core {} residency", core);
        prop_assert!(
            h.l1(core).slab_len() <= lines,
            "core {}'s slab holds {} payloads for {} lines",
            core,
            h.l1(core).slab_len(),
            lines
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn payloads_follow_their_slots(
        cores in 2usize..=4,
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut h = Hierarchy::new(HierarchyCfg {
            cores,
            l1: L1,
            // Large enough that no L2 eviction back-invalidates an L1 line.
            l2: CacheCfg { size_bytes: 64 * 1024, assoc: 16, hit_latency: 35 },
            dram_latency: 120,
        });
        let mut m = Model::new(cores);
        for op in ops {
            match op.fold(cores) {
                Op::Fill { core, root, version, data } => {
                    let e = CEntry { version, locked_by: 0, data, block_pa: version * 16 };
                    let ok = h.compressed_fill(core, root).insert(e);
                    m.fill(core, root, LineKind::Compressed);
                    let want = m.payloads.entry((core, root)).or_default().insert(e);
                    prop_assert_eq!(ok, want);
                }
                Op::Probe { core, root } => {
                    let got = h.compressed_probe(core, root).cloned();
                    let hit = m.refresh(core, root, LineKind::Compressed);
                    prop_assert_eq!(got.is_some(), hit);
                }
                Op::Access { core, line, write } => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    h.access(core, line, kind);
                    if write {
                        for other in (0..cores).filter(|&c| c != core) {
                            m.remove(other, line, LineKind::Data);
                        }
                    }
                    m.fill(core, line, LineKind::Data);
                }
                Op::Drop { core, root } => {
                    let got = h.compressed_drop(core, root);
                    prop_assert_eq!(got, m.remove(core, root, LineKind::Compressed));
                }
                Op::Invalidate { core, root } => {
                    let got = h.compressed_invalidate_others(core, root);
                    let mut want = 0u64;
                    for other in (0..cores).filter(|&c| c != core) {
                        if m.remove(other, root, LineKind::Compressed) {
                            m.lost.insert((other, root));
                            want |= 1 << other;
                        }
                    }
                    prop_assert_eq!(got, want);
                }
                Op::TakeLost { core, root } => {
                    prop_assert_eq!(h.compressed_take_lost(core, root), m.lost.remove(&(core, root)));
                }
                Op::Release { root } => {
                    h.compressed_release(root);
                    for core in 0..cores {
                        m.remove(core, root, LineKind::Compressed);
                        m.lost.remove(&(core, root));
                    }
                }
                Op::Purge { version } => {
                    h.compressed_purge(|l| l.get(version).is_some());
                    for p in m.payloads.values_mut() {
                        if p.get(version).is_some() {
                            *p = CompressedLine::new();
                        }
                    }
                }
            }
            check(&mut h, &m, cores);
        }
    }
}
