//! Per-layer host-cost probes for the simulator.
//!
//! Each probe calls one layer's public API directly, in a loop shaped to
//! the workload being measured (core count, L1 geometry, version-walk
//! depth), and reports host nanoseconds per operation as the median over
//! a few repetitions. Multiplying a layer's operation count from the
//! workload's reports by its probe cost estimates that layer's share of
//! the workload's host time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use osim_engine::Sim;
use osim_mem::{AccessKind, Hierarchy, HierarchyCfg, MemSys, PageFlags, LINE_BYTES};
use osim_uarch::{OManager, OManagerCfg, OpOutcome};

use crate::stats::median;
use crate::trace::Tracer;

/// What a probe is shaped to.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Cache hierarchy of the workload's machine (core count, L1 size).
    pub hier: HierarchyCfg,
    /// Version-list nodes a full lookup walks, rounded from the
    /// workload's measured walk reads per lookup (at least 1).
    pub walk_depth: u32,
}

/// Host nanoseconds per operation of each simulator layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProbes {
    /// `osim-engine`: one dispatched event (task resumption).
    pub ns_per_event: f64,
    /// `osim-engine`: one gate park-and-wake.
    pub ns_per_gate_op: f64,
    /// `osim-mem`: one L1-hit `Hierarchy::access`.
    pub ns_per_hit: f64,
    /// `osim-mem`: one L1-miss `Hierarchy::access` served by the L2.
    pub ns_per_miss: f64,
    /// `osim-uarch`: one `load_version` answered by a compressed line.
    pub ns_per_direct_load: f64,
    /// `osim-uarch`: one version-block read of a full lookup, lookup
    /// overhead included.
    pub ns_per_walk_step: f64,
    /// `osim-uarch`: one `store_version` at the list head.
    pub ns_per_store: f64,
}

/// Loop sizes; the smoke scale only proves the probes run.
struct Sizes {
    reps: usize,
    ticks: u64,
    rounds: u64,
    accesses: u64,
    loads: u32,
    stores: u32,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            reps: 1,
            ticks: 20,
            rounds: 20,
            accesses: 2_000,
            loads: 200,
            stores: 200,
        }
    } else {
        Sizes {
            reps: 5,
            ticks: 4_000,
            rounds: 2_000,
            accesses: 400_000,
            loads: 50_000,
            stores: 16_384,
        }
    }
}

/// Runs every simulator probe under one span each.
pub fn run_sim_probes(shape: &Shape, smoke: bool, tr: &mut Tracer) -> SimProbes {
    let sz = sizes(smoke);
    let cores = shape.hier.cores;
    let mut probe = |name: &'static str, f: &dyn Fn() -> (Duration, u64)| -> f64 {
        tr.span(name, None, 0, || {
            let per_op: Vec<f64> = (0..sz.reps)
                .map(|_| {
                    let (dt, ops) = f();
                    assert!(ops > 0, "{name} performed no operations");
                    dt.as_nanos() as f64 / ops as f64
                })
                .collect();
            median(&per_op)
        })
    };
    SimProbes {
        ns_per_event: probe("probe.engine_event", &|| engine_events(cores, sz.ticks)),
        ns_per_gate_op: probe("probe.engine_gate", &|| engine_gate(cores, sz.rounds)),
        ns_per_hit: probe("probe.mem_hit", &|| mem_hits(&shape.hier, sz.accesses)),
        ns_per_miss: probe("probe.mem_miss", &|| mem_misses(&shape.hier, sz.accesses)),
        ns_per_direct_load: probe("probe.uarch_direct", &|| {
            uarch_direct(&shape.hier, sz.loads)
        }),
        ns_per_walk_step: probe("probe.uarch_walk", &|| {
            uarch_walk(&shape.hier, shape.walk_depth, sz.loads)
        }),
        ns_per_store: probe("probe.uarch_store", &|| uarch_store(&shape.hier, sz.stores)),
    }
}

/// `cores` tasks sleeping with staggered periods: pure event dispatch.
fn engine_events(cores: usize, ticks: u64) -> (Duration, u64) {
    let sim = Sim::new();
    for t in 0..cores as u64 {
        let h = sim.handle();
        sim.spawn(async move {
            let period = 1 + t % 7;
            for _ in 0..ticks {
                h.sleep(period).await;
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect("sleep-only tasks cannot deadlock");
    (t0.elapsed(), sim.stats().events_dispatched)
}

/// `cores` waiters re-parking on one gate that an opener broadcasts to
/// every cycle: the wait/wake path blocked versioned operations use.
fn engine_gate(cores: usize, rounds: u64) -> (Duration, u64) {
    let sim = Sim::new();
    let h = sim.handle();
    let gate = h.gate();
    for _ in 0..cores {
        let gate = gate.clone();
        sim.spawn(async move {
            for _ in 0..rounds {
                gate.wait().await;
            }
        });
    }
    sim.spawn(async move {
        // One spare round releases waiters still parked after the last.
        for _ in 0..=rounds {
            gate.open_at(h.now() + 1);
            h.sleep(1).await;
        }
    });
    let t0 = Instant::now();
    sim.run().expect("every wait is released by a later open");
    (t0.elapsed(), sim.hists().gate_wait.count())
}

fn l1_misses(h: &Hierarchy) -> u64 {
    h.stats.l1_read_misses.iter().sum()
}

/// Repeated reads of eight resident lines on core 0.
fn mem_hits(hier: &HierarchyCfg, accesses: u64) -> (Duration, u64) {
    let mut h = Hierarchy::new(hier.clone());
    for i in 0..8 {
        h.access(0, 0x1000 + i * LINE_BYTES, AccessKind::Read);
    }
    let t0 = Instant::now();
    let mut total = 0u64;
    for i in 0..accesses {
        let pa = 0x1000 + (i % 8) as u32 * LINE_BYTES;
        total += h.access(0, black_box(pa), AccessKind::Read).latency;
    }
    black_box(total);
    (t0.elapsed(), accesses)
}

/// Sequential sweeps over four L1s' worth of lines on core 0: with LRU
/// every access misses the L1 and hits the (warmed) L2.
fn mem_misses(hier: &HierarchyCfg, accesses: u64) -> (Duration, u64) {
    let mut h = Hierarchy::new(hier.clone());
    let lines = 4 * hier.l1.size_bytes / LINE_BYTES;
    let addr = |i: u64| 0x10_0000 + (i % u64::from(lines)) as u32 * LINE_BYTES;
    for i in 0..u64::from(lines) {
        h.access(0, addr(i), AccessKind::Read);
    }
    let before = l1_misses(&h);
    let t0 = Instant::now();
    let mut total = 0u64;
    for i in 0..accesses {
        total += h.access(0, black_box(addr(i)), AccessKind::Read).latency;
    }
    let dt = t0.elapsed();
    black_box(total);
    (dt, l1_misses(&h) - before)
}

/// A memory system with one versioned root and a manager owning
/// `blocks` version blocks (enough that the collector never starts).
fn uarch_setup(hier: &HierarchyCfg, blocks: u32) -> (MemSys, OManager, u32) {
    let mut ms = MemSys::new(hier.clone(), 64 << 20);
    let va = ms
        .map_zeroed(1, PageFlags::VersionedRoot)
        .expect("64 MiB holds one root page");
    let cfg = OManagerCfg {
        initial_free_blocks: blocks + 2 * OManagerCfg::default().gc.watermark,
        ..OManagerCfg::default()
    };
    let mgr = OManager::new(cfg, &mut ms).expect("64 MiB holds the free list");
    (ms, mgr, va)
}

fn done(outcome: Result<OpOutcome, osim_mem::Fault>) -> u64 {
    match outcome {
        Ok(OpOutcome::Done { latency, .. }) => latency,
        other => panic!("probe operation did not complete: {other:?}"),
    }
}

/// Exact-version loads of the eight versions a compressed line holds.
fn uarch_direct(hier: &HierarchyCfg, loads: u32) -> (Duration, u64) {
    let (mut ms, mut mgr, va) = uarch_setup(hier, 8);
    for v in 1..=8 {
        done(mgr.store_version(&mut ms, 0, va, v, v));
    }
    let before = mgr.stats.direct_hits;
    let t0 = Instant::now();
    let mut total = 0u64;
    for i in 0..loads {
        total += done(mgr.load_version(&mut ms, 0, va, black_box(1 + i % 8)));
    }
    let dt = t0.elapsed();
    black_box(total);
    (dt, mgr.stats.direct_hits - before)
}

/// Loads of the oldest of `depth` versions after dropping the core's
/// compressed line, so every load is a full lookup walking `depth` nodes.
fn uarch_walk(hier: &HierarchyCfg, depth: u32, loads: u32) -> (Duration, u64) {
    let (mut ms, mut mgr, va) = uarch_setup(hier, depth);
    for v in 1..=depth {
        done(mgr.store_version(&mut ms, 0, va, v, v));
    }
    let root_pa = ms.pt.translate_versioned(va).expect("root is mapped");
    let before = mgr.stats.walk_reads;
    let t0 = Instant::now();
    let mut total = 0u64;
    for _ in 0..loads {
        ms.hier.compressed_drop(0, root_pa);
        total += done(mgr.load_version(&mut ms, 0, va, black_box(1)));
    }
    let dt = t0.elapsed();
    black_box(total);
    (dt, mgr.stats.walk_reads - before)
}

/// Stores of ascending versions from one core, round-robin over the
/// 1024 structures of one root page so every version list stays as short
/// as the workloads' (a single list thousands of versions long would
/// measure list growth instead).
fn uarch_store(hier: &HierarchyCfg, stores: u32) -> (Duration, u64) {
    const ROOTS: u32 = osim_mem::PAGE_SIZE / 4;
    let (mut ms, mut mgr, va) = uarch_setup(hier, stores);
    let t0 = Instant::now();
    let mut total = 0u64;
    for v in 1..=stores {
        let root = va + 4 * (v % ROOTS);
        total += done(mgr.store_version(&mut ms, 0, black_box(root), v, v));
    }
    let dt = t0.elapsed();
    black_box(total);
    (dt, u64::from(stores))
}
