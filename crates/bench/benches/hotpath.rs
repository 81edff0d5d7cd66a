//! Hot-path microbenchmarks: each one isolates a single layer the PR 4
//! optimisations touched, so a change to the event queue, gate arena, cache
//! directory or version manager is measured on its own rather than through
//! a whole experiment sweep.
//!
//! Set `OSIM_BENCH_SMOKE=1` to shrink every workload to CI-smoke size
//! (exercises the code, proves nothing about performance).

use bench::{bench, group, smoke};
use osim_cpu::{task, Machine, MachineCfg};
use osim_engine::Sim;
use osim_mem::{AccessKind, CacheCfg, HierarchyCfg, MemSys, PageFlags, PAGE_SIZE};
use osim_uarch::{OManager, OManagerCfg};

/// Pure event-dispatch throughput: many tasks ticking the clock, no gates,
/// no memory system.
fn executor_throughput() {
    let (tasks, ticks) = if smoke() { (8, 50) } else { (64, 2_000) };
    group("hotpath/executor");
    bench("sleep_storm", || {
        let sim = Sim::new();
        for t in 0..tasks {
            let h = sim.handle();
            sim.spawn(async move {
                // Staggered periods keep all wheel buckets busy.
                let period = 1 + (t % 7);
                for _ in 0..ticks {
                    h.sleep(period).await;
                }
            });
        }
        sim.run().unwrap()
    });
    // One task alone: every sleep is the engine's next event.
    let sleeps = tasks * ticks;
    bench("solo_sleep", || {
        let sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            for k in 0..sleeps {
                h.sleep(1 + k % 7).await;
            }
        });
        sim.run().unwrap()
    });
}

/// Steady-state gate traffic: a broadcast opener and a pack of waiters that
/// re-park every cycle — the slab waiter arena's recycle path.
fn gate_wait_open() {
    let (waiters, rounds) = if smoke() { (4, 50) } else { (32, 2_000) };
    group("hotpath/gate");
    bench("broadcast_churn", || {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        for _ in 0..waiters {
            let gate = gate.clone();
            sim.spawn(async move {
                for _ in 0..rounds {
                    gate.wait().await;
                }
            });
        }
        sim.spawn(async move {
            for _ in 0..rounds {
                gate.open_at(h.now() + 1);
                h.sleep(1).await;
            }
        });
        sim.run().unwrap()
    });
}

/// The L1 hit path: repeated reads of a small resident set, plus the
/// presence-directory bookkeeping that rides on every access.
fn l1_hit_path() {
    let accesses = if smoke() { 1_000 } else { 200_000 };
    group("hotpath/l1");
    let mut ms = MemSys::new(HierarchyCfg::paper(2), 64 << 20);
    // 8 resident lines, touched once to fill.
    for i in 0..8u32 {
        ms.hier.access(0, 0x1000 + i * 64, AccessKind::Read);
    }
    bench("resident_reads", || {
        let mut total = 0u64;
        for i in 0..accesses {
            let line = 0x1000 + (i % 8) * 64;
            total += ms.hier.access(0, line, AccessKind::Read).latency;
        }
        total
    });
}

/// A read miss on a line 31 other cores hold Shared: the directory lookup,
/// the demotion of the line's Exclusive/Modified holders (none here) and
/// the fill. Core 0 alternates eight such lines with eight private ones,
/// all in one L1 set, so every read misses; half of them are the shared
/// misses measured.
fn shared_read_miss() {
    let rounds = if smoke() { 10 } else { 5_000 };
    group("hotpath/shared_read_miss");
    let mut ms = MemSys::new(HierarchyCfg::paper(32), 64 << 20);
    // 64 sets x 64 B: a 4096-byte stride stays in set 0.
    let shared = |k: u32| k * 4096;
    let private = |k: u32| (8 + k) * 4096;
    for core in 1..32 {
        for k in 0..8 {
            ms.hier.access(core, shared(k), AccessKind::Read);
        }
    }
    bench("31_sharers", || {
        let mut total = 0u64;
        for _ in 0..rounds {
            for k in 0..8 {
                total += ms.hier.access(0, shared(k), AccessKind::Read).latency;
                total += ms.hier.access(0, private(k), AccessKind::Read).latency;
            }
        }
        total
    });
}

/// L1 read misses that hit the L2: the presence-directory lookup, the
/// fill and its victim's removal, without the engine. 1,024 lines on 256
/// pages, four per page and spread over every set, are read in a cycle
/// longer than any L1 holds, so every read misses. One case is a 1-core
/// machine with an 8 kB L1 (the unversioned baselines' miss path); the
/// other has 32 cores with the paper's L1, each reading every line, so the
/// lines are widely shared.
fn l1_miss_path() {
    let pages = 256u32;
    let lines: Vec<u32> = (0..pages * 4)
        .map(|i| (1 + i / 4) * PAGE_SIZE + (i % 64) * 64)
        .collect();
    group("hotpath/l1_miss_path");
    let rounds = if smoke() { 1 } else { 128 };
    let mut cfg = HierarchyCfg::paper(1);
    cfg.l1 = CacheCfg::l1_sized(8);
    let mut ms = MemSys::new(cfg, 64 << 20);
    bench("1_core_8kb", || {
        let mut total = 0u64;
        for _ in 0..rounds {
            for &pa in &lines {
                total += ms.hier.access(0, pa, AccessKind::Read).latency;
            }
        }
        total
    });
    let rounds = if smoke() { 1 } else { 4 };
    let mut ms = MemSys::new(HierarchyCfg::paper(32), 64 << 20);
    bench("32_cores", || {
        let mut total = 0u64;
        for _ in 0..rounds {
            for &pa in &lines {
                for core in 0..32 {
                    total += ms.hier.access(core, pa, AccessKind::Read).latency;
                }
            }
        }
        total
    });
}

/// The versioned-store fast path plus direct-hit loads: each store
/// allocates and links a version block in simulated memory and installs
/// the version in the core's compressed line, which the load then hits.
fn versioned_store_path() {
    let stores = if smoke() { 200 } else { 20_000 };
    group("hotpath/versioned");
    bench("store_then_load", || {
        let mut ms = MemSys::new(HierarchyCfg::paper(1), 64 << 20);
        let va = ms.map_zeroed(1, PageFlags::VersionedRoot).unwrap();
        let cfg = OManagerCfg {
            initial_free_blocks: stores + 64,
            ..Default::default()
        };
        let mut mgr = OManager::new(cfg, &mut ms).unwrap();
        let mut total = 0u64;
        for v in 1..=stores {
            mgr.store_version(&mut ms, 0, va, v, v).unwrap();
            if let osim_uarch::OpOutcome::Done { latency, .. } =
                mgr.load_version(&mut ms, 0, va, v).unwrap()
            {
                total += latency;
            }
        }
        total
    });
}

/// A `LOAD-LATEST` whose compressed line is absent: the full lookup that
/// reads the root, walks the version list, installs the matched block and
/// refills the compressed line. The line is dropped before every load.
fn full_lookup() {
    let versions = 8;
    let loads = if smoke() { 200 } else { 20_000 };
    group("hotpath/full_lookup");
    let mut ms = MemSys::new(HierarchyCfg::paper(32), 64 << 20);
    let va = ms.map_zeroed(1, PageFlags::VersionedRoot).unwrap();
    let root_pa = ms.pt.translate_versioned(va).unwrap();
    let cfg = OManagerCfg {
        initial_free_blocks: 64,
        ..Default::default()
    };
    let mut mgr = OManager::new(cfg, &mut ms).unwrap();
    for v in 1..=versions {
        mgr.store_version(&mut ms, 0, va, v, v).unwrap();
    }
    bench("load_latest_uncompressed", || {
        let mut total = 0u64;
        for _ in 0..loads {
            ms.hier.compressed_drop(0, root_pa);
            total += mgr.load_latest(&mut ms, 0, va, versions).unwrap().latency();
        }
        total
    });
}

/// The instruction layer on top of the engine and the hierarchy: each
/// `TaskCtx` op's state borrow, sleep and counters. One case is a list hop
/// on a 1-core machine with an 8 kB L1 (`load_u32` of the key, `work(4)`,
/// `load_u32` of the link) over 4,096 16-byte nodes linked in a scattered
/// order, the unversioned list baseline's inner loop. The other is 32
/// cores each repeating `LOAD-LATEST` on one shared root whose version sits
/// in every core's compressed line, so every load is a direct hit.
fn task_ctx() {
    group("hotpath/task_ctx");
    let nodes = 4096u32;
    let hops = if smoke() { 1_000 } else { 50_000 };
    let mut cfg = MachineCfg::paper(1);
    cfg.hier.l1 = CacheCfg::l1_sized(8);
    let mut m = Machine::new(cfg);
    let base = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, nodes * 16).unwrap()
    };
    // Node `i` links to node `i * 1237 mod nodes` (1237 is odd, so this
    // permutation is one cycle through every node).
    let node = move |i: u32| base + (i * 1237 % nodes) * 16;
    m.run_tasks(vec![task(move |ctx| async move {
        for i in 0..nodes {
            ctx.store_u32(node(i), i).await;
            ctx.store_u32(node(i) + 4, node(i + 1)).await;
        }
    })])
    .unwrap();
    bench("list_hop_1_core_8kb", || {
        m.run_tasks(vec![task(move |ctx| async move {
            let mut at = node(0);
            for _ in 0..hops {
                let key = ctx.load_u32(at).await;
                ctx.work(4).await;
                at = ctx.load_u32(at + 4).await;
                std::hint::black_box(key);
            }
        })])
        .unwrap()
        .cycles()
    });

    let cores = 32;
    let loads = if smoke() { 50 } else { 2_000 };
    let mut m = Machine::new(MachineCfg::paper(cores));
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    m.run_tasks(vec![task(move |ctx| async move {
        ctx.store_version(root, 1, 7).await;
    })])
    .unwrap();
    let readers = || {
        (0..cores)
            .map(|_| {
                task(move |ctx| async move {
                    for _ in 0..loads {
                        std::hint::black_box(ctx.load_latest(root, 1).await);
                    }
                })
            })
            .collect()
    };
    // One untimed pass installs the version in every core's compressed
    // line; from the next pass on, every load is a direct hit.
    m.run_tasks(readers()).unwrap();
    let st = m.state();
    let before = st.borrow().omgr.stats.direct_hits;
    m.run_tasks(readers()).unwrap();
    let direct = st.borrow().omgr.stats.direct_hits - before;
    assert_eq!(direct, cores as u64 * loads, "every load is a direct hit");
    bench("direct_hit_32_cores", || {
        m.run_tasks(readers()).unwrap().cycles()
    });
}

fn main() {
    executor_throughput();
    gate_wait_open();
    l1_hit_path();
    shared_read_miss();
    l1_miss_path();
    versioned_store_path();
    full_lookup();
    task_ctx();
}
