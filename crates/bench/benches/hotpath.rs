//! Hot-path microbenchmarks: each one isolates a single layer the PR 4
//! optimisations touched, so a change to the event queue, gate arena, cache
//! directory or version manager is measured on its own rather than through
//! a whole experiment sweep.
//!
//! Set `OSIM_BENCH_SMOKE=1` to shrink every workload to CI-smoke size
//! (exercises the code, proves nothing about performance).

use bench::{bench, group, smoke};
use osim_engine::Sim;
use osim_mem::{AccessKind, HierarchyCfg, MemSys, PageFlags};
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

/// The versioned-store fast path plus direct-hit loads: the version
/// manager's host-side mirror, exact-version index and compressed lines.
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

fn main() {
    executor_throughput();
    gate_wait_open();
    l1_hit_path();
    versioned_store_path();
}
