//! Robustness integration tests: deadlock blame reports for each misuse
//! class, graceful degradation under version-block exhaustion, recovery
//! through the modeled OS refill trap, and the livelock watchdog.

use std::cell::Cell;
use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg, SimError, WaitClass};
use osim_mem::Fault;
use osim_uarch::FaultPlan;

/// Misuse class 1: loading a version nobody ever produces. The blame
/// report names the `(va, version)` wait target and classifies it as
/// never-produced.
#[test]
fn blame_missing_version() {
    let mut m = Machine::new(MachineCfg::paper(2));
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let err = m
        .run_tasks(vec![task(move |ctx| async move {
            ctx.load_version(root, 99).await;
        })])
        .expect_err("version 99 is never stored");
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got: {err}");
    };
    assert_eq!(report.entries.len(), 1);
    let e = &report.entries[0];
    assert_eq!(e.tid, Some(1));
    assert_eq!(e.va, Some(u64::from(root)));
    assert_eq!(e.version, Some(99));
    assert_eq!(e.kind, Some("missing-version"));
    assert_eq!(e.holder, None);
    assert_eq!(e.class, WaitClass::NeverProduced);
    let text = format!("{report}");
    assert!(text.contains("never-produced"), "blame text: {text}");
}

/// The producer a starved waiter is blamed on comes from a real wake-up:
/// the store's origin travels through the gate into a captured
/// dependency edge, and the deadlock report names that store.
#[test]
fn blame_names_the_producer_behind_a_real_wake() {
    let mut cfg = MachineCfg::paper(2);
    cfg.dep_edges = 64;
    let mut m = Machine::new(cfg);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let stored_at = Rc::new(Cell::new(0));
    let stored = Rc::clone(&stored_at);
    // Tasks 1 and 3 run in order on core 0, task 2 on core 1.
    let err = m
        .run_tasks(vec![
            // A: blocks until the producer stores version 1.
            task(move |ctx| async move {
                ctx.load_version(root, 1).await;
            }),
            // P: stores version 1 once A is parked, releasing it.
            task(move |ctx| async move {
                ctx.work(2_000).await;
                ctx.store_version(root, 1, 7).await;
                stored.set(ctx.now());
            }),
            // B: waits for a version nobody stores.
            task(move |ctx| async move {
                ctx.load_version(root, 9).await;
            }),
        ])
        .expect_err("version 9 is never stored");
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got: {err}");
    };
    assert!(stored_at.get() > 0, "the producer ran");
    assert_eq!(report.entries.len(), 1);
    let b = &report.entries[0];
    assert_eq!(b.tid, Some(3));
    assert_eq!(b.version, Some(9));
    assert_eq!(b.class, WaitClass::NeverProduced);
    assert_eq!(b.last_producer, Some((2, stored_at.get())));
    let text = format!("{report}");
    let expect = format!("last producer: task 2 at cycle {}", stored_at.get());
    assert!(text.contains(&expect), "blame text: {text}");
}

/// Misuse class 2: a two-task lock cycle. Each blocked task's entry names
/// the version it waits for and the task holding it, and both are
/// classified as members of a lock cycle.
#[test]
fn blame_lock_cycle() {
    let mut m = Machine::new(MachineCfg::paper(2));
    let (x, y) = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        (
            s.alloc.alloc_root(&mut s.ms).unwrap(),
            s.alloc.alloc_root(&mut s.ms).unwrap(),
        )
    };
    // Phase 1 (tid 1): seed version 1 of both cells.
    m.run_tasks(vec![task(move |ctx| async move {
        ctx.store_version(x, 1, 10).await;
        ctx.store_version(y, 1, 20).await;
    })])
    .unwrap();
    // Phase 2 (tids 2 and 3, on different cores): cross-wise lock order.
    let tasks = vec![
        task(move |ctx| async move {
            ctx.lock_load_version(x, 1).await;
            ctx.work(2_000).await;
            ctx.lock_load_version(y, 1).await; // blocks: held by tid 3
        }),
        task(move |ctx| async move {
            ctx.lock_load_version(y, 1).await;
            ctx.work(2_000).await;
            ctx.lock_load_version(x, 1).await; // blocks: held by tid 2
        }),
    ];
    let err = m.run_tasks(tasks).expect_err("cross-wise locks must cycle");
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got: {err}");
    };
    assert_eq!(report.entries.len(), 2);
    let by_tid = |tid: u64| {
        report
            .entries
            .iter()
            .find(|e| e.tid == Some(tid))
            .unwrap_or_else(|| panic!("no blame entry for task {tid}"))
    };
    let a = by_tid(2);
    assert_eq!(a.va, Some(u64::from(y)));
    assert_eq!(a.version, Some(1));
    assert_eq!(a.kind, Some("locked-version"));
    assert_eq!(a.holder, Some(3));
    assert_eq!(a.class, WaitClass::LockCycle);
    let b = by_tid(3);
    assert_eq!(b.va, Some(u64::from(x)));
    assert_eq!(b.holder, Some(2));
    assert_eq!(b.class, WaitClass::LockCycle);
    let text = format!("{report}");
    assert!(text.contains("lock-cycle"), "blame text: {text}");
    assert!(text.contains("held by task"), "blame text: {text}");
}

/// Misuse class 3: version-block pool exhaustion with the collector
/// disabled and the OS refill budget at zero. The bounded retry loop
/// gives up and `run_tasks` returns a typed fault carrying the issuing
/// task's id, address and cycle — no panic anywhere on the path.
#[test]
fn exhausted_pool_is_a_typed_fault() {
    let mut cfg = MachineCfg::paper(1);
    cfg.omgr.initial_free_blocks = 256; // one page carve
    cfg.omgr.gc.watermark = 0; // §IV-F ablation: collector disabled
    cfg.omgr.fault_plan = Some(FaultPlan {
        refill_budget: Some(0),
        ..FaultPlan::default()
    });
    let mut m = Machine::new(cfg);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let err = m
        .run_tasks(vec![task(move |ctx| async move {
            for v in 1..=300u32 {
                ctx.store_version(root, v, v).await;
            }
        })])
        .expect_err("300 versions cannot fit in a 256-block pool");
    let SimError::Fault(f) = err else {
        panic!("expected architectural fault, got: {err}");
    };
    assert_eq!(f.fault, Fault::OutOfVersionBlocks);
    assert_eq!(f.tid, 1);
    assert_eq!(f.va, root);
    assert!(f.cycle > 0);
    // The bounded retry loop ran before giving up.
    let st = m.state();
    let st = st.borrow();
    assert!(st.omgr.stats.refill_traps > 0);
    assert!(st.omgr.stats.refill_retries > 0);
    assert_eq!(st.omgr.stats.recovered_allocations, 0);
}

/// Same pressure, but the OS trap eventually succeeds: two injected
/// transient carve failures per refill, then recovery. The run completes
/// and the resilience counters show the retry path was exercised.
#[test]
fn transient_carve_failures_recover() {
    let mut cfg = MachineCfg::paper(1);
    cfg.omgr.initial_free_blocks = 256;
    cfg.omgr.gc.watermark = 0;
    cfg.omgr.fault_plan = Some(FaultPlan {
        carve_fail_pct: 100,
        max_carve_failures: 2,
        ..FaultPlan::default()
    });
    let mut m = Machine::new(cfg);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    m.run_tasks(vec![task(move |ctx| async move {
        for v in 1..=300u32 {
            ctx.store_version(root, v, v).await;
        }
    })])
    .expect("refill recovers after bounded retries");
    let st = m.state();
    let st = st.borrow();
    assert!(st.omgr.stats.refill_retries > 0, "retries exercised");
    assert!(
        st.omgr.stats.recovered_allocations > 0,
        "allocation recovered"
    );
    assert!(st.omgr.stats.injected_carve_failures > 0);
}

/// A task that sleeps forever without retiring work trips the progress
/// watchdog instead of hanging the harness.
#[test]
fn watchdog_catches_livelock() {
    let mut cfg = MachineCfg::paper(1);
    cfg.watchdog_cycles = Some(5_000);
    let mut m = Machine::new(cfg);
    let err = m
        .run_tasks(vec![task(move |ctx| async move {
            loop {
                ctx.handle().sleep(50).await; // spins without progress
            }
        })])
        .expect_err("watchdog must fire");
    let SimError::Watchdog(w) = err else {
        panic!("expected watchdog report, got: {err}");
    };
    assert!(w.now >= 5_000);
    assert_eq!(w.idle_cycles, 5_000);
}

/// The same machine configuration and fault plan produce byte-identical
/// blame reports: injection is deterministic end to end.
#[test]
fn blame_reports_are_deterministic() {
    let run = || {
        let mut m = Machine::new(MachineCfg::paper(2));
        let root = {
            let st = m.state();
            let mut st = st.borrow_mut();
            let s = &mut *st;
            s.alloc.alloc_root(&mut s.ms).unwrap()
        };
        let err = m
            .run_tasks(vec![
                task(move |ctx| async move {
                    ctx.store_version(root, 1, 7).await;
                    ctx.load_version(root, 5).await; // never produced
                }),
                task(move |ctx| async move {
                    ctx.load_version(root, 6).await; // never produced
                }),
            ])
            .expect_err("both tasks wedge");
        format!("{err}")
    };
    assert_eq!(run(), run());
}
