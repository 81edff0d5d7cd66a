//! End-to-end tests of the execution tracer.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use osim_cpu::{task, trace, Machine, MachineCfg, OpKind, TaskCtx};
use osim_engine::Cycle;

fn machine(cores: usize) -> Machine {
    Machine::new(MachineCfg::paper(cores))
}

/// `(core, kind, issue cycle, completion cycle)` of each op a task issued,
/// as the task itself saw the clock.
type OpLog = Rc<RefCell<Vec<(usize, OpKind, Cycle, Cycle)>>>;

/// Awaits `op`, logging the clock before and after it.
async fn logged<T>(log: &OpLog, ctx: &TaskCtx, kind: OpKind, op: impl Future<Output = T>) -> T {
    let issue = ctx.now();
    let out = op.await;
    log.borrow_mut().push((ctx.core(), kind, issue, ctx.now()));
    out
}

#[test]
fn every_op_kind_yields_one_exact_record() {
    let mut m = machine(2);
    m.enable_trace(1 << 10);
    let (roots, buf) = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        let roots = [
            s.alloc.alloc_root(&mut s.ms).unwrap(),
            s.alloc.alloc_root(&mut s.ms).unwrap(),
        ];
        (roots, s.alloc.alloc_data(&mut s.ms, 8).unwrap())
    };
    let log: OpLog = Rc::default();
    let (l0, l1) = (Rc::clone(&log), Rc::clone(&log));
    m.run_tasks(vec![
        task(move |ctx| async move {
            let l = &l0;
            logged(l, &ctx, OpKind::Work, ctx.work(9)).await;
            logged(l, &ctx, OpKind::Store, ctx.store_u32(buf, 3)).await;
            let x = logged(l, &ctx, OpKind::Load, ctx.load_u32(buf)).await;
            logged(l, &ctx, OpKind::Cas, ctx.cas_u32(buf + 4, 0, x)).await;
            let [r, late] = roots;
            logged(l, &ctx, OpKind::VersionedStore, ctx.store_version(r, 1, 7)).await;
            let v = logged(l, &ctx, OpKind::VersionedLoad, ctx.load_version(r, 1)).await;
            assert_eq!(v, 7);
            let lock = ctx.lock_load_latest(r, 1);
            let (vl, _) = logged(l, &ctx, OpKind::VersionedLockLoad, lock).await;
            logged(l, &ctx, OpKind::Unlock, ctx.unlock_version(r, vl, None)).await;
            // The other core has been parked on `late` all along.
            logged(
                l,
                &ctx,
                OpKind::VersionedStore,
                ctx.store_version(late, 1, 8),
            )
            .await;
        }),
        task(move |ctx| async move {
            let late = roots[1];
            let v = logged(&l1, &ctx, OpKind::VersionedLoad, ctx.load_version(late, 1)).await;
            assert_eq!(v, 8);
        }),
    ])
    .unwrap();

    let st = m.state();
    let st = st.borrow();
    let records = st.trace.records();
    let log = log.borrow();
    assert_eq!(records.len(), log.len(), "one record per op");
    for kind in OpKind::ALL {
        let issued = log.iter().filter(|op| op.1 == kind).count();
        assert!(issued > 0, "{kind:?} exercised");
        assert_eq!(
            trace::summary(&records).of(kind).count,
            issued as u64,
            "{kind:?}"
        );
    }
    let stalled: Vec<_> = records.iter().filter(|r| r.stalled()).collect();
    assert_eq!(stalled.len(), 1, "only the parked load stalled");
    assert_eq!(
        (stalled[0].kind, stalled[0].core),
        (OpKind::VersionedLoad, 1)
    );
    // Each core's records, in order, span exactly the cycles its calls
    // advanced the clock: a record starts at its op's issue cycle and an
    // un-stalled op ends `latency` later.
    for core in 0..2 {
        let ops = log.iter().filter(|op| op.0 == core);
        let recs = records.iter().filter(|r| r.core == core);
        for (&(_, kind, issue, done), r) in ops.zip(recs) {
            assert_eq!((r.kind, r.start, r.end), (kind, issue, done), "{r:?}");
            if !r.stalled() {
                assert!(r.end > r.start, "{r:?} charged its latency");
            }
        }
    }
}

#[test]
fn trace_captures_the_full_op_stream() {
    let mut m = machine(2);
    m.enable_trace(10_000);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let buf = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_data(&mut s.ms, 8).unwrap()
    };
    m.run_tasks(vec![
        task(move |ctx| async move {
            ctx.work(100).await;
            ctx.store_u32(buf, 1).await;
            ctx.store_version(root, 1, 5).await;
        }),
        task(move |ctx| async move {
            let v = ctx.load_version(root, 1).await; // will stall
            ctx.store_u32(buf + 4, v).await;
        }),
    ])
    .unwrap();

    let st = m.state();
    let st = st.borrow();
    let s = trace::summary(&st.trace.records());
    assert_eq!(s.of(OpKind::Work).count, 1);
    assert_eq!(s.of(OpKind::Store).count, 2);
    assert_eq!(s.of(OpKind::VersionedStore).count, 1);
    assert_eq!(s.of(OpKind::VersionedLoad).count, 1);
    assert_eq!(s.of(OpKind::VersionedLoad).stalled, 1, "consumer stalled");
    // The stalled load spans the producer's compute window.
    let records = st.trace.records();
    let vload = records
        .iter()
        .find(|r| r.kind == OpKind::VersionedLoad)
        .unwrap();
    assert!(vload.end - vload.start >= 50);
    assert_eq!(vload.va, root);
    assert_eq!(vload.version, 1);
    // Records are well-formed: end >= start, cores in range.
    for r in st.trace.records() {
        assert!(r.end >= r.start);
        assert!(r.core < 2);
    }
}

#[test]
fn tracing_does_not_change_timing() {
    let run = |traced: bool| {
        let mut m = machine(4);
        if traced {
            m.enable_trace(1 << 16);
        }
        let root = {
            let st = m.state();
            let mut st = st.borrow_mut();
            let s = &mut *st;
            s.alloc.alloc_root(&mut s.ms).unwrap()
        };
        let mut tasks = vec![task(move |ctx| async move {
            ctx.store_version(root, 1, 0).await;
        })];
        for _ in 0..12 {
            tasks.push(task(move |ctx| async move {
                let tid = ctx.tid();
                let (vl, v) = ctx.lock_load_latest(root, tid).await;
                ctx.work(v as u64 % 37 + 3).await;
                ctx.unlock_version(root, vl, Some(tid + 1)).await;
            }));
        }
        let cycles = m.run_tasks(tasks).unwrap().cycles();
        let cpu = m.state().borrow().cpu.clone();
        (cycles, m.run_hists(), cpu)
    };
    let (plain, traced) = (run(false), run(true));
    assert_eq!(plain.0, traced.0, "tracing is observation-only");
    assert_eq!(plain.1, traced.1, "histograms unchanged by tracing");
    assert_eq!(plain.2, traced.2, "per-core counters unchanged by tracing");
    assert!(plain.1.l1_access.count() > 0, "hits reach the L1 histogram");
}

#[test]
fn bounded_trace_reports_drops() {
    let mut m = machine(1);
    m.enable_trace(4);
    m.run_tasks(vec![task(move |ctx| async move {
        for _ in 0..10 {
            ctx.work(1).await;
        }
    })])
    .unwrap();
    let st = m.state();
    let st = st.borrow();
    assert_eq!(st.trace.records().len(), 4);
    assert_eq!(st.trace.dropped, 6);
}

#[test]
fn machine_capture_spans_every_layer() {
    let mut m = machine(2);
    m.enable_trace(1 << 16);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc.alloc_root(&mut s.ms).unwrap()
    };
    let mut tasks = vec![task(move |ctx| async move {
        ctx.store_version(root, 1, 0).await;
    })];
    for _ in 0..8 {
        tasks.push(task(move |ctx| async move {
            let tid = ctx.tid();
            let (vl, v) = ctx.lock_load_latest(root, tid).await;
            ctx.work(v as u64 % 13 + 2).await;
            ctx.unlock_version(root, vl, Some(tid + 1)).await;
        }));
    }
    m.run_tasks(tasks).unwrap();
    let st = m.state();
    let st = st.borrow();
    // Core layer: per-op records.
    assert!(!st.trace.records().is_empty());
    // Memory layer: demand accesses stamped with a non-decreasing clock.
    let mem = st.ms.hier.events.records();
    assert!(!mem.is_empty(), "hierarchy events captured");
    assert!(mem.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    assert!(
        mem.iter().any(|e| e.cycle > 0),
        "clock reaches the hierarchy"
    );
    // Version-manager layer: the version stores allocated blocks.
    let mvm = st.omgr.events.records();
    assert!(
        mvm.iter().any(|e| e.kind_name() == "freelist_alloc"),
        "allocation events captured"
    );
}
