//! End-to-end tests of the execution tracer.

use osim_cpu::{task, trace, Machine, MachineCfg, OpKind};

fn machine(cores: usize) -> Machine {
    Machine::new(MachineCfg::paper(cores))
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
        m.run_tasks(tasks).unwrap().cycles()
    };
    assert_eq!(run(false), run(true), "tracing is observation-only");
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

#[test]
fn csv_export_has_one_row_per_record() {
    let mut m = machine(1);
    m.enable_trace(100);
    m.run_tasks(vec![task(move |ctx| async move {
        let a = ctx.malloc(8).await;
        ctx.store_u32(a, 1).await;
        ctx.load_u32(a).await;
    })])
    .unwrap();
    let st = m.state();
    let st = st.borrow();
    let mut buf = Vec::new();
    trace::to_csv(&st.trace.records(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), 1 + st.trace.records().len());
}
