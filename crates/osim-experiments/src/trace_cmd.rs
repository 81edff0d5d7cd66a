//! `trace`: run one workload with per-operation tracing and print the
//! latency/stall breakdown — the observability view behind the figures.
//!
//! Returns the run's Chrome trace-event document (built from the
//! per-operation, memory-hierarchy, version-manager and dependency-edge
//! capture streams) so the driver can write it out under `--chrome`.

use std::cell::RefCell;
use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg};
use osim_metrics::json::Json;
use osim_report::{chrome_trace, SimReport, TraceCounts};

use crate::common::Scale;

pub fn run(scale: &Scale, out: &mut Vec<SimReport>) -> Json {
    println!("## Execution trace — producer/consumer chain + pipelined list segment\n");
    let mut mcfg = MachineCfg::paper(4);
    mcfg.omgr.fault_plan = scale.inject;
    mcfg.omgr.oracles = scale.oracles;
    mcfg.shake = scale.shake;
    // Arm dependency capture too: flow arrows in the Chrome export, ring
    // occupancy in the report. Observation only — timing is unchanged.
    mcfg.dep_edges = 1 << 14;
    let mut m = Machine::new(mcfg.clone());
    m.enable_trace(1 << 20);
    let root = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        s.alloc
            .alloc_root(&mut s.ms)
            .expect("simulated RAM exhausted")
    };
    let n = (scale.ops as u32).clamp(16, 512);
    let sum = Rc::new(RefCell::new(0u64));
    let mut tasks = vec![task(move |ctx| async move {
        ctx.store_version(root, 16, 1).await;
    })];
    for _ in 0..n {
        let sum = Rc::clone(&sum);
        tasks.push(task(move |ctx| async move {
            let tid = ctx.tid();
            let (vl, v) = ctx.lock_load_latest(root, tid * 16 + 15).await;
            ctx.work(v as u64 % 31 + 8).await;
            ctx.unlock_version(root, vl, Some(tid * 16 + 15)).await;
            *sum.borrow_mut() += v as u64;
        }));
    }
    let phase = m.run_tasks(tasks).expect("no deadlock");
    let engine = m.engine_stats();
    let st = m.state();
    let st = st.borrow();
    let records = st.trace.records();
    let mem_events = st.ms.hier.events.records();
    let mvm_events = st.omgr.events.records();
    println!(
        "{} tasks, {} cycles, {} records ({} dropped)\n",
        n + 1,
        phase.cycles(),
        records.len(),
        st.trace.dropped
    );
    println!("{}", osim_cpu::trace::summary(&records));

    let mut rep = SimReport::new(
        "trace",
        "producer-consumer chain",
        "versioned",
        &mcfg,
        scale.report(),
        phase.cycles(),
        st.cpu.clone(),
        st.ms.hier.stats.clone(),
        st.omgr.stats.clone(),
        engine,
        m.run_hists(),
    );
    rep.trace = Some(TraceCounts {
        records: records.len() as u64,
        dropped: st.trace.dropped,
        mem_events: mem_events.len() as u64,
        mem_dropped: st.ms.hier.events.dropped,
        mvm_events: mvm_events.len() as u64,
        mvm_dropped: st.omgr.events.dropped,
        dep_edges: st.deps.len() as u64,
        dep_dropped: st.deps.dropped,
    });
    out.push(rep);

    chrome_trace(&records, &mem_events, &mvm_events, &st.deps.records())
}
