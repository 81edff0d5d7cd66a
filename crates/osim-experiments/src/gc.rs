//! §IV-F: garbage-collection and version-sorting overhead.
//!
//! The paper runs a sequential workload of 1000 operations on a sorted
//! linked list of 10 elements (small on purpose, to magnify version
//! allocation):
//!
//! * a *tight* configuration whose free list forces frequent collection
//!   phases (135 in the paper) is only ~0.1% slower than
//! * a *plentiful* configuration that never collects, which in turn is
//!   ~0.1% slower than
//! * a configuration with *no version sorting* (versions created mostly in
//!   order are already sorted, so maintaining the order costs almost
//!   nothing).

use osim_cpu::MachineCfg;
use osim_report::SimReport;
use osim_uarch::GcConfig;
use osim_workloads::harness::DsCfg;
use osim_workloads::linked_list;

use crate::common::{checked_run, report_run, Scale};
use crate::runner::{SweepJob, SweepRun};

fn ds_cfg(scale: &Scale) -> DsCfg {
    DsCfg {
        initial: 10,
        ops: scale.ops.max(1000), // the paper's 1000 ops are cheap here
        reads_per_write: 1,
        scan_range: 0,
        key_space: 64,
        seed: 0x6c,
        insert_only: false,
    }
}

fn job(scale: &Scale, name: &'static str, tweak: impl Fn(&mut MachineCfg)) -> SweepJob {
    let mut m = MachineCfg::paper(1);
    m.omgr.fault_plan = scale.inject;
    m.omgr.oracles = scale.oracles;
    m.shake = scale.shake;
    tweak(&mut m);
    let cfg = ds_cfg(scale);
    // The Fig. 1-faithful protocol (renaming every passed cell) supplies
    // the version churn this experiment is about.
    SweepJob::new("gc", "Linked list", name.to_string(), m, move |mc| {
        linked_list::run_versioned_with(mc, &cfg, true)
    })
}

/// The three configurations, in [`render`] order: tight, plentiful,
/// unsorted.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    vec![
        job(scale, "tight", |m| {
            // Small enough to keep the collector busy, large enough that
            // reclamation outruns allocation (no OS refill traps — the
            // paper's tight configuration collects, it does not thrash).
            m.omgr.initial_free_blocks = 2048;
            m.omgr.refill_blocks = 256;
            m.omgr.gc = GcConfig { watermark: 1792 };
        }),
        job(scale, "plentiful", |m| {
            m.omgr.initial_free_blocks = 1 << 17;
            m.omgr.gc = GcConfig { watermark: 0 };
        }),
        job(scale, "unsorted", |m| {
            m.omgr.initial_free_blocks = 1 << 17;
            m.omgr.gc = GcConfig { watermark: 0 };
            m.omgr.sorted_insertion = false;
        }),
    ]
}

/// Prints the GC-overhead table from completed runs (in [`plan`] order).
pub fn render(scale: &Scale, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    let ops = ds_cfg(scale).ops;
    println!("## §IV-F — GC overhead (sequential, {ops} ops on a 10-element sorted list)\n");

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        &run.result
    };

    let tight = take();
    let (tight_cy, tight_phases, tight_reclaimed) = (
        tight.cycles,
        tight.ostats.gc_phases,
        tight.ostats.reclaimed_blocks,
    );
    let plenty = take();
    let (plenty_cy, plenty_phases) = (plenty.cycles, plenty.ostats.gc_phases);
    let unsorted_cy = take().cycles;

    println!("| Configuration | Cycles | GC phases | Blocks reclaimed |");
    println!("|---|---|---|---|");
    println!("| Tight (collecting) | {tight_cy} | {tight_phases} | {tight_reclaimed} |");
    println!("| Plentiful (no GC) | {plenty_cy} | {plenty_phases} | 0 |");
    println!("| Plentiful, unsorted lists | {unsorted_cy} | 0 | 0 |");
    println!();
    println!(
        "GC overhead: {:+.2}% (paper: ~0.1%); sorting overhead: {:+.2}% (paper: ~0.1%)\n",
        (tight_cy as f64 / plenty_cy as f64 - 1.0) * 100.0,
        (plenty_cy as f64 / unsorted_cy as f64 - 1.0) * 100.0,
    );
}

pub fn run(scale: &Scale, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale), jobs);
    render(scale, &runs, out);
}
