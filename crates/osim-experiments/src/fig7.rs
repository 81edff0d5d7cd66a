//! Figure 7: scalability — speedup over the sequential *versioned* run
//! (self-speedup), large read-intensive configurations, 4–32 cores.
//!
//! Beyond the paper's speedup curve, each row reports the per-core work
//! imbalance at 32 cores (max core instructions ÷ mean): a value near 1
//! means the static scheduler kept the cores evenly loaded, and a high
//! value explains a sub-linear speedup that cache statistics would not.

use osim_report::SimReport;

use crate::common::{checked_run, f2, machine, pct, report_run, Bench, Scale};
use crate::runner::{SweepJob, SweepRun};

const CORE_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// The sweep in [`render`] order: per benchmark, the 1-core baseline then
/// each core count.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    let s = *scale;
    for bench in Bench::ALL {
        jobs.push(SweepJob::new(
            "fig7",
            bench.name(),
            "versioned-1c".to_string(),
            machine(scale, 1, None, 0),
            move |m| bench.run_versioned(m, &s, true, 4),
        ));
        for cores in CORE_COUNTS {
            jobs.push(SweepJob::new(
                "fig7",
                bench.name(),
                format!("versioned-{cores}c"),
                machine(scale, cores, None, 0),
                move |m| bench.run_versioned(m, &s, true, 4),
            ));
        }
    }
    jobs
}

/// Prints the scalability table from completed runs (in [`plan`] order).
pub fn render(scale: &Scale, stats: bool, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!(
        "## Figure 7 — scalability (speedup over sequential versioned; large, read-intensive)\n"
    );
    println!("scale: {scale:?}\n");
    let mut header = "| Benchmark | 4 | 8 | 16 | 32 | work imb @32 | stall imb @32 |".to_string();
    if stats {
        header.push_str(" L1 hit @32 | vload stall @32 |");
    }
    println!("{header}");
    println!(
        "|---|---|---|---|---|---|---|{}",
        if stats { "---|---|" } else { "" }
    );

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        run
    };

    for bench in Bench::ALL {
        let base = take();
        let mut cells = Vec::new();
        let mut at32 = None;
        for cores in CORE_COUNTS {
            let par = take();
            cells.push(f2(base.result.cycles as f64 / par.result.cycles as f64));
            if cores == 32 {
                at32 = Some(&par.result);
            }
        }
        let par = at32.expect("ran 32");
        let mut row = format!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            bench.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            f2(par.cpu.work_imbalance()),
            f2(par.cpu.stall_imbalance()),
        );
        if stats {
            row.push_str(&format!(
                " {} | {} |",
                pct(par.mem.l1_hit_rate()),
                pct(par.cpu.versioned_stall_rate()),
            ));
        }
        println!("{row}");
    }
    println!();
}

pub fn run(scale: &Scale, stats: bool, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale), jobs);
    render(scale, stats, &runs, out);
}
