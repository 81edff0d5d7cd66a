//! Figure 10: sensitivity to versioned-operation latency.
//!
//! The paper cannot know the exact RTL latency of the extended L1 logic,
//! so it injects a fixed 2–10 cycle penalty into every versioned operation
//! and measures the slowdown: up to 16% at 10 cycles, much milder at
//! realistic 2–4 cycle penalties.

use osim_report::SimReport;

use crate::common::{checked_run, machine, report_run, Bench, Scale};
use crate::runner::{SweepJob, SweepRun};

const EXTRA: [u64; 5] = [2, 4, 6, 8, 10];

/// The variant rows, in figure order.
const VARIANTS: [(&str, usize); 2] = [("1T", 1), ("32T", 32)];

/// The sweep in [`render`] order: per benchmark and variant, the
/// no-injection baseline then each injected latency.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    let s = *scale;
    for bench in Bench::ALL {
        for (variant, cores) in VARIANTS {
            jobs.push(SweepJob::new(
                "fig10",
                bench.name(),
                format!("{variant}+0cy"),
                machine(scale, cores, None, 0),
                move |m| bench.run_versioned(m, &s, true, 4),
            ));
            for &e in &EXTRA {
                jobs.push(SweepJob::new(
                    "fig10",
                    bench.name(),
                    format!("{variant}+{e}cy"),
                    machine(scale, cores, None, e),
                    move |m| bench.run_versioned(m, &s, true, 4),
                ));
            }
        }
    }
    jobs
}

/// Prints the latency-sensitivity table from completed runs (in [`plan`]
/// order).
pub fn render(scale: &Scale, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!(
        "## Figure 10 — slowdown from injecting latency into versioned ops (vs no injection)\n"
    );
    println!("scale: {scale:?}\n");
    println!("| Benchmark | Variant | +2cy | +4cy | +6cy | +8cy | +10cy |");
    println!("|---|---|---|---|---|---|---|");

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        run
    };

    for bench in Bench::ALL {
        for (variant, _) in VARIANTS {
            let base = take().result.cycles as f64;
            let mut row: Vec<String> = Vec::new();
            for _ in EXTRA {
                let c = take().result.cycles as f64;
                // Negative = slowdown, matching the paper's plot.
                row.push(format!("{:+.1}%", (base / c - 1.0) * 100.0));
            }
            println!(
                "| {} | {variant} | {} | {} | {} | {} | {} |",
                bench.name(),
                row[0],
                row[1],
                row[2],
                row[3],
                row[4]
            );
        }
    }
    println!();
}

pub fn run(scale: &Scale, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale), jobs);
    render(scale, &runs, out);
}
