//! Figure 9: L1 size sensitivity.
//!
//! The paper varies the L1 from 8 kB to 128 kB (32 kB baseline) for the
//! unversioned sequential (U), versioned single-core (1T) and versioned
//! 32-core (32T) runs of the large read-intensive benchmarks, and finds
//! effects of at most ~1.23x — pointer-heavy codes are cache-size
//! insensitive.

use osim_report::SimReport;

use crate::common::{checked_run, f2, machine, report_run, Bench, Scale};
use crate::runner::{SweepJob, SweepRun};

const SIZES_KB: [u32; 5] = [8, 16, 32, 64, 128];

/// The variant rows, in figure order.
const VARIANTS: [(&str, usize, bool); 3] = [("U", 1, false), ("1T", 1, true), ("32T", 32, true)];

/// The sweep in [`render`] order: per benchmark and variant, each L1 size.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    let s = *scale;
    for bench in Bench::ALL {
        for (variant, cores, versioned) in VARIANTS {
            for &kb in &SIZES_KB {
                jobs.push(SweepJob::new(
                    "fig9",
                    bench.name(),
                    format!("{variant}-{kb}kB"),
                    machine(scale, cores, Some(kb), 0),
                    move |m| {
                        if versioned {
                            bench.run_versioned(m, &s, true, 4)
                        } else {
                            bench.run_unversioned(m, &s, true, 4)
                        }
                    },
                ));
            }
        }
    }
    jobs
}

/// Prints the L1-sensitivity table from completed runs (in [`plan`] order).
pub fn render(scale: &Scale, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!("## Figure 9 — speedup vs the 32 kB L1 baseline (U / 1T / 32T)\n");
    println!("scale: {scale:?}\n");
    println!("| Benchmark | Variant | 8kB | 16kB | 32kB | 64kB | 128kB |");
    println!("|---|---|---|---|---|---|---|");

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        run
    };

    for bench in Bench::ALL {
        for (variant, _, _) in VARIANTS {
            let mut cycles: Vec<u64> = Vec::new();
            for _ in SIZES_KB {
                cycles.push(take().result.cycles);
            }
            let base = cycles[2] as f64; // 32 kB
            let row: Vec<String> = cycles.iter().map(|&c| f2(base / c as f64)).collect();
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
