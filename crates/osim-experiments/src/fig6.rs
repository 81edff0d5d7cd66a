//! Figure 6: speedup of parallel versioned (32 cores) over sequential
//! unversioned execution.
//!
//! Paper shape: small benchmarks (1000 elements) and large (10000);
//! read-intensive (4R-1W) and write-intensive (1R-1W); irregular
//! pointer-heavy codes reach up to ~19x (the paper's headline), matmul and
//! Levenshtein scale almost linearly despite the fixed versioning
//! overhead.

use osim_report::SimReport;

use crate::common::{checked_run, f2, machine, pct, report_run, Bench, Scale};
use crate::runner::{SweepJob, SweepRun};

const CORES: usize = 32;

/// The four irregular configurations, in row order.
const CONFIGS: [(bool, u32); 4] = [(false, 4), (false, 1), (true, 4), (true, 1)];

/// The sweep, in the exact order [`render`] consumes it: every irregular
/// benchmark's four (unversioned, versioned) pairs, the two regular
/// benchmarks' single pairs, then the §IV-B matmul single-core pair.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    let s = *scale;
    for bench in Bench::IRREGULAR {
        for (large, rpw) in CONFIGS {
            let tag = format!("{}-{rpw}r1w", if large { "large" } else { "small" });
            jobs.push(SweepJob::new(
                "fig6",
                bench.name(),
                format!("unversioned-{tag}"),
                machine(scale, 1, None, 0),
                move |m| bench.run_unversioned(m, &s, large, rpw),
            ));
            jobs.push(SweepJob::new(
                "fig6",
                bench.name(),
                format!("versioned-{tag}"),
                machine(scale, CORES, None, 0),
                move |m| bench.run_versioned(m, &s, large, rpw),
            ));
        }
    }
    for bench in [Bench::Levenshtein, Bench::MatrixMul] {
        jobs.push(SweepJob::new(
            "fig6",
            bench.name(),
            "unversioned".to_string(),
            machine(scale, 1, None, 0),
            move |m| bench.run_unversioned(m, &s, false, 4),
        ));
        jobs.push(SweepJob::new(
            "fig6",
            bench.name(),
            "versioned".to_string(),
            machine(scale, CORES, None, 0),
            move |m| bench.run_versioned(m, &s, false, 4),
        ));
    }
    // The §IV-B single-thread overhead observation (matmul ~2.5x in the
    // paper): versioned sequential vs unversioned sequential.
    jobs.push(SweepJob::new(
        "fig6",
        Bench::MatrixMul.name(),
        "unversioned-1c".to_string(),
        machine(scale, 1, None, 0),
        move |m| Bench::MatrixMul.run_unversioned(m, &s, false, 4),
    ));
    jobs.push(SweepJob::new(
        "fig6",
        Bench::MatrixMul.name(),
        "versioned-1c".to_string(),
        machine(scale, 1, None, 0),
        move |m| Bench::MatrixMul.run_versioned(m, &s, false, 4),
    ));
    jobs
}

/// Prints the figure's tables from completed runs (in [`plan`] order) and
/// emits their reports.
pub fn render(scale: &Scale, stats: bool, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!(
        "## Figure 6 — speedup of parallel versioned ({CORES} cores) over sequential unversioned\n"
    );
    println!("scale: {scale:?}\n");
    let mut header =
        "| Benchmark | Small 4R-1W | Small 1R-1W | Large 4R-1W | Large 1R-1W |".to_string();
    if stats {
        header.push_str(" L1 hit | vload stall | root stall |");
    }
    println!("{header}");
    println!(
        "|---|---|---|---|---|{}",
        if stats { "---|---|---|" } else { "" }
    );

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        run
    };

    for bench in Bench::IRREGULAR {
        let mut cells = Vec::new();
        let mut last = None;
        for _ in CONFIGS {
            let seq = take();
            let par = take();
            cells.push(f2(seq.result.cycles as f64 / par.result.cycles as f64));
            last = Some(&par.result);
        }
        let mut row = format!(
            "| {} | {} | {} | {} | {} |",
            bench.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        if stats {
            let par = last.expect("ran");
            row.push_str(&format!(
                " {} | {} | {} |",
                pct(par.mem.l1_hit_rate()),
                pct(par.cpu.versioned_stall_rate()),
                pct(par.cpu.root_stall_rate()),
            ));
        }
        println!("{row}");
    }

    // The regular benchmarks have a single configuration each.
    for bench in [Bench::Levenshtein, Bench::MatrixMul] {
        let seq = take();
        let par = take();
        let s = f2(seq.result.cycles as f64 / par.result.cycles as f64);
        let mut row = format!("| {} | {s} | {s} | {s} | {s} |", bench.name());
        if stats {
            row.push_str(&format!(
                " {} | {} | - |",
                pct(par.result.mem.l1_hit_rate()),
                pct(par.result.cpu.versioned_stall_rate()),
            ));
        }
        println!("{row}");
    }

    let unv = take();
    let ver = take();
    println!(
        "\nsingle-thread versioning overhead (matmul): {}x slower than unversioned (paper: ~2.5x)\n",
        f2(ver.result.cycles as f64 / unv.result.cycles as f64)
    );
}

pub fn run(scale: &Scale, stats: bool, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale), jobs);
    render(scale, stats, &runs, out);
}
