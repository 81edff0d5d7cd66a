//! `analyze`: run a figure's workload with causal capture armed and print
//! the dependency critical-path / top-contender report.
//!
//! Dependency-edge capture is host-side observation, so every simulated cycle count here matches the same
//! figure run without capture; what this command adds is the *why* —
//! which producer→consumer chain the run's length hides, which structure
//! everyone queued on, and how unevenly the waiting spread across cores.

use osim_cpu::{MachineCfg, StallCause};
use osim_report::{CritPath, SimReport, TraceCounts};

use crate::common::{checked_run, machine, pct, report_run, Bench, Scale};
use crate::runner::{SweepJob, SweepRun};

/// Dependency-edge ring capacity for analysis runs.
const DEP_RING: usize = 1 << 14;

/// The machine configuration at the chosen figure's characteristic point
/// (32 cores; fig9 takes the smallest L1, fig10 the largest injected
/// versioned-op latency — the points where causality matters most).
fn fig_machine(scale: &Scale, fig: u32) -> MachineCfg {
    match fig {
        9 => machine(scale, 32, Some(8), 0),
        10 => machine(scale, 32, None, 10),
        _ => machine(scale, 32, None, 0), // fig 6 and 7 share the config
    }
}

/// The sweep in [`render`] order: one captured run per benchmark.
pub fn plan(scale: &Scale, fig: u32) -> Vec<SweepJob> {
    let s = *scale;
    Bench::ALL
        .iter()
        .map(|&bench| {
            let mut cfg = fig_machine(scale, fig);
            cfg.dep_edges = DEP_RING;
            SweepJob::new(
                "analyze",
                bench.name(),
                format!("fig{fig}-capture"),
                cfg,
                move |m| bench.run_versioned(m, &s, true, 4),
            )
        })
        .collect()
}

/// Prints the causal report from completed runs (in [`plan`] order).
pub fn render(scale: &Scale, fig: u32, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!("## Causal analysis — dependency critical path (fig{fig} workload, capture armed)\n");
    println!("scale: {scale:?}\n");

    let analyzed: Vec<(&SweepRun, CritPath)> = runs
        .iter()
        .map(|run| {
            let r = checked_run(run);
            (run, CritPath::build(&r.deps, r.window))
        })
        .collect();

    println!("| Benchmark | cycles | path | path wait | missing | locked | coherence | gc |");
    println!("|---|---|---|---|---|---|---|---|");
    for (run, cp) in &analyzed {
        let mut by_cause = [0u64; 4];
        for seg in &cp.segments {
            if let Some(c) = seg.cause {
                by_cause[c.index()] += seg.cycles();
            }
        }
        println!(
            "| {} | {} | {} | {} ({}) | {} | {} | {} | {} |",
            run.bench,
            run.result.cycles,
            cp.length(),
            cp.wait_cycles(),
            pct(cp.wait_cycles() as f64 / cp.length().max(1) as f64),
            by_cause[StallCause::MissingVersion.index()],
            by_cause[StallCause::LockedVersion.index()],
            by_cause[StallCause::CoherenceInval.index()],
            by_cause[StallCause::FreeListGc.index()],
        );
    }

    println!("\n| Benchmark | hot structure | waited | edges | cause | core-wait imb |");
    println!("|---|---|---|---|---|---|");
    for (run, cp) in &analyzed {
        let hot = cp.contenders.first();
        let imb = match cp.per_core.len() {
            0 => "-".to_string(),
            n => {
                let max = cp.per_core.iter().map(|c| c.waited).max().unwrap_or(0);
                let mean = cp.per_core.iter().map(|c| c.waited).sum::<u64>() as f64 / n as f64;
                if mean > 0.0 {
                    format!("{:.2}", max as f64 / mean)
                } else {
                    "-".to_string()
                }
            }
        };
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            run.bench,
            hot.map_or("-".to_string(), |c| format!("{:#x}", c.va)),
            hot.map_or(0, |c| c.waited),
            hot.map_or(0, |c| c.edges),
            hot.map_or("-", |c| c.top_cause.name()),
            imb,
        );
    }
    println!();

    for (run, cp) in analyzed {
        let r = &run.result;
        let mut rep = report_run(run, scale);
        rep.critpath = Some(cp);
        // Only the dependency ring is armed: the op, memory and
        // version-manager counts read 0 (see `TraceCounts`).
        rep.trace = Some(TraceCounts {
            dep_edges: r.deps.len() as u64,
            dep_dropped: r.deps_dropped,
            ..TraceCounts::default()
        });
        out.push(rep);
    }
}

pub fn run(scale: &Scale, fig: u32, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale, fig), jobs);
    render(scale, fig, &runs, out);
}
