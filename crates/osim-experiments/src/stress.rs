//! `stress` subcommand: the schedule-shaking robustness harness.
//!
//! The engine's [`osim_cpu::ShakePolicy`] perturbs same-cycle ready-queue
//! tie-breaks from a seeded splitmix64 stream, deterministically exploring
//! event interleavings the default FIFO tie-break never produces. This
//! module fans N such seeds over every figure sweep and checks, for each
//! perturbed run:
//!
//! - the workload's own end-state validation (`DsResult::ok`),
//! - the manager's runtime invariant oracles (lock exclusion, version
//!   monotonicity, GC liveness) armed via [`Scale::oracles`],
//! - report well-formedness (`SimReport::validate`, which includes the
//!   stall-sum exactness invariant),
//! - a cycle-count envelope against the unshaken baseline of the same job
//!   (shaking may legally move timing, but not by integer factors).
//!
//! Every failure prints a one-line *minimal repro* — the exact `stress
//! --fig … --shake-seed … --seeds 1` invocation — plus a blame report, so
//! a CI hit is reproducible locally without rerunning the whole fan-out.
//! Stdout carries no wall-clock quantities; a given seed set prints
//! byte-identically on every host.

use osim_cpu::ShakePolicy;

use crate::common::{report_run, Scale};
use crate::runner::{run_jobs, SweepJob, SweepRun};
use crate::{fig10, fig6, fig7, fig8, fig9, gc};

/// One figure sweep the harness shakes: its name (also the `--fig` filter
/// key) and its plan function.
struct Figure {
    name: &'static str,
    plan: fn(&Scale) -> Vec<SweepJob>,
}

/// Every quick figure of the evaluation. `trace` and `analyze` are
/// excluded: both are single annotated runs whose capture buffers are
/// exercised elsewhere, and neither renders a sweep.
const FIGURES: &[Figure] = &[
    Figure {
        name: "fig6",
        plan: fig6::plan,
    },
    Figure {
        name: "fig7",
        plan: fig7::plan,
    },
    Figure {
        name: "fig8",
        plan: fig8::plan,
    },
    Figure {
        name: "fig9",
        plan: fig9::plan,
    },
    Figure {
        name: "fig10",
        plan: fig10::plan,
    },
    Figure {
        name: "gc",
        plan: gc::plan,
    },
];

/// Returns the figure names the `--fig` filter accepts.
pub fn figure_names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).collect()
}

/// One detected invariant violation, with everything needed to reproduce
/// and assign blame.
struct Failure {
    fig: &'static str,
    bench: &'static str,
    tag: String,
    /// Shake seed of the failing run; `None` = the unshaken baseline.
    seed: Option<u64>,
    what: String,
}

/// Checks one shaken run against every oracle; returns the failure
/// descriptions (empty = clean).
fn check_run(run: &SweepRun, scale: &Scale, baseline_cycles: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let r = &run.result;
    if !r.ok {
        bad.push(format!("workload validation failed: {}", r.detail));
    }
    match &r.oracle {
        None => bad.push("oracle report missing (oracles were armed)".to_string()),
        Some(o) if !o.ok() => bad.push(format!("invariant oracle: {}", o.summary())),
        Some(_) => {}
    }
    if let Err(e) = report_run(run, scale).validate() {
        bad.push(format!("report validation failed: {e}"));
    }
    // Tie-break perturbation may move contention stalls around, but a
    // shaken run drifting past 2x (either way) from the FIFO baseline
    // means timing went structurally wrong, not just "a different legal
    // interleaving".
    let (lo, hi) = (baseline_cycles / 2, baseline_cycles.saturating_mul(2));
    if r.cycles < lo || r.cycles > hi {
        bad.push(format!(
            "cycles {} outside envelope [{lo}, {hi}] of unshaken baseline {baseline_cycles}",
            r.cycles
        ));
    }
    bad
}

/// Runs the stress harness: `seeds` shake seeds starting at `first_seed`
/// across every figure matching `fig_filter` (None = all), on `jobs`
/// worker threads. Returns the process exit code (0 clean, 1 violations).
pub fn run(
    scale_in: &Scale,
    scale_name: &str,
    first_seed: u64,
    seeds: u64,
    fig_filter: Option<&str>,
    jobs: usize,
) -> i32 {
    let figures: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| fig_filter.is_none_or(|want| want == f.name))
        .collect();
    let last_seed = first_seed + seeds.saturating_sub(1);
    println!("## Stress — seeded schedule shaking\n");
    println!(
        "scale {scale_name}, seeds {first_seed}..={last_seed}, figures: {}",
        figures.iter().map(|f| f.name).collect::<Vec<_>>().join(" ")
    );
    println!();

    // Oracles stay armed for baselines too: the unshaken FIFO schedule is
    // one more interleaving the invariants must hold under.
    let mut base_scale = *scale_in;
    base_scale.shake = ShakePolicy::Off;
    base_scale.oracles = true;

    let mut failures: Vec<Failure> = Vec::new();
    let mut total_runs: u64 = 0;
    let mut total_checks: u64 = 0;

    for figure in &figures {
        // Unshaken baseline: supplies the per-job cycle envelope.
        let baseline = run_jobs((figure.plan)(&base_scale), jobs);
        for run in &baseline {
            total_runs += 1;
            if let Some(o) = &run.result.oracle {
                total_checks += o.checks();
            }
            for what in check_run(run, &base_scale, run.result.cycles) {
                failures.push(Failure {
                    fig: figure.name,
                    bench: run.bench,
                    tag: run.tag.clone(),
                    seed: None,
                    what: format!("[unshaken baseline] {what}"),
                });
            }
        }

        let mut fig_failures = 0usize;
        for seed in first_seed..=last_seed {
            let mut shaken_scale = base_scale;
            shaken_scale.shake = ShakePolicy::Seeded(seed);
            let shaken = run_jobs((figure.plan)(&shaken_scale), jobs);
            for (run, base) in shaken.iter().zip(&baseline) {
                total_runs += 1;
                if let Some(o) = &run.result.oracle {
                    total_checks += o.checks();
                }
                for what in check_run(run, &shaken_scale, base.result.cycles) {
                    fig_failures += 1;
                    failures.push(Failure {
                        fig: figure.name,
                        bench: run.bench,
                        tag: run.tag.clone(),
                        seed: Some(seed),
                        what,
                    });
                }
            }
        }
        let verdict = if fig_failures == 0 {
            "ok".to_string()
        } else {
            format!("{fig_failures} FAILURE(S)")
        };
        println!(
            "  {:<6} {:>3} jobs x {} seed(s): {verdict}",
            figure.name,
            baseline.len(),
            seeds
        );
    }

    println!();
    if failures.is_empty() {
        println!(
            "stress: {} figure(s), {} seed(s), {total_runs} runs, \
             {total_checks} oracle checks — all invariants held",
            figures.len(),
            seeds
        );
        0
    } else {
        println!(
            "stress: {} violation(s) across {total_runs} runs:\n",
            failures.len()
        );
        for f in &failures {
            let seed_label = f
                .seed
                .map_or_else(|| "baseline".to_string(), |s| s.to_string());
            println!(
                "  FAIL {}/{}/{} seed {}: {}",
                f.fig, f.bench, f.tag, seed_label, f.what
            );
            let repro = match f.seed {
                Some(s) => format!(
                    "stress --scale {scale_name} --fig {} --shake-seed {s} --seeds 1",
                    f.fig
                ),
                None => format!("{} --scale {scale_name}", f.fig),
            };
            println!("       repro: cargo run -p osim-experiments --release -- {repro}");
        }
        1
    }
}
