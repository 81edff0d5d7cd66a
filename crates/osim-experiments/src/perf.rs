//! `perf`: the host-speed regression benchmark.
//!
//! Runs the fixed figure sweep at the requested scale `reps` times and
//! writes `BENCH_sweep.json`: host wall-time per figure and repetition,
//! total simulated cycles, and the worker count used. Committing one such
//! file per change gives the repository a wall-clock baseline that review
//! can diff — simulated results never vary (that is separately enforced by
//! the equivalence tests), so any movement in this file is host-side.
//!
//! The sweep executes the figures' *plans* without rendering their tables:
//! simulated work and validation are identical to the normal commands,
//! only the Markdown output is skipped (it would interleave meaninglessly
//! across repetitions).

use std::time::Instant;

use osim_report::json::{obj, Json};

use crate::common::Scale;
use crate::runner::{self, SweepRun};
use crate::{fig10, fig6, fig7, fig8, fig9, gc};

/// One figure of the sweep: name + plan entry point.
pub(crate) type Fig = (&'static str, fn(&Scale) -> Vec<runner::SweepJob>);

pub(crate) const FIGS: [Fig; 6] = [
    ("fig6", fig6::plan),
    ("fig7", fig7::plan),
    ("fig8", fig8::plan),
    ("fig9", fig9::plan),
    ("fig10", fig10::plan),
    ("gc", gc::plan),
];

pub(crate) fn validate(runs: &[SweepRun]) -> u64 {
    let mut cycles = 0;
    for run in runs {
        assert!(
            run.result.ok,
            "perf sweep {}/{}/{}: validation failed: {}",
            run.fig, run.bench, run.tag, run.result.detail
        );
        cycles += run.result.cycles;
    }
    cycles
}

/// Runs the sweep and writes the benchmark document to `path`.
///
/// `baseline` is the reference point the run is measured against — the
/// best serial sweep wall-time of some earlier commit (`--baseline-ms`)
/// and a label naming it (`--baseline-ref`, typically the commit hash).
/// When present, the document carries a `baseline` object and a
/// `speedup_vs_baseline` ratio so the committed file shows before/after
/// in one place.
pub fn run(
    scale: &Scale,
    scale_name: &str,
    jobs: usize,
    reps: usize,
    baseline: Option<(f64, String)>,
    path: &str,
) {
    let mut fig_wall: Vec<Vec<f64>> = vec![Vec::new(); FIGS.len()];
    let mut fig_cycles: Vec<u64> = vec![0; FIGS.len()];
    let mut fig_runs: Vec<usize> = vec![0; FIGS.len()];
    let mut rep_wall: Vec<f64> = Vec::new();

    for rep in 0..reps {
        let rep_start = Instant::now();
        for (i, (name, plan)) in FIGS.iter().enumerate() {
            let t = Instant::now();
            let runs = runner::run_jobs(plan(scale), jobs);
            // Round to 1 µs so the committed JSON stays diff-friendly.
            let wall_ms = (t.elapsed().as_secs_f64() * 1e6).round() / 1e3;
            let cycles = validate(&runs);
            if rep == 0 {
                fig_cycles[i] = cycles;
                fig_runs[i] = runs.len();
            } else {
                // Simulated work is deterministic; a drift between
                // repetitions means the simulator broke, not the host.
                assert_eq!(
                    cycles, fig_cycles[i],
                    "{name}: simulated cycles drifted between repetitions"
                );
            }
            fig_wall[i].push(wall_ms);
        }
        let total_ms = (rep_start.elapsed().as_secs_f64() * 1e6).round() / 1e3;
        eprintln!("perf rep {}/{reps}: {total_ms:.0} ms", rep + 1);
        rep_wall.push(total_ms);
    }

    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let figs = FIGS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            obj(vec![
                ("fig", Json::Str(name.to_string())),
                ("runs", Json::from_u64(fig_runs[i] as u64)),
                ("sim_cycles", Json::from_u64(fig_cycles[i])),
                (
                    "wall_ms",
                    Json::Arr(fig_wall[i].iter().map(|&w| Json::Num(w)).collect()),
                ),
                ("best_wall_ms", Json::Num(min(&fig_wall[i]))),
            ])
        })
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let best_total = min(&rep_wall);
    let mut fields = vec![
        ("schema", Json::Str("osim-bench-sweep-v1".to_string())),
        ("scale", Json::Str(scale_name.to_string())),
        ("jobs", Json::from_u64(jobs as u64)),
        ("reps", Json::from_u64(reps as u64)),
        ("host_cpus", Json::from_u64(host_cpus as u64)),
        // Host environment stamp: what kind of machine produced these
        // wall-times. A committed baseline from a many-core host must not
        // be speed-compared against a 1-CPU CI runner; the CI guard reads
        // host_cpus from both sides before comparing.
        ("host_os", Json::Str(std::env::consts::OS.to_string())),
        ("host_arch", Json::Str(std::env::consts::ARCH.to_string())),
    ];
    if let Some((ms, ref_name)) = &baseline {
        fields.push((
            "baseline",
            obj(vec![
                ("ref", Json::Str(ref_name.clone())),
                ("best_wall_ms", Json::Num(*ms)),
            ]),
        ));
        fields.push((
            "speedup_vs_baseline",
            Json::Num((ms / best_total * 1e3).round() / 1e3),
        ));
    }
    fields.extend([
        ("figs", Json::Arr(figs)),
        (
            "total",
            obj(vec![
                (
                    "runs",
                    Json::from_u64(fig_runs.iter().sum::<usize>() as u64),
                ),
                ("sim_cycles", Json::from_u64(fig_cycles.iter().sum())),
                (
                    "wall_ms",
                    Json::Arr(rep_wall.iter().map(|&w| Json::Num(w)).collect()),
                ),
                ("best_wall_ms", Json::Num(min(&rep_wall))),
            ]),
        ),
    ]);

    let doc = obj(fields);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("cannot write perf output {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "wrote {path}: scale={scale_name} jobs={jobs} best sweep {:.0} ms",
        min(&rep_wall)
    );
}
