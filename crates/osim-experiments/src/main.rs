//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV) from the simulator.
//!
//! ```text
//! cargo run -p osim-experiments --release -- <experiment> [--full|--tiny]
//!     [--scale <quick|tiny|full>] [--jobs <n>] [--stats] [--json <path>]
//!     [--chrome <path>] [--progress] [--sweep-json <path>]
//! cargo run -p osim-experiments --release -- compare <a.json> <b.json>
//!     [--json <path>]
//!
//! experiments:
//!   config   Table II   — the simulated platform configuration
//!   fig6     Figure 6   — speedup of 32-core versioned over sequential unversioned
//!   fig7     Figure 7   — scalability (4..32 cores) over 1-core versioned
//!   fig8     Figure 8   — versioned BST vs read-write-lock BST (snapshot isolation)
//!   fig9     Figure 9   — L1 size sensitivity (8 kB .. 128 kB)
//!   fig10    Figure 10  — injected versioned-op latency (2..10 cycles)
//!   gc       §IV-F      — garbage collection and version-sorting overhead
//!   trace               — per-operation latency/stall breakdown (tracer demo)
//!   analyze             — causal analysis: dependency critical path and top
//!                         contenders of a figure workload (`--fig <6|7|9|10>`,
//!                         default 7)
//!   all      everything above
//!   perf                — host-speed benchmark; writes BENCH_sweep.json.
//!                         With `--ostructs`, benchmarks the concurrent
//!                         versioned store instead (single-thread committed
//!                         reads, multi-thread throughput, zipf mix with a
//!                         live vacuum) and writes BENCH_ostructs.json
//!   compare             — diff two `--json` report files: counters, stall
//!                         causes, histograms, ranked regression attribution
//!   stress              — schedule-shaking robustness harness: every quick
//!                         figure under `--seeds` seeded tie-break
//!                         perturbations with the invariant oracles armed
//!                         (`--shake-seed` pins the first seed, `--fig`
//!                         restricts the figure set; exit 0 = clean)
//! ```
//!
//! `--shake-seed <n>` arms [`osim_cpu::ShakePolicy::Seeded`] on every
//! machine of the invocation: same-cycle ready-queue tie-breaks are drawn
//! from splitmix64 stream `n` instead of FIFO order. A given seed is
//! byte-identical across `--jobs` counts, but its
//! numbers may legally differ from the committed (unshaken) references.
//!
//! `perf` additionally accepts `--reps <n>` (repetitions, default 3) and
//! `--baseline-ms <ms> [--baseline-ref <label>]` to embed the reference
//! sweep time (and the commit it came from) in the emitted document,
//! which then carries a computed `speedup_vs_baseline`.
//!
//! `--full` uses the paper's workload sizes (slow: gem5 took hours on
//! these too); the default is a proportionally scaled-down configuration
//! that preserves every qualitative effect, and `--tiny` shrinks further
//! for integration tests (`--scale <quick|tiny|full>` is the spelled-out
//! equivalent). `--stats` appends the §IV-D secondary statistics (hit
//! rates, stall rates) to fig6/fig7 rows.
//!
//! `--jobs <n>` runs the independent simulations of a sweep on `n` host
//! worker threads (default: the host's available parallelism). Each
//! simulated machine is deterministic and self-contained, so the output
//! — stdout tables, `--json` reports, every simulated cycle count — is
//! byte-identical for every `n`; only host wall-time changes. The trace
//! experiment is a single annotated run and always executes serially.
//!
//! `--json <path>` writes every run of the invocation as a JSON array of
//! [`SimReport`]s; `--chrome <path>` (trace experiment only) writes the
//! run's Chrome trace-event document, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! `--progress` paints a live one-line sweep status (done/running/queued
//! counts, an ETA, and what each worker is on) to **stderr**, so stdout
//! and `--json` stay byte-identical with and without it. `--sweep-json
//! <path>` writes the host-side sweep telemetry after the run: per-job
//! queue wait and wall time, per-worker busy time and utilization, and
//! stale-event rates. It is the sweep's one host-timing document (the
//! store's is the `metrics` object of `perf --ostructs`'s
//! `BENCH_ostructs.json`). Both are wall-clock observations of the host
//! and deliberately never enter the `SimReport` stream.
//!
//! `compare <a.json> <b.json>` loads two report files (as written by
//! `--json`), pairs runs by experiment/benchmark/variant, and prints a
//! per-pair diff: cycle delta with a ranked stall-cause attribution
//! table, changed counters, and histogram quantile shifts. Exit code 0
//! means byte-equivalent simulated results, 1 means deltas were found
//! (usage errors exit 2), so CI can assert either direction without
//! parsing; `--json` writes the machine-readable diff document.
//!
//! `--inject <spec>` applies a deterministic fault-injection plan
//! ([`osim_uarch::FaultPlan::parse`]) to every machine the invocation
//! builds: version-block pool shrinks, transient OS-carve failures,
//! per-op latency jitter and coherence-invalidation delays, all driven
//! by a seeded PRNG so the same spec replays the same schedule. See
//! `EXPERIMENTS.md` § "Fault injection & resilience".

use std::env;
use std::fs;

use osim_metrics::json::Json;
use osim_report::SimReport;

mod analyze;
mod common;
mod compare_cmd;
#[cfg(test)]
mod equivalence_tests;
mod fig10;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod gc;
mod ostructs_perf;
mod perf;
mod runner;
mod stress;
mod trace_cmd;

use common::Scale;

/// Removes `flag <value>` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes the boolean `flag` from `args`, returning whether it was given.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(i);
    true
}

/// Exits 2 on anything left in `args` once every known flag is taken: a
/// `--flag` the command does not know, or a positional beyond the
/// first `positionals`.
fn reject_leftovers(args: &[String], positionals: usize) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag:?}");
        std::process::exit(2);
    }
    if let Some(extra) = args.get(positionals) {
        eprintln!("unexpected argument {extra:?}");
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();

    let json_path = take_value(&mut args, "--json");
    let chrome_path = take_value(&mut args, "--chrome");
    let sweep_json = take_value(&mut args, "--sweep-json");
    let progress = take_flag(&mut args, "--progress");
    let ostructs = take_flag(&mut args, "--ostructs");
    let inject =
        take_value(&mut args, "--inject").map(|spec| match osim_uarch::FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("--inject {spec}: {e}");
                std::process::exit(2);
            }
        });
    let scale_flag = take_value(&mut args, "--scale");
    let jobs = match take_value(&mut args, "--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let baseline_ms = take_value(&mut args, "--baseline-ms").map(|v| match v.parse::<f64>() {
        Ok(ms) if ms > 0.0 => ms,
        _ => {
            eprintln!("--baseline-ms requires a positive number, got {v:?}");
            std::process::exit(2);
        }
    });
    let baseline_ref = take_value(&mut args, "--baseline-ref");
    let baseline = baseline_ms.map(|ms| {
        (
            ms,
            baseline_ref
                .clone()
                .unwrap_or_else(|| "baseline".to_string()),
        )
    });
    let fig_flag = take_value(&mut args, "--fig");
    let shake_seed = take_value(&mut args, "--shake-seed").map(|v| match v.parse::<u64>() {
        Ok(n) => n,
        _ => {
            eprintln!("--shake-seed requires an unsigned integer, got {v:?}");
            std::process::exit(2);
        }
    });
    let seeds = match take_value(&mut args, "--seeds") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--seeds requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
        None => 25,
    };
    let reps = match take_value(&mut args, "--reps") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--reps requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
        None => 3,
    };
    let full = take_flag(&mut args, "--full");
    let tiny = take_flag(&mut args, "--tiny");
    let stats = take_flag(&mut args, "--stats");
    // Only `compare` takes positionals beyond the command: its two files.
    let cmd = args.first().map_or("help", String::as_str);
    reject_leftovers(&args, if cmd == "compare" { 3 } else { 1 });
    let scale_name = match scale_flag.as_deref() {
        Some(s @ ("quick" | "tiny" | "full")) => s,
        Some(other) => {
            eprintln!("--scale must be quick, tiny or full, got {other:?}");
            std::process::exit(2);
        }
        None if full => "full",
        None if tiny => "tiny",
        None => "quick",
    };
    let mut scale = match scale_name {
        "full" => Scale::paper(),
        "tiny" => Scale::tiny(),
        _ => Scale::quick(),
    };
    scale.inject = inject;
    if let Some(seed) = shake_seed {
        // For the stress subcommand the seed pins the start of the seed
        // range instead; stress sets the per-run policy itself.
        scale.shake = osim_cpu::ShakePolicy::Seeded(seed);
    }

    runner::set_progress(progress);

    let mut reports: Vec<SimReport> = Vec::new();
    let mut chrome_doc: Option<Json> = None;
    // Only `stress` fails by exit code; it still reaches the writers below.
    let mut exit_code = 0;

    if cmd == "compare" {
        let files = &args[1..];
        if files.len() != 2 {
            eprintln!(
                "compare requires exactly two report files, got {}",
                files.len()
            );
            std::process::exit(2);
        }
        std::process::exit(compare_cmd::run(&files[0], &files[1], json_path.as_deref()));
    }

    match cmd {
        "config" => common::print_config(),
        "fig6" => fig6::run(&scale, stats, jobs, &mut reports),
        "fig7" => fig7::run(&scale, stats, jobs, &mut reports),
        "fig8" => fig8::run(&scale, jobs, &mut reports),
        "fig9" => fig9::run(&scale, jobs, &mut reports),
        "fig10" => fig10::run(&scale, jobs, &mut reports),
        "gc" => gc::run(&scale, jobs, &mut reports),
        "trace" => chrome_doc = Some(trace_cmd::run(&scale, &mut reports)),
        "analyze" => {
            let fig = match fig_flag.as_deref() {
                Some(v) => match v.trim_start_matches("fig").parse::<u32>() {
                    Ok(n @ (6 | 7 | 9 | 10)) => n,
                    _ => {
                        eprintln!("analyze --fig must be 6, 7, 9 or 10, got {v:?}");
                        std::process::exit(2);
                    }
                },
                None => 7,
            };
            analyze::run(&scale, fig, jobs, &mut reports)
        }
        "stress" => {
            let fig_filter = fig_flag.as_deref().map(|v| {
                let name = if v.chars().all(|c| c.is_ascii_digit()) {
                    format!("fig{v}")
                } else {
                    v.to_string()
                };
                match stress::figure_names().iter().find(|f| **f == name) {
                    Some(f) => *f,
                    None => {
                        eprintln!(
                            "stress --fig must be one of {}, got {v:?}",
                            stress::figure_names().join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            });
            let first_seed = shake_seed.unwrap_or(1);
            exit_code = stress::run(&scale, scale_name, first_seed, seeds, fig_filter, jobs);
        }
        "perf" if ostructs => ostructs_perf::run(scale_name, reps, "BENCH_ostructs.json"),
        "perf" => perf::run(&scale, scale_name, jobs, reps, baseline, "BENCH_sweep.json"),
        "all" => {
            common::print_config();
            fig6::run(&scale, stats, jobs, &mut reports);
            fig7::run(&scale, stats, jobs, &mut reports);
            fig8::run(&scale, jobs, &mut reports);
            fig9::run(&scale, jobs, &mut reports);
            fig10::run(&scale, jobs, &mut reports);
            gc::run(&scale, jobs, &mut reports);
            chrome_doc = Some(trace_cmd::run(&scale, &mut reports));
        }
        _ => {
            eprintln!(
                "usage: osim-experiments <config|fig6|fig7|fig8|fig9|fig10|gc|trace|analyze|all|perf|stress> \
                 [--full|--tiny] [--scale <quick|tiny|full>] [--jobs <n>] [--reps <n>] \
                 [--stats] [--json <path>] [--chrome <path>] \
                 [--fig <6|7|9|10>] \
                 [--shake-seed <n>] [--seeds <n>] \
                 [--progress] [--sweep-json <path>] [--ostructs] \
                 [--inject <spec>] [--baseline-ms <ms> [--baseline-ref <label>]]\n\
                 \n\
                 osim-experiments compare <a.json> <b.json> [--json <path>]\n\
                 \n\
                 stress: schedule-shaking robustness harness. Runs every quick\n\
                 figure under --seeds (default 25) seeded tie-break perturbations\n\
                 (--shake-seed pins the first seed), with the manager's invariant\n\
                 oracles armed. Prints a minimal repro line per violation; exit\n\
                 0 = all invariants held, 1 = violations (--sweep-json is\n\
                 written either way).\n\
                 --fig <6|7|8|9|10|gc> restricts the figure set.\n\
                 \n\
                 --shake-seed <n>: for the other experiments, perturb same-cycle\n\
                 dispatch order from splitmix64 stream n (byte-identical per seed;\n\
                 numbers may differ from the committed references).\n\
                 \n\
                 compare: pairs the runs of two --json report files by\n\
                 (experiment, benchmark, variant), diffs every counter, stall\n\
                 cause, and latency histogram, and prints a ranked regression\n\
                 attribution per pair. Exit code 0 = identical, 1 = deltas.\n\
                 \n\
                 --progress: live sweep status line on stderr (jobs queued/\n\
                 running/done, ETA, per-worker state); stdout is untouched.\n\
                 --sweep-json <path>: host-side sweep telemetry (per-job wall\n\
                 time, queue wait, worker utilization, stale-event rates).\n\
                 Wall-clock numbers are nondeterministic, which is why they\n\
                 get their own document instead of the SimReport stream.\n\
                 \n\
                 analyze: runs the chosen figure's workload with dependency-flow\n\
                 capture armed, then prints the critical path, its stall-cause\n\
                 split, and the top contended structures.\n\
                 \n\
                 --inject <spec>: deterministic fault injection. <spec> is a preset\n\
                 (pool-pressure, pool-exhaustion, latency-jitter, coherence-delay,\n\
                 chaos) and/or comma-separated key=value overrides (seed, shrink-at,\n\
                 shrink-keep, carve-fail-pct, max-carve-failures, refill-budget,\n\
                 jitter, coherence-delay). Same spec + same seed => identical run."
            );
            std::process::exit(2);
        }
    }

    if let Some(path) = json_path {
        for r in &reports {
            if let Err(e) = r.validate() {
                panic!(
                    "invalid report {}/{}/{}: {e}",
                    r.experiment, r.benchmark, r.variant
                );
            }
        }
        let doc = Json::Arr(reports.iter().map(SimReport::to_json).collect());
        if let Err(e) = fs::write(&path, doc.to_pretty()) {
            eprintln!("cannot write --json output {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} report(s) to {path}", reports.len());
    }
    if let Some(path) = sweep_json {
        let doc = runner::sweep_doc(jobs);
        if let Err(e) = fs::write(&path, doc.to_pretty()) {
            eprintln!("cannot write --sweep-json output {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote sweep telemetry to {path}");
    }
    if let Some(path) = chrome_path {
        match chrome_doc {
            Some(doc) => {
                if let Err(e) = fs::write(&path, doc.to_pretty()) {
                    eprintln!("cannot write --chrome output {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote Chrome trace to {path}");
            }
            None => {
                eprintln!("--chrome only applies to the trace (or all) experiment");
                std::process::exit(2);
            }
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
