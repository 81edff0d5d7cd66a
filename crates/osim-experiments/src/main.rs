//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV) from the simulator.
//!
//! ```text
//! cargo run -p osim-experiments --release -- <experiment> [--full|--tiny]
//!     [--scale <quick|tiny|full>] [--jobs <n>] [--stats] [--json <path>]
//!     [--chrome <path>] [--progress]
//!     [--sweep-json <path>] [--metrics-addr <host:port|off>]
//!     [--host-chrome <path>]
//! cargo run -p osim-experiments --release -- compare <a.json> <b.json>
//!     [--json <path>]
//! cargo run -p osim-experiments --release -- cache <stats|verify|clear>
//!     [--cache <dir>] [--json]
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
//!                         default 7; `--sample-every <cycles>` telemetry epoch)
//!   all      everything above
//!   perf                — host-speed benchmark; writes BENCH_sweep.json.
//!                         With `--ostructs`, benchmarks the concurrent
//!                         versioned store instead (single-thread committed
//!                         reads, multi-thread throughput, zipf mix with a
//!                         live vacuum) and writes BENCH_ostructs.json
//!   compare             — diff two `--json` report files: counters, stall
//!                         causes, histograms, ranked regression attribution
//!   cache               — run-cache maintenance: `stats`, `verify` (decode
//!                         every entry with per-entry blame), `clear`
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
//! stale-event rates. Both are wall-clock observations of the host and
//! deliberately never enter the `SimReport` stream.
//!
//! `compare <a.json> <b.json>` loads two report files (as written by
//! `--json`), pairs runs by experiment/benchmark/variant, and prints a
//! per-pair diff: cycle delta with a ranked stall-cause attribution
//! table, changed counters, and histogram quantile shifts. Exit code 0
//! means byte-equivalent simulated results, 1 means deltas were found
//! (usage errors exit 2), so CI can assert either direction without
//! parsing; `--json` writes the machine-readable diff document.
//!
//! `--cache <dir>` arms the content-addressed run cache: every sweep job
//! is keyed by a stable hash of everything that can affect its simulated
//! result (figure/benchmark/variant, scale, machine geometry, `--inject`
//! spec, `--shake-seed`, capture configuration, and the engine-semantics
//! version), and completed results are stored under `<dir>` as one JSON
//! entry per key. A warm rerun skips simulation entirely and reproduces
//! stdout and `--json` byte-identically — host-only knobs (`--jobs`,
//! `--progress`) are deliberately *not* part of the key.
//! Corrupt or stale entries are detected, dropped, and re-run; a cache
//! can slow an invocation down but never change or fail it. `--cache off`
//! (the default) disables it. The cache is just its directory: every hit
//! reads its entry file, as a rerun in a new process does. `perf
//! --cache-bench` measures one cold and one warm sweep and writes
//! `BENCH_cache.json`.
//!
//! `--metrics-addr <host:port>` (default `off`) arms the live
//! observability plane for the invocation: a std-only HTTP endpoint
//! serving `GET /metrics`, the Prometheus text of the instrumented
//! layers (sweep runner, concurrent store, vacuum, run cache) collected at
//! scrape time. Port 0 binds an ephemeral port; the bound address is
//! announced on **stderr**, so stdout and every compared artifact stay
//! byte-identical with the plane armed. See
//! `EXPERIMENTS.md` § "Live observability".
//!
//! `--host-chrome <path>` records *host* wall-clock spans — worker jobs,
//! vacuum passes, cache probes — and writes them as a Chrome trace-event
//! document when the invocation ends (alongside the simulated-cycle
//! `--chrome` export, which is unchanged).
//!
//! `--inject <spec>` applies a deterministic fault-injection plan
//! ([`osim_uarch::FaultPlan::parse`]) to every machine the invocation
//! builds: version-block pool shrinks, transient OS-carve failures,
//! per-op latency jitter and coherence-invalidation delays, all driven
//! by a seeded PRNG so the same spec replays the same schedule. See
//! `EXPERIMENTS.md` § "Fault injection & resilience".

use std::env;
use std::fs;

use osim_report::json::Json;
use osim_report::SimReport;

mod analyze;
mod cache_bench;
mod cache_cmd;
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
mod key;
mod obsv;
mod ostructs_perf;
mod perf;
mod runcache;
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

    // The `cache` subcommand is dispatched before general flag parsing:
    // its `--json` is a boolean (print the document to stdout), unlike the
    // experiments' `--json <path>`.
    if args.first().map(String::as_str) == Some("cache") {
        args.remove(0);
        let dir = take_value(&mut args, "--cache")
            .filter(|d| d != "off")
            .unwrap_or_else(|| ".osim-cache".to_string());
        let json = take_flag(&mut args, "--json");
        reject_leftovers(&args, 1);
        let action = args.first().map(String::as_str).unwrap_or("stats");
        let dir = std::path::PathBuf::from(dir);
        let code = match action {
            "stats" => cache_cmd::stats(&dir, json),
            "verify" => cache_cmd::verify(&dir, json),
            "clear" => cache_cmd::clear(&dir, json),
            other => {
                eprintln!("cache action must be stats, verify or clear, got {other:?}");
                2
            }
        };
        std::process::exit(code);
    }

    let json_path = take_value(&mut args, "--json");
    let chrome_path = take_value(&mut args, "--chrome");
    let sweep_json = take_value(&mut args, "--sweep-json");
    let metrics_addr = take_value(&mut args, "--metrics-addr").filter(|v| v != "off");
    let host_chrome = take_value(&mut args, "--host-chrome");
    let progress = take_flag(&mut args, "--progress");
    let ostructs = take_flag(&mut args, "--ostructs");
    let cache_bench = take_flag(&mut args, "--cache-bench");
    let cache_flag = take_value(&mut args, "--cache").filter(|v| v != "off");
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
    let sample_every = match take_value(&mut args, "--sample-every") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => n,
            _ => {
                eprintln!("--sample-every requires a cycle count, got {v:?}");
                std::process::exit(2);
            }
        },
        None => 2048,
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
    if let Some(dir) = &cache_flag {
        runner::set_cache(Some(std::sync::Arc::new(runcache::RunCache::at_dir(dir))));
    }
    if let Some(path) = host_chrome {
        obsv::host_chrome_arm(path);
    }
    if let Some(spec) = &metrics_addr {
        obsv::arm(spec);
    }

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
        let code = compare_cmd::run(&files[0], &files[1], json_path.as_deref());
        obsv::host_chrome_flush();
        std::process::exit(code);
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
            analyze::run(&scale, fig, sample_every, jobs, &mut reports)
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
        "perf" if cache_bench => {
            // The benchmark owns its cache (cleared first, both passes
            // measured); an armed session cache would taint the
            // cold pass, so `--cache <dir>` just redirects the scratch
            // directory.
            runner::set_cache(None);
            let dir = cache_flag
                .clone()
                .unwrap_or_else(|| ".osim-cache-bench".to_string());
            cache_bench::run(
                &scale,
                scale_name,
                jobs,
                std::path::Path::new(&dir),
                "BENCH_cache.json",
            );
        }
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
                 [--fig <6|7|9|10>] [--sample-every <cycles>] \
                 [--shake-seed <n>] [--seeds <n>] \
                 [--progress] [--sweep-json <path>] [--ostructs] [--cache-bench] \
                 [--cache <dir|off>] \
                 [--metrics-addr <host:port|off>] [--host-chrome <path>] \
                 [--inject <spec>] [--baseline-ms <ms> [--baseline-ref <label>]]\n\
                 \n\
                 osim-experiments compare <a.json> <b.json> [--json <path>]\n\
                 osim-experiments cache <stats|verify|clear> [--cache <dir>] [--json]\n\
                 \n\
                 --cache <dir>: content-addressed run cache. Completed sweep jobs\n\
                 are stored under <dir> keyed by everything that affects their\n\
                 simulated result; a warm rerun skips simulation and reproduces\n\
                 stdout and --json byte-identically. Host-only knobs (--jobs,\n\
                 --progress) do not affect the key. Corrupt entries are dropped\n\
                 and re-run. Default: off.\n\
                 \n\
                 cache: maintenance for such a directory (default .osim-cache):\n\
                 stats (entry counts, bytes), verify (decode every entry with\n\
                 per-entry blame; exit 1 if any is bad), clear. --json prints\n\
                 the machine-readable document instead.\n\
                 \n\
                 perf --cache-bench: one cold and one warm sweep over a scratch\n\
                 cache directory; writes BENCH_cache.json with hit/miss counts,\n\
                 per-entry read latency quantiles, and the warm speedup.\n\
                 \n\
                 stress: schedule-shaking robustness harness. Runs every quick\n\
                 figure under --seeds (default 25) seeded tie-break perturbations\n\
                 (--shake-seed pins the first seed), with the manager's invariant\n\
                 oracles armed. Prints a minimal repro line per violation; exit\n\
                 0 = all invariants held, 1 = violations (--sweep-json and\n\
                 --host-chrome are written either way). --fig <6|7|8|9|10|gc>\n\
                 restricts the figure set.\n\
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
                 --metrics-addr <host:port>: live scrape endpoint (GET /metrics\n\
                 in Prometheus text) over the instrumented layers (sweep\n\
                 runner, store, vacuum, cache). Port 0 binds ephemeral; the bound\n\
                 address is announced on stderr. Default: off (nothing starts).\n\
                 --host-chrome <path>: host wall-clock spans (worker jobs,\n\
                 vacuum passes, cache probes) as a Chrome trace document.\n\
                 \n\
                 --progress: live sweep status line on stderr (jobs queued/\n\
                 running/done, ETA, per-worker state); stdout is untouched.\n\
                 --sweep-json <path>: host-side sweep telemetry (per-job wall\n\
                 time, queue wait, worker utilization, stale-event rates).\n\
                 Wall-clock numbers are nondeterministic, which is why they\n\
                 get their own document instead of the SimReport stream.\n\
                 \n\
                 analyze: runs the chosen figure's workload with dependency-flow\n\
                 capture and interval telemetry armed, then prints the critical\n\
                 path, its stall-cause split, and the top contended structures.\n\
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

    obsv::host_chrome_flush();

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
