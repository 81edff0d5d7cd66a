//! `perf --cache-bench`: measures what the run cache is worth.
//!
//! Two passes over the full figure sweep against a scratch cache
//! directory (cleared first so the measurement is honest):
//!
//! 1. **cold** — every job simulates and stores its entry;
//! 2. **warm** — every job decodes its entry from the directory, as a
//!    rerun in a new process does.
//!
//! Results are validated identically in both passes — a cached run that
//! failed validation would be a codec bug, not a fast sweep — and the
//! document (`osim-bench-cache-v2`, written to `BENCH_cache.json`)
//! carries wall times, hit/miss counts, per-entry read-latency quantiles,
//! and the host stamp the CI guard needs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use osim_report::json::{obj, Json};

use crate::common::Scale;
use crate::perf::{validate, FIGS};
use crate::runcache::RunCache;
use crate::runner;

/// One full figure sweep; returns (wall_ms, total runs, total cycles).
fn sweep_once(scale: &Scale, jobs: usize) -> (f64, usize, u64) {
    let t = Instant::now();
    let mut runs = 0usize;
    let mut cycles = 0u64;
    for (_, plan) in FIGS.iter() {
        let batch = runner::run_jobs(plan(scale), jobs);
        runs += batch.len();
        cycles += validate(&batch);
    }
    // Round to 1 µs so the committed JSON stays diff-friendly.
    (
        (t.elapsed().as_secs_f64() * 1e6).round() / 1e3,
        runs,
        cycles,
    )
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Runs the benchmark and writes the document to `path`. The cache lives
/// under `dir`, which is cleared first.
pub fn run(scale: &Scale, scale_name: &str, jobs: usize, dir: &Path, path: &str) {
    let cache = Arc::new(RunCache::at_dir(dir));
    cache.clear();
    runner::set_cache(Some(Arc::clone(&cache)));

    let (cold_ms, runs, cold_cycles) = sweep_once(scale, jobs);
    let after_cold = cache.counts();
    eprintln!(
        "cache-bench cold: {cold_ms:.0} ms, {runs} runs, {} entries",
        after_cold.stores
    );

    let (warm_ms, warm_runs, warm_cycles) = sweep_once(scale, jobs);
    let after_warm = cache.counts();
    assert_eq!(warm_runs, runs, "warm sweep ran a different job count");
    assert_eq!(
        warm_cycles, cold_cycles,
        "cached results drifted from the cold run"
    );
    eprintln!("cache-bench warm: {warm_ms:.0} ms");

    runner::set_cache(None);

    let entries = cache.entries();
    let disk_bytes: u64 = entries
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let hist = cache.read_hist();
    let read_ns = obj(vec![
        ("count", Json::from_u64(hist.count())),
        ("p50", Json::from_u64(hist.quantile(0.50))),
        ("p90", Json::from_u64(hist.quantile(0.90))),
        ("p99", Json::from_u64(hist.quantile(0.99))),
        ("max", Json::from_u64(hist.max())),
        ("mean", Json::Num(round3(hist.mean()))),
    ]);

    let phase = |wall_ms: f64, hits: u64, misses: u64| {
        obj(vec![
            ("wall_ms", Json::Num(wall_ms)),
            ("hits", Json::from_u64(hits)),
            ("misses", Json::from_u64(misses)),
        ])
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = round3(cold_ms / warm_ms.max(1e-9));
    let doc = obj(vec![
        ("schema", Json::Str("osim-bench-cache-v2".to_string())),
        ("scale", Json::Str(scale_name.to_string())),
        ("jobs", Json::from_u64(jobs as u64)),
        ("runs", Json::from_u64(runs as u64)),
        ("host_cpus", Json::from_u64(host_cpus as u64)),
        ("host_os", Json::Str(std::env::consts::OS.to_string())),
        ("host_arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("sim_cycles", Json::from_u64(cold_cycles)),
        ("entries", Json::from_u64(entries.len() as u64)),
        ("disk_bytes", Json::from_u64(disk_bytes)),
        ("cold", phase(cold_ms, after_cold.hits, after_cold.misses)),
        (
            "warm",
            phase(
                warm_ms,
                after_warm.hits - after_cold.hits,
                after_warm.misses - after_cold.misses,
            ),
        ),
        ("read_ns", read_ns),
        // The number the CI guard checks.
        ("speedup_warm", Json::Num(speedup)),
    ]);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("cannot write cache-bench output {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}: cold {cold_ms:.0} ms, warm {warm_ms:.1} ms ({speedup}x)");
}
