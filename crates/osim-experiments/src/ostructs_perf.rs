//! `perf --ostructs`: the host-speed benchmark of the concurrent
//! versioned store (sharded `OMap` + `OCell` + epoch-watermark `Vacuum`).
//!
//! Writes `BENCH_ostructs.json`: per-op nanoseconds and ops/sec for the
//! store's hot paths — single-thread committed reads over a deep history,
//! multi-thread uncontended and hot-key reads, and a zipf-skewed 90/10
//! read/write mix running over a live `ReaderRegistry` + `Vacuum` whose
//! osim-metrics counters and pause histogram are merged into the
//! document, together with the process-global `osim_store_*` counters
//! and blocking-wait histogram.
//!
//! Like `BENCH_sweep.json`, every number here is host wall-clock: the
//! committed file is a baseline for review to diff, stamped with the host
//! shape (`host_cpus`/`host_os`/`host_arch`) so CI never speed-compares
//! across machine classes.

use std::thread;
use std::time::{Duration, Instant};

use osim_engine::splitmix64;
use osim_metrics::json::{obj, Json};
use ostructs_core::map::OMap;
use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
use ostructs_core::{fill_store_registry, OCell};

/// Versions preloaded per cell, and the lag behind the newest version
/// that committed reads target (what a vacuumed store keeps live).
const PRELOAD: u64 = 32;

/// History depth for the single-thread committed-read measurement: the
/// cell carries this many unvacuumed versions while reads target the
/// newest [`PRELOAD`].
const HISTORY: u64 = 1024;

/// Total operations per measurement (all threads combined).
fn ops_for(scale_name: &str) -> u64 {
    match scale_name {
        "tiny" => 50_000,
        "full" => 5_000_000,
        _ => 1_000_000,
    }
}

fn thread_counts() -> Vec<usize> {
    let max = thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1];
    for t in [2, 4, 8] {
        if t <= max {
            counts.push(t);
        }
    }
    counts
}

/// A zipf(s≈1) sampler over `n` keys via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let u = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Runs `body` on `threads` threads, each performing `per_thread` ops.
fn fan_out(threads: usize, per_thread: u64, body: impl Fn(usize, u64) + Sync) {
    if threads == 1 {
        body(0, per_thread);
        return;
    }
    thread::scope(|scope| {
        for t in 0..threads {
            let body = &body;
            scope.spawn(move || body(t, per_thread));
        }
    });
}

/// Best-of-`reps` wall time for `f`, in nanoseconds.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// One scenario row: per-op cost and throughput at a thread count.
fn row(scenario: &str, threads: usize, ops: u64, wall_ns: f64) -> Json {
    let ns_per_op = wall_ns / ops as f64;
    obj(vec![
        ("scenario", Json::Str(scenario.to_string())),
        ("threads", Json::from_u64(threads as u64)),
        ("ops", Json::from_u64(ops)),
        ("ns_per_op", Json::Num(round3(ns_per_op))),
        ("mops_per_sec", Json::Num(round3(1e3 / ns_per_op))),
    ])
}

fn preloaded_cell() -> OCell<u64> {
    let cell = OCell::new();
    for v in 1..=PRELOAD {
        cell.store_version(v, v).unwrap();
    }
    cell
}

/// Runs the store benchmark and writes the document to `path`.
pub fn run(scale_name: &str, reps: usize, path: &str) {
    let ops = ops_for(scale_name);
    let host_cpus = thread::available_parallelism().map_or(1, |n| n.get());

    // --- Single-thread committed reads over a HISTORY-deep cell; reads
    // target the newest PRELOAD versions.
    let cell = OCell::new();
    for v in 1..=HISTORY {
        cell.store_version(v, v).unwrap();
    }
    let read_ns = best_ns(reps, || {
        for i in 0..ops {
            std::hint::black_box(cell.try_load_latest(std::hint::black_box(HISTORY - i % PRELOAD)));
        }
    }) / ops as f64;
    eprintln!("ostructs perf: single-thread committed read {read_ns:.1} ns/op");

    // --- Multi-thread scenarios.
    let mut scenarios = Vec::new();
    for threads in thread_counts() {
        let per_thread = ops / threads as u64;
        let total = per_thread * threads as u64;

        // Uncontended: one private preloaded cell per thread.
        let cells: Vec<OCell<u64>> = (0..threads).map(|_| preloaded_cell()).collect();
        let ns = best_ns(reps, || {
            fan_out(threads, per_thread, |t, n| {
                let cell = &cells[t];
                for i in 0..n {
                    std::hint::black_box(
                        cell.try_load_latest(std::hint::black_box(1 + i % PRELOAD)),
                    );
                }
            });
        });
        scenarios.push(row("uncontended_load_latest", threads, total, ns));

        // Hot key: every thread reads the one shared cell.
        let shared = preloaded_cell();
        let ns = best_ns(reps, || {
            fan_out(threads, per_thread, |_, n| {
                for i in 0..n {
                    std::hint::black_box(
                        shared.try_load_latest(std::hint::black_box(1 + i % PRELOAD)),
                    );
                }
            });
        });
        scenarios.push(row("hot_key_load_latest", threads, total, ns));
    }

    // --- Zipf-skewed 90/10 mix over a sharded map with a live vacuum.
    let mix_ops = ops / 5; // writes grow history; keep the mix bounded
    let keys = 256;
    let zipf = Zipf::new(keys);
    let mut metrics = osim_metrics::Registry::new();
    for threads in thread_counts() {
        let per_thread = mix_ops / threads as u64;
        let total = per_thread * threads as u64;
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(
            reg.clone(),
            VacuumCfg {
                interval: Duration::from_millis(5),
            },
        );
        let m: OMap<u32, u64> = OMap::new();
        vac.track(&m);
        for k in 0..keys as u32 {
            let v = reg.next_version();
            m.insert(k, v, u64::from(k)).unwrap();
        }
        let ns = best_ns(reps, || {
            fan_out(threads, per_thread, |t, n| {
                let mut rng = 0x5eed_0000 + t as u64;
                for _ in 0..n {
                    let k = zipf.sample(&mut rng) as u32;
                    if splitmix64(&mut rng).is_multiple_of(10) {
                        let v = reg.next_version();
                        m.insert(k, v, v).unwrap();
                    } else {
                        let pin = reg.pin();
                        std::hint::black_box(m.get_arc(&k, pin.cap()));
                    }
                }
            });
        });
        scenarios.push(row("zipf_get90_put10", threads, total, ns));
        // Merge this run's vacuum counters + pause histogram into the doc.
        vac.fill_registry(&mut metrics);
    }
    fill_store_registry(&mut metrics);

    let doc = obj(vec![
        ("schema", Json::Str("osim-bench-ostructs-v2".to_string())),
        ("scale", Json::Str(scale_name.to_string())),
        ("reps", Json::from_u64(reps as u64)),
        ("ops", Json::from_u64(ops)),
        ("host_cpus", Json::from_u64(host_cpus as u64)),
        ("host_os", Json::Str(std::env::consts::OS.to_string())),
        ("host_arch", Json::Str(std::env::consts::ARCH.to_string())),
        (
            "single_thread",
            obj(vec![
                ("ops", Json::from_u64(ops)),
                ("committed_read_ns_per_op", Json::Num(round3(read_ns))),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
        ("metrics", metrics.to_json()),
    ]);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("cannot write ostructs perf output {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}: scale={scale_name} host_cpus={host_cpus}");
}
