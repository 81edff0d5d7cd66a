//! Multithreaded throughput for the concurrent versioned store: the
//! software O-structure hot paths measured the way a storage engine would
//! be — ops/sec across real threads, uncontended and contended.
//!
//! Groups:
//! * `uncontended` — each thread owns a private preloaded cell and loads
//!   committed versions; measures the read path with zero sharing.
//! * `hot_key` — every thread hammers one shared cell (reads) or one
//!   shared key (writes); measures the contended single-cell path.
//! * `zipf_mixed` — 90/10 read/write mix over a sharded `OMap` with a
//!   zipf-skewed key distribution and a live `ReaderRegistry` + `Vacuum`;
//!   the end-to-end store shape.
//!
//! Each bench routine performs `ops()` operations per timed call (split
//! across the thread count), so the printed per-call nanoseconds divided
//! by `ops()` is the per-op cost. `OSIM_BENCH_SMOKE=1` shrinks every
//! workload to CI-smoke size.

use criterion::{criterion_group, criterion_main, Criterion};
use osim_engine::splitmix64;
use ostructs_core::map::OMap;
use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
use ostructs_core::OCell;
use std::hint::black_box;
use std::sync::Arc;
use std::thread;

fn smoke() -> bool {
    std::env::var_os("OSIM_BENCH_SMOKE").is_some()
}

/// Total operations per timed call (all threads combined).
fn ops() -> u64 {
    if smoke() {
        2_000
    } else {
        200_000
    }
}

fn thread_counts() -> Vec<usize> {
    let max = thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1];
    for t in [2, 4, 8] {
        if t <= max && !smoke() {
            counts.push(t);
        }
    }
    if smoke() && max >= 2 {
        counts.push(2);
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

fn uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("ostructs/uncontended");
    g.sample_size(10);
    for threads in thread_counts() {
        let per_thread = ops() / threads as u64;
        // One private, preloaded cell per thread: committed reads.
        let cells: Vec<OCell<u64>> = (0..threads)
            .map(|_| {
                let cell = OCell::new();
                for v in 1..=32u64 {
                    cell.store_version(v, v).unwrap();
                }
                cell
            })
            .collect();
        g.bench_function(format!("load_latest/t{threads}"), |b| {
            b.iter(|| {
                fan_out(threads, per_thread, |t, n| {
                    let cell = &cells[t];
                    for i in 0..n {
                        black_box(cell.try_load_latest(black_box(1 + i % 32)));
                    }
                });
            })
        });
        g.bench_function(format!("load_version_arc/t{threads}"), |b| {
            b.iter(|| {
                fan_out(threads, per_thread, |t, n| {
                    let cell = &cells[t];
                    for i in 0..n {
                        black_box(cell.try_load_version_arc(black_box(1 + i % 32)));
                    }
                });
            })
        });
    }
    g.finish();
}

fn hot_key(c: &mut Criterion) {
    let mut g = c.benchmark_group("ostructs/hot_key");
    g.sample_size(10);
    for threads in thread_counts() {
        let per_thread = ops() / threads as u64;
        let cell = OCell::new();
        for v in 1..=32u64 {
            cell.store_version(v, v).unwrap();
        }
        g.bench_function(format!("shared_load_latest/t{threads}"), |b| {
            b.iter(|| {
                fan_out(threads, per_thread, |_, n| {
                    for i in 0..n {
                        black_box(cell.try_load_latest(black_box(1 + i % 32)));
                    }
                });
            })
        });
    }
    // Contended writes: every op stores a fresh version of one key.
    let write_ops = ops() / 10; // stores grow history; keep calls bounded
    for threads in thread_counts() {
        let per_thread = write_ops / threads as u64;
        g.bench_function(format!("shared_store/t{threads}"), |b| {
            let next = Arc::new(std::sync::atomic::AtomicU64::new(1));
            b.iter(|| {
                let cell: OCell<u64> = OCell::with_initial(0, 0);
                fan_out(threads, per_thread, |_, n| {
                    for _ in 0..n {
                        let v = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        cell.store_version(v, v).unwrap();
                    }
                });
                black_box(cell.version_count())
            })
        });
    }
    g.finish();
}

fn zipf_mixed(c: &mut Criterion) {
    let mut g = c.benchmark_group("ostructs/zipf_mixed");
    g.sample_size(10);
    let keys = if smoke() { 64 } else { 1024 };
    let zipf = Zipf::new(keys);
    for threads in thread_counts() {
        let per_thread = ops() / threads as u64;
        let reg = ReaderRegistry::new();
        let _vac = Vacuum::start(
            reg.clone(),
            VacuumCfg {
                interval: std::time::Duration::from_millis(5),
            },
        );
        let m: OMap<u32, u64> = OMap::new();
        for k in 0..keys as u32 {
            let v = reg.next_version();
            m.insert(k, v, u64::from(k)).unwrap();
        }
        g.bench_function(format!("get90_put10/t{threads}"), |b| {
            b.iter(|| {
                fan_out(threads, per_thread, |t, n| {
                    let mut rng = 0x5eed_0000 + t as u64;
                    for _ in 0..n {
                        let k = zipf.sample(&mut rng) as u32;
                        if splitmix64(&mut rng).is_multiple_of(10) {
                            let v = reg.next_version();
                            m.insert(k, v, v).unwrap();
                        } else {
                            let pin = reg.pin();
                            black_box(m.get_arc(&k, pin.cap()));
                        }
                    }
                });
            })
        });
    }
    g.finish();
}

criterion_group!(benches, uncontended, hot_key, zipf_mixed);
criterion_main!(benches);
