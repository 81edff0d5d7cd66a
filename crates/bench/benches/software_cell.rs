//! Software O-structure benchmarks (the §II-C observation that software
//! versioning is much slower than plain memory operations, motivating
//! hardware support).
//!
//! Set `OSIM_BENCH_SMOKE=1` to shrink every workload to CI-smoke size.

use criterion::{criterion_group, criterion_main, Criterion};
use ostructs_core::{OCell, ORuntime};
use std::hint::black_box;

fn smoke() -> bool {
    std::env::var_os("OSIM_BENCH_SMOKE").is_some()
}

fn cell_ops(c: &mut Criterion) {
    let versions = if smoke() { 8u64 } else { 64 };
    let tasks = if smoke() { 8 } else { 64 };
    let mut g = c.benchmark_group("software_cell");
    g.sample_size(10);
    g.bench_function("store_version", |b| {
        b.iter_with_setup(OCell::new, |cell| {
            for v in 1..=versions {
                cell.store_version(v, v as u32).unwrap();
            }
            black_box(cell.version_count())
        })
    });
    g.bench_function("load_latest_64_versions", |b| {
        let cell = OCell::new();
        for v in 1..=versions {
            cell.store_version(v, v as u32).unwrap();
        }
        b.iter(|| black_box(cell.load_latest(black_box(versions))))
    });
    g.bench_function("lock_unlock_rename", |b| {
        let cell = OCell::with_initial(0, 0u32);
        let mut next = 1u64;
        b.iter(|| {
            let (vl, _) = cell.lock_load_latest(u64::MAX, 1).unwrap();
            let _ = vl;
            cell.unlock_version(1, Some(next)).unwrap();
            next += 1;
        })
    });
    g.bench_function("plain_mutex_word", |b| {
        // What the software cell competes against: a plain lock + word.
        let m = std::sync::Mutex::new(0u32);
        b.iter(|| {
            let mut g = m.lock().unwrap();
            *g = g.wrapping_add(1);
            black_box(*g)
        })
    });
    g.bench_function("runtime_pipeline_64_tasks", |b| {
        b.iter(|| {
            let rt = ORuntime::new(4);
            let cell = OCell::with_initial(0, 0u64);
            rt.track(&cell);
            let tasks: Vec<Box<dyn FnOnce(u64) + Send>> = (0..tasks)
                .map(|_| {
                    let cell = cell.clone();
                    Box::new(move |tid: u64| {
                        let prev = cell.load_version(tid - 1);
                        cell.store_version(tid, prev + 1).unwrap();
                    }) as Box<dyn FnOnce(u64) + Send>
                })
                .collect();
            rt.run(tasks);
            black_box(cell.load_latest(u64::MAX))
        })
    });
    g.finish();
}

criterion_group!(benches, cell_ops);
criterion_main!(benches);
