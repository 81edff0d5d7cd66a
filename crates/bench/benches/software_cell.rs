//! Software O-structure benchmarks (the §II-C observation that software
//! versioning is much slower than plain memory operations, motivating
//! hardware support).
//!
//! Set `OSIM_BENCH_SMOKE=1` to shrink every workload to CI-smoke size.

use bench::{bench, bench_with_setup, group, smoke};
use ostructs_core::{OCell, ORuntime};
use std::hint::black_box;

fn main() {
    let versions = if smoke() { 8u64 } else { 64 };
    let tasks = if smoke() { 8 } else { 64 };
    group("software_cell");
    bench_with_setup("store_version", OCell::new, |cell| {
        for v in 1..=versions {
            cell.store_version(v, v as u32).unwrap();
        }
        black_box(cell.version_count())
    });
    let cell = OCell::new();
    for v in 1..=versions {
        cell.store_version(v, v as u32).unwrap();
    }
    bench("load_latest_64_versions", || {
        black_box(cell.load_latest(black_box(versions)))
    });
    let cell = OCell::with_initial(0, 0u32);
    let mut next = 1u64;
    bench("lock_unlock_rename", || {
        let (vl, _) = cell.lock_load_latest(u64::MAX, 1).unwrap();
        let _ = vl;
        cell.unlock_version(1, Some(next)).unwrap();
        next += 1;
    });
    // What the software cell competes against: a plain lock + word.
    let m = std::sync::Mutex::new(0u32);
    bench("plain_mutex_word", || {
        let mut g = m.lock().unwrap();
        *g = g.wrapping_add(1);
        black_box(*g)
    });
    bench("runtime_pipeline_64_tasks", || {
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
    });
}
