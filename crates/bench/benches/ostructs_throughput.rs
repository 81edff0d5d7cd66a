//! Multithreaded throughput for the two store paths that
//! `osim-experiments perf --ostructs` does not time: ops/sec across real
//! threads. Committed `load_latest` reads (private and shared cells) and
//! the zipf 90/10 mix over a live vacuum are timed there, into
//! `BENCH_ostructs.json`, and are not repeated here.
//!
//! Groups:
//! * `uncontended` — each thread owns a private preloaded cell and loads
//!   committed versions as `Arc` handles (`load_version_arc`).
//! * `hot_key` — every thread stores fresh versions of one shared cell;
//!   measures the contended single-cell write path.
//!
//! Each read routine performs `ops()` operations per timed call and each
//! store routine a tenth of that (split across the thread count), so the
//! printed per-call nanoseconds divided by that count is the per-op cost. `OSIM_BENCH_SMOKE=1` shrinks every
//! workload to CI-smoke size.

use bench::{bench, group, smoke};
use ostructs_core::OCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

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

fn uncontended() {
    group("ostructs/uncontended");
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
        bench(&format!("load_version_arc/t{threads}"), || {
            fan_out(threads, per_thread, |t, n| {
                let cell = &cells[t];
                for i in 0..n {
                    black_box(cell.try_load_version_arc(black_box(1 + i % 32)));
                }
            });
        });
    }
}

fn hot_key() {
    group("ostructs/hot_key");
    // Contended writes: every op stores a fresh version of one key.
    let write_ops = ops() / 10; // stores grow history; keep calls bounded
    for threads in thread_counts() {
        let per_thread = write_ops / threads as u64;
        let next = AtomicU64::new(1);
        bench(&format!("shared_store/t{threads}"), || {
            let cell: OCell<u64> = OCell::with_initial(0, 0);
            fan_out(threads, per_thread, |_, n| {
                for _ in 0..n {
                    let v = next.fetch_add(1, Ordering::Relaxed);
                    cell.store_version(v, v).unwrap();
                }
            });
            black_box(cell.version_count())
        });
    }
}

fn main() {
    uncontended();
    hot_key();
}
