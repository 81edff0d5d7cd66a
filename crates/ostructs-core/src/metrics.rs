//! Process-global live instrumentation of the store's real-thread hot
//! paths.
//!
//! Per-instance metrics (the vacuum's `fill_registry`) only cover objects
//! the caller holds; this module aggregates what the *whole process* does
//! to any cell or map — blocking condvar waits and shard-lock contention
//! — so its readers (the `osim-bench` store workload, and the `metrics`
//! object of the `BENCH_ostructs.json` that `osim-experiments perf
//! --ostructs` writes) can report it without threading a registry handle
//! through every `OCell`. Recording is raw
//! relaxed atomics plus one pre-allocated histogram behind a mutex:
//! nothing allocates, and an operation that never waits records nothing.

use osim_metrics::{Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct StoreMetrics {
    /// Operations that actually parked on a cell's condvar (loads and
    /// lock loads that find their version ready never count).
    blocking_waits: AtomicU64,
    blocking_wait_us: Mutex<Histogram>,
    /// Shard-index lock acquisitions that found the lock held.
    contention_total: AtomicU64,
}

fn store() -> &'static StoreMetrics {
    static STORE: OnceLock<StoreMetrics> = OnceLock::new();
    STORE.get_or_init(|| StoreMetrics {
        blocking_waits: AtomicU64::new(0),
        blocking_wait_us: Mutex::new(Histogram::default()),
        contention_total: AtomicU64::new(0),
    })
}

#[inline]
pub(crate) fn note_shard_contention() {
    store().contention_total.fetch_add(1, Ordering::Relaxed);
}

/// Times one potentially-blocking cell operation: `note_wait` is called
/// just before each condvar park, and the drop records the total blocked
/// duration (covering every return path of the enclosing function).
pub(crate) struct WaitTimer {
    started: Option<Instant>,
}

impl WaitTimer {
    pub(crate) fn new() -> Self {
        WaitTimer { started: None }
    }

    #[inline]
    pub(crate) fn note_wait(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
            store().blocking_waits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for WaitTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            let us = t0.elapsed().as_micros() as u64;
            store()
                .blocking_wait_us
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(us);
        }
    }
}

/// Snapshots the process-global store metrics into `reg` under the
/// `osim_store_*` family names.
pub fn fill_store_registry(reg: &mut Registry) {
    let m = store();
    reg.counter_add(
        "osim_store_blocking_waits_total",
        &[],
        m.blocking_waits.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "osim_store_lock_contention_total",
        &[],
        m.contention_total.load(Ordering::Relaxed),
    );
    {
        let h = m.blocking_wait_us.lock().unwrap_or_else(|e| e.into_inner());
        reg.hist_mut("osim_store_blocking_wait_us", &[]).merge(&h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OCell;

    #[test]
    fn blocking_waits_surface_in_registry() {
        let mut before = Registry::new();
        fill_store_registry(&mut before);
        let waits0 = before.counter("osim_store_blocking_waits_total", &[]);

        let cell: OCell<u64> = OCell::new();
        cell.store_version(1, 10).expect("store");
        cell.store_version(2, 20).expect("store");
        // Force a genuine blocked load: version 3 arrives from another
        // thread after this reader has parked.
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                cell.store_version(3, 30).expect("store");
            })
        };
        assert_eq!(cell.load_version(3), 30);
        writer.join().expect("writer");

        let mut after = Registry::new();
        fill_store_registry(&mut after);
        assert!(
            after.counter("osim_store_blocking_waits_total", &[]) > waits0,
            "the parked load must count as a blocking wait"
        );
        let h = after
            .hist("osim_store_blocking_wait_us", &[])
            .expect("wait histogram present");
        assert!(h.count() >= 1);
    }

    #[test]
    fn shard_contention_counts_into_the_total() {
        let mut before = Registry::new();
        fill_store_registry(&mut before);
        let total0 = before.counter("osim_store_lock_contention_total", &[]);
        note_shard_contention();
        note_shard_contention();
        let mut after = Registry::new();
        fill_store_registry(&mut after);
        assert!(after.counter("osim_store_lock_contention_total", &[]) >= total0 + 2);
        let json = after.to_json();
        let counters = json.get("counters").and_then(|c| c.as_obj()).unwrap();
        assert!(!counters
            .iter()
            .any(|(k, _)| k == "osim_store_shard_contention_total"));
    }
}
