//! Proptest-driven multi-thread stress: real threads execute generated
//! programs against the sharded store while oracle predicates — snapshot
//! consistency, per-version lock exclusion, version monotonicity,
//! vacuum-never-frees-live — and `OCell::check_invariants` run against
//! every outcome.
//!
//! Case counts are deliberately small: each case spins up real threads,
//! and the value of the suite is the generated *shapes* (key/version
//! programs, shard counts, pin timings), not raw iteration volume.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use ostructs_core::map::OMap;
use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
use ostructs_core::OCell;

/// A generated write program: `(key, version)` pairs with globally unique
/// versions (version = 1 + index into the program), value = version so
/// every read can verify which write it observed.
fn write_program() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec(0u32..12, 1..60).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64 + 1))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot consistency: writers race across threads, yet a snapshot
    /// at cap `c` contains exactly the writes with version ≤ `c` — per
    /// key, the one with the highest version.
    #[test]
    fn snapshot_at_cap_is_exactly_writes_below_cap(
        program in write_program(),
        threads in 1usize..5,
        shards in 0u32..7,
        caps in proptest::collection::vec(0u64..70, 1..6),
    ) {
        let m: OMap<u32, u64> = OMap::with_shards(1 << shards);
        // Reference: per key, version -> value (value = version).
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(k, v) in &program {
            model.entry(k).or_default().push(v);
        }
        // Writes to the same key must be externally ordered (the map's
        // documented contract), so partition the program *by key* across
        // threads: all writes to one key stay on one thread, in order.
        thread::scope(|scope| {
            for t in 0..threads {
                let m = m.clone();
                let batch: Vec<(u32, u64)> = program
                    .iter()
                    .filter(|(k, _)| (*k as usize) % threads == t)
                    .copied()
                    .collect();
                scope.spawn(move || {
                    for (k, v) in batch {
                        m.insert(k, v, v).unwrap();
                    }
                });
            }
        });
        for &cap in &caps {
            let snap: Vec<(u32, u64)> = m
                .snapshot_arc(cap)
                .into_iter()
                .map(|(k, v)| (k, *v))
                .collect();
            let want: Vec<(u32, u64)> = model
                .iter()
                .filter_map(|(&k, versions)| {
                    versions
                        .iter()
                        .filter(|&&v| v <= cap)
                        .max()
                        .map(|&v| (k, v))
                })
                .collect();
            prop_assert_eq!(snap, want, "cap {}", cap);
        }
    }

    /// Per-version lock exclusion: N threads contend for the same
    /// version's lock; at most one may ever be inside the critical
    /// section, and every thread eventually gets a turn.
    #[test]
    fn lock_load_version_is_mutually_exclusive(
        contenders in 2u64..7,
        rounds in 1u32..4,
    ) {
        let cell = OCell::with_initial(1, 0u32);
        let inside = Arc::new(AtomicBool::new(false));
        let entries = Arc::new(AtomicU64::new(0));
        thread::scope(|scope| {
            for tid in 1..=contenders {
                let cell = cell.clone();
                let inside = Arc::clone(&inside);
                let entries = Arc::clone(&entries);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        cell.lock_load_version(1, tid).unwrap();
                        assert!(
                            !inside.swap(true, Ordering::SeqCst),
                            "two tasks inside the version-1 critical section"
                        );
                        entries.fetch_add(1, Ordering::SeqCst);
                        inside.store(false, Ordering::SeqCst);
                        cell.unlock_version(tid, None).unwrap();
                    }
                });
            }
        });
        prop_assert_eq!(
            entries.load(Ordering::SeqCst),
            contenders * rounds as u64
        );
        cell.check_invariants().unwrap();
    }

    /// Version monotonicity: while a writer publishes versions in order,
    /// a reader polling `try_load_latest` at a growing cap must observe a
    /// non-decreasing version sequence, never above its cap.
    #[test]
    fn observed_latest_versions_are_monotone(
        writes in 2u64..40,
    ) {
        let cell: OCell<u64> = OCell::with_initial(0, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let cell = cell.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let cap = last + 4;
                    if let Some((v, val)) = cell.try_load_latest(cap) {
                        assert!(v >= last, "latest went backwards: {v} < {last}");
                        assert!(v <= cap, "version {v} above cap {cap}");
                        assert_eq!(val, v, "value must match its version");
                        last = v;
                    }
                }
                last
            })
        };
        for v in 1..=writes {
            cell.store_version(v, v).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        cell.check_invariants().unwrap();
        prop_assert_eq!(cell.try_load_latest(u64::MAX), Some((writes, writes)));
    }

    /// Vacuum-never-frees-live: under concurrent churn + a concurrently
    /// running vacuum, a pinned reader's snapshot stays fully resolvable
    /// for the guard's entire lifetime.
    #[test]
    fn vacuum_never_frees_pinned_snapshots(
        churn in 10u64..120,
        pin_after in 0u64..10,
    ) {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(
            reg.clone(),
            VacuumCfg { interval: std::time::Duration::from_millis(1) },
        );
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..pin_after {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        let pin = reg.pin();
        let expect = cell.try_load_latest(pin.cap());
        let writer = {
            let reg = reg.clone();
            let cell = cell.clone();
            thread::spawn(move || {
                for _ in 0..churn {
                    let v = reg.next_version();
                    cell.store_version(v, v).unwrap();
                }
            })
        };
        // The pinned snapshot answers identically throughout the churn.
        for _ in 0..8 {
            vac.run_pass();
            prop_assert_eq!(cell.try_load_latest(pin.cap()), expect);
        }
        writer.join().unwrap();
        vac.run_pass();
        prop_assert_eq!(cell.try_load_latest(pin.cap()), expect);
        cell.check_invariants().unwrap();
        drop(pin);
        vac.run_pass();
        prop_assert_eq!(cell.version_count(), 1, "history drains after unpin");
    }
}

/// Deterministic (non-proptest) cross-check: a hot rename pipeline under
/// a live vacuum keeps the full invariant oracle green at every step.
#[test]
fn rename_pipeline_under_vacuum_keeps_invariants() {
    let reg = ReaderRegistry::new();
    let vac = Vacuum::start(
        reg.clone(),
        VacuumCfg {
            interval: std::time::Duration::from_millis(1),
        },
    );
    let cell = OCell::with_initial(1, 7u32);
    vac.track(&cell);
    reg.advance_to(1);
    for tid in 1..=64u64 {
        cell.lock_load_version(tid, tid).unwrap();
        cell.unlock_version(tid, Some(tid + 1)).unwrap();
        reg.advance_to(tid + 1);
        cell.check_invariants().unwrap();
    }
    vac.run_pass();
    cell.check_invariants().unwrap();
    assert_eq!(cell.try_load_latest(u64::MAX), Some((65, 7)));
}
