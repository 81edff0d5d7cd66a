//! Sustained-churn acceptance test (ISSUE 8): writers churn versions
//! while lagging readers pin and release snapshots. With the vacuum ON
//! the live-version count stays bounded; with it OFF the history grows
//! without bound. This is the memory-boundedness claim of the
//! epoch-watermark design, demonstrated rather than asserted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ostructs_core::map::OMap;
use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
use ostructs_core::OCell;

const CHURN_VERSIONS: u64 = 4_000;
/// Writer throttle threshold: with the vacuum on, the writer stalls
/// whenever live history exceeds this, the way a real store bounds its
/// memory. The vacuum must always drain below it again (asserted with a
/// deadline), so the peak stays O(threshold) — not O(total churn).
const THROTTLE_AT: usize = 768;
/// Peak bound: threshold + the stores between two throttle checks +
/// slack for one vacuum interval of lag (generous for 1-CPU hosts where
/// the vacuum thread competes with the writer for the core).
const BOUNDED_LIMIT: usize = 1_200;

/// Runs `CHURN_VERSIONS` of writer churn against one hot cell with
/// lagging readers pinning/unpinning throughout, sampling the live
/// version count. Returns the maximum observed count.
fn churn(vacuum_on: bool) -> usize {
    let reg = ReaderRegistry::new();
    let vac = vacuum_on.then(|| {
        Vacuum::start(
            reg.clone(),
            VacuumCfg {
                interval: Duration::from_micros(200),
            },
        )
    });
    let cell = OCell::with_initial(0, 0u64);
    if let Some(vac) = &vac {
        vac.track(&cell);
    }
    let stop = Arc::new(AtomicBool::new(false));
    // Lagging readers: pin a snapshot, hold it briefly, verify it stays
    // resolvable, release, repeat.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let reg = reg.clone();
            let cell = cell.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let pin = reg.pin();
                    let first = cell.try_load_latest(pin.cap());
                    thread::yield_now();
                    let second = cell.try_load_latest(pin.cap());
                    assert_eq!(first, second, "pinned snapshot changed underfoot");
                    drop(pin);
                }
            })
        })
        .collect();
    let mut max_live = 0;
    for i in 0..CHURN_VERSIONS {
        // Single writer: publish-then-advance, so a pinned cap only ever
        // covers already-published versions and snapshots are stable.
        let v = reg.current();
        cell.store_version(v, v).unwrap();
        reg.advance_to(v);
        if i % 64 == 0 {
            max_live = max_live.max(cell.version_count());
            if vacuum_on {
                // Throttle: stall until the vacuum drains the
                // backlog. Without a vacuum this would never clear —
                // that's the unboundedness the OFF variant demonstrates.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while cell.version_count() > THROTTLE_AT {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "vacuum failed to drain below the throttle threshold"
                    );
                    thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
    max_live = max_live.max(cell.version_count());
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    if let Some(vac) = &vac {
        // Quiesced: one final pass must drain everything but the newest.
        vac.run_pass();
        assert_eq!(cell.version_count(), 1, "quiesced history fully drains");
        let stats = vac.stats();
        assert!(stats.passes >= 1);
        assert!(
            stats.reclaimed >= CHURN_VERSIONS - BOUNDED_LIMIT as u64,
            "vacuum reclaimed only {} of {CHURN_VERSIONS}",
            stats.reclaimed
        );
    }
    cell.check_invariants().unwrap();
    max_live
}

#[test]
fn vacuum_bounds_live_versions_under_churn() {
    let with_vacuum = churn(true);
    assert!(
        with_vacuum <= BOUNDED_LIMIT,
        "vacuum on: live versions peaked at {with_vacuum}, expected ≤ {BOUNDED_LIMIT}"
    );
}

#[test]
fn without_vacuum_history_grows_unboundedly() {
    let without = churn(false);
    assert_eq!(
        without,
        CHURN_VERSIONS as usize + 1,
        "vacuum off: every version (plus the initial one) must still be live"
    );
}

/// Same boundedness property at the map level: churn one hot key plus a
/// rotating cold key-set in a tracked `OMap`, vacuum on.
#[test]
fn vacuum_bounds_map_history_under_churn() {
    let reg = ReaderRegistry::new();
    let vac = Vacuum::start(
        reg.clone(),
        VacuumCfg {
            interval: Duration::from_micros(200),
        },
    );
    let m: OMap<u32, u64> = OMap::new();
    vac.track(&m);
    for i in 0..2_000u64 {
        let v = reg.next_version();
        m.insert(0, v, v).unwrap(); // hot key
        let v = reg.next_version();
        m.insert(1 + (i % 16) as u32, v, v).unwrap(); // cold rotation
    }
    vac.run_pass();
    // Hot-key history is drained to the newest version; the map answers
    // current reads exactly.
    let latest = m.get_arc(&0, u64::MAX).unwrap();
    let pin = reg.pin();
    assert_eq!(m.get_arc(&0, pin.cap()), Some(latest));
    assert_eq!(m.tracked_keys(), 17);
}
