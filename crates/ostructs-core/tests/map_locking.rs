//! Lock-discipline regression tests for the sharded map (ISSUE 8
//! satellite): no shard lock may be held across a blocking `OCell`
//! operation. The old single-`RwLock` map had no blocking entry point,
//! but any naive implementation of `wait_version` that resolved the cell
//! *and* blocked under one lock would wedge every other key in the
//! shard. These tests pin the required behaviour with real threads and a
//! watchdog, so the discipline can never silently regress.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use ostructs_core::map::OMap;

const WATCHDOG: Duration = Duration::from_secs(10);

/// Thread A blocks in `wait_version` on a missing version; thread B must
/// still be able to insert *other keys into the same shard* (and then
/// publish the version A waits for). With a shard lock held across the
/// blocking wait, B's insert would deadlock and the watchdog fires.
#[test]
fn blocked_wait_does_not_hold_the_shard_lock() {
    // One shard = every key collides = maximal exposure.
    let m: OMap<u32, u64> = OMap::with_shards(1);
    let (done_tx, done_rx) = mpsc::channel();

    let waiter = {
        let m = m.clone();
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            let got = m.wait_version(1, 5).map(|v| *v);
            done_tx.send(("waiter", got)).unwrap();
        })
    };
    // Give the waiter time to park inside the cell.
    thread::sleep(Duration::from_millis(30));

    let writer = {
        let m = m.clone();
        thread::spawn(move || {
            // Same shard, different key: must not block behind the waiter.
            m.insert(2, 1, 100).unwrap();
            m.remove(3, 2).unwrap();
            assert_eq!(m.get_arc(&2, 5).as_deref(), Some(&100));
            // Now release the waiter.
            m.insert(1, 5, 500).unwrap();
            done_tx.send(("writer", Some(0))).unwrap();
        })
    };

    let mut seen = Vec::new();
    for _ in 0..2 {
        let (who, _) = done_rx
            .recv_timeout(WATCHDOG)
            .expect("deadlock: a shard lock is being held across a blocking cell wait");
        seen.push(who);
    }
    waiter.join().unwrap();
    writer.join().unwrap();
    assert!(seen.contains(&"waiter") && seen.contains(&"writer"));
    assert_eq!(m.get_arc(&1, 5).as_deref(), Some(&500));
}

/// Same exposure through the `OCell` handle directly: `cell_for`-style
/// lookup must hand out a clone and release the shard before any
/// blocking load. Two threads wait on two different missing keys of the
/// same shard; a third publishes both. All must finish.
#[test]
fn two_blocked_waiters_on_one_shard_make_progress() {
    let m: OMap<u32, u64> = OMap::with_shards(1);
    let (done_tx, done_rx) = mpsc::channel();

    for key in [10u32, 11] {
        let m = m.clone();
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            let got = m.wait_version(key, 1).map(|v| *v);
            done_tx.send((key, got)).unwrap();
        });
    }
    thread::sleep(Duration::from_millis(30));
    m.insert(10, 1, 1000).unwrap();
    m.insert(11, 1, 1100).unwrap();

    let mut got = Vec::new();
    for _ in 0..2 {
        got.push(
            done_rx
                .recv_timeout(WATCHDOG)
                .expect("deadlock among blocked same-shard waiters"),
        );
    }
    got.sort_unstable();
    assert_eq!(got, vec![(10, Some(1000)), (11, Some(1100))]);
}

/// Snapshot/scan while a waiter is parked: read paths must not require
/// the blocked cell's shard either.
#[test]
fn snapshot_and_scan_proceed_past_blocked_waiters() {
    let m: OMap<u32, u64> = OMap::with_shards(1);
    m.insert(5, 1, 50).unwrap();
    let waiter = {
        let m = m.clone();
        thread::spawn(move || m.wait_version(9, 3).map(|v| *v))
    };
    thread::sleep(Duration::from_millis(30));
    // Both read paths complete while key 9's waiter is parked.
    assert_eq!(m.snapshot_arc(u64::MAX), vec![(5, Arc::new(50))]);
    assert_eq!(m.scan_arc(0, 10, u64::MAX), vec![(5, Arc::new(50))]);
    m.insert(9, 3, 90).unwrap();
    assert_eq!(waiter.join().unwrap(), Some(90));
}
