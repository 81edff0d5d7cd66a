//! Race test for lock-free reader pins against the vacuum's scan.
//!
//! One writer keeps publishing new versions of a hot key, one thread runs
//! vacuum passes back to back, and two readers pin snapshots and re-read
//! the key under each pin: every re-read must return what the first read
//! under that pin did. The writer publishes at the clock and only then
//! advances it, so a cap never covers a version that is not published
//! yet, and any change a reader sees is a version the vacuum pruned
//! under a live pin.
//!
//! The pins meet a scan in each way the protocol guards: a fresh
//! [`ReaderRegistry::pin`] (guarded by its clock re-check), pins above
//! the clock parked for the whole run (the watermark's bound at the clock
//! keeps them from lifting the boundary), and a historical snapshot
//! handed from guard to guard through [`ReaderRegistry::pin_at`] (a scan
//! that overlaps a hand-off is repeated). The parked pins fill the slots
//! between the first and the last of the first chunk, so a claim that
//! lands at the far end, and a scan that reads both ends, take longer.
//! Four threads, a fixed number of reader operations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ostructs_core::vacuum::{ReaderGuard, ReaderRegistry, Vacuum, VacuumCfg};
use ostructs_core::OMap;

const HOT: u32 = 7;
/// Pinned rounds per reader.
const ROUNDS: u64 = 100_000;
/// Re-reads under each pin.
const REREADS: usize = 3;
/// Guard-to-guard hand-offs of one historical snapshot.
const HANDOFFS: usize = 8;
/// Pins above the clock held for the whole run: all of the registry's
/// first chunk but its first and last slot.
const PARKED: usize = 30;

/// Reads the hot key `REREADS` times under `pin` and checks every read
/// against `want`.
fn reread(map: &OMap<u32, u64>, pin: &ReaderGuard<'_>, want: Option<u64>) {
    for _ in 0..REREADS {
        let got = map.get_arc(&HOT, pin.cap()).map(|v| *v);
        assert_eq!(got, want, "the snapshot at cap {} changed", pin.cap());
    }
}

/// A fresh pin, a first read under it, and the re-reads; then as many
/// unpinned reads of the newest version, which no pass can prune, so the
/// scan also meets moments with no reader pinned.
fn fresh(reg: &ReaderRegistry, map: &OMap<u32, u64>) {
    let pin = reg.pin();
    let want = map.get_arc(&HOT, pin.cap()).map(|v| *v);
    assert!(want.is_some(), "the hot key is absent at cap {}", pin.cap());
    reread(map, &pin, want);
    drop(pin);
    for _ in 0..REREADS {
        assert!(map.get_arc(&HOT, u64::MAX).is_some());
    }
}

/// `ROUNDS` rounds that alternate, from `offset`, between a fresh pin
/// and one snapshot handed from guard to guard, each new guard taken
/// before the old one drops.
fn read_rounds(reg: &ReaderRegistry, map: &OMap<u32, u64>, offset: u64) {
    for round in offset..offset + ROUNDS {
        if round % 2 == 0 {
            fresh(reg, map);
            continue;
        }
        let mut pin = reg.pin();
        let want = map.get_arc(&HOT, pin.cap()).map(|v| *v);
        for _ in 0..HANDOFFS {
            let next = reg.pin_at(pin.cap());
            drop(std::mem::replace(&mut pin, next));
            reread(map, &pin, want);
        }
    }
}

#[test]
fn pins_keep_their_snapshots_against_back_to_back_passes() {
    let reg = ReaderRegistry::new();
    // The background cadence never fires: passes run on their own thread.
    let vac = Vacuum::start(
        reg.clone(),
        VacuumCfg {
            interval: Duration::from_secs(24 * 3600),
        },
    );
    let map: OMap<u32, u64> = OMap::new();
    vac.track(&map);
    let v = reg.current();
    map.insert(HOT, v, v).unwrap();
    reg.advance_to(v);
    // Slot 0 stays free; every other slot but the chunk's last is parked.
    let first = reg.pin();
    let parked: Vec<_> = (0..PARKED).map(|_| reg.pin_at(u64::MAX)).collect();
    drop(first);

    let readers_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (reg, map, vac, done) = (&reg, &map, &vac, &readers_done);
        // Publish-then-advance: caps only ever cover published versions.
        s.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let v = reg.current();
                map.insert(HOT, v, v).unwrap();
                reg.advance_to(v);
            }
        });
        s.spawn(move || {
            while !done.load(Ordering::Relaxed) {
                vac.run_pass();
            }
        });
        let first = s.spawn(move || read_rounds(reg, map, 0));
        let second = std::panic::catch_unwind(|| read_rounds(reg, map, 1));
        let first = first.join();
        done.store(true, Ordering::Relaxed);
        first.unwrap();
        second.unwrap();
    });
    drop(parked);
    assert_eq!(reg.live_readers(), 0);
    vac.run_pass();
    assert_eq!(
        map.get_arc(&HOT, u64::MAX).map(|v| *v),
        Some(reg.current() - 1)
    );
}
