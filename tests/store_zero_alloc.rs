//! Proof that the software store's read path and a warm vacuum pass are
//! allocation-free: a pinned get (`pin` → `OMap::get_arc` → drop),
//! `pin_at`, and the registry's `watermark` and `live_readers`, with
//! several pins live at once so freed registry slots are reused in a
//! different order than they were taken; `Vacuum::run_pass` over a map
//! whose keys were rewritten, so the pass drains each shard's dirty
//! queue, prunes, re-queues, settles and unlinks cells; and the same
//! collection through `ORuntime::collect_now`. A warm insert allocates
//! its value and nothing else, and a warm remove nothing at all: a cell
//! holds each version's `Option<Arc<V>>` inline, its version storage
//! keeps its capacity through a prune, and so does its shard's dirty
//! queue. A bare `OCell<u64>` stores, loads and prunes without
//! allocating.
//!
//! `ostructs-core` forbids `unsafe`, so the counting `#[global_allocator]`
//! is the shared per-thread one of the zero-allocation guards. A test
//! arms its own thread after a warm-up pass over the same operations and
//! disarms it before the assertions. Every guarded operation runs on the
//! arming thread (`run_pass` and `collect_now` prune on the calling
//! thread, and the vacuum's background thread is never woken), and the
//! count of allocations inside the window must be exactly zero, or for
//! inserts exactly the one `Arc<V>` that boxes each value.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::time::Duration;

use counting_alloc::counted;
use ostructs::core::{OCell, OMap, ORuntime, ReaderRegistry, Vacuum, VacuumCfg};

const KEYS: u32 = 256;

/// One pass over every key: a pinned get under two other live pins (one
/// fresh, one historical), dropped in an order that leaves the registry's
/// free list shuffled, plus the vacuum's boundary reads. Returns a
/// checksum so the reads cannot be optimised away.
fn round(reg: &ReaderRegistry, map: &OMap<u32, u64>) -> u64 {
    let mut sum = 0;
    for k in 0..KEYS {
        let outer = reg.pin();
        let old = reg.pin_at(u64::from(k));
        let pin = reg.pin();
        sum += map.get_arc(&k, pin.cap()).map_or(0, |v| *v);
        drop(outer);
        drop(pin);
        sum += reg.watermark() + reg.live_readers() as u64;
        drop(old);
    }
    sum
}

#[test]
fn pinned_gets_and_registry_reads_do_not_allocate() {
    let reg = ReaderRegistry::new();
    let map: OMap<u32, u64> = OMap::new();
    for k in 0..KEYS {
        let v = reg.next_version();
        map.insert(k, v, v).unwrap();
    }
    let warm = round(&reg, &map);

    let (sum, allocs) = counted(|| (0..8).map(|_| round(&reg, &map)).sum::<u64>());

    assert_eq!(sum, 8 * warm, "every pinned get found its key");
    assert_eq!(allocs, 0, "the store's read path allocated once warm");
    assert_eq!(reg.live_readers(), 0);
}

/// Rewrites the map, then runs one vacuum pass (counted when `count` is
/// set) under a pin that splits each odd key's history. Every key is
/// written, every 16th key is then removed, and the odd keys are written
/// again after the pin, so the pass settles the even keys, unlinks the
/// removed ones and re-queues the odd ones (their write after the pin
/// stays above the watermark). Returns the versions the pass reclaimed
/// and its allocation count.
fn rewrite_and_pass(reg: &ReaderRegistry, map: &OMap<u32, u64>, vac: &Vacuum) -> (u64, u64) {
    for k in 0..KEYS {
        let v = reg.next_version();
        map.insert(k, v, v).unwrap();
    }
    for k in (0..KEYS).step_by(16) {
        map.remove(k, reg.next_version()).unwrap();
    }
    let pin = reg.pin();
    for k in (1..KEYS).step_by(2) {
        let v = reg.next_version();
        map.insert(k, v, v).unwrap();
    }
    let counted = counted(|| vac.run_pass());
    drop(pin);
    counted
}

#[test]
fn warm_vacuum_pass_does_not_allocate() {
    let reg = ReaderRegistry::new();
    // Passes run only when asked: the background cadence never fires.
    let vac = Vacuum::start(
        reg.clone(),
        VacuumCfg {
            interval: Duration::from_secs(24 * 3600),
        },
    );
    let map: OMap<u32, u64> = OMap::new();
    vac.track(&map);
    // The queue buffers and the pass's handle buffer grow to their peak.
    for _ in 0..4 {
        rewrite_and_pass(&reg, &map, &vac);
    }
    let warm_reclaimed = rewrite_and_pass(&reg, &map, &vac).0;

    let (reclaimed, allocs) = rewrite_and_pass(&reg, &map, &vac);

    assert_eq!(reclaimed, warm_reclaimed, "every round prunes alike");
    // Per round: each odd key sheds its previous round's two writes, and
    // each even key its one older version.
    let odd = u64::from(KEYS / 2);
    assert_eq!(reclaimed, 2 * odd + odd, "the pass pruned every rewrite");
    assert_eq!(
        map.tracked_keys(),
        (KEYS - KEYS / 16) as usize,
        "the removed keys were unlinked"
    );
    assert_eq!(allocs, 0, "a warm vacuum pass allocated");

    // The task runtime's collections are passes of the same collector.
    let rt = ORuntime::new(1);
    let map: OMap<u32, u64> = OMap::new();
    rt.track(&map);
    for _ in 0..4 {
        rewrite_and_collect(&rt, &map);
    }

    let (reclaimed, allocs) = rewrite_and_collect(&rt, &map);

    assert_eq!(reclaimed, u64::from(KEYS), "each key shed its older write");
    assert_eq!(allocs, 0, "a warm runtime collection allocated");
}

/// Rewrites every key at the runtime's next task id, runs one empty task
/// so the collection boundary passes that id, then collects (counted).
/// Returns the versions the collection reclaimed and its allocation
/// count.
fn rewrite_and_collect(rt: &ORuntime, map: &OMap<u32, u64>) -> (u64, u64) {
    let v = rt.next_tid();
    for k in 0..KEYS {
        map.insert(k, v, v).unwrap();
    }
    rt.run(vec![Box::new(|_| {})]);
    let before = rt.gc_stats().reclaimed;
    let ((), allocs) = counted(|| rt.collect_now());
    (rt.gc_stats().reclaimed - before, allocs)
}

/// Inserts every key `WRITES` times, each at the clock's next version.
/// A cell left with one version by a pass then grows to `WRITES + 1`
/// versions, so storage that a prune released would be allocated again.
fn write_all(map: &OMap<u32, u64>, clock: &mut u64) {
    const WRITES: u64 = 16;
    for _ in 0..WRITES {
        for k in 0..KEYS {
            *clock += 1;
            map.insert(k, *clock, *clock).unwrap();
        }
    }
}

#[test]
fn warm_inserts_allocate_only_their_values() {
    let map: OMap<u32, u64> = OMap::new();
    let mut clock = 0;
    // Each round grows every cell, and a pass at the newest version
    // prunes it back to one version and settles it: the cells' version
    // storage and the shards' queue buffers grow to their peak.
    for _ in 0..4 {
        write_all(&map, &mut clock);
        map.prune_below(clock);
    }
    let before = clock;

    let ((), allocs) = counted(|| write_all(&map, &mut clock));

    let inserts = clock - before;
    assert_eq!(inserts, 16 * u64::from(KEYS));
    // Each insert boxes its value once, in the `Arc<V>` that
    // `OMap::insert` makes; the cell holds the `Option<Arc<V>>` inline.
    assert_eq!(allocs, inserts, "a warm insert allocated past its value");
    assert_eq!(map.prune_below(clock), 16 * KEYS as usize);
}

/// Removes every key at the clock's next version.
fn remove_all(map: &OMap<u32, u64>, clock: &mut u64) {
    for k in 0..KEYS {
        *clock += 1;
        map.remove(k, *clock).unwrap();
    }
}

#[test]
fn warm_removes_allocate_nothing() {
    let map: OMap<u32, u64> = OMap::new();
    let mut clock = 0;
    // Each round fills fresh cells and settles them, so the counted
    // removes find every cell indexed and off its queue: each remove
    // stores into the cell's kept capacity and queues its key into a
    // buffer the warm rounds grew. A pass then unlinks the removed cells.
    let round = |clock: &mut u64| {
        write_all(&map, clock);
        map.prune_below(*clock);
        let ((), allocs) = counted(|| remove_all(&map, clock));
        assert_eq!(map.get_arc(&0, *clock), None);
        assert_eq!(map.prune_below(*clock), KEYS as usize);
        assert_eq!(map.tracked_keys(), 0, "every removed cell was unlinked");
        allocs
    };
    for _ in 0..4 {
        round(&mut clock);
    }

    assert_eq!(round(&mut clock), 0, "a warm remove allocated");
}

#[test]
fn warm_bare_cell_round_allocates_nothing() {
    let cells: Vec<OCell<u64>> = (0..KEYS).map(|_| OCell::new()).collect();
    let mut clock = 0;
    // Per cell: two stores, a LOAD-LATEST of the newer one and a prune
    // back to it, so each round grows the version storage to three
    // entries and shrinks it to one. Returns the loaded values' sum and
    // the versions pruned.
    let round = |clock: &mut u64| {
        let (mut sum, mut reclaimed) = (0, 0);
        for cell in &cells {
            for _ in 0..2 {
                *clock += 1;
                cell.store_version(*clock, *clock).unwrap();
            }
            let (v, value) = cell.try_load_latest(*clock).expect("just stored");
            assert_eq!(v, value);
            sum += value;
            reclaimed += cell.prune_below(*clock);
        }
        (sum, reclaimed)
    };
    for _ in 0..4 {
        round(&mut clock);
    }
    let before = clock;

    let ((sum, reclaimed), allocs) = counted(|| round(&mut clock));

    let newest = (1..=u64::from(KEYS)).map(|i| before + 2 * i);
    assert_eq!(sum, newest.sum::<u64>(), "every load found its store");
    assert_eq!(reclaimed, 2 * KEYS as usize, "each cell shed two versions");
    assert_eq!(allocs, 0, "a warm bare-cell round allocated");
}
