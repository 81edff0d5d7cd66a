//! Proof that the software store's read path is allocation-free once
//! warm: a pinned get (`pin` → `OMap::get_arc` → drop), `pin_at`, and the
//! registry's `watermark` and `live_readers`, with several pins live at
//! once so freed registry slots are reused in a different order than they
//! were taken.
//!
//! `ostructs-core` forbids `unsafe`, so the counting `#[global_allocator]`
//! lives here. It is armed after a warm-up pass over the same operations
//! and disarmed before the assertions; the count of allocations inside
//! the window must be exactly zero. This file holds a single test so no
//! concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ostructs::core::{OMap, ReaderRegistry};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let mut sum = 0;
    for _ in 0..8 {
        sum += round(&reg, &map);
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(sum, 8 * warm, "every pinned get found its key");
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "the store's read path allocated once warm"
    );
    assert_eq!(reg.live_readers(), 0);
}
