//! The counting `#[global_allocator]` of the zero-allocation guards. Each
//! guard includes this file with `#[path]`.
//!
//! It counts per thread: [`arm`] starts counting the calling thread's
//! allocations from zero, [`disarm`] stops, and [`allocs`] reads the
//! count. An allocation by any other thread of the test process (the test
//! harness, a concurrent test) cannot count against the guarded path, so
//! every operation a guard measures must run on the thread that armed it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // read them on any thread without allocating.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Starts counting this thread's allocations from zero.
pub fn arm() {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
}

/// Stops counting this thread's allocations.
pub fn disarm() {
    ARMED.with(|a| a.set(false));
}

/// This thread's allocations counted since its last [`arm`].
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` with this thread's allocations counted; returns its result
/// and the count.
#[allow(dead_code)]
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    arm();
    let r = f();
    disarm();
    (r, allocs())
}
