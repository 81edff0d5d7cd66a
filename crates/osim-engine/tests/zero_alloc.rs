//! Proof of the zero-allocation claim: once warm, steady-state gate
//! `wait()`/`open_at()` traffic and event dispatch perform no heap
//! allocations on the calendar event queue — including with dependency-flow
//! capture armed (every open carrying a tagged [`WakeOrigin`]) and with
//! metrics recording live: the engine's gate-wait/fan-out histograms are
//! fed inline by every open, and `osim_metrics::Histogram` record/merge
//! is additionally hammered directly inside the armed window — as is the
//! observability plane's recording side (a running [`FlightRecorder`]
//! with its sampler parked, relaxed counter bumps, a shared pre-allocated
//! histogram, and the disarmed host-trace fast path).
//!
//! A counting `#[global_allocator]` is armed from inside the simulation
//! after a warm-up window (slab slots claimed, wheel buckets and queues at
//! capacity) and disarmed before teardown; the count of allocations inside
//! the window must be exactly zero. This file holds a single test so no
//! concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::cell::RefCell;
use std::rc::Rc;

use osim_engine::{Sim, WakeOrigin};
use osim_metrics::{FlightCfg, FlightRecorder, Histogram, Registry};

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

#[test]
fn steady_state_gate_and_dispatch_are_allocation_free() {
    const ROUNDS: u64 = 1_000;
    const ARM_AT: u64 = 300;
    const DISARM_AT: u64 = 900;
    const WAITERS: usize = 16;

    // Records what the hot loop does on the observability recording side:
    // the same primitives the instrumented layers use (relaxed counter,
    // pre-allocated histogram behind a mutex).
    static TICKS: AtomicU64 = AtomicU64::new(0);

    // Flight recorder armed across the window. Its sampler thread
    // parks far beyond the test (collection allocates by design and is
    // driven via `sample_now` strictly outside the counted window), so
    // what stays inside the window is exactly the recording side.
    let wait_hist = Arc::new(Mutex::new(Histogram::new()));
    let collect_hist = Arc::clone(&wait_hist);
    let recorder = FlightRecorder::start(
        FlightCfg {
            interval: Duration::from_secs(3600),
            capacity: 8,
        },
        Arc::new(move |reg: &mut Registry| {
            reg.counter_add("osim_test_ticks_total", &[], TICKS.load(Ordering::Relaxed));
            reg.hist_mut("osim_test_wait_us", &[])
                .merge(&collect_hist.lock().expect("hist lock"));
        }),
    )
    .expect("start recorder");
    recorder.sample_now();
    // Warm the recording-side mutex and the disarmed host-trace path.
    wait_hist.lock().expect("hist lock").record(1);
    let trace_t0 = std::time::Instant::now();

    let sim = Sim::new();
    let h = sim.handle();
    let gate = h.gate();
    for _ in 0..WAITERS {
        let gate = gate.clone();
        sim.spawn(async move {
            for _ in 0..ROUNDS {
                gate.wait().await;
            }
        });
    }
    // Allocated before the window arms: `Histogram` itself is a flat
    // fixed-size value, so record()/merge() inside the loop must not
    // touch the heap.
    let local_hist = Rc::new(RefCell::new((Histogram::new(), Histogram::new())));
    {
        let h = h.clone();
        let local_hist = Rc::clone(&local_hist);
        let wait_hist = Arc::clone(&wait_hist);
        sim.spawn(async move {
            for round in 0..ROUNDS {
                if round == ARM_AT {
                    ARMED.store(true, Ordering::SeqCst);
                }
                if round == DISARM_AT {
                    ARMED.store(false, Ordering::SeqCst);
                }
                // Attach a wake origin (the dependency-capture path):
                // origin propagation must be as allocation-free as the
                // plain open.
                let origin = WakeOrigin {
                    label: (round << 32) | 1,
                    at: h.now(),
                };
                gate.open_at_tagged_from(h.now() + 1, 1, origin);
                // Metrics armed on the hot loop: record spans the
                // linear and log bucket ranges, and a merge runs every
                // round — all of it inside the counted window.
                {
                    let (ref mut a, ref mut b) = *local_hist.borrow_mut();
                    a.record(round);
                    a.record(round << 8);
                    b.merge(a);
                }
                // The observability recording side, live inside the
                // counted window: relaxed counter bump, shared
                // pre-allocated histogram record, and the disarmed
                // host-trace fast path (one relaxed load).
                TICKS.fetch_add(1, Ordering::Relaxed);
                wait_hist.lock().expect("hist lock").record(round);
                osim_metrics::host_trace_span("job", "noop", 0, trace_t0);
                h.sleep(1).await;
            }
        });
    }
    sim.run().expect("no deadlock");

    let counted = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        counted, 0,
        "{counted} heap allocation(s) in the steady-state window \
         (rounds {ARM_AT}..{DISARM_AT}, {WAITERS} waiters)"
    );
    // The window was not vacuously quiet: the engine-side histograms
    // were recording throughout (one wait per waiter wake, one fan-out
    // sample per open), and the direct record/merge traffic landed.
    let eng = sim.hists();
    assert_eq!(eng.wake_fanout.count(), ROUNDS);
    assert_eq!(eng.gate_wait.count(), WAITERS as u64 * ROUNDS);
    assert_eq!(local_hist.borrow().0.count(), 2 * ROUNDS);
    // The recorder observed the recording-side traffic: a second
    // sample (outside the window) turns the counter's final value into
    // the window-delta sum.
    recorder.sample_now();
    let ticks: u64 = recorder
        .windows()
        .iter()
        .flat_map(|w| w.counters.iter())
        .filter(|(name, _)| name == "osim_test_ticks_total")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(ticks, ROUNDS, "recorder missed ticks");
}
