//! Proof of the zero-allocation claim: once warm, steady-state gate
//! `wait()`/`open_at()` traffic and event dispatch perform no heap
//! allocations on the calendar event queue — including with dependency-flow
//! capture armed (every open carrying a tagged [`WakeOrigin`]) and with
//! metrics recording live: the engine's gate-wait/fan-out histograms are
//! fed inline by every open, and `osim_metrics::Histogram` record/merge
//! is additionally hammered directly inside the armed window — as is the
//! observability plane's recording side (relaxed counter bumps and a
//! shared pre-allocated histogram behind a mutex).
//!
//! The shared per-thread counting allocator is armed from inside the
//! simulation after a warm-up window (slab slots claimed, wheel buckets
//! and queues at capacity) and disarmed before teardown; the count of
//! allocations inside the window must be exactly zero. The simulation
//! runs on the test thread, so every counted operation is on the arming
//! thread.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use std::cell::RefCell;
use std::rc::Rc;

use osim_engine::{Sim, WakeOrigin};
use osim_metrics::Histogram;

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

    // Shared as a collector on another thread would share it; allocated
    // before the window arms. Warm the recording-side mutex.
    let wait_hist = Arc::new(Mutex::new(Histogram::new()));
    wait_hist.lock().expect("hist lock").record(1);

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
                    counting_alloc::arm();
                }
                if round == DISARM_AT {
                    counting_alloc::disarm();
                }
                // Attach a wake origin (the dependency-capture path):
                // origin propagation must be as allocation-free as the
                // plain open.
                let origin = WakeOrigin {
                    label: (round << 32) | 1,
                    at: h.now(),
                };
                gate.open_at_from(h.now() + 1, origin);
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
                // counted window: relaxed counter bump and shared
                // pre-allocated histogram record.
                TICKS.fetch_add(1, Ordering::Relaxed);
                wait_hist.lock().expect("hist lock").record(round);
                h.sleep(1).await;
            }
        });
    }
    sim.run().expect("no deadlock");

    let counted = counting_alloc::allocs();
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
    // The recording side saw every round.
    assert_eq!(TICKS.load(Ordering::Relaxed), ROUNDS, "missed ticks");
}
