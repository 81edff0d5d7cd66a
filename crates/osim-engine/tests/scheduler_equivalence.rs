//! Properties of whole-`Sim` schedules under randomized sleep/gate
//! programs: a shake seed fixes one exact dispatch order, and the engine's
//! event totals do not depend on how same-cycle ties are broken.
//!
//! Each generated program logs `(task, step, cycle)` at every action
//! boundary. The near/far delay mix pushes events through both the wheel
//! buckets and the overflow heap of the calendar queue. (The queue itself
//! is checked against a reference binary heap, op by op, by the
//! differential proptest in `src/executor.rs`.)

use std::cell::RefCell;
use std::rc::Rc;

use osim_engine::{EngineStats, ShakePolicy, Sim};
use proptest::prelude::*;

const GATES: usize = 3;

/// One step of a generated task program.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Advance simulated time; delays beyond the wheel span (256 cycles)
    /// land in the overflow heap.
    Sleep(u64),
    /// Park on gate `.0` until any open.
    Wait(usize),
    /// Open gate `.0` at `now + .1`.
    Open(usize, u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..600).prop_map(Action::Sleep),
        (0..GATES).prop_map(Action::Wait),
        ((0..GATES), 0u64..600).prop_map(|(g, d)| Action::Open(g, d)),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Action>>> {
    proptest::collection::vec(proptest::collection::vec(action_strategy(), 0..8), 1..6)
}

type Log = Rc<RefCell<Vec<(usize, usize, u64)>>>;

/// Runs `program` under `shake`, returning the dispatch log and end time.
fn run_shaken(program: &[Vec<Action>], shake: ShakePolicy) -> (Vec<(usize, usize, u64)>, u64) {
    let sim = Sim::with_shake(shake);
    let h = sim.handle();
    let gates: Vec<_> = (0..GATES).map(|_| h.gate()).collect();
    let log: Log = Rc::default();
    let max_delay = 600;
    for (ti, actions) in program.iter().enumerate() {
        let h = h.clone();
        let gates = gates.clone();
        let log = Rc::clone(&log);
        let actions = actions.clone();
        sim.spawn(async move {
            for (si, action) in actions.iter().enumerate() {
                match *action {
                    Action::Sleep(d) => h.sleep(d).await,
                    Action::Wait(g) => {
                        gates[g].wait().await;
                    }
                    Action::Open(g, d) => gates[g].open_at(h.now() + d),
                }
                log.borrow_mut().push((ti, si, h.now()));
            }
        });
    }
    // Sweeper: generated programs may park tasks nobody opens for; keep
    // broadcasting on every gate until only the sweeper itself is left.
    // Fully deterministic, so it cannot mask a schedule divergence.
    {
        let h = h.clone();
        sim.spawn(async move {
            while h.live_tasks() > 1 {
                for g in &gates {
                    g.open_at(h.now());
                }
                h.sleep(max_delay).await;
            }
        });
    }
    let end = sim.run().expect("sweeper prevents deadlock");
    (Rc::try_unwrap(log).unwrap().into_inner(), end)
}

/// A structured wait/open/abandon program whose event *totals* are
/// interleaving-invariant by construction: `waiters` tasks take a gate
/// ticket at cycle 0 and await it, `abandoners` take a ticket, sleep past
/// the opener, and drop it unawaited, and one opener wakes everyone at
/// `OPEN_AT`. Each task resumes exactly twice whatever the same-cycle
/// dispatch order is, and each abandoned ticket's wake dispatches stale.
/// Returns the engine counters and end time.
const OPEN_AT: u64 = 5000; // beyond the wheel span, so the overflow heap runs too

fn stale_run(shake: ShakePolicy, waiters: usize, abandoners: &[u64]) -> (EngineStats, u64) {
    let sim = Sim::with_shake(shake);
    let h = sim.handle();
    let gate = h.gate();
    for _ in 0..waiters {
        let gate = gate.clone();
        sim.spawn(async move {
            gate.ticket().await;
        });
    }
    for &d in abandoners {
        let h = h.clone();
        let gate = gate.clone();
        sim.spawn(async move {
            let ticket = gate.ticket();
            // Outlive the opener's drain (cycle 1), die before the wake.
            h.sleep(2 + d).await;
            drop(ticket);
        });
    }
    {
        let h = h.clone();
        let gate = gate.clone();
        sim.spawn(async move {
            h.sleep(1).await;
            gate.open_at(OPEN_AT);
        });
    }
    let end = sim.run().expect("opener wakes every waiter");
    (sim.stats(), end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A seeded tie-break stream defines one total order: the same
    /// program under the same policy, run twice, gives the same log and
    /// end time, both with FIFO ties and under a shake seed.
    #[test]
    fn same_seed_dispatches_identically(program in program_strategy(), seed in any::<u64>()) {
        for shake in [ShakePolicy::Off, ShakePolicy::Seeded(seed)] {
            let (log_a, end_a) = run_shaken(&program, shake);
            let (log_b, end_b) = run_shaken(&program, shake);
            prop_assert_eq!(end_a, end_b, "end times diverged under {:?}", shake);
            prop_assert_eq!(log_a, log_b, "dispatch order diverged under {:?}", shake);
        }
    }

    /// Event accounting is schedule-invariant: however a seed permutes
    /// same-cycle dispatch, the wait/open/abandon program dispatches the
    /// same number of events and skips the same number of stale wakes —
    /// and the exact totals follow from the program shape alone.
    #[test]
    fn stale_event_totals_are_schedule_invariant(
        waiters in 1usize..6,
        abandoners in proptest::collection::vec(0u64..600, 1..6),
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let tasks = (waiters + abandoners.len() + 1) as u64;
        let (ref_stats, ref_end) = stale_run(ShakePolicy::Off, waiters, &abandoners);
        prop_assert_eq!(ref_stats.events_dispatched, 2 * tasks, "two resumptions per task");
        prop_assert_eq!(ref_stats.stale_events, abandoners.len() as u64,
            "one stale wake per abandoned ticket");
        prop_assert_eq!(ref_end, OPEN_AT);
        let mut policies = vec![ShakePolicy::Off];
        policies.extend(seeds.iter().map(|&s| ShakePolicy::Seeded(s)));
        for shake in policies {
            let (stats, end) = stale_run(shake, waiters, &abandoners);
            prop_assert_eq!(stats.events_dispatched, ref_stats.events_dispatched,
                "dispatch total diverged under {:?}", shake);
            prop_assert_eq!(stats.stale_events, ref_stats.stale_events,
                "stale total diverged under {:?}", shake);
            prop_assert_eq!(end, ref_end, "end time diverged under {:?}", shake);
        }
    }
}
