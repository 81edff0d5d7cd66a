//! Properties of whole-`Sim` schedules under randomized sleep/gate
//! programs: a shake seed fixes one exact dispatch order, the engine's
//! event totals do not depend on how same-cycle ties are broken, and a
//! fixed program set still dispatches exactly as recorded in
//! `dispatch_fingerprints.txt` (taken before sleeps could resume inline).
//!
//! Each generated program logs `(task, step, cycle)` at every action
//! boundary. The near/far delay mix pushes events through both the wheel
//! buckets and the overflow heap of the calendar queue. (The queue itself
//! is checked against a reference binary heap, op by op, by the
//! differential proptest in `src/executor.rs`.)

use std::cell::RefCell;
use std::rc::Rc;

use osim_engine::{splitmix64, EngineStats, ShakePolicy, Sim};
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

/// Runs `program` under `shake`, returning the dispatch log, end time and
/// engine counters.
fn run_shaken(
    program: &[Vec<Action>],
    shake: ShakePolicy,
) -> (Vec<(usize, usize, u64)>, u64, EngineStats) {
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
    (Rc::try_unwrap(log).unwrap().into_inner(), end, sim.stats())
}

/// The fixed program set behind `dispatch_fingerprints.txt`: program `i`
/// has `1 + i % 5` tasks of up to 12 actions drawn like
/// [`action_strategy`], from one splitmix64 stream. Three delays in four
/// are multiples of 8 below 32, so sleeps often land on a cycle where
/// another event is already queued.
fn fixture_programs() -> Vec<Vec<Vec<Action>>> {
    let mut rng = 0x0005_137c_0de5_eed5_u64;
    let mut draw = |n: u64| splitmix64(&mut rng) % n;
    let delay = |draw: &mut dyn FnMut(u64) -> u64| match draw(4) {
        0 => draw(600),
        _ => draw(4) * 8,
    };
    (0..48)
        .map(|i| {
            (0..1 + i % 5)
                .map(|_| {
                    (0..draw(13))
                        .map(|_| match draw(3) {
                            0 => Action::Sleep(delay(&mut draw)),
                            1 => Action::Wait(draw(GATES as u64) as usize),
                            _ => Action::Open(draw(GATES as u64) as usize, delay(&mut draw)),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// 64-bit FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One fixture line per (program, policy): the FNV-1a hash of the
/// `(task, step, cycle)` log, then the end time and the dispatched and
/// stale event counts.
fn fingerprints() -> String {
    let policies = [
        ("off", ShakePolicy::Off),
        ("seed7", ShakePolicy::Seeded(7)),
        ("seed99", ShakePolicy::Seeded(99)),
    ];
    let mut out = String::new();
    for (i, program) in fixture_programs().iter().enumerate() {
        for (name, shake) in policies {
            let (log, end, stats) = run_shaken(program, shake);
            let hash = fnv1a(log.iter().flat_map(|&(t, s, c)| [t as u64, s as u64, c]));
            out += &format!(
                "{i} {name} {hash:016x} {end} {} {}\n",
                stats.events_dispatched, stats.stale_events
            );
        }
    }
    out
}

/// The engine dispatches the fixed program set exactly as the queue-only
/// engine did: same order, same end times, same event counts.
#[test]
fn dispatch_matches_recorded_fingerprints() {
    let want = include_str!("dispatch_fingerprints.txt");
    let got = fingerprints();
    for (w, g) in want.lines().zip(got.lines()) {
        assert_eq!(
            g, w,
            "dispatch fingerprint diverged (program policy hash end events stale)"
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
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
            let (log_a, end_a, stats_a) = run_shaken(&program, shake);
            let (log_b, end_b, stats_b) = run_shaken(&program, shake);
            prop_assert_eq!(end_a, end_b, "end times diverged under {:?}", shake);
            prop_assert_eq!(log_a, log_b, "dispatch order diverged under {:?}", shake);
            prop_assert_eq!(stats_a, stats_b, "event counts diverged under {:?}", shake);
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
