//! Property-based tests: the software O-structure cell against a
//! reference model of the §II-A semantics, the reader registry against a
//! multiset of pinned caps, and a threaded check that every parked load
//! is woken.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use ostructs_core::{OCell, OError, ReaderGuard, ReaderRegistry};

/// Reference model: an ordered map of versions plus lock state.
#[derive(Default, Debug)]
struct Model {
    versions: BTreeMap<u64, (u32, Option<u64>)>, // version -> (value, locked_by)
    held: BTreeMap<u64, u64>,                    // tid -> version
}

impl Model {
    fn store(&mut self, v: u64, val: u32) -> Result<(), OError> {
        if self.versions.contains_key(&v) {
            return Err(OError::VersionExists(v));
        }
        self.versions.insert(v, (val, None));
        Ok(())
    }

    fn try_load(&self, v: u64) -> Option<u32> {
        self.versions
            .get(&v)
            .filter(|(_, l)| l.is_none())
            .map(|&(val, _)| val)
    }

    fn try_latest(&self, cap: u64) -> Option<(u64, u32)> {
        self.versions
            .range(..=cap)
            .next_back()
            .filter(|(_, (_, l))| l.is_none())
            .map(|(&v, &(val, _))| (v, val))
    }

    fn try_lock_latest(&mut self, cap: u64, tid: u64) -> Option<(u64, u32)> {
        if self.held.contains_key(&tid) {
            return None; // one lock per task per cell in this test
        }
        let (v, val) = self.try_latest(cap)?;
        self.versions.get_mut(&v).expect("exists").1 = Some(tid);
        self.held.insert(tid, v);
        Some((v, val))
    }

    fn unlock(&mut self, tid: u64, create: Option<u64>) -> Result<(), OError> {
        let Some(v) = self.held.remove(&tid) else {
            return Err(OError::NotLockOwner(tid));
        };
        let val = {
            let slot = self.versions.get_mut(&v).expect("held");
            slot.1 = None;
            slot.0
        };
        if let Some(vn) = create {
            if self.versions.contains_key(&vn) {
                return Err(OError::VersionExists(vn));
            }
            self.versions.insert(vn, (val, None));
        }
        Ok(())
    }

    fn prune_below(&mut self, boundary: u64) {
        let Some((&keep, _)) = self.versions.range(..=boundary).next_back() else {
            return;
        };
        self.versions.retain(|&v, (_, l)| v >= keep || l.is_some());
    }
}

#[derive(Debug, Clone)]
enum Step {
    Store { v: u64, val: u32 },
    TryLoad { v: u64 },
    TryLatest { cap: u64 },
    LockLatest { cap: u64, tid: u64 },
    Unlock { tid: u64, create: Option<u64> },
    Prune { boundary: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..40, any::<u32>()).prop_map(|(v, val)| Step::Store { v, val }),
        (1u64..40).prop_map(|v| Step::TryLoad { v }),
        (1u64..40).prop_map(|cap| Step::TryLatest { cap }),
        (1u64..40, 1u64..8).prop_map(|(cap, tid)| Step::LockLatest { cap, tid }),
        (1u64..8, proptest::option::of(1u64..40))
            .prop_map(|(tid, create)| Step::Unlock { tid, create }),
        (1u64..40).prop_map(|boundary| Step::Prune { boundary }),
    ]
}

#[derive(Debug, Clone)]
enum PinStep {
    Pin,
    PinAt(u64),
    /// Drops the guard at this index (modulo the live guards).
    Drop(usize),
    NextVersion,
    AdvanceTo(u64),
}

fn pin_step_strategy() -> impl Strategy<Value = PinStep> {
    prop_oneof![
        (0u64..1).prop_map(|_| PinStep::Pin),
        (0u64..60).prop_map(PinStep::PinAt),
        (0usize..16).prop_map(PinStep::Drop),
        (0u64..1).prop_map(|_| PinStep::NextVersion),
        (0u64..60).prop_map(PinStep::AdvanceTo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The registry's watermark, live count and pin-age count agree with
    /// a multiset of pinned caps after every step.
    #[test]
    fn registry_matches_multiset_model(
        steps in proptest::collection::vec(pin_step_strategy(), 1..120),
    ) {
        let reg = ReaderRegistry::new();
        let mut guards: Vec<ReaderGuard> = Vec::new();
        let mut pinned: BTreeMap<u64, usize> = BTreeMap::new();
        let mut clock = 1u64;
        let mut completed = 0usize;
        for step in steps {
            match step {
                PinStep::Pin => {
                    let g = reg.pin();
                    prop_assert_eq!(g.cap(), clock - 1);
                    *pinned.entry(g.cap()).or_default() += 1;
                    guards.push(g);
                }
                PinStep::PinAt(cap) => {
                    *pinned.entry(cap).or_default() += 1;
                    guards.push(reg.pin_at(cap));
                }
                PinStep::Drop(at) => {
                    if !guards.is_empty() {
                        let g = guards.swap_remove(at % guards.len());
                        let n = pinned.get_mut(&g.cap()).expect("pinned cap");
                        *n -= 1;
                        if *n == 0 {
                            pinned.remove(&g.cap());
                        }
                        drop(g);
                        completed += 1;
                    }
                }
                PinStep::NextVersion => {
                    prop_assert_eq!(reg.next_version(), clock);
                    clock += 1;
                }
                PinStep::AdvanceTo(version) => {
                    reg.advance_to(version);
                    clock = clock.max(version + 1);
                }
            }
            let live: usize = pinned.values().sum();
            let oldest = pinned.keys().next().copied();
            prop_assert_eq!(reg.current(), clock);
            prop_assert_eq!(reg.watermark(), oldest.unwrap_or(clock - 1));
            prop_assert_eq!(reg.watermark_lag(), oldest.map_or(0, |o| clock.saturating_sub(o)));
            prop_assert_eq!(reg.live_readers(), live);
            prop_assert_eq!(reg.pin_ages_us().count(), (completed + live) as u64);
        }
    }

    /// Every non-blocking observation of the cell matches the model, for
    /// arbitrary interleavings of the six operations.
    #[test]
    fn cell_matches_model(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let cell: OCell<u32> = OCell::new();
        let mut model = Model::default();
        for step in steps {
            match step {
                Step::Store { v, val } => {
                    prop_assert_eq!(cell.store_version(v, val), model.store(v, val));
                }
                Step::TryLoad { v } => {
                    prop_assert_eq!(cell.try_load_version(v), model.try_load(v));
                }
                Step::TryLatest { cap } => {
                    prop_assert_eq!(cell.try_load_latest(cap), model.try_latest(cap));
                }
                Step::LockLatest { cap, tid } => {
                    // Skip when it would block (absent/locked); the model
                    // mirrors the decision. A task that already holds a
                    // lock is refused, which the model also reports as None.
                    let would = model.try_latest(cap).is_some();
                    let got = if would {
                        match cell.lock_load_latest(cap, tid) {
                            Err(OError::AlreadyHolds(v)) => {
                                prop_assert_eq!(model.held.get(&tid), Some(&v));
                                None
                            }
                            got => Some(got.unwrap()),
                        }
                    } else {
                        None
                    };
                    prop_assert_eq!(got, model.try_lock_latest(cap, tid));
                }
                Step::Unlock { tid, create } => {
                    prop_assert_eq!(
                        cell.unlock_version(tid, create),
                        model.unlock(tid, create)
                    );
                }
                Step::Prune { boundary } => {
                    cell.prune_below(boundary);
                    model.prune_below(boundary);
                    let want: Vec<u64> = model.versions.keys().copied().collect();
                    prop_assert_eq!(cell.versions(), want);
                }
            }
        }
    }

    /// GC transparency: pruning below any boundary never changes what a
    /// task with cap ≥ boundary observes.
    #[test]
    fn prune_is_invisible_above_the_boundary(
        versions in proptest::collection::btree_set(1u64..60, 1..25),
        boundary in 1u64..60,
        caps in proptest::collection::vec(1u64..60, 1..10),
    ) {
        let cell: OCell<u32> = OCell::new();
        for &v in &versions {
            cell.store_version(v, v as u32 * 3).unwrap();
        }
        let before: Vec<Option<(u64, u32)>> =
            caps.iter().map(|&c| cell.try_load_latest(c)).collect();
        cell.prune_below(boundary);
        for (i, &cap) in caps.iter().enumerate() {
            if cap >= boundary {
                prop_assert_eq!(cell.try_load_latest(cap), before[i],
                    "cap {} >= boundary {}", cap, boundary);
            }
        }
    }

    /// Renaming (unlock-with-create) always preserves the locked value and
    /// leaves both versions unlocked.
    #[test]
    fn rename_preserves_value(
        base in 1u64..20,
        offset in 1u64..20,
        val in any::<u32>(),
    ) {
        let cell = OCell::with_initial(base, val);
        cell.lock_load_version(base, 1).unwrap();
        let vn = base + offset;
        cell.unlock_version(1, Some(vn)).unwrap();
        prop_assert_eq!(cell.try_load_version(base), Some(val));
        prop_assert_eq!(cell.try_load_version(vn), Some(val));
    }
}

/// Operations that have parked on a cell so far, process-wide. A waiter
/// counts itself under the cell mutex just before it parks, so once this
/// has risen by `n` the cell's next writer finds all `n` parked. This is
/// the only test in this file that blocks.
fn blocking_waits() -> u64 {
    let mut reg = osim_metrics::Registry::new();
    ostructs_core::fill_store_registry(&mut reg);
    reg.counter("osim_store_blocking_waits_total", &[])
}

/// Parked `load_version`, `load_version_timeout` and `lock_load_version`
/// waiters are each woken by the `store_version` or `unlock_version` that
/// enables them, round after round. The three enabling steps run in every
/// order, one at a time, so each kind of waiter is regularly the only one
/// still parked when its step comes. A lost wake-up shows as a waiter that
/// never reports back.
#[test]
fn parked_waiters_are_always_woken() {
    const ROUNDS: u64 = 240;
    const HANG: Duration = Duration::from_secs(20);
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for round in 0..ROUNDS {
        let cell: OCell<u64> = OCell::with_initial(1, round);
        cell.lock_load_version(1, 100).unwrap();
        let parked_before = blocking_waits();
        let (tx, rx) = mpsc::channel();
        let waiters = [
            // Woken by the store of version 2.
            thread::spawn({
                let (cell, tx) = (cell.clone(), tx.clone());
                move || tx.send(("load", cell.load_version(2))).unwrap()
            }),
            // Woken by the store of version 3.
            thread::spawn({
                let (cell, tx) = (cell.clone(), tx.clone());
                move || {
                    let got = cell.load_version_timeout(3, HANG).expect("woken");
                    tx.send(("timeout", got)).unwrap()
                }
            }),
            // Woken by the unlock of version 1.
            thread::spawn({
                let (cell, tx) = (cell.clone(), tx.clone());
                move || {
                    let got = cell.lock_load_version(1, 7).unwrap();
                    cell.unlock_version(7, None).unwrap();
                    tx.send(("lock", got)).unwrap()
                }
            }),
        ];
        // Most rounds wait until all three have parked; the rest race the
        // first step against the parks.
        if round % 4 != 0 {
            let deadline = Instant::now() + HANG;
            while blocking_waits() < parked_before + 3 {
                assert!(Instant::now() < deadline, "waiters never parked");
                thread::yield_now();
            }
        }
        for step in ORDERS[(round % 6) as usize] {
            let want = match step {
                0 => {
                    cell.store_version(2, round + 2).unwrap();
                    ("load", round + 2)
                }
                1 => {
                    cell.store_version(3, round + 3).unwrap();
                    ("timeout", round + 3)
                }
                _ => {
                    cell.unlock_version(100, None).unwrap();
                    ("lock", round)
                }
            };
            let got = rx
                .recv_timeout(HANG)
                .expect("a parked waiter was never woken");
            assert_eq!(got, want, "round {round}");
        }
        for w in waiters {
            w.join().unwrap();
        }
        cell.check_invariants().unwrap();
    }
}
