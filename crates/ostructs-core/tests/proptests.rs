//! Property-based tests: the software O-structure cell against a
//! reference model of the §II-A semantics, the reader registry against a
//! multiset of pinned caps, the map's queued vacuum against a model that
//! sweeps every cell, and a threaded check that every parked load is
//! woken.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use ostructs_core::{OCell, OError, OMap, ReaderGuard, ReaderRegistry};

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
        self.lock(v, tid);
        Some((v, val))
    }

    fn try_lock_version(&mut self, v: u64, tid: u64) -> Option<u32> {
        if self.held.contains_key(&tid) {
            return None;
        }
        let val = self.try_load(v)?;
        self.lock(v, tid);
        Some(val)
    }

    fn lock(&mut self, v: u64, tid: u64) {
        self.versions.get_mut(&v).expect("exists").1 = Some(tid);
        self.held.insert(tid, v);
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
    LockVersion { v: u64, tid: u64 },
    Unlock { tid: u64, create: Option<u64> },
    Prune { boundary: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    step_strategy_over(1..=39)
}

/// Cell steps whose versions, caps and boundaries all lie in `domain`.
fn step_strategy_over(domain: RangeInclusive<u64>) -> impl Strategy<Value = Step> {
    prop_oneof![
        (domain.clone(), any::<u32>()).prop_map(|(v, val)| Step::Store { v, val }),
        domain.clone().prop_map(|v| Step::TryLoad { v }),
        domain.clone().prop_map(|cap| Step::TryLatest { cap }),
        (domain.clone(), 1u64..8).prop_map(|(cap, tid)| Step::LockLatest { cap, tid }),
        (domain.clone(), 1u64..8).prop_map(|(v, tid)| Step::LockVersion { v, tid }),
        (1u64..8, proptest::option::of(domain.clone()))
            .prop_map(|(tid, create)| Step::Unlock { tid, create }),
        domain.prop_map(|boundary| Step::Prune { boundary }),
    ]
}

/// `steps` with every version redrawn against a running version clock,
/// as a store's writers draw theirs: three stores in four take one of
/// the next two versions, so they append above the newest one. Every
/// other version (the remaining stores, caps, renames and boundaries)
/// lands within a few versions of the newest, so most LOAD-LATEST caps
/// reach the newest entry and the rest search below it.
fn mostly_ascending(steps: Vec<Step>) -> Vec<Step> {
    let near = |clock: u64, x: u64| (clock + 2).saturating_sub(x % 8).max(1);
    let mut clock = 0;
    steps
        .into_iter()
        .map(|step| match step {
            Step::Store { v, val } => {
                let v = if v % 4 != 0 {
                    clock + 1 + v % 2
                } else {
                    near(clock, v)
                };
                clock = clock.max(v);
                Step::Store { v, val }
            }
            Step::TryLoad { v } => Step::TryLoad { v: near(clock, v) },
            Step::TryLatest { cap } => Step::TryLatest {
                cap: near(clock, cap),
            },
            Step::LockLatest { cap, tid } => Step::LockLatest {
                cap: near(clock, cap),
                tid,
            },
            Step::LockVersion { v, tid } => Step::LockVersion {
                v: near(clock, v),
                tid,
            },
            Step::Unlock { tid, create } => Step::Unlock {
                tid,
                create: create.map(|v| near(clock, v)),
            },
            Step::Prune { boundary } => Step::Prune {
                boundary: near(clock, boundary),
            },
        })
        .collect()
}

/// Runs `steps` on a cell and on the model: every non-blocking
/// observation must agree, and so must the versions left by each prune.
/// After every step each task holds the lock the model says it holds,
/// and the cell's lock bookkeeping passes its own invariant check.
fn run_cell_steps(steps: Vec<Step>) {
    let cell: OCell<u32> = OCell::new();
    let mut model = Model::default();
    for step in steps {
        run_cell_step(&cell, &mut model, step);
        for tid in 1..8 {
            prop_assert_eq!(cell.held_by(tid), model.held.get(&tid).copied());
        }
        prop_assert_eq!(cell.check_invariants(), Ok(()));
    }
}

fn run_cell_step(cell: &OCell<u32>, model: &mut Model, step: Step) {
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
        Step::LockVersion { v, tid } => {
            // As above: skipped when it would block on an absent or
            // locked version; a second lock is refused at once.
            let would = model.held.contains_key(&tid) || model.try_load(v).is_some();
            let got = if would {
                match cell.lock_load_version(v, tid) {
                    Err(OError::AlreadyHolds(held)) => {
                        prop_assert_eq!(model.held.get(&tid), Some(&held));
                        None
                    }
                    got => Some(got.unwrap()),
                }
            } else {
                None
            };
            prop_assert_eq!(got, model.try_lock_version(v, tid));
        }
        Step::Unlock { tid, create } => {
            prop_assert_eq!(cell.unlock_version(tid, create), model.unlock(tid, create));
        }
        Step::Prune { boundary } => {
            cell.prune_below(boundary);
            model.prune_below(boundary);
            let want: Vec<u64> = model.versions.keys().copied().collect();
            prop_assert_eq!(cell.versions(), want);
        }
    }
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

/// A map cell under the every-cell rule the vacuum used before it had
/// dirty queues: versions (`None` = a removal) and the handles held on it.
#[derive(Default, Debug)]
struct ModelCell {
    versions: BTreeMap<u64, Option<u32>>,
    holds: usize,
}

/// The map under that rule: a pass prunes every cell, then unlinks each
/// cell that no snapshot at or after the boundary can observe and that
/// nobody holds.
#[derive(Default, Debug)]
struct MapModel {
    cells: BTreeMap<u32, ModelCell>,
}

impl MapModel {
    fn prune_below(&mut self, boundary: u64) -> usize {
        let mut reclaimed = 0;
        self.cells.retain(|_, cell| {
            if let Some((&keep, _)) = cell.versions.range(..=boundary).next_back() {
                let before = cell.versions.len();
                cell.versions.retain(|&v, _| v >= keep);
                reclaimed += before - cell.versions.len();
            }
            cell.holds > 0
                || cell
                    .versions
                    .iter()
                    .any(|(&v, val)| v > boundary || val.is_some())
        });
        reclaimed
    }

    fn get(&self, key: u32, cap: u64) -> Option<u32> {
        *self.cells.get(&key)?.versions.range(..=cap).next_back()?.1
    }
}

const MAP_KEYS: u32 = 6;

#[derive(Debug, Clone)]
enum MapStep {
    Insert(u32, u32),
    Remove(u32),
    /// Takes a handle on the key's cell, as a parked `wait_version` does.
    Hold(u32),
    /// Drops the held handle at this index (modulo the held handles).
    Release(usize),
    Prune(u64),
}

fn map_step_strategy() -> impl Strategy<Value = MapStep> {
    // Inserts are listed twice to draw them twice as often (`prop_oneof!`
    // takes no arm weights here).
    prop_oneof![
        (0..MAP_KEYS, any::<u32>()).prop_map(|(k, val)| MapStep::Insert(k, val)),
        (0..MAP_KEYS, any::<u32>()).prop_map(|(k, val)| MapStep::Insert(k, val)),
        (0..MAP_KEYS).prop_map(MapStep::Remove),
        (0..MAP_KEYS).prop_map(MapStep::Hold),
        (0usize..4).prop_map(MapStep::Release),
        (0u64..48).prop_map(MapStep::Prune),
    ]
}

/// Runs `steps` on a two-shard `OMap` and on the model, stores taking
/// versions from a clock that starts at 1. After each prune the two must
/// agree on what the pass reclaimed, on `tracked_keys`, and on `get` of
/// every key at every cap from the boundary to the clock. Returns the
/// map's `tracked_keys` after each prune.
fn run_map_steps(steps: &[MapStep]) -> Vec<usize> {
    let map: OMap<u32, u32> = OMap::with_shards(2);
    let mut model = MapModel::default();
    let mut held: Vec<(u32, Box<dyn std::any::Any>)> = Vec::new();
    let mut clock = 1u64;
    let mut tracked = Vec::new();
    for step in steps {
        match *step {
            MapStep::Insert(k, val) => {
                map.insert(k, clock, val).unwrap();
                model
                    .cells
                    .entry(k)
                    .or_default()
                    .versions
                    .insert(clock, Some(val));
                clock += 1;
            }
            MapStep::Remove(k) => {
                map.remove(k, clock).unwrap();
                model
                    .cells
                    .entry(k)
                    .or_default()
                    .versions
                    .insert(clock, None);
                clock += 1;
            }
            MapStep::Hold(k) => {
                held.push((k, Box::new(map.hold(&k))));
                model.cells.entry(k).or_default().holds += 1;
            }
            MapStep::Release(at) => {
                if !held.is_empty() {
                    let (k, handle) = held.swap_remove(at % held.len());
                    drop(handle);
                    model.cells.get_mut(&k).expect("held cell").holds -= 1;
                }
            }
            MapStep::Prune(boundary) => {
                prop_assert_eq!(
                    map.prune_below(boundary),
                    model.prune_below(boundary),
                    "reclaimed at boundary {}",
                    boundary
                );
                prop_assert_eq!(map.tracked_keys(), model.cells.len());
                for k in 0..MAP_KEYS {
                    for cap in boundary..=clock {
                        prop_assert_eq!(
                            map.get_arc(&k, cap).map(|v| *v),
                            model.get(k, cap),
                            "key {} at cap {} after prune {}",
                            k,
                            cap,
                            boundary
                        );
                    }
                }
                tracked.push(map.tracked_keys());
            }
        }
    }
    tracked
}

/// A key whose only surviving version is a removal above the boundary
/// must stay queued: the pass that finds it leaves it indexed, and a
/// later pass unlinks it once the watermark passes the removal.
#[test]
fn removal_above_the_boundary_stays_queued_until_unlinked() {
    use MapStep::*;
    // Versions: key 0 at 1; key 1 removed at 2 (its only version).
    let tracked = run_map_steps(&[Insert(0, 7), Remove(1), Prune(1), Prune(1), Prune(2)]);
    assert_eq!(tracked, vec![2, 2, 1]);
}

/// A cell kept because a handle is outstanding goes back on the queue,
/// and a pass after the handle drops unlinks it.
#[test]
fn cell_kept_for_a_held_handle_is_requeued() {
    use MapStep::*;
    // Key 2 is held with no version at all; key 3 is held after its
    // only value is removed.
    let tracked = run_map_steps(&[
        Hold(2),
        Insert(3, 30),
        Remove(3),
        Hold(3),
        Prune(9),
        Prune(9),
        Release(0),
        Prune(9),
        Release(0),
        Prune(9),
    ]);
    assert_eq!(tracked, vec![2, 2, 1, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The registry's watermark, live count and pin lags agree with a
    /// multiset of pinned caps after every step.
    #[test]
    fn registry_matches_multiset_model(
        steps in proptest::collection::vec(pin_step_strategy(), 1..120),
    ) {
        let reg = ReaderRegistry::new();
        let mut guards: Vec<ReaderGuard> = Vec::new();
        let mut pinned: BTreeMap<u64, usize> = BTreeMap::new();
        let mut clock = 1u64;
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
            // A pin above the clock never lifts the boundary past the
            // newest allocated version.
            prop_assert_eq!(reg.watermark(), oldest.map_or(clock - 1, |o| o.min(clock - 1)));
            prop_assert_eq!(reg.watermark_lag(), oldest.map_or(0, |o| clock.saturating_sub(o)));
            prop_assert_eq!(reg.live_readers(), live);
            let mut lags = osim_metrics::Histogram::new();
            for (&cap, &n) in &pinned {
                lags.record_n(clock.saturating_sub(cap), n as u64);
            }
            prop_assert_eq!(reg.pin_lags(), lags);
        }
    }

    /// Every non-blocking observation of the cell matches the model, for
    /// arbitrary interleavings of the six operations.
    #[test]
    fn cell_matches_model(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        run_cell_steps(steps);
    }

    /// The same at the top of the version domain, where a version one
    /// past a cap would overflow.
    #[test]
    fn cell_matches_model_at_the_top_of_the_version_domain(
        steps in proptest::collection::vec(step_strategy_over(u64::MAX - 40..=u64::MAX), 1..120),
    ) {
        run_cell_steps(steps);
    }

    /// The same when stores mostly append above the newest version, as
    /// under a version clock, and caps mostly reach the newest version.
    #[test]
    fn cell_matches_model_on_mostly_ascending_stores(
        steps in proptest::collection::vec(step_strategy(), 1..120).prop_map(mostly_ascending),
    ) {
        run_cell_steps(steps);
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

    /// The map's queued vacuum prunes and unlinks exactly what a sweep of
    /// every cell did, through random stores, removals, held handles and
    /// passes at boundaries that need not rise.
    #[test]
    fn queued_vacuum_matches_full_sweep_model(
        steps in proptest::collection::vec(map_step_strategy(), 1..80),
    ) {
        run_map_steps(&steps);
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
