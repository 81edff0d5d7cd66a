//! Property-based tests: the software O-structure cell against a
//! reference model of the §II-A semantics.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ostructs_core::{OCell, OError};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
