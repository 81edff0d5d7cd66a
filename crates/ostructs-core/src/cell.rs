//! The multi-version cell.
//!
//! A cell is one `Mutex<State>` (its ordered versions plus its lock table)
//! and one `Condvar` that blocking operations park on; every operation,
//! committed reads included, answers from that state under that mutex.
//! Stores and unlocks notify the condvar only when the state counts a
//! parked thread, since a notify with no waiter still costs a syscall.
//!
//! The versions are one ascending `Vec` of `(version, slot)` pairs, the
//! software form of the paper's sorted version-block list. Histories are
//! short: the vacuum prunes every written cell, and on `store-mixed` 67%
//! of the cells a pass visits hold two versions, 92% at most five and 2%
//! more than sixteen. On such lists a store whose version is above the
//! newest one (the version clock's normal case) is a push, a LOAD-LATEST
//! checks the newest entry before it binary-searches, and a prune keeps
//! the `Vec`'s capacity, so warm stores and passes allocate nothing for
//! version storage. A store below the newest version binary-searches its
//! place and pays a memmove bounded by the cell's unvacuumed history.
//! Against the `BTreeMap` this replaced, `store-mixed` throughput rose
//! 39% (EXPERIMENTS.md § "Software store throughput"). A lookup under
//! the mutex already read as fast as a lock-free read view when the two
//! were measured side by side on the B-tree layout (`get_only_ns_p50`
//! 258 vs 266 ns), so there is no second view to keep in step.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::OError;
use crate::{TaskId, Version};

struct Slot<T> {
    value: T,
    locked_by: Option<TaskId>,
}

/// A cell's versions: ascending, each version at most once.
struct Versions<T>(Vec<(Version, Slot<T>)>);

impl<T> Versions<T> {
    /// The index of `version`, or where it would go.
    fn search(&self, version: Version) -> Result<usize, usize> {
        self.0.binary_search_by_key(&version, |&(v, _)| v)
    }

    fn get(&self, version: Version) -> Option<&Slot<T>> {
        self.search(version).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, version: Version) -> Option<&mut Slot<T>> {
        self.search(version).ok().map(|i| &mut self.0[i].1)
    }

    /// The newest version ≤ `cap` and its slot: the newest entry when
    /// it qualifies, which it does for every reader pinned after the
    /// cell's last store, else a binary search.
    fn newest_at_most(&self, cap: Version) -> Option<(Version, &Slot<T>)> {
        let i = match self.0.last() {
            Some(&(v, _)) if v <= cap => self.0.len() - 1,
            _ => self.0.partition_point(|&(v, _)| v <= cap).checked_sub(1)?,
        };
        let (v, slot) = &self.0[i];
        Some((*v, slot))
    }

    /// Adds an unlocked `version` holding `value`, or drops `value` and
    /// fails when the version exists. A version above the newest one is
    /// appended.
    fn insert(&mut self, version: Version, value: T) -> Result<(), OError> {
        let slot = Slot {
            value,
            locked_by: None,
        };
        match self.0.last() {
            Some(&(newest, _)) if newest >= version => match self.search(version) {
                Ok(_) => return Err(OError::VersionExists(version)),
                Err(i) => self.0.insert(i, (version, slot)),
            },
            _ => self.0.push((version, slot)),
        }
        Ok(())
    }

    /// Keeps the versions `keep` accepts, in order; the capacity stays.
    fn retain(&mut self, mut keep: impl FnMut(Version, &Slot<T>) -> bool) {
        self.0.retain(|(v, s)| keep(*v, s));
    }

    fn iter(&self) -> impl Iterator<Item = (Version, &Slot<T>)> {
        self.0.iter().map(|(v, s)| (*v, s))
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

struct State<T> {
    versions: Versions<T>,
    /// Which version each task currently holds locked (at most one lock
    /// per task per cell, as in the Fig. 1 API).
    held: HashMap<TaskId, Version>,
    /// Threads parked on the condvar. A store or unlock notifies only
    /// when this is non-zero: a notify with no waiter still costs a
    /// syscall.
    waiters: usize,
    /// Whether a map cell sits on its shard's dirty queue (see
    /// [`crate::map`]): set by a store through the map and cleared by the
    /// vacuum pass that finds the cell settled, both under this mutex, so
    /// each cell is queued at most once. Bare cells never set it.
    queued: bool,
}

impl<T> State<T> {
    /// `version`'s value, if it exists and is unlocked.
    fn exact(&self, version: Version) -> Option<&T> {
        self.versions
            .get(version)
            .filter(|s| s.locked_by.is_none())
            .map(|s| &s.value)
    }

    /// The newest version ≤ `cap` and its value, if that version is
    /// unlocked. Never falls back to an older version.
    fn latest(&self, cap: Version) -> Option<(Version, &T)> {
        self.versions
            .newest_at_most(cap)
            .filter(|(_, s)| s.locked_by.is_none())
            .map(|(v, s)| (v, &s.value))
    }

    /// Drops every version strictly older than the newest version ≤
    /// `boundary`, sparing locked ones; returns how many went.
    fn prune_below(&mut self, boundary: Version) -> usize {
        let Some((keep, _)) = self.versions.newest_at_most(boundary) else {
            return 0;
        };
        let before = self.versions.len();
        self.versions
            .retain(|v, slot| v >= keep || slot.locked_by.is_some());
        before - self.versions.len()
    }

    /// Locks the existing, unlocked `version` for `tid`.
    fn lock(&mut self, version: Version, tid: TaskId) -> &T {
        let slot = self
            .versions
            .get_mut(version)
            .expect("version found unlocked");
        slot.locked_by = Some(tid);
        self.held.insert(tid, version);
        &slot.value
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

/// What a vacuum pass found in a queued map cell; see [`OCell::sweep`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sweep {
    /// One unlocked `Some` version is left: no later pass can reclaim
    /// anything from the cell until a new store, so it leaves the queue.
    Settled,
    /// The cell may still shed a version, or become unobservable once the
    /// watermark passes its newest version: it stays queued.
    Requeue,
    /// No snapshot at or after the boundary can observe a value in the
    /// cell: its map may unlink it if nobody else holds a handle. It
    /// stays queued until then.
    Unlink,
}

/// Type-erased garbage-collection interface; the collector behind the
/// runtime and the vacuum holds tracked stores as `Weak<dyn Prune>`, so
/// it can prune cells (or whole maps) of any value type.
pub trait Prune {
    /// See [`OCell::prune_below`].
    fn prune_below(&self, boundary: Version) -> usize;
}

impl<T> Inner<T> {
    /// Wakes every parked thread, if there is one. `st` must be the
    /// state guard the caller changed the cell under: a waiter counts
    /// itself before it parks, under the same mutex, so it is either
    /// counted here or sees the change before parking.
    fn wake(&self, st: MutexGuard<'_, State<T>>) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.changed.notify_all();
        }
    }

    /// Parks on the condvar until notified (or spuriously woken).
    fn park(&self, st: &mut MutexGuard<'_, State<T>>) {
        st.waiters += 1;
        self.changed.wait(st);
        st.waiters -= 1;
    }

    /// [`Inner::park`] with a deadline; true when it passed.
    fn park_until(&self, st: &mut MutexGuard<'_, State<T>>, deadline: Instant) -> bool {
        st.waiters += 1;
        let timed_out = self.changed.wait_until(st, deadline).timed_out();
        st.waiters -= 1;
        timed_out
    }
}

impl<T> Prune for Inner<T> {
    fn prune_below(&self, boundary: Version) -> usize {
        self.state.lock().prune_below(boundary)
    }
}

/// A software O-structure: one memory location, many ordered versions.
///
/// Cheap to clone (a handle); all clones refer to the same cell. Each
/// version holds its `T` inline, as the paper's version block holds its
/// data word: a load returns a clone of `T`, and so does a rename. A `T`
/// that is costly to clone is stored as `Arc<U>`, so loads and renames
/// share one allocation and only move its reference count. `T: Clone` is
/// required only by the operations that copy a value out.
///
/// # Blocking semantics (§II-A of the paper)
///
/// * [`OCell::load_version`] blocks until the exact version exists and is
///   unlocked. Locks on *other* versions are ignored.
/// * [`OCell::load_latest`] blocks until some version ≤ the cap exists and
///   the highest such version is unlocked. It never falls back to an older
///   unlocked version — that would break ordering.
/// * [`OCell::store_version`] creates a version (versions are write-once).
/// * The `lock_` flavours additionally acquire the version's lock; locking
///   an already-locked version blocks. A task holds at most one lock per
///   cell: asking for a second is [`OError::AlreadyHolds`].
/// * [`OCell::unlock_version`] releases the caller's lock and can
///   atomically create a successor version carrying the same value — the
///   rename step of hand-over-hand pipelining. The successor holds a
///   clone of the predecessor's `T`.
pub struct OCell<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for OCell<T> {
    fn clone(&self) -> Self {
        OCell {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for OCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OCell<T> {
    /// An empty cell (no versions yet; all loads block).
    pub fn new() -> Self {
        OCell {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    versions: Versions(Vec::new()),
                    held: HashMap::new(),
                    waiters: 0,
                    queued: false,
                }),
                changed: Condvar::new(),
            }),
        }
    }

    /// A cell with one initial version.
    pub fn with_initial(version: Version, value: T) -> Self {
        let cell = Self::new();
        cell.store_version(version, value)
            .expect("fresh cell accepts any version");
        cell
    }

    /// Runs `step` under the state mutex until it yields a result, parking
    /// on the condvar between attempts.
    fn wait_for<R>(&self, mut step: impl FnMut(&mut State<T>) -> Option<R>) -> R {
        let mut st = self.inner.state.lock();
        let mut timer = crate::metrics::WaitTimer::new();
        loop {
            if let Some(r) = step(&mut st) {
                return r;
            }
            timer.note_wait();
            self.inner.park(&mut st);
        }
    }

    /// `STORE-VERSION`: creates `version` holding `value` and wakes every
    /// blocked load. Versions are immutable once created.
    pub fn store_version(&self, version: Version, value: T) -> Result<(), OError> {
        self.store(version, value, false).map(drop)
    }

    /// `STORE-VERSION` that also marks the cell queued; true when it was
    /// not queued before, so the caller must put it on its dirty queue.
    /// A failed store leaves the mark alone.
    pub(crate) fn store_marking(&self, version: Version, value: T) -> Result<bool, OError> {
        self.store(version, value, true)
    }

    fn store(&self, version: Version, value: T, mark: bool) -> Result<bool, OError> {
        let mut st = self.inner.state.lock();
        st.versions.insert(version, value)?;
        let newly = mark && !std::mem::replace(&mut st.queued, true);
        self.inner.wake(st);
        Ok(newly)
    }

    /// An empty cell already marked queued, for a map that queues the
    /// cell's key as it indexes it.
    pub(crate) fn new_queued() -> Self {
        let cell = Self::new();
        cell.inner.state.lock().queued = true;
        cell
    }

    /// The version `tid` currently holds locked, if any.
    pub fn held_by(&self, tid: TaskId) -> Option<Version> {
        self.inner.state.lock().held.get(&tid).copied()
    }

    /// Invariant oracle: cross-checks the lock bookkeeping both ways —
    /// every held-lock record must point at a version locked by exactly
    /// that task, and every locked version must have a matching held
    /// record. Returns the first inconsistency. The software twin of the
    /// simulator's lock-exclusion oracle; the stress harness's test suites
    /// call it after perturbed interleavings.
    pub fn check_invariants(&self) -> Result<(), String> {
        let st = self.inner.state.lock();
        for (&tid, &v) in &st.held {
            match st.versions.get(v) {
                Some(slot) if slot.locked_by == Some(tid) => {}
                Some(slot) => {
                    return Err(format!(
                        "task {tid} records a lock on version {v}, but the \
                         version is held by {:?}",
                        slot.locked_by
                    ))
                }
                None => {
                    return Err(format!(
                        "task {tid} records a lock on version {v}, which does \
                         not exist"
                    ))
                }
            }
        }
        for (v, slot) in st.versions.iter() {
            if let Some(tid) = slot.locked_by {
                if st.held.get(&tid) != Some(&v) {
                    return Err(format!(
                        "version {v} is locked by task {tid}, which has no \
                         matching held record"
                    ));
                }
            }
        }
        Ok(())
    }

    /// All existing versions, ascending (diagnostics / tests).
    pub fn versions(&self) -> Vec<Version> {
        let st = self.inner.state.lock();
        st.versions.iter().map(|(v, _)| v).collect()
    }

    /// Number of live versions.
    pub fn version_count(&self) -> usize {
        self.inner.state.lock().versions.len()
    }

    /// Garbage collection: drops every version strictly older than the
    /// newest version ≤ `boundary`, i.e. the versions shadowed for every
    /// task whose cap is ≥ `boundary`. Locked versions are never dropped.
    /// Returns how many versions were reclaimed.
    ///
    /// Safety is the caller's contract (the runtime's rules 1–3, or the
    /// vacuum's reader watermark): no active or future task may load below
    /// `boundary` afterwards.
    pub fn prune_below(&self, boundary: Version) -> usize {
        Prune::prune_below(&*self.inner, boundary)
    }

    /// Number of live handles to this cell (the strong count of the shared
    /// inner, including `self`). A container that indexes cells can use
    /// this to tell whether anyone outside the index still holds the cell:
    /// while the container's lock keeps new handles from being minted, a
    /// count of exactly one means the index entry is the only reference.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl<U> OCell<Option<U>> {
    /// One vacuum visit of a queued map cell, in one critical section:
    /// prunes below `boundary` (see [`OCell::prune_below`]) and sorts what
    /// is left. A value is observable when a surviving version is above
    /// `boundary` or holds an unlocked `Some`. Only [`Sweep::Settled`]
    /// clears the cell's queued mark, so the caller must put the cell back
    /// on its queue after a [`Sweep::Requeue`], and after a
    /// [`Sweep::Unlink`] that finds the cell still held.
    pub(crate) fn sweep(&self, boundary: Version) -> (usize, Sweep) {
        let mut st = self.inner.state.lock();
        let reclaimed = st.prune_below(boundary);
        let settled = st.versions.len() == 1
            && st
                .versions
                .iter()
                .all(|(_, s)| s.locked_by.is_none() && s.value.is_some());
        let sweep = if settled {
            st.queued = false;
            Sweep::Settled
        } else if st
            .versions
            .iter()
            .any(|(v, s)| v > boundary || (s.locked_by.is_none() && s.value.is_some()))
        {
            Sweep::Requeue
        } else {
            Sweep::Unlink
        };
        (reclaimed, sweep)
    }
}

impl<T: Clone> OCell<T> {
    /// `LOAD-VERSION`: blocks until `version` exists and is unlocked.
    pub fn load_version(&self, version: Version) -> T {
        self.wait_for(|st| st.exact(version).cloned())
    }

    /// Non-blocking `LOAD-VERSION`: `None` if absent or locked.
    pub fn try_load_version(&self, version: Version) -> Option<T> {
        self.inner.state.lock().exact(version).cloned()
    }

    /// `LOAD-VERSION` with a timeout — mainly for tests that must detect a
    /// stall without hanging. `None` on timeout; a timeout too long for
    /// an `Instant` to represent waits with no deadline.
    pub fn load_version_timeout(&self, version: Version, dur: Duration) -> Option<T> {
        let deadline = Instant::now().checked_add(dur);
        let mut st = self.inner.state.lock();
        let mut timer = crate::metrics::WaitTimer::new();
        loop {
            if let Some(value) = st.exact(version) {
                return Some(value.clone());
            }
            timer.note_wait();
            match deadline {
                Some(deadline) if self.inner.park_until(&mut st, deadline) => return None,
                Some(_) => {}
                None => self.inner.park(&mut st),
            }
        }
    }

    /// `LOAD-LATEST`: blocks until some version ≤ `cap` exists and the
    /// newest such version is unlocked. Returns `(version, value)`.
    pub fn load_latest(&self, cap: Version) -> (Version, T) {
        self.wait_for(|st| st.latest(cap).map(|(v, value)| (v, value.clone())))
    }

    /// Non-blocking `LOAD-LATEST`.
    pub fn try_load_latest(&self, cap: Version) -> Option<(Version, T)> {
        let st = self.inner.state.lock();
        st.latest(cap).map(|(v, value)| (v, value.clone()))
    }

    /// `LOCK-LOAD-VERSION`: exact load + lock as `tid`. Blocks while the
    /// version is absent or locked by another task. Fails with
    /// [`OError::AlreadyHolds`] when `tid` already holds a lock on this
    /// cell.
    pub fn lock_load_version(&self, version: Version, tid: TaskId) -> Result<T, OError> {
        if tid == 0 {
            return Err(OError::ReservedTaskId);
        }
        self.wait_for(|st| {
            if let Some(&held) = st.held.get(&tid) {
                return Some(Err(OError::AlreadyHolds(held)));
            }
            st.exact(version)?;
            Some(Ok(st.lock(version, tid).clone()))
        })
    }

    /// Non-blocking `LOCK-LOAD-LATEST`: `None` when the newest version ≤
    /// `cap` is absent or already locked, or `tid` already holds a lock on
    /// this cell.
    pub fn try_lock_load_latest(&self, cap: Version, tid: TaskId) -> Option<(Version, T)> {
        if tid == 0 {
            return None;
        }
        let mut st = self.inner.state.lock();
        if st.held.contains_key(&tid) {
            return None;
        }
        let (v, _) = st.latest(cap)?;
        Some((v, st.lock(v, tid).clone()))
    }

    /// `LOCK-LOAD-LATEST`: capped load + lock as `tid`.
    /// Returns `(version, value)`. Fails with [`OError::AlreadyHolds`]
    /// when `tid` already holds a lock on this cell.
    pub fn lock_load_latest(&self, cap: Version, tid: TaskId) -> Result<(Version, T), OError> {
        if tid == 0 {
            return Err(OError::ReservedTaskId);
        }
        self.wait_for(|st| {
            if let Some(&held) = st.held.get(&tid) {
                return Some(Err(OError::AlreadyHolds(held)));
            }
            let (v, _) = st.latest(cap)?;
            Some(Ok((v, st.lock(v, tid).clone())))
        })
    }

    /// `UNLOCK-VERSION`: releases `tid`'s lock on this cell; with
    /// `create = Some(vn)` also creates unlocked version `vn` holding a
    /// clone of the just-unlocked value (the rename). Wakes all waiters.
    pub fn unlock_version(&self, tid: TaskId, create: Option<Version>) -> Result<(), OError> {
        let mut st = self.inner.state.lock();
        let Some(vl) = st.held.remove(&tid) else {
            return Err(OError::NotLockOwner(tid));
        };
        let slot = st.versions.get_mut(vl).expect("held version exists");
        debug_assert_eq!(slot.locked_by, Some(tid));
        slot.locked_by = None;
        // The unlock stands even when the create fails; the create is the
        // error.
        let renamed = create.map(|vn| (vn, slot.value.clone()));
        let created = renamed.map_or(Ok(()), |(vn, value)| st.versions.insert(vn, value));
        self.inner.wake(st);
        created
    }
}

impl<T: Send + Sync + 'static> crate::vacuum::Prunable for OCell<T> {
    fn prune_weak(&self) -> std::sync::Weak<dyn Prune + Send + Sync> {
        let arc: Arc<dyn Prune + Send + Sync> = Arc::clone(&self.inner) as _;
        Arc::downgrade(&arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    const T50: Duration = Duration::from_millis(200);

    #[test]
    fn store_then_load_exact() {
        let c = OCell::new();
        c.store_version(3, 42).unwrap();
        assert_eq!(c.load_version(3), 42);
        c.check_invariants().unwrap();
    }

    #[test]
    fn versions_are_write_once() {
        let c = OCell::new();
        c.store_version(1, 5).unwrap();
        assert_eq!(c.store_version(1, 6), Err(OError::VersionExists(1)));
        assert_eq!(c.load_version(1), 5);
    }

    #[test]
    fn load_blocks_until_store() {
        let c = OCell::new();
        let c2 = c.clone();
        let t = thread::spawn(move || c2.load_version(1));
        thread::sleep(Duration::from_millis(20));
        c.store_version(1, 9).unwrap();
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn out_of_order_creation() {
        let c = OCell::new();
        c.store_version(2, 22).unwrap();
        assert_eq!(c.try_load_version(2), Some(22));
        assert_eq!(c.try_load_version(1), None, "version 1 not created yet");
        c.store_version(1, 11).unwrap();
        assert_eq!(c.load_version(1), 11);
        assert_eq!(c.versions(), vec![1, 2]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn out_of_order_stores_keep_versions_ascending() {
        // Descending stores each land below the newest version; the
        // interleaved ones land between existing versions and at both
        // ends. The model is the set of stored versions.
        let c = OCell::new();
        let mut stored = Vec::new();
        for v in [9u64, 7, 5, 3, 1, 8, 2, 10, 6, 0, 4, 12, 11] {
            c.store_version(v, v as u32 * 10).unwrap();
            stored.push(v);
            let mut want = stored.clone();
            want.sort_unstable();
            assert_eq!(c.versions(), want, "after storing {v}");
            for cap in 0..=13 {
                let newest = stored.iter().copied().filter(|&s| s <= cap).max();
                assert_eq!(
                    c.try_load_latest(cap),
                    newest.map(|s| (s, s as u32 * 10)),
                    "cap {cap} after storing {v}"
                );
            }
        }
        assert_eq!(c.store_version(5, 0), Err(OError::VersionExists(5)));
        assert_eq!(c.store_version(12, 0), Err(OError::VersionExists(12)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn load_latest_caps() {
        let c = OCell::new();
        for v in [2u64, 5, 9] {
            c.store_version(v, v as u32).unwrap();
        }
        assert_eq!(c.load_latest(9), (9, 9));
        assert_eq!(c.load_latest(8), (5, 5));
        assert_eq!(c.load_latest(2), (2, 2));
        assert_eq!(c.try_load_latest(1), None);
    }

    #[test]
    fn locked_version_blocks_exact_loads_only() {
        let c = OCell::new();
        c.store_version(1, 10).unwrap();
        c.store_version(2, 20).unwrap();
        c.lock_load_version(1, 7).unwrap();
        assert_eq!(c.try_load_version(1), None, "locked");
        assert_eq!(
            c.try_load_version(2),
            Some(20),
            "other versions ignore the lock"
        );
        c.unlock_version(7, None).unwrap();
        assert_eq!(c.try_load_version(1), Some(10));
    }

    #[test]
    fn load_latest_blocks_on_locked_latest() {
        let c = OCell::new();
        c.store_version(1, 10).unwrap();
        c.store_version(5, 50).unwrap();
        c.lock_load_version(5, 9).unwrap();
        assert_eq!(c.try_load_latest(7), None, "latest ≤ 7 is locked");
        assert_eq!(c.try_load_latest(4), Some((1, 10)));
    }

    #[test]
    fn unlock_rename_orders_a_follower() {
        let c = OCell::with_initial(1, 77u32);
        let (v1, _) = c.lock_load_latest(1, 1).unwrap();
        assert_eq!(v1, 1);
        let c2 = c.clone();
        let follower = thread::spawn(move || c2.lock_load_latest(2, 2).unwrap());
        thread::sleep(Duration::from_millis(20));
        // Predecessor renames on unlock; follower locks version 2.
        c.unlock_version(1, Some(2)).unwrap();
        let (v2, val) = follower.join().unwrap();
        assert_eq!((v2, val), (2, 77));
        c.unlock_version(2, None).unwrap();
    }

    #[test]
    fn unlock_requires_ownership() {
        let c = OCell::with_initial(1, 0u32);
        assert_eq!(c.unlock_version(9, None), Err(OError::NotLockOwner(9)));
        c.lock_load_version(1, 3).unwrap();
        assert_eq!(c.unlock_version(4, None), Err(OError::NotLockOwner(4)));
        c.unlock_version(3, None).unwrap();
    }

    #[test]
    fn held_by_tracks_lock() {
        let c = OCell::with_initial(4, 0u32);
        assert_eq!(c.held_by(2), None);
        c.lock_load_version(4, 2).unwrap();
        assert_eq!(c.held_by(2), Some(4));
        c.unlock_version(2, None).unwrap();
        assert_eq!(c.held_by(2), None);
    }

    #[test]
    fn invariants_hold_through_lock_lifecycle() {
        let c = OCell::with_initial(1, 0u32);
        c.check_invariants().unwrap();
        c.lock_load_version(1, 3).unwrap();
        c.check_invariants().unwrap();
        c.unlock_version(3, Some(2)).unwrap();
        c.check_invariants().unwrap();
        c.lock_load_version(2, 4).unwrap();
        c.prune_below(2);
        c.check_invariants().unwrap();
        c.unlock_version(4, None).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn second_lock_by_one_task_is_refused() {
        let c = OCell::new();
        c.store_version(1, 10).unwrap();
        c.store_version(2, 20).unwrap();
        c.lock_load_version(1, 7).unwrap();
        assert_eq!(c.lock_load_version(2, 7), Err(OError::AlreadyHolds(1)));
        assert_eq!(c.lock_load_latest(2, 7), Err(OError::AlreadyHolds(1)));
        assert_eq!(c.try_lock_load_latest(2, 7), None);
        c.check_invariants().unwrap();
        assert_eq!(c.try_load_version(1), None, "version 1 stays locked");
        assert_eq!(
            c.try_load_version(2),
            Some(20),
            "version 2 was never locked"
        );
        c.unlock_version(7, None).unwrap();
        assert_eq!(c.held_by(7), None);
        assert_eq!(c.try_load_version(1), Some(10));
        assert_eq!(c.unlock_version(7, None), Err(OError::NotLockOwner(7)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn timeout_detects_stall() {
        let c: OCell<u32> = OCell::new();
        assert_eq!(c.load_version_timeout(1, Duration::from_millis(30)), None);
        c.store_version(1, 1).unwrap();
        assert_eq!(c.load_version_timeout(1, T50), Some(1));
    }

    #[test]
    fn unrepresentable_timeout_waits_without_deadline() {
        let c: OCell<u32> = OCell::new();
        c.store_version(1, 5).unwrap();
        assert_eq!(c.load_version_timeout(1, Duration::MAX), Some(5));
        let c2 = c.clone();
        let t = thread::spawn(move || c2.load_version_timeout(2, Duration::MAX));
        thread::sleep(Duration::from_millis(20));
        c.store_version(2, 6).unwrap();
        assert_eq!(t.join().unwrap(), Some(6));
    }

    #[test]
    fn prune_below_keeps_newest_at_or_under_boundary() {
        let c = OCell::new();
        for v in 1..=10u64 {
            c.store_version(v, v as u32).unwrap();
        }
        let reclaimed = c.prune_below(7);
        assert_eq!(reclaimed, 6, "versions 1..=6 dropped, 7 kept");
        assert_eq!(c.versions(), vec![7, 8, 9, 10]);
        // A task with cap 7 still gets the right answer.
        assert_eq!(c.load_latest(7), (7, 7));
        c.check_invariants().unwrap();
    }

    #[test]
    fn prune_spares_locked_versions() {
        let c = OCell::new();
        for v in 1..=5u64 {
            c.store_version(v, v as u32).unwrap();
        }
        c.lock_load_version(2, 8).unwrap();
        c.prune_below(5);
        assert_eq!(c.versions(), vec![2, 5], "locked version 2 survives");
        c.check_invariants().unwrap();
        c.unlock_version(8, None).unwrap();
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let c: OCell<u64> = OCell::new();
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                // Each consumer waits for its producer's version.
                c.load_version(t)
            }));
        }
        for t in (1..=8u64).rev() {
            let c = c.clone();
            thread::spawn(move || c.store_version(t, t * 100).unwrap());
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (i as u64 + 1) * 100);
        }
    }

    #[test]
    fn exact_entry_chain_orders_threads() {
        // N threads pipeline through one cell in task order regardless of
        // OS scheduling: each locks exactly its own entry version, which
        // only its predecessor's rename creates.
        let c = OCell::with_initial(2, 0u64);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for tid in 2..=9u64 {
            let c = c.clone();
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                c.lock_load_version(tid, tid).unwrap();
                order.lock().push(tid);
                c.unlock_version(tid, Some(tid + 1)).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), (2..=9u64).collect::<Vec<_>>());
    }

    #[test]
    fn rename_chain_shares_one_allocation() {
        // A long rename pipeline over an `Arc` value shares one value
        // allocation; every intermediate version stays loadable.
        let c = OCell::with_initial(1, Arc::new(7u32));
        for tid in 1..=200u64 {
            c.lock_load_version(tid, tid).unwrap();
            c.unlock_version(tid, Some(tid + 1)).unwrap();
        }
        assert_eq!(c.version_count(), 201);
        c.check_invariants().unwrap();
        for v in [1u64, 50, 199, 201] {
            assert_eq!(c.try_load_version(v).as_deref(), Some(&7));
        }
        let a = c.load_version(1);
        let b = c.load_version(201);
        assert!(Arc::ptr_eq(&a, &b), "renames share the value allocation");
    }

    #[test]
    fn window_overflow_falls_back_to_slow_path() {
        // Many distinct-value versions with gaps between them: every
        // stored version resolves exactly, and every gap is absent.
        let c = OCell::new();
        let n = 96u64;
        for v in 1..=n {
            c.store_version(v * 2, v as u32).unwrap();
        }
        c.check_invariants().unwrap();
        for v in 1..=n {
            assert_eq!(c.try_load_version(v * 2), Some(v as u32));
            assert_eq!(c.try_load_version(v * 2 + 1), None);
        }
        assert_eq!(c.load_latest(u64::MAX), (n * 2, n as u32));
        assert_eq!(c.try_load_latest(1), None);
    }

    #[test]
    fn arc_loads_share_the_allocation() {
        let c = OCell::with_initial(3, Arc::new(String::from("value")));
        let a = c.load_latest(10).1;
        let b = c.try_load_version(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, "value");
    }
}
