//! I-structures and M-structures on top of O-structures (Table I).
//!
//! The paper positions O-structures as a superset of the dataflow
//! synchronization structures: "Functional programming can use
//! O-structures as I-structures, reducing versioning to full/empty bits,
//! or as M-structures utilizing renaming as well." This module is that
//! reduction, built *only* from the six O-structure operations:
//!
//! * [`IVar`] — a write-once cell (Arvind's I-structure): one version,
//!   `get` blocks until `put` fills it.
//! * [`MVar`] — a mutable full/empty cell (Barth's M-structure): `take`
//!   *locks* the newest version (making the cell empty for every other
//!   taker — the lock is the empty bit), `put` publishes a fresh version
//!   and releases the lock. Renaming is what lets an unbounded sequence of
//!   take/put pairs reuse one location without ever overwriting a value a
//!   concurrent reader may still need.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cell::OCell;
use crate::error::OError;
use crate::{TaskId, Version};

/// A write-once synchronization variable (I-structure).
///
/// ```
/// use ostructs_core::istructs::IVar;
/// use std::thread;
///
/// let v: IVar<u32> = IVar::new();
/// let v2 = v.clone();
/// let reader = thread::spawn(move || v2.get());
/// v.put(42).unwrap();
/// assert_eq!(reader.join().unwrap(), 42);
/// assert!(v.put(43).is_err(), "I-structures are write-once");
/// ```
pub struct IVar<T> {
    cell: OCell<T>,
}

impl<T> Clone for IVar<T> {
    fn clone(&self) -> Self {
        IVar {
            cell: self.cell.clone(),
        }
    }
}

impl<T> Default for IVar<T> {
    fn default() -> Self {
        Self::new()
    }
}

const IVER: Version = 1;

/// Filling and testing need no `T: Clone`; reads clone the value out, so
/// a non-`Clone` or costly payload is wrapped in `Arc` and every reader
/// shares it.
impl<T> IVar<T> {
    /// An empty (unwritten) I-structure.
    pub fn new() -> Self {
        IVar { cell: OCell::new() }
    }

    /// Fills the variable. Errors if already full ("versioning reduced to a
    /// full/empty bit": the single version is the full bit).
    pub fn put(&self, value: T) -> Result<(), OError> {
        self.cell.store_version(IVER, value)
    }

    /// True once `put` has happened.
    pub fn is_full(&self) -> bool {
        self.cell.version_count() > 0
    }
}

impl<T: Clone> IVar<T> {
    /// Blocks until the variable is full, then returns its value. Any
    /// number of readers may get concurrently.
    pub fn get(&self) -> T {
        self.cell.load_version(IVER)
    }

    /// Non-blocking read.
    pub fn try_get(&self) -> Option<T> {
        self.cell.try_load_version(IVER)
    }
}

/// A mutable full/empty synchronization variable (M-structure).
///
/// `take` returns the current value and leaves the cell *empty*: the taker
/// holds the newest version's lock, so every other `take` stalls — exactly
/// the M-structure protocol, implemented with `LOCK-LOAD-LATEST`. `put`
/// stores a fresh (renamed) version and releases the taker's lock.
///
/// ```
/// use ostructs_core::istructs::MVar;
///
/// let m = MVar::full(10u32);
/// let (token, v) = m.take(1);
/// assert_eq!(v, 10);
/// assert!(m.try_take(2).is_none(), "empty while taken");
/// m.put(token, v + 1).unwrap();
/// assert_eq!(m.take(2).1, 11);
/// ```
pub struct MVar<T> {
    cell: OCell<T>,
    next_version: Arc<AtomicU64>,
}

impl<T> Clone for MVar<T> {
    fn clone(&self) -> Self {
        MVar {
            cell: self.cell.clone(),
            next_version: Arc::clone(&self.next_version),
        }
    }
}

/// Proof of a pending `take`; consumed by the matching [`MVar::put`].
#[must_use = "an MVar take must be balanced by a put"]
pub struct TakeToken {
    tid: TaskId,
}

impl<T: Clone> MVar<T> {
    /// A full M-structure holding `value`.
    pub fn full(value: T) -> Self {
        MVar {
            cell: OCell::with_initial(1, value),
            next_version: Arc::new(AtomicU64::new(2)),
        }
    }

    /// Takes the value, emptying the variable. Blocks while another taker
    /// holds it. `tid` identifies the taker (one outstanding take per tid).
    pub fn take(&self, tid: TaskId) -> (TakeToken, T) {
        let (_, value) = self
            .cell
            .lock_load_latest(Version::MAX, tid)
            .expect("nonzero tid with no outstanding take");
        (TakeToken { tid }, value)
    }

    /// Non-blocking take: `None` if the variable is empty (someone holds
    /// it) — the `try`-flavor a lock-free algorithm would poll.
    pub fn try_take(&self, tid: TaskId) -> Option<(TakeToken, T)> {
        let (_, value) = self.cell.try_lock_load_latest(Version::MAX, tid)?;
        Some((TakeToken { tid }, value))
    }

    /// Refills the variable with `value`, completing the `take`. The fresh
    /// version is a rename: the taken value remains readable to snapshot
    /// readers at lower caps.
    pub fn put(&self, token: TakeToken, value: T) -> Result<(), OError> {
        let v = self.next_version.fetch_add(1, Ordering::Relaxed);
        self.cell.store_version(v, value)?;
        self.cell.unlock_version(token.tid, None)
    }

    /// Snapshot read at a version cap, ignoring full/empty state — the
    /// O-structure superpower that plain M-structures lack.
    pub fn read_snapshot(&self, cap: Version) -> Option<(Version, T)> {
        self.cell.try_load_latest(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn ivar_write_once_and_broadcast() {
        let v: IVar<String> = IVar::new();
        assert!(!v.is_full());
        let mut readers = Vec::new();
        for _ in 0..4 {
            let v = v.clone();
            readers.push(thread::spawn(move || v.get()));
        }
        thread::sleep(Duration::from_millis(10));
        v.put("hello".to_string()).unwrap();
        for r in readers {
            assert_eq!(r.join().unwrap(), "hello");
        }
        assert_eq!(v.put("again".into()), Err(OError::VersionExists(1)));
    }

    #[test]
    fn ivar_shared_reads_need_no_clone() {
        struct NoClone(u32);
        let v: IVar<Arc<NoClone>> = IVar::new();
        assert!(!v.is_full());
        assert!(v.try_get().is_none());
        v.put(Arc::new(NoClone(7))).unwrap();
        assert!(v.is_full());
        let (a, b) = (v.get(), v.try_get().unwrap());
        assert_eq!(a.0, 7);
        assert!(Arc::ptr_eq(&a, &b), "readers share one allocation");
    }

    #[test]
    fn mvar_take_put_roundtrip() {
        let m = MVar::full(5u32);
        let (tok, v) = m.take(1);
        assert_eq!(v, 5);
        m.put(tok, 6).unwrap();
        let (tok, v) = m.take(1);
        assert_eq!(v, 6);
        m.put(tok, 7).unwrap();
    }

    #[test]
    fn mvar_excludes_concurrent_takers() {
        let m = Arc::new(MVar::full(0u64));
        // 8 threads each take, increment, put — a counter with no data
        // races despite no conventional mutex.
        let mut handles = Vec::new();
        for tid in 1..=8u64 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..25 {
                    let (tok, v) = m.take(tid);
                    m.put(tok, v + 1).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (tok, v) = m.take(9);
        assert_eq!(v, 200);
        m.put(tok, v).unwrap();
    }

    #[test]
    fn mvar_snapshot_reads_see_history() {
        let m = MVar::full(10u32);
        let (tok, v) = m.take(1);
        m.put(tok, v + 10).unwrap();
        let (tok, v) = m.take(1);
        m.put(tok, v + 10).unwrap();
        // Version 1 = 10, version 2 = 20, version 3 = 30.
        assert_eq!(m.read_snapshot(1), Some((1, 10)));
        assert_eq!(m.read_snapshot(2), Some((2, 20)));
        assert_eq!(m.read_snapshot(u64::MAX), Some((3, 30)));
    }

    #[test]
    fn mvar_producer_consumer_rendezvous() {
        let m = Arc::new(MVar::full(0u32)); // 0 = "no message"
        let m2 = Arc::clone(&m);
        let consumer = thread::spawn(move || loop {
            let (tok, v) = m2.take(2);
            if v != 0 {
                m2.put(tok, 0).unwrap();
                return v;
            }
            m2.put(tok, v).unwrap();
            thread::yield_now();
        });
        thread::sleep(Duration::from_millis(5));
        let (tok, _) = m.take(1);
        m.put(tok, 99).unwrap();
        assert_eq!(consumer.join().unwrap(), 99);
    }
}
