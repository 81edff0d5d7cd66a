//! The Figure 1 library API: `versioned<T>`.

use crate::cell::OCell;
use crate::error::OError;
use crate::{TaskId, Version};

/// A versioned variable with the paper's library-level API (Fig. 1,
/// right-hand column): task-centric method names that map one-to-one onto
/// the O-structure instructions, with the cell itself remembering which
/// version each task holds locked (so `unlock_ver(tid, tid + 1)` needs no
/// version argument).
///
/// ```
/// use ostructs_core::Versioned;
///
/// // versioned<node_t*> next = init();
/// let next: Versioned<u32> = Versioned::init(1, 0);
/// // task 1: pin the head version, rename for task 2, done.
/// assert_eq!(next.lock_load_ver(1, 1).unwrap(), 0);
/// next.unlock_ver(1, Some(2)).unwrap();
/// // task 2 proceeds through version 2 (created by the rename above) and
/// // publishes its modification as a fresh version.
/// assert_eq!(next.lock_load_last(2, 2).unwrap(), (2, 0));
/// next.store_ver_at(3, 0xbeef).unwrap();
/// next.unlock_ver(2, None).unwrap();
/// assert_eq!(next.load_last(3).1, 0xbeef);
/// // an older reader still sees its snapshot
/// assert_eq!(next.load_last(2).1, 0);
/// ```
pub struct Versioned<T> {
    cell: OCell<T>,
}

impl<T> Clone for Versioned<T> {
    fn clone(&self) -> Self {
        Versioned {
            cell: self.cell.clone(),
        }
    }
}

impl<T: Clone> Default for Versioned<T> {
    fn default() -> Self {
        Versioned { cell: OCell::new() }
    }
}

impl<T: Clone> Versioned<T> {
    /// A variable with no versions (all loads block until a store).
    pub fn new() -> Self {
        Self::default()
    }

    /// A variable with one initial version.
    pub fn init(version: Version, value: T) -> Self {
        Versioned {
            cell: OCell::with_initial(version, value),
        }
    }

    /// The underlying cell (for mixing APIs).
    pub fn cell(&self) -> &OCell<T> {
        &self.cell
    }

    /// `STORE-VERSION` at the task's own id: `store_ver(n, tid)` of Fig. 1.
    pub fn store_ver(&self, value: T, tid: TaskId) -> Result<(), OError> {
        self.cell.store_version(tid, value)
    }

    /// `STORE-VERSION` at an explicit version.
    pub fn store_ver_at(&self, version: Version, value: T) -> Result<(), OError> {
        self.cell.store_version(version, value)
    }

    /// `LOAD-VERSION`: get a specific version (blocking).
    pub fn load_ver(&self, version: Version) -> T {
        self.cell.load_version(version)
    }

    /// `LOAD-LATEST` capped at `tid`: the task's snapshot view.
    pub fn load_last(&self, tid: TaskId) -> (Version, T) {
        self.cell.load_latest(tid)
    }

    /// `lock_load_ver(tid)` of Fig. 1: get *and lock* a specific version.
    pub fn lock_load_ver(&self, version: Version, tid: TaskId) -> Result<T, OError> {
        self.cell.lock_load_version(version, tid)
    }

    /// `lock_load_last(tid)` of Fig. 1: get and lock the latest version the
    /// task may see, blocking behind an older task's lock.
    pub fn lock_load_last(&self, cap: Version, tid: TaskId) -> Result<(Version, T), OError> {
        self.cell.lock_load_latest(cap, tid)
    }

    /// `unlock_ver(tid, vn)` of Fig. 1: release the task's lock on this
    /// variable, optionally renaming (creating `vn` with the same value).
    pub fn unlock_ver(&self, tid: TaskId, create: Option<Version>) -> Result<(), OError> {
        self.cell.unlock_version(tid, create)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fig1_insert_end_pipeline() {
        // The Fig. 1 example: concurrent `insert_end` tasks appending to a
        // linked list, pipelined by versioned `next` pointers. The figure
        // assumes a non-empty list, so we start with a sentinel node; every
        // task then *passes* the root (renaming it for its successor) and
        // *stops* at a fresh tail cell (store without rename).
        struct Node {
            value: u32,
            next: Versioned<Option<Arc<Node>>>,
        }

        let first_tid = 2u64;
        // The sentinel's tail cell starts below the first task's id so the
        // first appender's store (at its own id) cannot collide.
        let sentinel = Arc::new(Node {
            value: 0,
            next: Versioned::init(first_tid - 1, None),
        });
        let root: Versioned<Option<Arc<Node>>> =
            Versioned::init(first_tid, Some(Arc::clone(&sentinel)));

        let insert_end = |tid: u64, value: u32, root: Versioned<Option<Arc<Node>>>| {
            // Enter at this task's exact entry version, then hand-over-hand.
            let mut prev = root;
            let mut cur = prev.lock_load_ver(tid, tid).unwrap();
            loop {
                let node = cur.expect("sentinel guarantees at least one node");
                let (_, nxt) = node.next.lock_load_last(tid, tid).unwrap();
                // Release the trailing cell, renamed for the next task.
                prev.unlock_ver(tid, Some(tid + 1)).unwrap();
                prev = node.next.clone();
                match nxt {
                    Some(_) => cur = nxt,
                    None => break,
                }
            }
            // `prev` is the tail cell (locked, value None): append here.
            let node = Arc::new(Node {
                value,
                next: Versioned::new(),
            });
            node.next.store_ver_at(tid, None).unwrap();
            prev.store_ver(Some(Arc::clone(&node)), tid).unwrap();
            prev.unlock_ver(tid, None).unwrap();
        };

        let mut handles = Vec::new();
        for tid in first_tid..first_tid + 8 {
            let root = root.clone();
            handles.push(thread::spawn(move || {
                insert_end(tid, tid as u32 * 10, root)
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // Walk the final list: values must be in task order — the output of
        // the parallel execution is identical to the sequential one.
        let mut out = Vec::new();
        let (_, mut cur) = root.load_last(u64::MAX);
        while let Some(node) = cur {
            if node.value != 0 {
                out.push(node.value);
            }
            (_, cur) = node.next.load_last(u64::MAX);
        }
        assert_eq!(out, (2..10u32).map(|t| t * 10).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_isolation_for_readers() {
        let v = Versioned::init(1, 100u32);
        v.store_ver_at(5, 500).unwrap();
        // A reader with cap 4 sees the old value even after version 5
        // exists — write-after-read eliminated by renaming.
        assert_eq!(v.load_last(4), (1, 100));
        assert_eq!(v.load_last(5), (5, 500));
    }
}
