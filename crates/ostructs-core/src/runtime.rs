//! Task-parallel runtime for software O-structures.
//!
//! Mirrors the execution model the paper's garbage collector assumes
//! (§III-B): a sequential program split into tasks whose ids reflect
//! program order, run across worker threads with static assignment, with
//! the runtime obeying the three GC rules — versions are accessed with
//! task ids, the memory system is told when tasks begin and end, and no
//! task is created below the oldest active id.
//!
//! Garbage collection here is the software rendition: tracked cells drop
//! every version shadowed for the whole active window (the hardware
//! two-list protocol, which exists because hardware cannot atomically
//! check reachability, collapses to a single atomic prune under the cell
//! mutex — the `osim-uarch` crate models the full shadowed/pending
//! mechanism). A tracked [`crate::map::OMap`] is collected through the
//! same per-shard dirty queues the background vacuum drains, so a
//! collection visits only the map's cells written since they last
//! settled, not a full sweep of its keys.

use std::collections::BTreeSet;

use parking_lot::Mutex;

use crate::cell::OCell;
use crate::vacuum::Tracked;
use crate::TaskId;

/// Garbage-collection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Collection passes executed.
    pub collections: u64,
    /// Total versions reclaimed.
    pub reclaimed: u64,
}

struct RtState {
    active: BTreeSet<TaskId>,
    next_tid: TaskId,
    ends_since_gc: u64,
    stats: GcStats,
}

/// The task runtime.
///
/// ```
/// use ostructs_core::{ORuntime, OCell};
///
/// let rt = ORuntime::new(4);
/// let cell = OCell::with_initial(0, 0u32);
/// rt.track(&cell);
/// let results: Vec<_> = (0..8)
///     .map(|_| {
///         let cell = cell.clone();
///         Box::new(move |tid: u64| {
///             // version = task id (rule 1); the exact load pins the
///             // true dependency on the predecessor task
///             let prev = cell.load_version(tid - 1);
///             cell.store_version(tid, prev + 1).unwrap();
///         }) as Box<dyn FnOnce(u64) + Send>
///     })
///     .collect();
/// rt.run(results);
/// assert_eq!(cell.load_latest(u64::MAX).1, 8);
/// ```
pub struct ORuntime {
    state: Mutex<RtState>,
    tracked: Tracked,
    threads: usize,
    /// Run a collection pass every this many task completions
    /// (`None` = only on [`ORuntime::collect_now`]).
    gc_every: Option<u64>,
}

impl ORuntime {
    /// A runtime with `threads` workers and GC every 64 task completions.
    pub fn new(threads: usize) -> Self {
        Self::with_gc_interval(threads, Some(64))
    }

    /// A runtime with an explicit collection cadence.
    pub fn with_gc_interval(threads: usize, gc_every: Option<u64>) -> Self {
        ORuntime {
            state: Mutex::new(RtState {
                active: BTreeSet::new(),
                next_tid: 1,
                ends_since_gc: 0,
                stats: GcStats::default(),
            }),
            tracked: Tracked::new(),
            threads: threads.max(1),
            gc_every,
        }
    }

    /// Registers a cell for garbage collection.
    pub fn track<T: Send + Sync + 'static>(&self, cell: &OCell<T>) {
        self.tracked.push(cell.prune_handle());
    }

    /// Registers any prunable store (e.g. a whole [`crate::map::OMap`])
    /// for garbage collection. A map costs each collection only its
    /// queued cells (see [`crate::map`]).
    pub fn track_store<S: crate::vacuum::Prunable>(&self, store: &S) {
        self.tracked.push(store.prune_weak());
    }

    /// Collection counters so far.
    pub fn gc_stats(&self) -> GcStats {
        self.state.lock().stats
    }

    /// The task id the next [`ORuntime::run`] will start at.
    pub fn next_tid(&self) -> TaskId {
        self.state.lock().next_tid
    }

    /// Runs `tasks` to completion. Task `i` gets id `next_tid + i` and runs
    /// on worker `i % threads`; each worker executes its share in order,
    /// and `TASK-END` of one task is reported only after `TASK-BEGIN` of
    /// the worker's next (so a queued task is always protected by an
    /// active lower id — the window can never slide past it). Each
    /// worker's first task begins before any worker starts, so no worker
    /// can end a task and collect past another's first task (rule 3).
    pub fn run(&self, tasks: Vec<Box<dyn FnOnce(TaskId) + Send>>) {
        let first = {
            let mut st = self.state.lock();
            let first = st.next_tid;
            st.next_tid += tasks.len() as TaskId;
            // Tasks `first..first + threads` are the workers' first tasks.
            let firsts = (tasks.len() as TaskId).min(self.threads as TaskId);
            st.active.extend(first..first + firsts);
            first
        };
        type Queue = Vec<(TaskId, Box<dyn FnOnce(TaskId) + Send>)>;
        let mut queues: Vec<Queue> = (0..self.threads).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            queues[i % self.threads].push((first + i as TaskId, t));
        }
        std::thread::scope(|scope| {
            for queue in queues {
                if queue.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    let mut prev: Option<TaskId> = None;
                    for (tid, body) in queue {
                        if let Some(p) = prev.take() {
                            self.state.lock().active.insert(tid);
                            self.end_task(p);
                        }
                        body(tid);
                        prev = Some(tid);
                    }
                    if let Some(p) = prev {
                        self.end_task(p);
                    }
                });
            }
        });
    }

    fn end_task(&self, tid: TaskId) {
        let collect = {
            let mut st = self.state.lock();
            st.active.remove(&tid);
            st.ends_since_gc += 1;
            matches!(self.gc_every, Some(n) if st.ends_since_gc >= n)
        };
        if collect {
            self.collect_now();
        }
    }

    /// Runs one collection pass immediately.
    pub fn collect_now(&self) {
        // Read the window, then prune without holding the lock (pruning
        // takes per-cell locks).
        let boundary = {
            let mut st = self.state.lock();
            st.ends_since_gc = 0;
            match st.active.first() {
                // Everything below the oldest active task is stale...
                Some(&oldest) => oldest,
                // ...or below the next id to be issued when idle.
                None => st.next_tid,
            }
        };
        let reclaimed = self.tracked.prune_below(boundary);
        let mut st = self.state.lock();
        st.stats.collections += 1;
        st.stats.reclaimed += reclaimed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn tasks_get_sequential_ids_and_all_run() {
        let rt = ORuntime::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..16)
            .map(|_| {
                let seen = Arc::clone(&seen);
                Box::new(move |tid: TaskId| {
                    seen.lock().push(tid);
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        let mut ids = seen.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>());
        assert_eq!(rt.next_tid(), 17);
    }

    #[test]
    fn producer_consumer_pipeline() {
        let rt = ORuntime::new(4);
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        let total = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..32)
            .map(|_| {
                let cell = cell.clone();
                let total = Arc::clone(&total);
                Box::new(move |tid: TaskId| {
                    let prev = cell.load_version(tid - 1);
                    cell.store_version(tid, prev + 1).unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 32);
        // Chained increments must be fully ordered.
        assert_eq!(cell.load_latest(u64::MAX), (32, 32));
    }

    #[test]
    fn gc_reclaims_old_versions() {
        let rt = ORuntime::with_gc_interval(2, Some(8));
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64)
            .map(|_| {
                let cell = cell.clone();
                Box::new(move |tid: TaskId| {
                    let prev = cell.load_version(tid - 1);
                    cell.store_version(tid, prev + 1).unwrap();
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        rt.collect_now();
        let stats = rt.gc_stats();
        assert!(stats.collections >= 8, "{stats:?}");
        assert!(stats.reclaimed >= 56, "{stats:?}");
        assert_eq!(cell.version_count(), 1, "only the newest version survives");
        assert_eq!(cell.load_latest(u64::MAX), (64, 64));
    }

    #[test]
    fn gc_never_breaks_active_readers() {
        // A slow low-id reader pins its snapshot while later writers churn.
        let rt = ORuntime::with_gc_interval(4, Some(1));
        let cell = OCell::with_initial(0, 100u64);
        rt.track(&cell);
        let mut tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = Vec::new();
        // Task 1: slow reader with cap 0 (sees the initial value).
        {
            let cell = cell.clone();
            tasks.push(Box::new(move |tid: TaskId| {
                std::thread::sleep(std::time::Duration::from_millis(40));
                let (v, val) = cell.load_latest(tid - 1);
                assert_eq!((v, val), (0, 100), "snapshot survived the churn");
            }));
        }
        // Tasks 2..32: writers that trigger collection constantly.
        for _ in 0..31 {
            let cell = cell.clone();
            tasks.push(Box::new(move |tid: TaskId| {
                cell.store_version(tid, tid).unwrap();
            }));
        }
        rt.run(tasks);
    }

    #[test]
    fn manual_collection_with_no_tasks_uses_next_tid() {
        let rt = ORuntime::with_gc_interval(1, None);
        let cell = OCell::with_initial(0, 1u32);
        for v in 1..=5u64 {
            cell.store_version(v, v as u32).unwrap();
        }
        rt.track(&cell);
        rt.collect_now();
        // next_tid is 1, so the newest version ≤ 1 (version 1) is kept along
        // with everything newer.
        assert_eq!(cell.versions(), vec![1, 2, 3, 4, 5]);
        // After running tasks the boundary advances.
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> =
            vec![Box::new(|_| {}), Box::new(|_| {}), Box::new(|_| {})];
        rt.run(tasks);
        rt.collect_now();
        assert_eq!(cell.versions(), vec![4, 5]);
    }

    #[test]
    fn collections_reclaim_a_tracked_map_through_its_queue() {
        // Tasks rewrite four keys at their own ids; a last task removes
        // key 0. Every collection drains the map's dirty queues.
        let rt = ORuntime::with_gc_interval(2, Some(4));
        let m: crate::OMap<u32, u64> = crate::OMap::new();
        rt.track_store(&m);
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64u32)
            .map(|i| {
                let m = m.clone();
                Box::new(move |tid: TaskId| m.insert(i % 4, tid, tid).unwrap())
                    as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        let mid = rt.gc_stats();
        assert!(mid.collections >= 16, "{mid:?}");
        assert!(mid.reclaimed > 0, "periodic collections pruned the map");
        let remover = m.clone();
        rt.run(vec![Box::new(move |tid: TaskId| {
            remover.remove(0, tid).unwrap()
        })]);
        rt.collect_now();
        // Sixteen writes per key: key 0 loses all sixteen to its removal
        // (whose cell is then unlinked), keys 1-3 all but their newest.
        assert_eq!(rt.gc_stats().reclaimed, 16 + 3 * 15);
        assert_eq!(m.tracked_keys(), 3);
        for k in 1..4u32 {
            assert_eq!(m.get(k, u64::MAX), Some(u64::from(61 + k)));
        }
    }

    #[test]
    fn dropped_cells_are_untracked() {
        let rt = ORuntime::with_gc_interval(1, None);
        {
            let cell = OCell::with_initial(0, 0u32);
            rt.track(&cell);
        }
        rt.collect_now(); // must not panic on the dead weak ref
        assert_eq!(rt.gc_stats().collections, 1);
    }
}
