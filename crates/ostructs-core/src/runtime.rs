//! Task-parallel runtime for software O-structures.
//!
//! Mirrors the execution model the paper's garbage collector assumes
//! (§III-B): a sequential program split into tasks whose ids reflect
//! program order, run across worker threads with static assignment, with
//! the runtime obeying the three GC rules — versions are accessed with
//! task ids, the memory system is told when tasks begin and end, and no
//! task is created below the oldest active id.
//!
//! Garbage collection here is the software rendition: tracked stores drop
//! every version shadowed for the whole active window (the hardware
//! two-list protocol, which exists because hardware cannot atomically
//! check reachability, collapses to a single atomic prune under the cell
//! mutex — the `osim-uarch` crate models the full shadowed/pending
//! mechanism). The runtime is a client of [`crate::vacuum`]'s reader
//! registry: each active task is a pin at its task id, and a collection
//! is a pass of the same collector the background vacuum runs, so its
//! boundary is the registry's watermark. A tracked [`crate::map::OMap`]
//! is collected through its per-shard dirty queues, so a collection
//! visits only the map's cells written since they last settled.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::vacuum::{Collector, Prunable, ReaderGuard, ReaderRegistry, VacuumStats};
use crate::TaskId;

/// A collection pass runs every this many task completions.
const GC_EVERY: u64 = 64;

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
    collector: Collector,
    threads: usize,
    /// Tasks ended so far; every [`GC_EVERY`]th end runs a pass.
    ended: AtomicU64,
}

impl ORuntime {
    /// A runtime with `threads` workers that collects every 64 task
    /// completions and on [`ORuntime::collect_now`].
    pub fn new(threads: usize) -> Self {
        // The clock runs one ahead of the next task id, so the idle
        // watermark (the clock minus one) is the lowest id a future task
        // can get.
        let registry = ReaderRegistry::new();
        registry.advance_to(1);
        ORuntime {
            collector: Collector::new(registry),
            threads: threads.max(1),
            ended: AtomicU64::new(0),
        }
    }

    /// Registers a cell or a map for garbage collection. A map costs
    /// each collection only its queued cells (see [`crate::map`]).
    pub fn track<S: Prunable>(&self, store: &S) {
        self.collector.track(store);
    }

    /// Collection counters so far.
    pub fn gc_stats(&self) -> VacuumStats {
        self.collector.stats()
    }

    /// The task id the next [`ORuntime::run`] will start at.
    pub fn next_tid(&self) -> TaskId {
        self.collector.registry.current() - 1
    }

    /// Runs `tasks` to completion. Task `i` gets id `next_tid + i` and runs
    /// on worker `i % threads`; each worker executes its share in order,
    /// and pins its next task before its current task's pin drops (so a
    /// queued task is always protected by an active lower id — the window
    /// can never slide past it). Each worker's first task is pinned as the
    /// ids are reserved, before any worker starts, so no worker can end a
    /// task and collect past another's first task (rule 3).
    pub fn run(&self, tasks: Vec<Box<dyn FnOnce(TaskId) + Send>>) {
        let n = tasks.len() as TaskId;
        let registry = &self.collector.registry;
        let (first, firsts) = registry.reserve_pinned(n, n.min(self.threads as TaskId));
        type Queue = Vec<(TaskId, Box<dyn FnOnce(TaskId) + Send>)>;
        let mut queues: Vec<Queue> = (0..self.threads).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            queues[i % self.threads].push((first + i as TaskId, t));
        }
        std::thread::scope(|scope| {
            for (queue, mut pin) in queues.into_iter().zip(firsts) {
                scope.spawn(move || {
                    for (tid, body) in queue {
                        if tid != pin.cap() {
                            // Rule 3: the next task is pinned before the
                            // current one's pin drops.
                            self.end_task(std::mem::replace(&mut pin, registry.pin_at(tid)));
                        }
                        body(tid);
                    }
                    self.end_task(pin);
                });
            }
        });
    }

    fn end_task(&self, pin: ReaderGuard) {
        drop(pin);
        if (self.ended.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(GC_EVERY) {
            self.collect_now();
        }
    }

    /// Runs one collection pass immediately: prunes every tracked store
    /// below the oldest active task, or below the next task id when no
    /// task is active.
    pub fn collect_now(&self) {
        self.collector.pass();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::OCell;
    use parking_lot::Mutex;
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
        let rt = Arc::new(ORuntime::new(2));
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64)
            .map(|_| {
                let cell = cell.clone();
                let rt = Arc::clone(&rt);
                Box::new(move |tid: TaskId| {
                    let prev = cell.load_version(tid - 1);
                    cell.store_version(tid, prev + 1).unwrap();
                    if tid.is_multiple_of(8) {
                        rt.collect_now();
                    }
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        rt.collect_now();
        let stats = rt.gc_stats();
        assert!(stats.passes >= 8, "{stats:?}");
        assert!(stats.reclaimed >= 56, "{stats:?}");
        assert_eq!(cell.version_count(), 1, "only the newest version survives");
        assert_eq!(cell.load_latest(u64::MAX), (64, 64));
    }

    #[test]
    fn gc_never_breaks_active_readers() {
        // A slow low-id reader pins its snapshot while later writers churn.
        let rt = Arc::new(ORuntime::new(4));
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
            let rt = Arc::clone(&rt);
            tasks.push(Box::new(move |tid: TaskId| {
                cell.store_version(tid, tid).unwrap();
                rt.collect_now();
            }));
        }
        rt.run(tasks);
    }

    #[test]
    fn manual_collection_with_no_tasks_uses_next_tid() {
        let rt = ORuntime::new(1);
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
        let rt = Arc::new(ORuntime::new(2));
        let m: crate::OMap<u32, u64> = crate::OMap::new();
        rt.track(&m);
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64u32)
            .map(|i| {
                let m = m.clone();
                let rt = Arc::clone(&rt);
                Box::new(move |tid: TaskId| {
                    m.insert(i % 4, tid, tid).unwrap();
                    if tid.is_multiple_of(4) {
                        rt.collect_now();
                    }
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        let mid = rt.gc_stats();
        assert!(mid.passes >= 16, "{mid:?}");
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
            assert_eq!(m.get_arc(&k, u64::MAX).as_deref(), Some(&u64::from(61 + k)));
        }
    }

    #[test]
    fn dropped_cells_are_untracked() {
        let rt = ORuntime::new(1);
        {
            let cell = OCell::with_initial(0, 0u32);
            rt.track(&cell);
        }
        rt.collect_now(); // must not panic on the dead weak ref
        assert_eq!(rt.gc_stats().passes, 1);
    }

    #[test]
    fn no_pass_uses_a_boundary_above_an_active_task() {
        // Rule 3: while a task runs, every pass (its own or another
        // worker's) used a boundary at or below its id, so the snapshot
        // below the task survived every pass.
        let rt = Arc::new(ORuntime::new(4));
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        for _ in 0..16 {
            let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64)
                .map(|_| {
                    let cell = cell.clone();
                    let rt = Arc::clone(&rt);
                    Box::new(move |tid: TaskId| {
                        rt.collect_now();
                        let last = rt.gc_stats().last_watermark;
                        assert!(last <= tid, "a pass used {last} while task {tid} ran");
                        assert!(
                            cell.try_load_latest(tid - 1).is_some(),
                            "task {tid}'s snapshot was pruned"
                        );
                        cell.store_version(tid, tid).unwrap();
                    }) as Box<dyn FnOnce(TaskId) + Send>
                })
                .collect();
            rt.run(tasks);
        }
        rt.collect_now();
        assert_eq!(rt.gc_stats().last_watermark, rt.next_tid());
        assert_eq!(cell.versions(), vec![16 * 64]);
    }
}
