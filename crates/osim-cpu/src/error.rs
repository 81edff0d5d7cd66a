//! Typed run errors and diagnostic reports.
//!
//! A simulated run can end three ways short of completion, and each carries
//! enough context to act on without re-running under a debugger:
//!
//! * [`SimError::Fault`] — an architectural fault (protection violation,
//!   version-block exhaustion after the graceful refill/GC path gave up)
//!   aborted the run; the report names the issuing task, its core, the
//!   virtual address and the cycle.
//! * [`SimError::Deadlock`] — the event queue drained with tasks still
//!   parked; the [`DeadlockReport`] names every blocked task's `(va,
//!   version)` wait target, the lock holder if any, and classifies each
//!   wait by following the wait-for graph (lock cycle vs. never-produced
//!   version vs. blocked behind one of those).
//! * [`SimError::Watchdog`] — the progress-based livelock watchdog saw no
//!   task retire work for a configured window and dumped the parked set.

use std::collections::HashMap;

use osim_engine::{BlockedTask, Cycle, TaskId as EngineTaskId};
use osim_mem::Fault;

use crate::capture::DepEdge;

/// An architectural fault annotated with the issuing task's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskFault {
    /// Task id of the faulting task.
    pub tid: u32,
    /// Core the task was running on.
    pub core: usize,
    /// Virtual address of the faulting operation (0 for allocator faults
    /// that have no architectural address).
    pub va: u32,
    /// Simulated cycle of the fault.
    pub cycle: Cycle,
    /// The underlying fault.
    pub fault: Fault,
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} on core {} faulted at cycle {}: {} (va {:#010x})",
            self.tid, self.core, self.cycle, self.fault, self.va
        )
    }
}

/// Why a task in a deadlock report can never run again, derived from the
/// wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Waiting for a version that no live task will ever produce.
    NeverProduced,
    /// Part of a lock cycle: following the lock-holder chain from this task
    /// leads back to it.
    LockCycle,
    /// Blocked behind another blocked task (transitively downstream of a
    /// never-produced version or a lock cycle it is not part of).
    Downstream,
    /// Waiting on a lock whose holder is no longer a live task — the holder
    /// exited without unlocking.
    AbandonedLock,
    /// The task registered no wait record (blocked on a bespoke gate).
    Unknown,
}

impl WaitClass {
    /// Short stable name (report field value).
    pub fn name(&self) -> &'static str {
        match self {
            WaitClass::NeverProduced => "never-produced",
            WaitClass::LockCycle => "lock-cycle",
            WaitClass::Downstream => "downstream",
            WaitClass::AbandonedLock => "abandoned-lock",
            WaitClass::Unknown => "unknown",
        }
    }
}

/// One blocked task of a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameEntry {
    /// Engine task id (slot in the executor).
    pub engine_task: EngineTaskId,
    /// Cpu-layer task id, when the task registered a wait record.
    pub tid: Option<u64>,
    /// Virtual address of the contended O-structure.
    pub va: Option<u64>,
    /// The awaited version.
    pub version: Option<u64>,
    /// Wait kind as registered (`missing-version`, `locked-version`,
    /// `coherence-inval`).
    pub kind: Option<&'static str>,
    /// Task holding the contended version, if any.
    pub holder: Option<u64>,
    /// Cycle the wait was registered at.
    pub since: Option<Cycle>,
    /// Wait-for-graph classification.
    pub class: WaitClass,
    /// Task and cycle of the last captured producer (store/unlock) on this
    /// entry's structure, when dependency-flow capture was armed — names
    /// the missing producer a `never-produced` waiter starved behind.
    pub last_producer: Option<(u64, Cycle)>,
}

impl std::fmt::Display for BlameEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.tid, self.va, self.version) {
            (Some(tid), Some(va), Some(version)) => {
                write!(
                    f,
                    "task {tid} waiting for {} at va {va:#010x} version {version}",
                    self.kind.unwrap_or("blocked")
                )?;
                if let Some(h) = self.holder {
                    write!(f, " held by task {h}")?;
                }
            }
            _ => write!(f, "engine task {} (no wait record)", self.engine_task)?,
        }
        if let Some(at) = self.since {
            write!(f, " since cycle {at}")?;
        }
        if let Some((tid, at)) = self.last_producer {
            write!(f, " (last producer: task {tid} at cycle {at})")?;
        }
        write!(f, " [{}]", self.class.name())
    }
}

/// A deadlock blame report: every task that can never run again, with its
/// wait target and a wait-for-graph classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle the deadlock was detected at.
    pub now: Cycle,
    /// One entry per blocked task.
    pub entries: Vec<BlameEntry>,
}

impl DeadlockReport {
    /// Builds the report from the executor's blocked-task snapshot by
    /// following each task's lock-holder chain. Each task waits on at most
    /// one resource (out-degree ≤ 1), so the wait-for graph is functional
    /// and chain-following finds every cycle.
    pub fn build(now: Cycle, blocked: Vec<BlockedTask>) -> Self {
        let by_label: HashMap<u64, usize> = blocked
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.info.as_ref().map(|w| (w.label, i)))
            .collect();
        let entries = blocked
            .iter()
            .map(|b| BlameEntry {
                engine_task: b.task,
                tid: b.info.as_ref().map(|w| w.label),
                va: b.info.as_ref().map(|w| w.resource),
                version: b.info.as_ref().map(|w| w.target),
                kind: b.info.as_ref().map(|w| w.kind),
                holder: b.info.as_ref().and_then(|w| w.holder),
                since: b.since,
                class: classify(&blocked, &by_label, b),
                last_producer: None,
            })
            .collect();
        DeadlockReport { now, entries }
    }

    /// Links each blamed waiter to the last captured producer on its
    /// structure (when dependency-flow capture was armed): for a
    /// `never-produced` wait this names who *last* advanced the structure —
    /// the task downstream of which the producer chain broke. A no-op when
    /// no edges were captured.
    pub fn link_producers(&mut self, deps: &[DepEdge]) {
        for e in &mut self.entries {
            let Some(va) = e.va else { continue };
            e.last_producer = deps
                .iter()
                .filter(|d| d.attributed() && u64::from(d.va) == va)
                .max_by_key(|d| d.produced_at)
                .map(|d| (u64::from(d.producer_tid), d.produced_at));
        }
    }
}

/// Classifies one blocked task by walking its lock-holder chain.
fn classify(blocked: &[BlockedTask], by_label: &HashMap<u64, usize>, b: &BlockedTask) -> WaitClass {
    let Some(info) = &b.info else {
        return WaitClass::Unknown;
    };
    let Some(first_holder) = info.holder else {
        // No holder: the version simply does not exist and, with the run
        // wedged, never will.
        return WaitClass::NeverProduced;
    };
    let start = info.label;
    let mut cur = first_holder;
    for _ in 0..=blocked.len() {
        if cur == start {
            return WaitClass::LockCycle;
        }
        let next = by_label.get(&cur).and_then(|&i| blocked[i].info.as_ref());
        match next {
            // The holder is not among the blocked tasks: it exited while
            // still holding the lock (or never registered a record).
            None => return WaitClass::AbandonedLock,
            Some(w) => match w.holder {
                // The chain ends at a task waiting for a missing version:
                // this task is collateral damage.
                None => return WaitClass::Downstream,
                Some(h) => cur = h,
            },
        }
    }
    // The chain looped without revisiting `start`: blocked behind a lock
    // cycle this task is not part of.
    WaitClass::Downstream
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock at cycle {}: {} task(s) blocked forever",
            self.now,
            self.entries.len()
        )?;
        for e in &self.entries {
            write!(f, "\n  {e}")?;
        }
        Ok(())
    }
}

/// Diagnostic dump produced by the progress-based livelock watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Cycle the watchdog fired at.
    pub now: Cycle,
    /// Length of the progress window that elapsed without any task
    /// retiring work.
    pub idle_cycles: Cycle,
    /// Snapshot of every parked task at firing time.
    pub parked: Vec<BlockedTask>,
}

impl std::fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "watchdog: no task retired work for {} cycles (at cycle {}); {} task(s) parked",
            self.idle_cycles,
            self.now,
            self.parked.len()
        )?;
        for p in &self.parked {
            match &p.info {
                Some(info) => write!(f, "\n  engine task {}: {info}", p.task)?,
                None => write!(f, "\n  engine task {}: no wait record", p.task)?,
            }
        }
        Ok(())
    }
}

/// Why [`crate::Machine::run_tasks`] stopped before all tasks completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every pending task is blocked forever; see the blame report.
    Deadlock(DeadlockReport),
    /// An architectural fault aborted the run.
    Fault(TaskFault),
    /// The livelock watchdog fired.
    Watchdog(WatchdogReport),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(r) => r.fmt(f),
            SimError::Fault(t) => t.fmt(f),
            SimError::Watchdog(w) => w.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use osim_engine::WaitInfo;

    fn blocked(task: usize, label: u64, target: u64, holder: Option<u64>) -> BlockedTask {
        BlockedTask {
            task,
            since: Some(5),
            info: Some(WaitInfo {
                label,
                resource: 0x1000 + label,
                target,
                kind: if holder.is_some() {
                    "locked-version"
                } else {
                    "missing-version"
                },
                holder,
            }),
        }
    }

    #[test]
    fn missing_version_is_never_produced() {
        let r = DeadlockReport::build(9, vec![blocked(0, 1, 7, None)]);
        assert_eq!(r.entries[0].class, WaitClass::NeverProduced);
        let msg = r.to_string();
        assert!(msg.contains("version 7"), "{msg}");
        assert!(msg.contains("never-produced"), "{msg}");
    }

    #[test]
    fn two_task_lock_cycle_is_flagged() {
        let r = DeadlockReport::build(
            0,
            vec![blocked(0, 1, 3, Some(2)), blocked(1, 2, 4, Some(1))],
        );
        assert!(r.entries.iter().all(|e| e.class == WaitClass::LockCycle));
    }

    #[test]
    fn waiter_behind_missing_version_is_downstream() {
        // Task 2 holds what task 1 wants, but task 2 itself waits on a
        // version nobody will produce.
        let r = DeadlockReport::build(0, vec![blocked(0, 1, 3, Some(2)), blocked(1, 2, 9, None)]);
        assert_eq!(r.entries[0].class, WaitClass::Downstream);
        assert_eq!(r.entries[1].class, WaitClass::NeverProduced);
    }

    #[test]
    fn waiter_behind_foreign_cycle_is_downstream() {
        let r = DeadlockReport::build(
            0,
            vec![
                blocked(0, 1, 3, Some(2)),
                blocked(1, 2, 4, Some(3)),
                blocked(2, 3, 5, Some(2)),
            ],
        );
        assert_eq!(r.entries[0].class, WaitClass::Downstream);
        assert_eq!(r.entries[1].class, WaitClass::LockCycle);
        assert_eq!(r.entries[2].class, WaitClass::LockCycle);
    }

    #[test]
    fn gone_holder_is_abandoned_lock() {
        let r = DeadlockReport::build(0, vec![blocked(0, 1, 3, Some(99))]);
        assert_eq!(r.entries[0].class, WaitClass::AbandonedLock);
    }

    #[test]
    fn blamed_waiter_names_its_missing_producer() {
        // Task 1 waits forever at va 0x1001 for version 7; the capture ring
        // saw task 3 store version 6 there at cycle 40 — the report should
        // name task 3 as the last producer the waiter starved behind.
        let mut r = DeadlockReport::build(99, vec![blocked(0, 1, 7, None)]);
        let edge = |va: u32, producer_tid: u32, produced_at: Cycle| DepEdge {
            va,
            awaited: 6,
            resolved: 6,
            cause: crate::stats::StallCause::MissingVersion,
            consumer_tid: 2,
            consumer_core: 0,
            producer_tid,
            producer_core: 1,
            produced_at,
            blocked_at: produced_at.saturating_sub(10),
            woken_at: produced_at + 1,
            waited: 11,
        };
        r.link_producers(&[
            edge(0x1001, 3, 20),
            edge(0x1001, 3, 40),
            edge(0x2000, 5, 80), // different structure: ignored
        ]);
        assert_eq!(r.entries[0].last_producer, Some((3, 40)));
        let msg = r.to_string();
        assert!(msg.contains("last producer: task 3 at cycle 40"), "{msg}");
    }

    #[test]
    fn no_record_is_unknown() {
        let r = DeadlockReport::build(
            0,
            vec![BlockedTask {
                task: 4,
                since: None,
                info: None,
            }],
        );
        assert_eq!(r.entries[0].class, WaitClass::Unknown);
        assert!(r.to_string().contains("no wait record"));
    }
}
