//! Per-operation execution tracing.
//!
//! When enabled, every instruction-interface operation appends one record:
//! who issued it, what it touched, when it started and finished, and —
//! for operations that stalled — why ([`StallCause`]). Traces are how
//! simulator results stop being a single opaque cycle count: [`summary`]
//! regenerates per-op latency distributions and stall breakdowns, and
//! `osim-report` turns them into Chrome trace-event JSON.
//!
//! Records land in [`crate::MachineState::trace`], an
//! [`osim_mem::EventLog`] ring: the **most recent** `capacity` records are
//! kept and `dropped` counts how many older ones were overwritten — the
//! end of a run (where contention effects accumulate) is usually what
//! matters.
//!
//! Tracing is off by default (zero overhead beyond a branch); enable it
//! with [`crate::Machine::enable_trace`].

use osim_engine::Cycle;

use crate::stats::StallCause;

/// What kind of operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Plain computation (`work`).
    Work,
    /// Conventional load.
    Load,
    /// Conventional store.
    Store,
    /// Atomic compare-and-swap.
    Cas,
    /// `LOAD-VERSION` / `LOAD-LATEST` (plain).
    VersionedLoad,
    /// `LOCK-LOAD-VERSION` / `LOCK-LOAD-LATEST`.
    VersionedLockLoad,
    /// `STORE-VERSION`.
    VersionedStore,
    /// `UNLOCK-VERSION`.
    Unlock,
}

impl OpKind {
    /// Short stable name (summary rows, Chrome trace event names).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Work => "work",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Cas => "cas",
            OpKind::VersionedLoad => "vload",
            OpKind::VersionedLockLoad => "vlockload",
            OpKind::VersionedStore => "vstore",
            OpKind::Unlock => "unlock",
        }
    }

    /// All kinds, for summary iteration.
    pub const ALL: [OpKind; 8] = [
        OpKind::Work,
        OpKind::Load,
        OpKind::Store,
        OpKind::Cas,
        OpKind::VersionedLoad,
        OpKind::VersionedLockLoad,
        OpKind::VersionedStore,
        OpKind::Unlock,
    ];
}

/// One traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issuing core.
    pub core: usize,
    /// Issuing task.
    pub tid: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Virtual address touched (0 for `Work`).
    pub va: u32,
    /// Version named by a versioned op (0 otherwise).
    pub version: u32,
    /// Issue cycle.
    pub start: Cycle,
    /// Completion cycle.
    pub end: Cycle,
    /// Why the op stalled (`None` if it never did). For multi-retry loads
    /// this is the cause of the **last** blocked attempt.
    pub stall: Option<StallCause>,
}

impl TraceRecord {
    /// True if the op stalled at least once.
    pub fn stalled(&self) -> bool {
        self.stall.is_some()
    }
}

/// Aggregates trace records per operation kind.
pub fn summary(records: &[TraceRecord]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for r in records {
        let idx = match OpKind::ALL.iter().position(|k| *k == r.kind) {
            Some(i) => i,
            None => unreachable!("known kind"),
        };
        let row = &mut s.per_kind[idx];
        row.count += 1;
        row.total_cycles += r.end - r.start;
        row.max_cycles = row.max_cycles.max(r.end - r.start);
        if let Some(cause) = r.stall {
            row.stalled += 1;
            s.stalls_by_cause[cause.index()] += 1;
        }
    }
    s
}

/// Aggregate statistics for one operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    /// Operations recorded.
    pub count: u64,
    /// Sum of per-op latency.
    pub total_cycles: u64,
    /// Worst per-op latency.
    pub max_cycles: u64,
    /// Operations that stalled at least once.
    pub stalled: u64,
}

impl KindStats {
    /// Mean latency in cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.count as f64
        }
    }
}

/// Per-kind aggregates, indexed in [`OpKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSummary {
    /// One row per [`OpKind::ALL`] entry.
    pub per_kind: [KindStats; 8],
    /// Stalled-record counts per cause, indexed by [`StallCause::index`].
    pub stalls_by_cause: [u64; 4],
}

impl TraceSummary {
    /// Stats for one kind.
    pub fn of(&self, kind: OpKind) -> KindStats {
        let idx = match OpKind::ALL.iter().position(|k| *k == kind) {
            Some(i) => i,
            None => unreachable!("known kind"),
        };
        self.per_kind[idx]
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>9} {:>10} {:>8} {:>9}",
            "op", "count", "mean cyc", "max", "stalled"
        )?;
        for kind in OpKind::ALL {
            let s = self.of(kind);
            if s.count == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<10} {:>9} {:>10.1} {:>8} {:>9}",
                kind.name(),
                s.count,
                s.mean(),
                s.max_cycles,
                s.stalled
            )?;
        }
        if self.stalls_by_cause.iter().any(|&n| n > 0) {
            write!(f, "stall causes:")?;
            for cause in StallCause::ALL {
                let n = self.stalls_by_cause[cause.index()];
                if n > 0 {
                    write!(f, " {}={}", cause.name(), n)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, start: Cycle, end: Cycle, stall: Option<StallCause>) -> TraceRecord {
        TraceRecord {
            core: 0,
            tid: 1,
            kind,
            va: 0x1000,
            version: 3,
            start,
            end,
            stall,
        }
    }

    #[test]
    fn summary_aggregates_per_kind() {
        let s = summary(&[
            rec(OpKind::VersionedLoad, 0, 10, None),
            rec(
                OpKind::VersionedLoad,
                10,
                40,
                Some(StallCause::MissingVersion),
            ),
            rec(OpKind::Store, 40, 44, None),
        ]);
        let v = s.of(OpKind::VersionedLoad);
        assert_eq!(v.count, 2);
        assert_eq!(v.total_cycles, 40);
        assert_eq!(v.max_cycles, 30);
        assert_eq!(v.stalled, 1);
        assert!((v.mean() - 20.0).abs() < 1e-9);
        assert_eq!(s.of(OpKind::Store).count, 1);
        assert_eq!(s.of(OpKind::Cas).count, 0);
        assert_eq!(s.stalls_by_cause[StallCause::MissingVersion.index()], 1);
        assert_eq!(s.stalls_by_cause[StallCause::FreeListGc.index()], 0);
    }
}
