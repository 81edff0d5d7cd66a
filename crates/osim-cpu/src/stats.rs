//! Execution statistics collected by the cores.

use osim_metrics::Histogram;

/// The full set of latency/shape histograms one run produces, gathered
/// across every simulator layer. All of them record **simulated-cycle**
/// quantities (never host wall time), so their contents are deterministic
/// — safe to land in byte-compared reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHists {
    /// Cycles tasks spent parked on gates before their wakeup fired.
    pub gate_wait: Histogram,
    /// Waiters released per gate-open event (0 when an open found no one).
    pub wake_fanout: Histogram,
    /// Cycles charged per version-list walk in the O-structure manager.
    pub version_walk: Histogram,
    /// Cycles per free-list refill trap, including forced-GC recovery.
    pub gc_pause: Histogram,
    /// L1 data-cache access latencies (hits and misses alike).
    pub l1_access: Histogram,
    /// Latencies of accesses serviced at or beyond the shared L2.
    pub l2_access: Histogram,
    /// Latencies of accesses whose service required a coherence action
    /// (S→M upgrade, dirty remote-L1 forward, cross-core invalidation).
    pub coherence_delay: Histogram,
    /// Run-quantum lengths: cycles from a task's `TASK-BEGIN` to its
    /// body's completion on its statically assigned core.
    pub run_quantum: Histogram,
}

impl RunHists {
    /// Stable field names, in serialization order.
    pub const NAMES: [&'static str; 8] = [
        "gate_wait",
        "wake_fanout",
        "version_walk",
        "gc_pause",
        "l1_access",
        "l2_access",
        "coherence_delay",
        "run_quantum",
    ];

    /// The histograms paired with their stable names, in [`RunHists::NAMES`]
    /// order.
    pub fn named(&self) -> [(&'static str, &Histogram); 8] {
        [
            ("gate_wait", &self.gate_wait),
            ("wake_fanout", &self.wake_fanout),
            ("version_walk", &self.version_walk),
            ("gc_pause", &self.gc_pause),
            ("l1_access", &self.l1_access),
            ("l2_access", &self.l2_access),
            ("coherence_delay", &self.coherence_delay),
            ("run_quantum", &self.run_quantum),
        ]
    }

    /// Mutable access by stable name (deserialization helper).
    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        match name {
            "gate_wait" => Some(&mut self.gate_wait),
            "wake_fanout" => Some(&mut self.wake_fanout),
            "version_walk" => Some(&mut self.version_walk),
            "gc_pause" => Some(&mut self.gc_pause),
            "l1_access" => Some(&mut self.l1_access),
            "l2_access" => Some(&mut self.l2_access),
            "coherence_delay" => Some(&mut self.coherence_delay),
            "run_quantum" => Some(&mut self.run_quantum),
            _ => None,
        }
    }
}

/// Why a core spent cycles stalled on a versioned operation.
///
/// Every stall cycle in [`CpuStats::stall_cycles`] is attributed to
/// exactly one cause, so `stall_by_cause` always sums to `stall_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The requested version (or any version ≤ the cap) did not exist yet.
    MissingVersion,
    /// The target version existed but another task held its lock.
    LockedVersion,
    /// The block followed a coherence invalidation of this core's
    /// compressed line by another core's mutation of the same structure.
    CoherenceInval,
    /// Cycles spent in OS free-list refill traps (the allocation/GC path
    /// of `STORE-VERSION` / `UNLOCK-VERSION`).
    FreeListGc,
}

impl StallCause {
    /// Short stable name (CSV/JSON field value).
    pub fn name(&self) -> &'static str {
        match self {
            StallCause::MissingVersion => "missing_version",
            StallCause::LockedVersion => "locked_version",
            StallCause::CoherenceInval => "coherence_inval",
            StallCause::FreeListGc => "freelist_gc",
        }
    }

    /// Parses [`StallCause::name`] output back into the cause.
    pub fn from_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Index into [`CpuStats::stall_by_cause`].
    pub fn index(&self) -> usize {
        match StallCause::ALL.iter().position(|c| c == self) {
            Some(i) => i,
            None => unreachable!("cause listed in ALL"),
        }
    }

    /// All causes, in `stall_by_cause` index order.
    pub const ALL: [StallCause; 4] = [
        StallCause::MissingVersion,
        StallCause::LockedVersion,
        StallCause::CoherenceInval,
        StallCause::FreeListGc,
    ];
}

/// Per-core slice of the counters (a subset of the aggregates that is
/// meaningful per core). Used for load-imbalance analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Instructions issued by this core.
    pub instructions: u64,
    /// Versioned operations issued by this core.
    pub versioned_ops: u64,
    /// Stall cycles charged to this core.
    pub stall_cycles: u64,
    /// Tasks this core ran to completion.
    pub tasks_run: u64,
}

/// Counters accumulated across all cores of a machine.
///
/// Together with [`osim_mem::MemStats`] and [`osim_uarch::OStats`] these
/// regenerate every secondary number the paper quotes: stall fractions of
/// versioned loads (§IV-D), root-entry stall rates, and instruction mix.
/// `per_core` carries the same story per core for imbalance analysis.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Instructions issued (memory ops count as one instruction each).
    pub instructions: u64,
    /// Conventional loads performed.
    pub loads: u64,
    /// Conventional stores performed.
    pub stores: u64,
    /// Atomic compare-and-swap operations.
    pub cas_ops: u64,
    /// Versioned operations of any kind.
    pub versioned_ops: u64,
    /// Versioned loads (all four load flavours).
    pub versioned_loads: u64,
    /// Versioned loads that stalled at least once before completing.
    pub versioned_loads_stalled: u64,
    /// Versioned loads tagged as data-structure *root* entries.
    pub root_loads: u64,
    /// Tagged root loads that stalled at least once.
    pub root_loads_stalled: u64,
    /// Total cycles cores spent stalled on versioned operations (blocked
    /// waits plus OS free-list refill traps).
    pub stall_cycles: u64,
    /// `stall_cycles` split by cause, indexed by [`StallCause::index`].
    /// Invariant: the four entries sum to `stall_cycles` exactly.
    pub stall_by_cause: [u64; 4],
    /// Tasks executed to completion.
    pub tasks_run: u64,
    /// Per-core breakdowns (indexed by core id; present once the machine
    /// sizes it, empty for hand-built stats).
    pub per_core: Vec<CoreStats>,
}

impl CpuStats {
    /// Stats sized for a `cores`-core machine.
    pub fn for_cores(cores: usize) -> Self {
        CpuStats {
            per_core: vec![CoreStats::default(); cores],
            ..CpuStats::default()
        }
    }

    /// Fraction of versioned loads that stalled, in [0, 1].
    pub fn versioned_stall_rate(&self) -> f64 {
        frac(self.versioned_loads_stalled, self.versioned_loads)
    }

    /// Fraction of root loads that stalled, in [0, 1].
    pub fn root_stall_rate(&self) -> f64 {
        frac(self.root_loads_stalled, self.root_loads)
    }

    /// Stall cycles attributed to one cause.
    pub fn stall_cycles_for(&self, cause: StallCause) -> u64 {
        self.stall_by_cause[cause.index()]
    }

    /// Charges `cycles` of stall time to `cause`, on `core`, keeping the
    /// aggregate and the per-cause/per-core splits consistent.
    pub fn charge_stall(&mut self, core: usize, cause: StallCause, cycles: u64) {
        self.stall_cycles += cycles;
        self.stall_by_cause[cause.index()] += cycles;
        self.core_mut(core).stall_cycles += cycles;
    }

    /// The per-core row for `core`, growing the table on demand (contexts
    /// built outside [`crate::Machine`] may exceed the sized range).
    pub fn core_mut(&mut self, core: usize) -> &mut CoreStats {
        if core >= self.per_core.len() {
            self.per_core.resize(core + 1, CoreStats::default());
        }
        &mut self.per_core[core]
    }

    /// Ratio of the busiest core's stall cycles to the per-core mean
    /// (1.0 = perfectly balanced; 0 when nothing stalled).
    pub fn stall_imbalance(&self) -> f64 {
        imbalance(self.per_core.iter().map(|c| c.stall_cycles))
    }

    /// Ratio of the busiest core's instruction count to the per-core mean.
    pub fn work_imbalance(&self) -> f64 {
        imbalance(self.per_core.iter().map(|c| c.instructions))
    }

    /// Resets every counter, keeping the per-core table's size.
    pub fn reset(&mut self) {
        let cores = self.per_core.len();
        *self = CpuStats::for_cores(cores);
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// max/mean of a counter across cores; 0.0 for an empty or all-zero set.
fn imbalance(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let n = values.clone().count();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = values.clone().sum();
    if total == 0 {
        return 0.0;
    }
    let max = values.max().unwrap_or(0);
    max as f64 * n as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = CpuStats::default();
        assert_eq!(s.versioned_stall_rate(), 0.0);
        s.versioned_loads = 10;
        s.versioned_loads_stalled = 4;
        assert!((s.versioned_stall_rate() - 0.4).abs() < 1e-12);
        s.root_loads = 5;
        s.root_loads_stalled = 5;
        assert_eq!(s.root_stall_rate(), 1.0);
        s.reset();
        assert_eq!(s.versioned_loads, 0);
    }

    #[test]
    fn cause_names_round_trip() {
        for cause in StallCause::ALL {
            assert_eq!(StallCause::from_name(cause.name()), Some(cause));
        }
        assert_eq!(StallCause::from_name("bogus"), None);
    }

    #[test]
    fn charge_stall_keeps_sum_invariant() {
        let mut s = CpuStats::for_cores(2);
        s.charge_stall(0, StallCause::MissingVersion, 10);
        s.charge_stall(1, StallCause::LockedVersion, 7);
        s.charge_stall(1, StallCause::FreeListGc, 500);
        s.charge_stall(0, StallCause::CoherenceInval, 3);
        assert_eq!(s.stall_cycles, 520);
        assert_eq!(s.stall_by_cause.iter().sum::<u64>(), s.stall_cycles);
        assert_eq!(s.stall_cycles_for(StallCause::FreeListGc), 500);
        assert_eq!(s.per_core[0].stall_cycles, 13);
        assert_eq!(s.per_core[1].stall_cycles, 507);
    }

    #[test]
    fn per_core_grows_and_reset_preserves_size() {
        let mut s = CpuStats::for_cores(2);
        s.core_mut(5).instructions += 1;
        assert_eq!(s.per_core.len(), 6);
        s.reset();
        assert_eq!(s.per_core.len(), 6);
        assert_eq!(s.per_core[5].instructions, 0);
    }

    #[test]
    fn imbalance_metrics() {
        let mut s = CpuStats::for_cores(4);
        assert_eq!(s.stall_imbalance(), 0.0);
        for c in 0..4 {
            s.core_mut(c).stall_cycles = 100;
        }
        assert!((s.stall_imbalance() - 1.0).abs() < 1e-12);
        s.core_mut(0).stall_cycles = 400;
        // total 700, mean 175, max 400 → 400/175
        assert!((s.stall_imbalance() - 400.0 / 175.0).abs() < 1e-12);
        s.core_mut(1).instructions = 10;
        assert!((s.work_imbalance() - 4.0).abs() < 1e-12);
    }
}
