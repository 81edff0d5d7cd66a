//! Memory-system statistics.

use osim_metrics::Histogram;

/// Latency distributions recorded by the [`crate::Hierarchy`] alongside
/// the [`MemStats`] counters. Values are simulated cycles, so the
/// contents are deterministic. L1 hits have none: every hit costs the
/// configured L1 hit latency, so their distribution follows from the
/// `l1_*_hits` counters (see [`MemStats::l1_hits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemHists {
    /// Latencies of accesses that missed the L1 (remote-L1 forward, L2
    /// hit, or DRAM fill — the miss-path service time).
    pub l2_access: Histogram,
    /// Latencies of accesses whose service required a coherence action:
    /// an S→M upgrade, a dirty remote-L1 forward, or a write reaching a
    /// line other cores still share.
    pub coherence_delay: Histogram,
}

impl MemHists {
    /// Clears both histograms.
    pub fn reset(&mut self) {
        self.l2_access.reset();
        self.coherence_delay.reset();
    }
}

/// Counters accumulated by the [`crate::Hierarchy`].
///
/// `l1_*` counters are per-core (indexed by core id); the shared-level
/// counters are global. The paper quotes L1 read miss rates (Fig. 9
/// discussion) and qualitative hit-rate statements (§IV-D), which these
/// counters regenerate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Per-core L1 read hits (demand data reads, including versioned ops
    /// that hit compressed or data lines).
    pub l1_read_hits: Vec<u64>,
    /// Per-core L1 read misses.
    pub l1_read_misses: Vec<u64>,
    /// Per-core L1 write hits.
    pub l1_write_hits: Vec<u64>,
    /// Per-core L1 write misses.
    pub l1_write_misses: Vec<u64>,
    /// L2 hits (on L1 misses).
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// L1 misses satisfied by a dirty line forwarded from another core's L1.
    pub remote_forwards: u64,
    /// Data-line invalidations sent to remote L1s (write upgrades / RFOs).
    pub invalidations: u64,
    /// S→M upgrades that hit locally but had to invalidate sharers.
    pub upgrades: u64,
    /// L1 lines dropped because the inclusive L2 evicted their line.
    pub back_invalidations: u64,
    /// Compressed-line hits (direct O-structure accesses).
    pub compressed_hits: u64,
    /// Compressed-line misses (direct access fell back to a full lookup).
    pub compressed_misses: u64,
    /// Compressed lines discarded by coherence messages.
    pub compressed_coherence_drops: u64,
}

impl MemStats {
    pub(crate) fn new(cores: usize) -> Self {
        MemStats {
            l1_read_hits: vec![0; cores],
            l1_read_misses: vec![0; cores],
            l1_write_hits: vec![0; cores],
            l1_write_misses: vec![0; cores],
            ..Default::default()
        }
    }

    /// Aggregate L1 read hit rate across all cores, in [0, 1].
    pub fn l1_read_hit_rate(&self) -> f64 {
        let hits: u64 = self.l1_read_hits.iter().sum();
        let misses: u64 = self.l1_read_misses.iter().sum();
        ratio(hits, misses)
    }

    /// Aggregate L1 hit rate (reads + writes) across all cores, in [0, 1].
    pub fn l1_hit_rate(&self) -> f64 {
        let misses: u64 =
            self.l1_read_misses.iter().sum::<u64>() + self.l1_write_misses.iter().sum::<u64>();
        ratio(self.l1_hits(), misses)
    }

    /// Demand accesses that hit in an L1 (reads and writes, all cores).
    pub fn l1_hits(&self) -> u64 {
        self.l1_read_hits.iter().sum::<u64>() + self.l1_write_hits.iter().sum::<u64>()
    }

    /// Total demand accesses observed at the L1s.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_read_hits.iter().sum::<u64>()
            + self.l1_read_misses.iter().sum::<u64>()
            + self.l1_write_hits.iter().sum::<u64>()
            + self.l1_write_misses.iter().sum::<u64>()
    }

    /// Resets every counter, keeping the core count.
    pub fn reset(&mut self) {
        *self = MemStats::new(self.l1_read_hits.len());
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let mut s = MemStats::new(2);
        s.l1_read_hits[0] = 3;
        s.l1_read_misses[1] = 1;
        assert!((s.l1_read_hit_rate() - 0.75).abs() < 1e-12);
        s.l1_write_hits[0] = 4;
        assert!((s.l1_hit_rate() - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(s.l1_accesses(), 8);
        s.reset();
        assert_eq!(s.l1_accesses(), 0);
        assert_eq!(s.l1_read_hits.len(), 2);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = MemStats::new(1);
        assert_eq!(s.l1_read_hit_rate(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
    }
}
