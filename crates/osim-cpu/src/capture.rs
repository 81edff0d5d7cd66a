//! Causal-observability capture: dependency-flow edges and interval
//! telemetry.
//!
//! Both captures are strictly host-side observation. A dependency edge is
//! recorded *after* a blocked versioned load completes, from values the
//! simulation already computed (the wake's origin and the stall
//! bookkeeping the stall-cause attribution keeps anyway); the interval
//! sampler reads cumulative counters at cycle-epoch boundaries from within
//! machine-state borrows the issuing core already holds. Neither inserts
//! simulation events, sleeps, or gate traffic, so modeled timing — and
//! every byte of default-path output — is identical with capture on or
//! off. Rings grow once to their configured capacity and are then reused,
//! matching the allocation-free steady-state contract of the hot loop.

use osim_engine::Cycle;

use crate::stats::StallCause;

/// Capture configuration carried by [`crate::MachineCfg`]. The default is
/// everything off, which is also completely free on the hot path (one
/// disabled-ring branch per prospective record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureCfg {
    /// Ring capacity for dependency edges (0 = capture off).
    pub dep_edges: usize,
    /// Epoch length, in cycles, for interval telemetry (0 = sampler off).
    pub sample_every: u64,
    /// Ring capacity for interval samples (0 = sampler off).
    pub samples: usize,
}

impl CaptureCfg {
    /// A convenient armed configuration: `dep_edges` edge slots and a
    /// sampler with the given epoch, sized generously.
    pub fn armed(dep_edges: usize, sample_every: u64, samples: usize) -> Self {
        CaptureCfg {
            dep_edges,
            sample_every,
            samples,
        }
    }

    /// Whether any capture channel is on.
    pub fn any(&self) -> bool {
        self.dep_edges > 0 || (self.sample_every > 0 && self.samples > 0)
    }
}

/// One producer→consumer dependency edge: a versioned load blocked on
/// `va`, and the recorded `STORE-VERSION`/`UNLOCK-VERSION` released it.
///
/// When a load blocks and re-checks more than once (broadcast wake-ups
/// are spurious by contract), only the *satisfying* wake — the one whose
/// re-check completed the load — becomes an edge; `waited` still
/// accumulates every blocked interval, so edge cycle-weights match the
/// stall cycles charged to the consumer for this operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Root virtual address of the contended O-structure.
    pub va: u32,
    /// Version requested (exact loads) or cap (latest loads).
    pub awaited: u32,
    /// Version the load finally returned.
    pub resolved: u32,
    /// Stall-cause attribution of the final blocked interval.
    pub cause: StallCause,
    /// Consumer coordinates (the blocked load).
    pub consumer_tid: u32,
    /// Core the consumer ran on.
    pub consumer_core: u32,
    /// Producer task id (0 = unattributed: the wake carried no origin).
    pub producer_tid: u32,
    /// Core the producer ran on.
    pub producer_core: u32,
    /// Cycle the producing store/unlock completed.
    pub produced_at: Cycle,
    /// Cycle the consumer first blocked on this operation.
    pub blocked_at: Cycle,
    /// Cycle the satisfying wake resumed the consumer.
    pub woken_at: Cycle,
    /// Total blocked cycles across every retry of this operation (equals
    /// the stall cycles charged for it).
    pub waited: Cycle,
}

impl DepEdge {
    /// Whether the satisfying wake carried a producer identity.
    pub fn attributed(&self) -> bool {
        self.producer_tid != 0
    }
}

/// One interval-telemetry sample.
///
/// Counters are *deltas* over `(prev.at, at]` (the interval since the
/// previous sample); `free_blocks` is a point-in-time gauge. Samples land
/// on the absolute `sample_every` cycle grid, but when simulated time
/// jumps across several epoch boundaries in one step (a long DRAM sleep,
/// say) a single sample covers the whole jump — intervals are therefore
/// multiples of the epoch, not always exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Epoch-boundary cycle this sample was taken at.
    pub at: Cycle,
    /// Instructions retired in the interval.
    pub instructions: u64,
    /// Stall cycles charged in the interval, by [`StallCause::index`].
    pub stalls: [u64; 4],
    /// Version blocks on the MVM free list at the boundary (gauge).
    pub free_blocks: u64,
    /// L1 hits (reads + writes) in the interval.
    pub l1_hits: u64,
    /// L1 misses in the interval.
    pub l1_misses: u64,
    /// L2 hits in the interval.
    pub l2_hits: u64,
    /// L2 misses in the interval.
    pub l2_misses: u64,
}

impl Sample {
    /// Total stall cycles of the interval.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Cumulative counter snapshot the sampler diffs against (all values are
/// running totals at the previous emitted boundary).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleBase {
    pub instructions: u64,
    pub stalls: [u64; 4],
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
}

/// Host-side epoch sampler state. `every == 0` disables it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sampler {
    /// Epoch length in cycles (0 = off).
    pub every: u64,
    /// Next epoch boundary to emit at.
    pub next_at: Cycle,
    /// Counter totals at the last emitted boundary.
    pub base: SampleBase,
}
