//! Causal-observability capture: dependency-flow edges.
//!
//! Capture is strictly host-side observation. A dependency edge is
//! recorded *after* a blocked versioned load completes, from values the
//! simulation already computed (the wake's origin and the stall
//! bookkeeping the stall-cause attribution keeps anyway). It inserts no
//! simulation events, sleeps, or gate traffic, so modeled timing — and
//! every byte of default-path output — is identical with capture on or
//! off. The ring grows once to its configured capacity and is then
//! reused, matching the allocation-free steady-state contract of the hot
//! loop.

use osim_engine::Cycle;

use crate::stats::StallCause;

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
