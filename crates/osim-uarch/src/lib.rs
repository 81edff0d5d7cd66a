//! Microarchitectural O-structure manager.
//!
//! This crate implements §III of the paper: the per-core O-structure logic
//! that lives next to the L1 caches plus the shared Memory Version Manager.
//!
//! * [`vblock`] — the 16-byte Version Block record (version id, 30-bit
//!   physical next pointer, head bit, locked-by field, 32-bit datum), stored
//!   for real in the simulated physical memory and linked by physical
//!   pointers.
//! * [`manager`] — the [`manager::OManager`]: executes the six O-structure
//!   operations against the cache hierarchy with full timing (direct access
//!   through the L1's compressed lines vs. full list walk,
//!   pollution-avoiding fills, coherence discards), owns
//!   the hardware free list, and runs the shadowed/pending-list garbage
//!   collector of §III-B.
//! * [`oracle`] — opt-in runtime invariant oracles (lock exclusion, version
//!   monotonicity, GC liveness) the schedule-shaking stress harness checks
//!   across perturbed interleavings.
//!
//! All state that the paper puts "in memory" (version blocks, free-list
//! links) really is in [`osim_mem::PhysMem`]; all state the paper puts in
//! cache metadata (compressed lines, [`osim_mem::CompressedLine`]) lives in
//! real L1 slots managed by [`osim_mem::Hierarchy`].

pub mod manager;
pub mod oracle;
pub mod vblock;

pub use osim_mem::{FaultPlan, Injector, PoolShrink, SpecError};

pub use manager::{
    BlockReason, GcConfig, MvmEvent, MvmEventKind, MvmHists, OManager, OManagerCfg, OStats,
    OpOutcome,
};
pub use oracle::OracleReport;
pub use vblock::VBlock;

/// A version identifier. Under the task-based runtime these are task IDs,
/// so version order mirrors sequential program order (§III-B rule 1).
pub type Version = u32;

/// A task identifier (used in locked-by fields). 0 means "unlocked".
pub type TaskId = u32;
