//! Simulated multicore machine for the O-structures evaluation.
//!
//! This crate assembles the pieces: `osim-engine` provides deterministic
//! simulated time, `osim-mem` the cache hierarchy and `osim-uarch` the
//! O-structure manager. On top of those it models:
//!
//! * [`machine::Machine`] — one simulated machine per the paper's Table II:
//!   N two-way in-order cores at 2 GHz, each with an L1, sharing an L2 and
//!   DRAM, plus the O-structure manager and its free list.
//! * [`ctx::TaskCtx`] — the instruction interface a workload task programs
//!   against: `work` (instruction accounting), conventional `load`/`store`/
//!   `cas`, the six O-structure operations (blocking flavours retry on a
//!   per-structure [`osim_engine::Gate`]), `TASK-BEGIN`/`TASK-END`, and the
//!   runtime allocator services.
//! * [`runtime`] — the paper's software task scheduler: static assignment
//!   of a sequential task list onto cores (§IV-A).
//! * [`rwlock`] — a conventional-memory reader–writer lock built on
//!   simulated CAS, the baseline of the snapshot-isolation comparison
//!   (Figure 8).
//!
//! Workloads are `async` Rust functions; each memory operation suspends the
//! issuing core for exactly the modeled latency, so the final simulated
//! cycle counts play the role of the paper's gem5 measurements.

pub mod alloc;
pub mod capture;
pub mod ctx;
pub mod error;
pub mod machine;
pub mod runtime;
pub mod rwlock;
pub mod stats;
pub mod trace;

pub use capture::DepEdge;
pub use ctx::TaskCtx;
pub use error::{BlameEntry, DeadlockReport, SimError, TaskFault, WaitClass, WatchdogReport};
pub use machine::{Machine, MachineCfg, MachineState, PhaseReport};
pub use osim_engine::{EngineHists, EngineStats, ShakePolicy};
pub use runtime::{task, TaskFn};
pub use rwlock::SimRwLock;
pub use stats::{CoreStats, CpuStats, RunHists, StallCause};
pub use trace::{OpKind, TraceRecord, TraceSummary};
