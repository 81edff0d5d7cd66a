//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the execution substrate for the O-structures
//! microarchitectural simulator: a single-threaded, time-ordered async
//! executor. Simulated hardware contexts (cores) are ordinary Rust futures
//! that advance simulated time with [`SimHandle::sleep`] and block on shared
//! conditions with [`Gate`]s. The executor always resumes the pending event
//! with the smallest `(time, tie, sequence)` key, so a given program produces
//! an identical event interleaving on every run — the property the paper's
//! deterministic-output claims rest on. By default the tie word equals the
//! sequence number (FIFO ties); [`ShakePolicy::Seeded`] replaces it with a
//! seeded splitmix64 stream that perturbs same-cycle dispatch order while
//! keeping per-seed determinism, which is what the stress harness uses to
//! explore many legal interleavings.
//!
//! The engine deliberately knows nothing about memory, caches or
//! O-structures; those live in `osim-mem`, `osim-uarch` and `osim-cpu`.
//!
//! # Example
//!
//! ```
//! use osim_engine::Sim;
//!
//! let sim = Sim::new();
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.sleep(10).await;
//!     assert_eq!(h.now(), 10);
//! });
//! let end = sim.run().expect("no deadlock");
//! assert_eq!(end, 10);
//! ```

mod executor;
mod gate;
mod time;

pub use executor::{
    splitmix64, BlockedTask, EngineHists, EngineStats, RunError, ShakePolicy, Sim, SimHandle,
    TaskId, WaitInfo,
};
pub use gate::{Gate, WakeOrigin};
pub use time::Cycle;
