//! `osim-jobq` — reusable deterministic job queue with a content-addressed
//! result cache.
//!
//! Extracted from the sweep worker pool that lived inside
//! `osim-experiments`. Three pieces, layered:
//!
//! * [`key`] — a stable 128-bit content hash ([`KeyBuilder`]/[`CacheKey`])
//!   for naming a unit of work by *everything that determines its output*.
//! * [`store`] — [`TextStore`], a two-tier (memory + one-file-per-entry
//!   disk) blob store with atomic writes, corrupt-entry accounting, and
//!   osim-metrics instrumentation.
//! * [`queue`] — ordered fan-out of [`Job`]s over worker threads
//!   ([`run_jobs`]), per-job/per-worker telemetry, a live progress line,
//!   and transparent cache probing through the [`ResultCache`] trait.
//!
//! The queue knows nothing about simulators or report schemas: results are
//! any `Send` type, cache entries are text, and the mapping between the
//! two is the caller's codec (see `runcache` in `osim-experiments`).

pub mod key;
pub mod queue;
pub mod store;

pub use key::{CacheKey, KeyBuilder};
pub use queue::{
    drain_telemetry, fill_live_registry, no_counters, run_jobs, set_progress, CountersFn, Job,
    JobTiming, Outcome, ResultCache, RunCfg, Telemetry,
};
pub use store::{StoreCounts, TextStore};
