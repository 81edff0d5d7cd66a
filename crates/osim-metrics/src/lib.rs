//! Fleet telemetry primitives for the O-structures simulator.
//!
//! This crate is the dependency-free base of the observability layer:
//!
//! * [`Histogram`] — a fixed-size log-bucketed (HDR-style) latency
//!   histogram with an allocation-free `record()`, lossless bucket-wise
//!   merge, and monotone quantiles. The simulator layers record simulated
//!   cycle durations into these, so the contents are deterministic and
//!   safe to embed in byte-compared reports.
//! * [`Registry`] — labeled counters/gauges/histograms with a sorted
//!   JSON writer. Used host-side by the concurrent store: its `to_json`
//!   is the `metrics` object of `BENCH_ostructs.json`.
//! * [`json`] — the hand-rolled JSON value model, writer, and parser
//!   shared with `osim-report` (which re-exports it; the build
//!   environment has no crates.io access, so serde is unavailable).
//!
//! `osim-engine`, `osim-mem`, `osim-uarch`, and `osim-cpu` all depend on
//! this crate, so it must stay a leaf: no dependencies, no simulated-time
//! types.

pub mod hist;
pub mod json;
pub mod registry;

pub use hist::{Histogram, BUCKETS};
pub use registry::Registry;
