//! Fleet telemetry primitives for the O-structures simulator.
//!
//! This crate is the dependency-free base of the observability layer:
//!
//! * [`Histogram`] — a fixed-size log-bucketed (HDR-style) latency
//!   histogram with an allocation-free `record()`, lossless bucket-wise
//!   merge, and monotone quantiles. The simulator layers record simulated
//!   cycle durations into these, so the contents are deterministic and
//!   safe to embed in byte-compared reports.
//! * [`Registry`] — labeled counters/gauges/histograms with lossless
//!   merge and a Prometheus-style text exposition writer (the
//!   `--metrics-out` file of `osim-experiments`). Used host-side by the
//!   parallel sweep pool.
//! * [`trace`] — process-global host-thread span collection (disarmed by
//!   default) feeding the `--host-chrome` wall-clock trace export.
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
pub mod trace;

pub use hist::{Histogram, BUCKETS};
pub use registry::{MetricKey, Registry};
pub use trace::{host_trace_arm, host_trace_armed, host_trace_drain, host_trace_span, HostSpan};
