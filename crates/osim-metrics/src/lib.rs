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
//!   merge and a Prometheus-style text exposition writer (the scrape
//!   surface served live by `osim-serve`). Used host-side by the
//!   parallel sweep pool.
//! * [`FlightRecorder`] — a background sampler thread that snapshots a
//!   collector-built registry into a fixed-size ring of per-window
//!   deltas; the recording side stays allocation-free.
//! * [`trace`] — process-global host-thread span collection (disarmed by
//!   default) feeding the `--host-chrome` wall-clock trace export.
//! * [`json`] — the hand-rolled JSON value model, writer, and parser
//!   shared with `osim-report` (which re-exports it; the build
//!   environment has no crates.io access, so serde is unavailable).
//!
//! `osim-engine`, `osim-mem`, `osim-uarch`, and `osim-cpu` all depend on
//! this crate, so it must stay a leaf: no dependencies, no simulated-time
//! types.

pub mod flight;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use flight::{Collector, FlightCfg, FlightRecorder, Window};
pub use hist::{Histogram, BUCKETS};
pub use registry::{MetricKey, Registry, Sample};
pub use trace::{host_trace_arm, host_trace_armed, host_trace_drain, host_trace_span, HostSpan};
