//! Serializable run reports and trace exporters for the O-structures
//! simulator.
//!
//! This crate sits above the cpu/mem/uarch layers and below the
//! experiment drivers. It provides:
//!
//! * [`json`] — a small self-contained JSON value model, writer, and
//!   parser (the build environment has no registry access, so serde is
//!   unavailable);
//! * [`SimReport`] — one simulation run's configuration, scale, and the
//!   full stats snapshot from every layer, convertible to/from JSON;
//! * [`chrome`] — a Chrome trace-event (Perfetto-loadable) exporter for
//!   the cross-layer event logs.

pub mod chrome;
pub mod compare;
pub mod critpath;
pub mod json;
mod report;

pub use chrome::chrome_trace;
pub use compare::{compare, Attribution, CounterDelta, HistDelta, ReportDiff};
pub use critpath::{Contender, CoreWait, CritPath, Segment};
pub use report::{
    load_reports, ReportScale, SimReport, TraceCounts, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
