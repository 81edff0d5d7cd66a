//! Serializable run reports and trace exporters for the O-structures
//! simulator.
//!
//! This crate sits above the cpu/mem/uarch layers and below the
//! experiment drivers. It provides:
//!
//! * [`SimReport`] — one simulation run's configuration, scale, and the
//!   full stats snapshot from every layer, convertible to/from JSON;
//! * [`chrome`] — a Chrome trace-event (Perfetto-loadable) exporter for
//!   the cross-layer event logs.

pub mod chrome;
pub mod compare;
pub mod critpath;
mod report;

pub use chrome::chrome_trace;
pub use compare::{compare, Attribution, CounterDelta, HistDelta, ReportDiff};
pub use critpath::{Contender, CoreWait, CritPath, Segment};
pub use report::{load_reports, ReportScale, SimReport, TraceCounts, SCHEMA_VERSION};
