//! `osim-bench`: the named-workload, per-layer benchmark for the
//! O-structures simulator (`osim-*`) and the software store
//! (`ostructs-core`).
//!
//! One run executes one workload of `BENCHMARK.json` in its own process:
//! it cuts a fixed number of measured seconds into epochs, each set up
//! afresh and then measured as a closed loop (the median set-up is
//! reported), checks every output, and prints each metric as
//! `name value unit` followed by a one-line JSON result. Every set-up and
//! every timed unit of work follows a run of a fixed calibration kernel
//! and is scaled to a reference host speed ([`calib`]).
//! An untraced run reports the end-to-end metrics; a traced run keeps
//! spans in memory, runs the per-layer probes, and reports the per-layer
//! metrics with a host-time ledger and per-span self times. Every layer is
//! measured from outside, through the crates' public APIs.

pub mod agree;
pub mod calib;
pub mod probes;
pub mod report;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod store;
pub mod trace;

use std::time::Instant;

use crate::report::Outcome;
use crate::sim::SimKind;
use crate::trace::Tracer;

/// One step of the splitmix64 sequence: the benchmark's input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase in seconds; a simulator run still
    /// completes its ledger window when this is shorter.
    pub seconds: u64,
    pub traced: bool,
    /// Tiny inputs and probe sizes: proves every path runs, measures
    /// nothing.
    pub smoke: bool,
}

/// Runs one workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let kind = match cfg.workload.as_str() {
        "sim-irregular" => Some(SimKind::Irregular),
        "sim-dataflow" => Some(SimKind::Dataflow),
        "sim-unversioned" => Some(SimKind::Unversioned),
        "store-mixed" => None,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let seconds = cfg.seconds as f64;
    // A traced run prints every per-layer metric; the layers its workload
    // does not drive read zero rather than being measured by other work.
    let mut out = match kind {
        Some(kind) => {
            let mut tr = Tracer::new(cfg.traced, epoch, 0, usize::MAX);
            let mut out = sim::run(kind, cfg.seed, seconds, cfg.smoke, &mut tr);
            out.spans = tr.into_spans();
            if cfg.traced {
                store::idle_values(&mut out.values);
            }
            out
        }
        None => {
            let mut out = store::run(cfg.seed, seconds, cfg.smoke, cfg.traced, epoch);
            if cfg.traced {
                sim::idle_values(&mut out.values);
            }
            out
        }
    };
    out.values.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
