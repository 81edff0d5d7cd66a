//! The benchmark's contract, `BENCHMARK.json` at the repository root.
//!
//! The file is embedded at build time and is the one place workload and
//! metric names, units and regression bounds are written down: a run
//! prints exactly the metrics it lists, and `agree` judges medians against
//! its bounds. This module reads only the fields the binary uses; the
//! contract's limits on the file are checked by `tests/spec.rs`.

use osim_metrics::json::{self, Json};

/// `BENCHMARK.json`, as built into this binary.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What the binary reads from the contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn field<'a, T>(v: &'a Json, key: &str, as_t: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    v.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("`{key}` is missing or of the wrong type"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    field(doc, key, Json::as_arr)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name", Json::as_str)?.to_string(),
                unit: field(m, "unit", Json::as_str)?.to_string(),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// The contract built into this binary.
    pub fn embedded() -> Spec {
        match Spec::parse(SPEC_JSON) {
            Ok(spec) => spec,
            Err(e) => panic!("embedded BENCHMARK.json is unreadable: {e}"),
        }
    }

    /// Reads a contract document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let workloads = field(&doc, "workloads", Json::as_arr)?
            .iter()
            .map(|w| field(w, "name", Json::as_str).map(str::to_string))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: field(&doc, "run_seconds", Json::as_u64)?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
