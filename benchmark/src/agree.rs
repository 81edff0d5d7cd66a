//! `agree`: do two sets of result documents measure the same thing?
//!
//! For every workload and end-to-end metric it prints each set's median
//! and quartiles, and fails when the medians differ by more than the
//! metric's bound in `BENCHMARK.json` or when any run failed an output
//! check.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use osim_metrics::json::{self, Json};

use crate::spec::Spec;
use crate::stats::{median, quartiles};

/// Values of one set: workload → metric → one value per untraced run,
/// plus the traced runs' throughput per workload.
#[derive(Debug, Default)]
struct Set {
    runs: usize,
    /// Measured-phase lengths the documents were run with.
    seconds: BTreeSet<u64>,
    failed_runs: Vec<String>,
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    traced_mops: BTreeMap<String, Vec<f64>>,
}

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{}: no `{k}`", path.display()));
        let workload = field("workload")?
            .as_str()
            .ok_or(format!("{}: `workload` is not a string", path.display()))?
            .to_string();
        let traced = field("traced")?.as_bool() == Some(true);
        set.seconds.insert(field("seconds")?.as_u64().ok_or(format!(
            "{}: `seconds` is not a whole number",
            path.display()
        ))?);
        if field("failed")?.as_u64() != Some(0) || field("correct")?.as_bool() != Some(true) {
            set.failed_runs.push(path.display().to_string());
        }
        let metrics = field("metrics")?
            .as_obj()
            .ok_or(format!("{}: `metrics` is not an object", path.display()))?;
        set.runs += 1;
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                return Err(format!("{}: `{name}` has no numeric value", path.display()));
            };
            if traced {
                if name == "trace.mops_per_s" {
                    set.traced_mops.entry(workload.clone()).or_default().push(v);
                }
            } else {
                set.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

fn describe(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    let spread = if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    };
    format!(
        "median {q2:.6} [q1 {q1:.6} q3 {q3:.6}] spread {spread:.2}% n={}",
        values.len()
    )
}

/// Compares the result documents in `a` and `b`. Returns the report and
/// whether the sets agree.
pub fn agree(spec: &Spec, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (sa, sb) = (load(a)?, load(b)?);
    // A run's statistics depend on how many samples it takes, so only
    // runs of one length are comparable.
    let lengths: BTreeSet<u64> = sa.seconds.union(&sb.seconds).copied().collect();
    if lengths.len() > 1 {
        return Err(format!(
            "the documents mix run lengths {lengths:?} s; compare runs of one length"
        ));
    }
    let mut ok = true;
    let mut out = String::new();
    for (label, set) in [("A", &sa), ("B", &sb)] {
        out.push_str(&format!("set {label}: {} result documents\n", set.runs));
        for run in &set.failed_runs {
            ok = false;
            out.push_str(&format!("FAIL {run}: a run failed its output checks\n"));
        }
    }
    let mut workloads: Vec<&String> = sa.values.keys().chain(sb.values.keys()).collect();
    workloads.sort();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no untraced result documents to compare".into());
    }
    for w in workloads {
        for m in &spec.end_to_end {
            let get = |s: &Set| {
                s.values
                    .get(w)
                    .and_then(|ms| ms.get(&m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&sa), get(&sb));
            if va.is_empty() || vb.is_empty() {
                ok = false;
                out.push_str(&format!("FAIL {w} {}: missing from a set\n", m.name));
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let gap = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if gap.abs() <= bound { "ok" } else { "FAIL" };
            if verdict == "FAIL" {
                ok = false;
            }
            out.push_str(&format!(
                "{verdict:4} {w} {} ({}): A {} | B {} | gap {:+.2}% bound {:.1}%\n",
                m.name,
                m.unit,
                describe(&va),
                describe(&vb),
                gap * 100.0,
                bound * 100.0
            ));
        }
        for (label, set) in [("A", &sa), ("B", &sb)] {
            let traced = set.traced_mops.get(w);
            let untraced = set.values.get(w).and_then(|ms| ms.get("mops_per_s"));
            if let (Some(t), Some(u)) = (traced, untraced) {
                let overhead = (1.0 - median(t) / median(u)) * 100.0;
                out.push_str(&format!(
                    "info {w} trace.overhead_pct set {label}: {overhead:.2}% ({} traced runs)\n",
                    t.len()
                ));
            }
        }
    }
    Ok((out, ok))
}
