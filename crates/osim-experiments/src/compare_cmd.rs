//! The `compare` subcommand: cross-run regression attribution.
//!
//! Loads two report files (a single [`SimReport`] object or the JSON
//! array `--json` writes), pairs runs by `(experiment, benchmark,
//! variant)`, and prints one ranked attribution block per pair. With
//! `--json <path>` the structural diffs are also written as one
//! `osim-compare-v1` document.

use std::fs;

use osim_metrics::json::{obj, Json};
use osim_report::{compare, load_reports, ReportDiff, SimReport};

/// Loads every report in `path` (object or array form) through the shared
/// hardened loader — corrupt or truncated files exit 2 with a typed
/// message instead of panicking.
fn load(path: &str) -> Vec<SimReport> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match load_reports(&text) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    }
}

fn key(r: &SimReport) -> (String, String, String) {
    (r.experiment.clone(), r.benchmark.clone(), r.variant.clone())
}

/// Runs the subcommand. Returns the process exit code: 0 on a clean
/// zero-delta comparison, 1 when any pair differs (so CI can assert
/// byte-level equivalence without parsing the output), 2 on usage errors.
pub fn run(path_a: &str, path_b: &str, json_out: Option<&str>) -> i32 {
    let a = load(path_a);
    let b = load(path_b);
    let mut diffs: Vec<ReportDiff> = Vec::new();
    let mut matched_b = vec![false; b.len()];
    let mut unmatched_a: Vec<String> = Vec::new();
    for ra in &a {
        let ka = key(ra);
        match b
            .iter()
            .enumerate()
            .find(|(j, rb)| !matched_b[*j] && key(rb) == ka)
        {
            Some((j, rb)) => {
                matched_b[j] = true;
                diffs.push(compare(ra, rb));
            }
            None => unmatched_a.push(format!("{}/{}/{}", ka.0, ka.1, ka.2)),
        }
    }
    let unmatched_b: Vec<String> = b
        .iter()
        .zip(&matched_b)
        .filter(|(_, m)| !**m)
        .map(|(r, _)| format!("{}/{}/{}", r.experiment, r.benchmark, r.variant))
        .collect();

    let zero =
        diffs.iter().all(ReportDiff::is_zero) && unmatched_a.is_empty() && unmatched_b.is_empty();
    println!(
        "compared {} run pair(s): {}",
        diffs.len(),
        if zero { "identical" } else { "deltas found" }
    );
    for d in &diffs {
        print!("{}", d.render_text());
    }
    for k in &unmatched_a {
        println!("only in {path_a}: {k}");
    }
    for k in &unmatched_b {
        println!("only in {path_b}: {k}");
    }

    if let Some(path) = json_out {
        let doc = obj(vec![
            ("schema", Json::Str("osim-compare-v1".to_string())),
            ("a", Json::Str(path_a.to_string())),
            ("b", Json::Str(path_b.to_string())),
            (
                "pairs",
                Json::Arr(diffs.iter().map(ReportDiff::to_json).collect()),
            ),
            (
                "unmatched_a",
                Json::Arr(unmatched_a.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "unmatched_b",
                Json::Arr(unmatched_b.iter().cloned().map(Json::Str).collect()),
            ),
            ("zero", Json::Bool(zero)),
        ]);
        if let Err(e) = fs::write(path, doc.to_pretty()) {
            eprintln!("cannot write --json output {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote comparison of {} pair(s) to {path}", diffs.len());
    }
    i32::from(!zero)
}
