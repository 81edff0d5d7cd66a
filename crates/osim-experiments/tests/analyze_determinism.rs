//! End-to-end check on the `analyze` command: its causal report is
//! deterministic — byte-identical stdout and `--json` documents across
//! `--jobs` worker counts — and the emitted current-schema document
//! satisfies the critical-path invariants (non-empty path on the
//! contended figure workloads, segment cycles summing exactly to the path
//! length, path no longer than the run).

use std::path::PathBuf;
use std::process::Command;

use osim_metrics::json::{parse, Json};
use osim_report::{SimReport, SCHEMA_VERSION};

/// Runs `analyze --tiny` with the given extra flags, returning
/// (stdout bytes, `--json` bytes).
fn analyze(extra: &[&str], tag: &str) -> (Vec<u8>, Vec<u8>) {
    let json_path: PathBuf =
        std::env::temp_dir().join(format!("osim-analyze-eq-{}-{tag}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args(["analyze", "--tiny", "--json"])
        .arg(&json_path)
        .args(extra)
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(&json_path).expect("--json file written");
    let _ = std::fs::remove_file(&json_path);
    (out.stdout, json)
}

#[test]
fn analyze_output_is_byte_identical_across_jobs() {
    let (stdout_serial, json_serial) = analyze(&["--jobs", "1"], "jobs1");
    let (stdout_par, json_par) = analyze(&["--jobs", "4"], "jobs4");
    assert_eq!(
        stdout_serial, stdout_par,
        "analyze stdout diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        json_serial, json_par,
        "analyze --json diverged between --jobs 1 and --jobs 4"
    );
    assert!(!json_serial.is_empty(), "--json produced no reports");
}

#[test]
fn analyze_json_is_current_schema_and_satisfies_path_invariants() {
    let (_, json) = analyze(&["--jobs", "2", "--fig", "7"], "shape");
    let doc = parse(&String::from_utf8(json).expect("utf-8 json")).expect("well-formed json");
    let arr = doc.as_arr().expect("top level is a report array");
    assert!(!arr.is_empty(), "analyze emitted no reports");
    let mut contended = 0usize;
    for j in arr {
        assert_eq!(
            j.get("schema").and_then(Json::as_u64),
            Some(SCHEMA_VERSION),
            "analyze reports must carry the current schema"
        );
        let r = SimReport::from_json(j).expect("report round-trips");
        let cp = r.critpath.as_ref().expect("analyze always attaches a path");
        cp.validate().expect("segment tiling invariants");
        assert!(
            cp.length() <= r.cycles,
            "{}: path {} exceeds run cycles {}",
            r.benchmark,
            cp.length(),
            r.cycles
        );
        assert_eq!(
            cp.segments.iter().map(|s| s.cycles()).sum::<u64>(),
            cp.length(),
            "{}: segment cycles must sum to the path length",
            r.benchmark
        );
        let trace = r.trace.expect("analyze records capture-ring occupancy");
        if !cp.is_empty() {
            contended += 1;
            assert!(
                trace.dep_edges > 0,
                "{}: a non-empty path implies captured edges",
                r.benchmark
            );
            assert!(
                !cp.contenders.is_empty(),
                "{}: non-empty path but no contenders",
                r.benchmark
            );
        }
    }
    assert!(
        contended >= 1,
        "at least one fig7 workload must show a dependency critical path"
    );
}
