//! End-to-end checks of the experiment driver's machine-readable outputs:
//! the `--json` SimReport array, the `--chrome` trace-event document and
//! the `--sweep-json` telemetry.

use std::path::PathBuf;
use std::process::Command;

use osim_metrics::json::{parse, Json};
use osim_report::SimReport;

fn out_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osim_cli_{name}_{}", std::process::id()))
}

fn run_bin(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args(args)
        .output()
        .expect("spawn osim-experiments");
    assert!(
        out.status.success(),
        "osim-experiments {args:?} failed ({:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fig6_json_is_a_valid_simreport_array() {
    let path = out_path("fig6.json");
    run_bin(&["fig6", "--tiny", "--json", path.to_str().unwrap()]);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let doc = parse(&text).expect("valid JSON");
    let rows = doc.as_arr().expect("top-level array");
    assert!(!rows.is_empty());
    let mut variants = Vec::new();
    for row in rows {
        let r = SimReport::from_json(row).expect("schema-conforming report");
        r.validate().expect("internally consistent report");
        assert_eq!(r.experiment, "fig6");
        assert!(r.cycles > 0);
        variants.push(r.variant);
    }
    // Both sides of every speedup cell are present.
    assert!(variants.iter().any(|v| v.starts_with("versioned")));
    assert!(variants.iter().any(|v| v.starts_with("unversioned")));
}

#[test]
fn trace_chrome_export_is_loadable() {
    let json = out_path("trace.json");
    let chrome = out_path("trace_chrome.json");
    run_bin(&[
        "trace",
        "--tiny",
        "--json",
        json.to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    let report_text = std::fs::read_to_string(&json).unwrap();
    let chrome_text = std::fs::read_to_string(&chrome).unwrap();
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&chrome).ok();

    // The report records the capture-buffer occupancy.
    let rows = parse(&report_text).unwrap();
    let r = SimReport::from_json(&rows.as_arr().unwrap()[0]).unwrap();
    let counts = r.trace.expect("traced run reports its buffers");
    assert!(counts.records > 0);
    assert!(counts.mem_events > 0);
    assert!(counts.mvm_events > 0);

    // The Chrome document has the trace-event shape.
    let doc = parse(&chrome_text).expect("valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("pid").and_then(Json::as_u64).is_some(), "pid");
        assert!(e.get("tid").and_then(Json::as_u64).is_some(), "tid");
        if ph != "M" {
            assert!(e.get("ts").and_then(Json::as_u64).is_some(), "ts");
        }
        phases.push(ph.to_string());
    }
    // Metadata, spans, and instants all appear.
    assert!(phases.iter().any(|p| p == "M"));
    assert!(phases.iter().any(|p| p == "X"));
    assert!(phases.iter().any(|p| p == "i"));
    // The record count in the report matches the op spans on the core
    // tracks (task spans are also "X" but live on pid 1).
    let op_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("pid").and_then(Json::as_u64) == Some(0)
        })
        .count() as u64;
    assert_eq!(op_spans, counts.records);
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["config", "--scheduler", "heap", "--jbos", "4"],
            "--scheduler",
        ),
        (&["config", "--tiny", "--bogus"], "--bogus"),
        (&["fig6", "--tiny", "extra"], "extra"),
        // Retired run-cache surface: each names what it no longer knows
        // instead of running uncached. `cache` is no command, so its
        // action is a stray argument.
        (&["all", "--tiny", "--cache", "d"], "--cache"),
        (&["perf", "--cache-bench"], "--cache-bench"),
        (&["cache", "stats"], "stats"),
        // Retired host-side views: `--sweep-json` is the one document.
        (&["all", "--tiny", "--metrics-out", "x"], "--metrics-out"),
        (&["all", "--tiny", "--host-chrome", "x"], "--host-chrome"),
        // Retired interval sampler: analyze captures dependency edges only.
        (
            &["analyze", "--tiny", "--sample-every", "512"],
            "--sample-every",
        ),
    ];
    for (args, culprit) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
            .args(args)
            .output()
            .expect("spawn osim-experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains(culprit),
            "{args:?} must name {culprit}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    // Every known flag is still accepted.
    run_bin(&["config", "--tiny", "--stats", "--jobs", "1"]);
}

#[test]
fn stress_writes_its_sweep_json() {
    let path = out_path("stress_sweep.json");
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args([
            "stress",
            "--seeds",
            "1",
            "--tiny",
            "--fig",
            "gc",
            "--sweep-json",
        ])
        .arg(&path)
        .output()
        .expect("spawn osim-experiments");
    assert!(out.status.success(), "stress failed: {:?}", out.status);
    // "stress: 1 figure(s), 1 seed(s), <N> runs, ..."
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runs: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stress: "))
        .and_then(|l| l.split(", ").find_map(|f| f.strip_suffix(" runs")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no run count in stdout:\n{stdout}"));
    let text = std::fs::read_to_string(&path).expect("--sweep-json written");
    std::fs::remove_file(&path).ok();
    let doc = parse(&text).expect("valid JSON");
    assert!(runs > 0);
    assert_eq!(doc.get("job_count").and_then(Json::as_u64), Some(runs));
}

#[test]
fn host_telemetry_leaves_stdout_byte_identical() {
    let sweep = out_path("fig6_sweep.json");
    let run = |tag: &str, extra: &[&std::ffi::OsStr]| -> (Vec<u8>, String) {
        let json = out_path(&format!("fig6_{tag}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
            .args(["fig6", "--stats", "--scale", "tiny", "--jobs", "1"])
            .arg("--json")
            .arg(&json)
            .args(extra)
            .output()
            .expect("spawn osim-experiments");
        assert!(out.status.success(), "fig6 failed: {:?}", out.status);
        let reports = std::fs::read_to_string(&json).expect("--json written");
        std::fs::remove_file(&json).ok();
        (out.stdout, reports)
    };
    let plain = run("plain", &[]);
    let armed = run(
        "armed",
        &[
            "--sweep-json".as_ref(),
            sweep.as_os_str(),
            "--progress".as_ref(),
        ],
    );
    let text = std::fs::read_to_string(&sweep).expect("--sweep-json written");
    std::fs::remove_file(&sweep).ok();
    assert_eq!(
        plain.0, armed.0,
        "stdout must not change with host telemetry"
    );
    assert_eq!(
        plain.1, armed.1,
        "--json must not change with host telemetry"
    );
    let doc = parse(&text).expect("valid JSON");
    let jobs = doc.get("job_count").and_then(Json::as_u64);
    assert!(jobs.is_some_and(|n| n > 0), "job_count {jobs:?}");
}
