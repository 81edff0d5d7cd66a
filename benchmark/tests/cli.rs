//! The command line end to end: smoke runs of every workload print every
//! named metric, and `agree` judges result sets.

use std::path::PathBuf;
use std::process::Command;

use osim_bench::spec::Spec;
use osim_metrics::json::{self, Json};

fn osim_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_osim-bench"))
        .args(args)
        .output()
        .expect("spawn osim-bench")
}

/// An empty directory under the build's target directory.
fn empty_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn smoke_run_of_every_workload_prints_every_named_metric() {
    let spec = Spec::embedded();
    for w in &spec.workloads {
        for traced in [false, true] {
            let out = osim_bench(&[
                "run",
                "--workload",
                w,
                "--seed",
                "7",
                "--trace",
                if traced { "1" } else { "0" },
                "--smoke",
            ]);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(
                out.status.success(),
                "{w} traced={traced}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("output");
            let doc = json::parse(last).expect("last line is JSON");
            let keys: Vec<&str> = doc
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
            let named = spec.metrics(traced);
            assert_eq!(metrics.len(), named.len(), "{w} traced={traced}");
            for m in named {
                let got = doc.get("metrics").and_then(|ms| ms.get(&m.name));
                let value = got.and_then(|g| g.get("value")).and_then(Json::as_f64);
                assert!(value.is_some(), "{w}: no value for {}", m.name);
                assert_eq!(
                    got.and_then(|g| g.get("unit")).and_then(Json::as_str),
                    Some(m.unit.as_str())
                );
                let line = format!("{} {} {}", m.name, value.unwrap(), m.unit);
                assert!(
                    stdout.lines().any(|l| l.starts_with(&line)),
                    "{w}: no `{line}` line"
                );
            }
        }
    }
}

#[test]
fn traced_run_writes_a_chrome_trace() {
    let dir = empty_dir("chrome");
    let path = dir.join("trace.json");
    let out = osim_bench(&[
        "run",
        "--workload",
        "sim-dataflow",
        "--seed",
        "3",
        "--trace",
        "1",
        "--smoke",
        "--chrome",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success());
    let doc = json::parse(&std::fs::read_to_string(&path).expect("trace written"))
        .expect("trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for want in ["step", "job", "sim.run", "probe.engine_event"] {
        assert!(names.contains(&want), "no `{want}` span");
    }
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for layer in ["engine", "mem", "uarch", "workloads", "cpu.residual"] {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("ledger {layer}"))),
            "ledger lacks {layer}"
        );
    }
}

#[test]
fn bad_invocations_exit_2() {
    for args in [
        &["run", "--seed", "1"][..],
        &["run", "--workload", "nope", "--seed", "1"],
        &["run", "--workload", "sim-dataflow", "--seed", "x"],
        &[
            "run",
            "--workload",
            "sim-dataflow",
            "--seed",
            "1",
            "--trace",
            "2",
        ],
        &["frobnicate"],
    ] {
        let out = osim_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn result_doc(seconds: u64, failed: u64, mops: f64) -> String {
    format!(
        r#"{{"workload": "sim-dataflow", "seed": 1, "seconds": {seconds}, "traced": false, "correct": {}, "attempted": 10, "failed": {failed},
            "metrics": {{"mops_per_s": {{"value": {mops}, "unit": "Mop/s"}},
                         "peak_rss_mb": {{"value": 20.0, "unit": "MB"}},
                         "setup_s": {{"value": 0.5, "unit": "s"}}}}}}"#,
        failed == 0
    )
}

fn write_set(name: &str, seconds: u64, docs: &[(u64, f64)]) -> PathBuf {
    let dir = empty_dir(name);
    for (i, &(failed, mops)) in docs.iter().enumerate() {
        std::fs::write(
            dir.join(format!("r{i}.json")),
            result_doc(seconds, failed, mops),
        )
        .expect("write result");
    }
    dir
}

#[test]
fn agree_passes_close_sets_and_fails_gaps_and_failures() {
    let a = write_set("agree-a", 20, &[(0, 10.0), (0, 10.2), (0, 9.9)]);
    let close = write_set("agree-close", 20, &[(0, 10.1), (0, 10.0), (0, 10.3)]);
    let far = write_set("agree-far", 20, &[(0, 15.0), (0, 15.1), (0, 14.9)]);
    let failing = write_set("agree-failing", 20, &[(0, 10.1), (1, 10.0), (0, 10.3)]);
    let shorter = write_set("agree-shorter", 5, &[(0, 10.1), (0, 10.0), (0, 10.3)]);
    let code = |b: &PathBuf| {
        osim_bench(&["agree", a.to_str().unwrap(), b.to_str().unwrap()])
            .status
            .code()
    };
    assert_eq!(code(&close), Some(0));
    assert_eq!(
        code(&far),
        Some(1),
        "a 50% throughput gap exceeds the bound"
    );
    assert_eq!(code(&failing), Some(1), "a failed run never agrees");
    assert_eq!(
        code(&shorter),
        Some(2),
        "runs of another length compare nothing"
    );
}
