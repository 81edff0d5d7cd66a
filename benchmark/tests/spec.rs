//! `BENCHMARK.json` obeys the benchmark contract. The contract's limits
//! live here and only here; the binary reads the file without judging it.

use osim_bench::spec::{Spec, SPEC_JSON};
use osim_metrics::json::{self, Json};

/// A workload or metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// A unit: 1–16 of `[A-Za-z0-9_/%.-]`.
fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn keys(v: &Json) -> Vec<&str> {
    let mut k: Vec<&str> = v
        .as_obj()
        .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    k.sort_unstable();
    k
}

fn list<'a>(doc: &'a Json, key: &str, min: usize, max: usize, bad: &mut Vec<String>) -> &'a [Json] {
    let items = doc.get(key).and_then(Json::as_arr).unwrap_or_default();
    if !(min..=max).contains(&items.len()) {
        bad.push(format!(
            "`{key}` has {} entries, not {min} to {max}",
            items.len()
        ));
    }
    items
}

fn strings(v: Option<&Json>) -> Vec<&str> {
    v.and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|s| s.as_str().unwrap_or(""))
        .collect()
}

/// Every way `text` breaks the contract, or nothing.
fn violations(text: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if text.len() > 64 * 1024 {
        bad.push("file over 64 KiB".into());
    }
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![e.to_string()],
    };
    let want = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    if keys(&doc) != want {
        bad.push(format!("top-level keys {:?}", keys(&doc)));
    }

    let command = strings(doc.get("command"));
    if command.is_empty() || command.len() > 32 {
        bad.push("`command` needs 1 to 32 strings".into());
    }
    let paths = strings(doc.get("paths"));
    if paths.is_empty() || paths.len() > 16 {
        bad.push("`paths` needs 1 to 16 entries".into());
    }
    for p in &paths {
        let chars_ok = p
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-/".contains(&b));
        if p.is_empty() || p.len() > 200 || !chars_ok || p.starts_with('/') || p.contains("..") {
            bad.push(format!("bad path `{p}`"));
        }
    }
    for arg in &command {
        if arg.is_empty() || arg.len() > 200 || arg.starts_with('/') || arg.contains("..") {
            bad.push(format!("bad command argument `{arg}`"));
        }
        // A repository file named on the command line lies under `paths`.
        let names_file = arg.contains('/') && !arg.starts_with('-');
        if names_file && !paths.iter().any(|p| arg.starts_with(&format!("{p}/"))) {
            bad.push(format!("command names `{arg}` outside `paths`"));
        }
    }
    if !doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .is_some_and(|s| (1..=60).contains(&s))
    {
        bad.push("`run_seconds` is not a whole number from 1 to 60".into());
    }

    let mut names = Vec::new();
    for w in list(&doc, "workloads", 2, 8, &mut bad) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("");
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if keys(w) != ["name", "why"] {
            bad.push(format!("workload `{name}` has keys {:?}", keys(w)));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            bad.push(format!("{name}: `why` is not one line of 1-200 characters"));
        }
        names.push(name);
    }
    let mut bounds = Vec::new();
    for (key, min, max, with_bound) in [("end_to_end", 1, 16, true), ("per_layer", 1, 128, false)] {
        let want: &[&str] = if with_bound {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        for m in list(&doc, key, min, max, &mut bad) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let better = m.get("better").and_then(Json::as_str).unwrap_or("");
            if keys(m) != want {
                bad.push(format!("{name}: keys {:?}", keys(m)));
            }
            if !valid_unit(unit) {
                bad.push(format!("{name}: bad unit `{unit}`"));
            }
            if better != "higher" && better != "lower" {
                bad.push(format!("{name}: `better` is `{better}`"));
            }
            if with_bound {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0);
                if !(0.0..=0.25).contains(&bound) {
                    bad.push(format!("{name}: bound {bound} outside [0, 0.25]"));
                }
                bounds.push((name, unit, better, bound));
            }
            names.push(name);
        }
    }
    for name in &names {
        if !valid_name(name) {
            bad.push(format!("bad name `{name}`"));
        }
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    if unique.len() != names.len() {
        bad.push("a name is used more than once".into());
    }
    let widest = bounds.iter().map(|b| b.3).fold(0.0, f64::max);
    match bounds.iter().find(|b| b.0 == "setup_s") {
        Some(&(_, "s", "lower", bound)) if bound == widest => {}
        _ => bad.push("`setup_s` (s, lower, the largest bound) is missing".into()),
    }
    bad
}

#[test]
fn benchmark_json_meets_the_contract() {
    assert_eq!(violations(SPEC_JSON), Vec::<String>::new());
    let spec = Spec::embedded();
    assert_eq!(spec.workloads.len(), 4);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn name_rule() {
    for ok in ["sim-irregular", "engine.ns_per_event", "a", "0x"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", ".x", "-x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
}

#[test]
fn contract_breaches_are_caught() {
    let cases = [
        ("\"name\": \"mops_per_s\"", "\"name\": \"mops per s\""),
        ("\"name\": \"mops_per_s\"", "\"name\": \"setup_s\""),
        ("\"unit\": \"Mop/s\"", "\"unit\": \"Mop per s\""),
        ("\"better\": \"higher\"", "\"better\": \"up\""),
        ("\"bound\": 0.1", "\"bound\": 0.3"),
        ("\"run_seconds\": 20", "\"run_seconds\": 0"),
        ("\"name\": \"setup_s\"", "\"name\": \"setup\""),
        (
            "\"paths\": [\"benchmark\"]",
            "\"paths\": [\"../benchmark\"]",
        ),
        ("\"why\": \"", "\"why\": \"line\\n"),
        (
            "\"unit\": \"ratio\", \"better\": \"lower\"}",
            "\"unit\": \"ratio\"}",
        ),
    ];
    for (from, to) in cases {
        assert!(
            SPEC_JSON.contains(from),
            "fixture `{from}` not in BENCHMARK.json"
        );
        let broken = SPEC_JSON.replacen(from, to, 1);
        assert!(!violations(&broken).is_empty(), "accepted `{to}`");
    }
}
