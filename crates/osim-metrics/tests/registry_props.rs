//! Property tests for `Registry`: merge commutativity for the lossless
//! kinds (counters, histograms) and label-value escaping in the
//! Prometheus exposition.

use osim_metrics::Registry;
use proptest::prelude::*;

/// Builds a registry of counters and histograms from generated specs.
/// Gauges are deliberately excluded: merge overwrites them with the other
/// side's value, so they are documented as order-dependent.
fn lossless_registry(counters: &[(u8, u64)], hist_samples: &[(u8, u64)]) -> Registry {
    let mut reg = Registry::new();
    for (name_idx, n) in counters {
        let name = format!("c{name_idx}_total");
        reg.counter_add(&name, &[("k", "v")], *n);
    }
    for (name_idx, v) in hist_samples {
        let name = format!("h{name_idx}_us");
        reg.hist_record(&name, &[], *v);
    }
    reg
}

proptest! {
    #[test]
    fn merge_is_commutative_for_counters_and_hists(
        ca in proptest::collection::vec((0u8..4, 0u64..1000), 0..8),
        cb in proptest::collection::vec((0u8..4, 0u64..1000), 0..8),
        ha in proptest::collection::vec((0u8..3, 0u64..100_000), 0..8),
        hb in proptest::collection::vec((0u8..3, 0u64..100_000), 0..8),
    ) {
        let a = lossless_registry(&ca, &ha);
        let b = lossless_registry(&cb, &hb);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // The exposition sorts by metric identity, so equal contents
        // render identically regardless of merge order.
        prop_assert_eq!(ab.to_prometheus(), ba.to_prometheus());
        prop_assert_eq!(ab.to_json().to_pretty(), ba.to_json().to_pretty());
    }

    #[test]
    fn merge_is_associative_enough_to_fold_worker_shards(
        ca in proptest::collection::vec((0u8..3, 0u64..500), 0..6),
        cb in proptest::collection::vec((0u8..3, 0u64..500), 0..6),
        cc in proptest::collection::vec((0u8..3, 0u64..500), 0..6),
    ) {
        let a = lossless_registry(&ca, &[]);
        let b = lossless_registry(&cb, &[]);
        let c = lossless_registry(&cc, &[]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.to_prometheus(), right.to_prometheus());
    }

    #[test]
    fn label_values_never_break_the_exposition(
        raw in proptest::collection::vec(
            prop_oneof![
                Just('\n'),
                Just('"'),
                Just('\\'),
                Just('a'),
                Just('Z'),
                Just(' '),
                Just('{'),
                Just('}'),
            ],
            0..12,
        ),
    ) {
        let value: String = raw.into_iter().collect();
        let mut reg = Registry::new();
        reg.counter_add("evil_total", &[("fig", value.as_str())], 1);
        reg.hist_record("evil_us", &[("fig", value.as_str())], 42);
        let text = reg.to_prometheus();
        prop_assert!(text.contains("# TYPE "), "no TYPE comments:\n{}", text);
        for line in text.lines() {
            // Every line must be a comment or `name{labels} value` with a
            // closed label block and a finite value; a raw newline inside
            // a label value would produce a fragment line that satisfies
            // neither.
            let well_formed = line.starts_with("# TYPE ")
                || line
                    .rsplit_once(' ')
                    .map(|(series, val)| {
                        let name_ok = series.starts_with("evil_")
                            && series.contains('{') == series.ends_with('}');
                        let val_ok = val.parse::<f64>().is_ok_and(f64::is_finite);
                        name_ok && val_ok
                    })
                    .unwrap_or(false);
            prop_assert!(well_formed, "malformed exposition line: {line:?}");
            // Inside any label block, quotes and backslashes must be
            // escaped: an unescaped quote would terminate the value early
            // and leave a dangling `"` fragment. Check by unescaping.
            if let Some(open) = line.find('{') {
                let labels = &line[open + 1..line.rfind('}').unwrap_or(line.len())];
                let mut chars = labels.chars();
                let mut in_value = false;
                while let Some(c) = chars.next() {
                    match (in_value, c) {
                        (true, '\\') => {
                            let esc = chars.next();
                            prop_assert!(
                                matches!(esc, Some('\\') | Some('"') | Some('n')),
                                "bad escape in {line:?}"
                            );
                        }
                        (true, '"') => in_value = false,
                        (true, '\n') => prop_assert!(false, "raw newline in {line:?}"),
                        (false, '"') => in_value = true,
                        _ => {}
                    }
                }
                prop_assert!(!in_value, "unterminated label value in {line:?}");
            }
        }
    }

    #[test]
    fn escaped_values_round_trip_to_distinct_series(
        a in prop_oneof![Just("x\ny"), Just("x\"y"), Just("x\\y"), Just("plain")],
        b in prop_oneof![Just("x\ny"), Just("x\"y"), Just("x\\y"), Just("plain")],
    ) {
        let mut reg = Registry::new();
        reg.counter_add("series_total", &[("v", a)], 1);
        reg.counter_add("series_total", &[("v", b)], 1);
        let text = reg.to_prometheus();
        let sample_lines = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .count();
        // Distinct raw values must stay distinct series after escaping
        // (escaping must be injective), and identical values must
        // accumulate into one.
        let expect = if a == b { 1 } else { 2 };
        prop_assert_eq!(sample_lines, expect, "exposition:\n{}", text);
    }
}
