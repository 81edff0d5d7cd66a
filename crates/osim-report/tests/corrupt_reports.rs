//! Regression tests for the hardened report reader: mutated copies of the
//! committed schema-v6 fixture — truncations, byte flips, type swaps,
//! hostile nesting — must every one produce a typed error from
//! [`load_reports`], never a panic, while the pristine fixture (and its
//! array form) keeps loading.

use proptest::prelude::*;

use osim_report::{load_reports, SimReport};

const FIXTURE: &str = include_str!("fixtures/report_v6.json");

#[test]
fn pristine_fixture_loads_in_object_and_array_form() {
    let single = load_reports(FIXTURE).expect("committed fixture must load");
    assert_eq!(single.len(), 1);
    assert_eq!(single[0].experiment, "fig7");
    single[0].validate().expect("fixture validates");

    let arr = format!("[{FIXTURE},{FIXTURE}]");
    let both = load_reports(&arr).expect("array form must load");
    assert_eq!(both.len(), 2);
    assert_eq!(both[0].cycles, both[1].cycles);
}

#[test]
fn every_truncation_is_a_typed_error() {
    // A report cut off at any byte — a partial download, a full disk — is
    // never a valid document (or decodes to a non-report), so the loader
    // must return Err on all of them. Step 7 keeps the test fast while
    // still sampling every region of the document.
    for cut in (1..FIXTURE.len()).step_by(7) {
        if !FIXTURE.is_char_boundary(cut) {
            continue;
        }
        let truncated = &FIXTURE[..cut];
        assert!(
            load_reports(truncated).is_err(),
            "truncation at byte {cut} was accepted"
        );
    }
}

#[test]
fn structural_corruptions_are_typed_errors() {
    let cases: Vec<(&str, String)> = vec![
        ("empty file", String::new()),
        ("whitespace only", "  \n\t ".to_string()),
        ("not json at all", "####".to_string()),
        ("wrong document type", "42".to_string()),
        ("array of non-reports", "[1, 2, 3]".to_string()),
        (
            "object but not a report",
            r#"{"hello": "world"}"#.to_string(),
        ),
        (
            "schema field removed",
            FIXTURE.replacen("\"schema\": 6,", "", 1),
        ),
        (
            "schema from the future",
            FIXTURE.replacen("\"schema\": 6,", "\"schema\": 9999,", 1),
        ),
        (
            "cycles turned into a string",
            FIXTURE.replacen("\"cycles\": 66684,", "\"cycles\": \"many\",", 1),
        ),
        ("trailing garbage", format!("{FIXTURE} trailing")),
        ("second array element corrupt", format!("[{FIXTURE},{{}}]")),
        ("hostile nesting bomb", "[".repeat(1 << 17)),
    ];
    for (what, text) in cases {
        let got = load_reports(&text);
        assert!(got.is_err(), "{what}: corrupt input was accepted");
    }
    // The per-element error names the offending element.
    let err = load_reports(&format!("[{FIXTURE},{{}}]")).unwrap_err();
    assert!(err.contains("element 1"), "unhelpful error: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Single-byte flips anywhere in the fixture either still parse (the
    /// flip landed in a string/number and produced a different but
    /// well-formed report) or fail with a typed error. Nothing panics.
    #[test]
    fn byte_flips_never_panic(pos in 0usize..6000, bit in 0u8..8) {
        let mut bytes = FIXTURE.as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(reports) = load_reports(&text) {
            // Whatever survived must still be a structurally whole report.
            prop_assert_eq!(reports.len(), 1);
        }
    }

    /// Random splices (delete a span, duplicate a span) never panic.
    #[test]
    fn random_splices_never_panic(start in 0usize..6000, len in 1usize..512, dup in any::<bool>()) {
        let bytes = FIXTURE.as_bytes();
        let start = start % bytes.len();
        let end = (start + len).min(bytes.len());
        let mutated: Vec<u8> = if dup {
            [&bytes[..end], &bytes[start..]].concat()
        } else {
            [&bytes[..start], &bytes[end..]].concat()
        };
        let text = String::from_utf8_lossy(&mutated);
        let _ = load_reports(&text);
    }
}

#[test]
fn loaded_fixture_round_trips_through_current_schema() {
    let reports = load_reports(FIXTURE).expect("fixture loads");
    let rendered = reports[0].to_json().to_pretty();
    // The fixture is what the writer emits today, byte for byte.
    assert_eq!(rendered, FIXTURE);
    let back: Vec<SimReport> = load_reports(&rendered).expect("re-rendered report loads");
    assert_eq!(back[0].cycles, reports[0].cycles);
    assert_eq!(back[0].experiment, reports[0].experiment);
    assert_eq!(back[0].hists, reports[0].hists);
    back[0].validate().expect("re-rendered report validates");
}
