//! Property tests for the histogram invariants the compare tooling
//! relies on: merge commutes and conserves counts, quantiles stay
//! monotone and inside the recorded range, JSON round-trips, and a
//! batched `record_n` is indistinguishable from repeated `record`s.

use osim_metrics::Histogram;
use proptest::prelude::*;

fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 16u64..4096, 1u64 << 20..1 << 44, Just(u64::MAX),]
}

proptest! {
    #[test]
    fn merge_commutes_and_conserves_count(
        xs in proptest::collection::vec(sample(), 0..64),
        ys in proptest::collection::vec(sample(), 0..64),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &xs { a.record(v); }
        for &v in &ys { b.record(v); }

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (xs.len() + ys.len()) as u64);

        // Merge equals recording the concatenation directly.
        let mut all = Histogram::new();
        for &v in xs.iter().chain(ys.iter()) { all.record(v); }
        prop_assert_eq!(&ab, &all);
    }

    #[test]
    fn quantiles_monotone_and_bounded(xs in proptest::collection::vec(sample(), 1..128)) {
        let mut h = Histogram::new();
        for &v in &xs { h.record(v); }
        let lo = *xs.iter().min().unwrap();
        let hi = *xs.iter().max().unwrap();
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        let mut prev = 0u64;
        for i in 0..=16 {
            let q = h.quantile(i as f64 / 16.0);
            prop_assert!(q >= prev, "quantile dipped: {} < {}", q, prev);
            prop_assert!(q >= lo && q <= hi, "quantile {} outside [{}, {}]", q, lo, hi);
            prev = q;
        }
    }

    #[test]
    fn bucket_value_within_relative_error(v in 16u64..(1 << 38)) {
        let mut h = Histogram::new();
        h.record(v);
        // A single sample's p100 equals the exact value (clamped to max),
        // and its bucket bounds contain it with <= 12.5% width.
        prop_assert_eq!(h.quantile(1.0), v);
        prop_assert_eq!(h.count(), 1);
    }

    #[test]
    // Bounded samples: the JSON writer (like the rest of the report
    // stack) carries integers as f64 and clamps sums at 2^53.
    fn json_round_trips(xs in proptest::collection::vec(0u64..(1 << 44), 0..64)) {
        let mut h = Histogram::new();
        for &v in &xs { h.record(v); }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        prop_assert_eq!(back, h);
    }

    #[test]
    fn record_n_equals_n_records(
        xs in proptest::collection::vec(sample(), 0..16),
        v in sample(),
        n in 0u64..300,
    ) {
        let mut batched = Histogram::new();
        for &x in &xs { batched.record(x); }
        let mut single = batched.clone();
        batched.record_n(v, n);
        for _ in 0..n { single.record(v); }
        prop_assert_eq!(batched.count(), single.count());
        prop_assert_eq!(batched.sum(), single.sum());
        prop_assert_eq!(batched.min(), single.min());
        prop_assert_eq!(batched.max(), single.max());
        prop_assert!(batched.nonzero_buckets().eq(single.nonzero_buckets()));
        // The JSON writer carries integers as f64 and refuses a max beyond
        // 2^53 (its sum is clamped there).
        if single.max() < 1 << 53 {
            prop_assert_eq!(batched.to_json().to_compact(), single.to_json().to_compact());
        }
        prop_assert_eq!(&batched, &single);
    }
}

#[test]
fn record_n_saturates_the_sum_like_repeated_records() {
    let mut batched = Histogram::new();
    batched.record_n(u64::MAX / 2, 3);
    let mut single = Histogram::new();
    for _ in 0..3 {
        single.record(u64::MAX / 2);
    }
    assert_eq!(batched.sum(), u64::MAX);
    assert_eq!(batched, single);
}

#[test]
fn record_n_of_zero_leaves_an_empty_histogram_empty() {
    let mut h = Histogram::new();
    h.record_n(7, 0);
    assert!(h.is_empty());
    // Equality compares the raw min sentinel, so a later sample must still
    // become the minimum.
    assert_eq!(h, Histogram::new());
    assert_eq!(
        h.to_json().to_compact(),
        Histogram::new().to_json().to_compact()
    );
    h.record(9);
    assert_eq!(h.min(), 9);
}
