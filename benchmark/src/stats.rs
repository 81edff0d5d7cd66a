//! Exact quantiles over raw samples.
//!
//! Latencies here are tens of nanoseconds, far below the resolution of
//! `osim-metrics`' log2-bucketed histograms, so every timing is kept as a
//! raw sample and sorted once at the end.

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.99 * 1000` from rounding up past rank 990.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending-sorted slice;
/// 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest percentile with at least ten samples ranked above it, as
/// `(q, value)`; the median when no tail percentile qualifies.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for q in TAILS {
        let r = rank(q, n);
        if r >= 1 && n >= r + 10 {
            return (q, sorted[r - 1]);
        }
    }
    (0.5, percentile(sorted, 0.5))
}

/// The value at `q` when it has at least ten samples ranked above it,
/// else the highest percentile that does. Returns `(q_used, value)`.
pub fn percentile_supported(sorted: &[f64], q: f64) -> (f64, f64) {
    let (tq, tv) = tail(sorted);
    if q <= tq {
        (q, percentile(sorted, q))
    } else {
        (tq, tv)
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of unsorted values (the mean of the middle pair for even
/// counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads printed here match that tool's. One value is its
/// own quartiles; empty input gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}
