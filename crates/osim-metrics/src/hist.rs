//! Fixed-size log-bucketed latency histograms.
//!
//! The layout is HDR-style log-linear: values `0..16` land in their own
//! exact bucket, and every octave above that is split into 8 sub-buckets,
//! so relative error is bounded by 12.5% everywhere while the whole
//! structure stays a fixed 256-slot array. [`Histogram::record`] is a few
//! integer operations and never allocates, which keeps it safe inside the
//! simulator's zero-allocation dispatch loop (guarded by the `zero_alloc`
//! test in `osim-engine`).
//!
//! Merging adds bucket counts element-wise, so it is lossless at bucket
//! resolution, commutative, and associative — per-worker histograms from a
//! parallel sweep fold into the same result regardless of merge order.

use crate::json::{obj, Json};

/// Number of buckets in every histogram.
pub const BUCKETS: usize = 256;

/// Values below this get an exact bucket each.
const LINEAR_MAX: u64 = 16;

/// Sub-buckets per octave above the linear range.
const SUB: usize = 8;

/// A fixed-size log-linear histogram of `u64` samples (simulated cycles,
/// counts, or host microseconds — the unit is the caller's convention).
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts[..] == other.counts[..]
    }
}

impl Eq for Histogram {}

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let top = 63 - v.leading_zeros(); // >= 4
        let idx = LINEAR_MAX as usize
            + (top as usize - 4) * SUB
            + ((v >> (top - 3)) as usize & (SUB - 1));
        idx.min(BUCKETS - 1)
    }
}

/// Lowest value mapping to bucket `idx`.
fn bucket_lo(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let oct = (idx - LINEAR_MAX as usize) / SUB;
        let sub = (idx - LINEAR_MAX as usize) % SUB;
        (SUB as u64 + sub as u64) << (oct + 1)
    }
}

/// Highest value mapping to bucket `idx` (the last bucket saturates).
fn bucket_hi(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else if idx >= BUCKETS - 1 {
        u64::MAX
    } else {
        bucket_lo(idx + 1) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Records `n` samples of value `v` at once: the same state as `n`
    /// calls of [`record`](Self::record), saturating sum included. `n == 0`
    /// changes nothing. Never allocates.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped to the
    /// recorded max. Monotone in `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_hi(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self` (bucket-wise; lossless at
    /// bucket resolution, commutative and associative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Non-empty `(bucket_index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Inclusive `[lo, hi]` value range of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        (bucket_lo(idx), bucket_hi(idx))
    }

    /// Serializes as `{count, sum, min, max, buckets: [[idx, n], ...]}`
    /// with only non-empty buckets listed.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .map(|(i, c)| Json::Arr(vec![Json::from_u64(i as u64), Json::from_u64(c)]))
            .collect();
        obj(vec![
            ("count", Json::from_u64(self.count)),
            ("sum", Json::from_u64(self.sum.min((1 << 53) - 1))),
            ("min", Json::from_u64(self.min())),
            ("max", Json::from_u64(self.max)),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Parses the [`to_json`](Self::to_json) shape back.
    pub fn from_json(v: &Json) -> Result<Histogram, String> {
        let req = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram field '{key}' missing or not a u64"))
        };
        let mut h = Histogram::new();
        h.count = req("count")?;
        h.sum = req("sum")?;
        h.max = req("max")?;
        h.min = if h.count == 0 { u64::MAX } else { req("min")? };
        let buckets = v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram field 'buckets' missing or not an array")?;
        for pair in buckets {
            let pair = pair.as_arr().ok_or("histogram bucket is not a pair")?;
            let (idx, n) = match pair {
                [i, n] => (
                    i.as_u64().ok_or("bucket index not a u64")?,
                    n.as_u64().ok_or("bucket count not a u64")?,
                ),
                _ => return Err("histogram bucket is not a pair".into()),
            };
            if idx as usize >= BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            h.counts[idx as usize] = n;
        }
        let total: u64 = h.counts.iter().sum();
        if total != h.count {
            return Err(format!(
                "histogram bucket counts sum to {total}, header says {}",
                h.count
            ));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
            assert_eq!(bucket_hi(v as usize), v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_bounds_partition_the_value_space() {
        // Every bucket's lo..=hi must map back to that bucket, and
        // consecutive buckets must tile without gaps.
        for idx in 0..BUCKETS - 1 {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "lo of {idx}");
            assert_eq!(bucket_index(hi), idx, "hi of {idx}");
            assert_eq!(bucket_lo(idx + 1), hi + 1, "tiling at {idx}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 100, 1000, 123_456, 1 << 30] {
            let (lo, hi) = Histogram::bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.125 + 1e-9,
                "bucket at {v}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 7, 100, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 5000);
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= prev, "quantile dipped at {i}");
            prev = q;
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let xs = [0u64, 1, 15, 16, 17, 999, 1 << 40];
        let ys = [5u64, 5, 123_456_789];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for &v in &xs {
            a.record(v);
            all.record(v);
        }
        for &v in &ys {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn json_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 42, 42, 1_000_000] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        let empty = Histogram::new();
        let back = Histogram::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.min(), 0);
    }

    #[test]
    fn from_json_rejects_inconsistent_counts() {
        let mut h = Histogram::new();
        h.record(7);
        let mut j = h.to_json();
        if let Json::Obj(members) = &mut j {
            members[0].1 = Json::from_u64(99);
        }
        assert!(Histogram::from_json(&j).unwrap_err().contains("sum to"));
    }
}
