//! Labeled counters, gauges, and histograms with lossless merge and a
//! Prometheus-style text exposition writer.
//!
//! The registry is the host-side aggregation surface: the harness's
//! collector folds every instrumented layer into one, and its
//! `--metrics-out` file is [`Registry::to_prometheus`] of that. Nothing
//! here sits on the simulated-cycle path, so ordinary
//! allocation is fine; determinism comes from sorting the exposition by
//! metric identity rather than insertion order.

use crate::hist::Histogram;
use crate::json::{obj, Json};

/// Metric identity: a name plus ordered `(key, value)` label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn label_text(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed must be backslash-escaped so a
/// hostile value can never break out of its quoted position or inject an
/// extra exposition line.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    // Boxed: a Histogram is ~2 kB of inline buckets, far larger than the
    // other variants; keeping it indirect keeps the metrics Vec compact.
    Hist(Box<Histogram>),
}

/// A set of labeled metrics.
///
/// Merging two registries adds counters and histograms element-wise
/// (lossless, commutative) and overwrites gauges with the other side's
/// latest value (gauges are point-in-time by definition).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<(MetricKey, Value)>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn slot(&mut self, key: MetricKey, init: Value) -> &mut Value {
        if let Some(i) = self.metrics.iter().position(|(k, _)| *k == key) {
            &mut self.metrics[i].1
        } else {
            self.metrics.push((key, init));
            let last = self.metrics.len() - 1;
            &mut self.metrics[last].1
        }
    }

    /// Adds `n` to the counter `name{labels}` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        match self.slot(MetricKey::new(name, labels), Value::Counter(0)) {
            Value::Counter(c) => *c += n,
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// Reads a counter back (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = MetricKey::new(name, labels);
        match self.metrics.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Counter(c))) => *c,
            _ => 0,
        }
    }

    /// Sets the gauge `name{labels}`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self.slot(MetricKey::new(name, labels), Value::Gauge(0.0)) {
            Value::Gauge(g) => *g = v,
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Reads a gauge back, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        match self.metrics.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Gauge(g))) => Some(*g),
            _ => None,
        }
    }

    /// Records one sample into the histogram `name{labels}`.
    pub fn hist_record(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.hist_mut(name, labels).record(v);
    }

    /// The histogram `name{labels}`, created empty on first use.
    pub fn hist_mut(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Histogram {
        match self.slot(MetricKey::new(name, labels), Value::Hist(Box::default())) {
            Value::Hist(h) => h,
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Reads a histogram back, if present.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        let key = MetricKey::new(name, labels);
        match self.metrics.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Hist(h))) => Some(h),
            _ => None,
        }
    }

    /// Folds `other` into `self`: counters and histograms add, gauges take
    /// `other`'s value. Panics if the same key has different kinds.
    pub fn merge(&mut self, other: &Registry) {
        for (key, value) in &other.metrics {
            match value {
                Value::Counter(n) => {
                    match self.slot(key.clone(), Value::Counter(0)) {
                        Value::Counter(c) => *c += n,
                        o => panic!("merge kind mismatch for '{}': {o:?}", key.name),
                    };
                }
                Value::Gauge(v) => {
                    match self.slot(key.clone(), Value::Gauge(0.0)) {
                        Value::Gauge(g) => *g = *v,
                        o => panic!("merge kind mismatch for '{}': {o:?}", key.name),
                    };
                }
                Value::Hist(h) => {
                    match self.slot(key.clone(), Value::Hist(Box::default())) {
                        Value::Hist(mine) => mine.merge(h),
                        o => panic!("merge kind mismatch for '{}': {o:?}", key.name),
                    };
                }
            }
        }
    }

    /// Metrics sorted by identity — the deterministic exposition order.
    fn sorted(&self) -> Vec<&(MetricKey, Value)> {
        let mut v: Vec<&(MetricKey, Value)> = self.metrics.iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Prometheus text exposition (the `--metrics-out` file body).
    ///
    /// Counters and gauges render one sample each; histograms render the
    /// conventional `_bucket{le=...}` cumulative series plus `_sum` and
    /// `_count`, listing only buckets that change the cumulative count.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.sorted() {
            let labels = key.label_text();
            match value {
                Value::Counter(c) => {
                    out.push_str(&format!("# TYPE {} counter\n", key.name));
                    out.push_str(&format!("{}{labels} {c}\n", key.name));
                }
                Value::Gauge(g) => {
                    out.push_str(&format!("# TYPE {} gauge\n", key.name));
                    out.push_str(&format!("{}{labels} {g}\n", key.name));
                }
                Value::Hist(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", key.name));
                    let mut cum = 0u64;
                    for (idx, n) in h.nonzero_buckets() {
                        cum += n;
                        let (_, hi) = Histogram::bucket_bounds(idx);
                        let le = if hi == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            hi.to_string()
                        };
                        out.push_str(&le_line(&key.name, &key.labels, &le, cum));
                    }
                    if h.count() > 0 {
                        let (_, last_hi) = Histogram::bucket_bounds(crate::hist::BUCKETS - 1);
                        if h.max() != last_hi {
                            out.push_str(&le_line(&key.name, &key.labels, "+Inf", cum));
                        }
                    } else {
                        out.push_str(&le_line(&key.name, &key.labels, "+Inf", 0));
                    }
                    out.push_str(&format!("{}_sum{labels} {}\n", key.name, h.sum()));
                    out.push_str(&format!("{}_count{labels} {}\n", key.name, h.count()));
                }
            }
        }
        out
    }

    /// JSON form: `{"counters": {...}, "gauges": {...}, "hists": {...}}`
    /// with `name{label="v"}` exposition-style keys, sorted.
    pub fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (key, value) in self.sorted() {
            let id = format!("{}{}", key.name, key.label_text());
            match value {
                Value::Counter(c) => counters.push((id, Json::from_u64(*c))),
                Value::Gauge(g) => gauges.push((id, Json::Num(*g))),
                Value::Hist(h) => hists.push((id, h.to_json())),
            }
        }
        obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("hists", Json::Obj(hists)),
        ])
    }
}

fn le_line(name: &str, labels: &[(String, String)], le: &str, cum: u64) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    inner.push(format!("le=\"{le}\""));
    format!("{name}_bucket{{{}}} {cum}\n", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        r.counter_add("jobs_total", &[("fig", "fig7")], 2);
        r.counter_add("jobs_total", &[("fig", "fig7")], 3);
        r.counter_add("jobs_total", &[("fig", "fig6")], 1);
        assert_eq!(r.counter("jobs_total", &[("fig", "fig7")]), 5);
        assert_eq!(r.counter("jobs_total", &[("fig", "fig6")]), 1);
        assert_eq!(r.counter("jobs_total", &[("fig", "fig9")]), 0);
    }

    #[test]
    fn merge_adds_counters_and_hists_overwrites_gauges() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("n", &[], 1);
        b.counter_add("n", &[], 2);
        a.gauge_set("busy", &[], 0.25);
        b.gauge_set("busy", &[], 0.75);
        a.hist_record("wait", &[], 10);
        b.hist_record("wait", &[], 20);
        a.merge(&b);
        assert_eq!(a.counter("n", &[]), 3);
        let h = a.hist("wait", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
        let text = a.to_prometheus();
        assert!(text.contains("busy 0.75"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = Registry::new();
        r.counter_add("events_total", &[("worker", "0")], 7);
        r.hist_record("wait_cycles", &[], 5);
        r.hist_record("wait_cycles", &[], 1000);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total{worker=\"0\"} 7"));
        assert!(text.contains("# TYPE wait_cycles histogram"));
        assert!(text.contains("wait_cycles_bucket{le=\"5\"} 1"));
        assert!(text.contains("wait_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wait_cycles_sum 1005"));
        assert!(text.contains("wait_cycles_count 2"));
    }

    #[test]
    fn json_is_sorted_by_identity() {
        let mut r = Registry::new();
        r.counter_add("zz", &[], 1);
        r.counter_add("aa", &[], 2);
        let j = r.to_json();
        let counters = j.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0].0, "aa");
        assert_eq!(counters[1].0, "zz");
    }
}
