//! Labeled counters, gauges, and histograms with a JSON writer.
//!
//! The registry is the host-side aggregation surface for the concurrent
//! store: `ostructs-core` fills one with its vacuum and process-global
//! `osim_store_*` metrics, and [`Registry::to_json`] of it is the
//! `metrics` object of `BENCH_ostructs.json` (the `osim-bench` store
//! workload reads the same counters). Nothing here sits on the
//! simulated-cycle path, so ordinary allocation is fine; determinism
//! comes from sorting the output by metric identity rather than
//! insertion order.

use crate::hist::Histogram;
use crate::json::{obj, Json};

/// Metric identity: a name plus ordered `(key, value)` label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
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

/// Escapes a label value: backslash, double quote, and line feed are
/// backslash-escaped so a hostile value can never break out of its
/// quoted position in a `name{label="v"}` key.
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
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<(MetricKey, Value)>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
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

    /// Metrics sorted by identity — the deterministic output order.
    fn sorted(&self) -> Vec<&(MetricKey, Value)> {
        let mut v: Vec<&(MetricKey, Value)> = self.metrics.iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// JSON form: `{"counters": {...}, "gauges": {...}, "hists": {...}}`
    /// with `name{label="v"}` keys, sorted.
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
    fn json_is_sorted_by_identity() {
        let mut r = Registry::new();
        r.counter_add("zz", &[], 1);
        r.counter_add("aa", &[], 2);
        let j = r.to_json();
        let counters = j.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0].0, "aa");
        assert_eq!(counters[1].0, "zz");
    }

    #[test]
    fn label_values_are_escaped_in_json_keys() {
        let mut r = Registry::new();
        for v in ["x\ny", "x\"y", "x\\y", "plain", "plain"] {
            r.counter_add("series_total", &[("v", v)], 1);
        }
        let j = r.to_json();
        let keys: Vec<&str> = j
            .get("counters")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        // Distinct raw values stay distinct keys; equal ones accumulate.
        assert_eq!(
            keys,
            [
                "series_total{v=\"plain\"}",
                "series_total{v=\"x\\ny\"}",
                "series_total{v=\"x\\\"y\"}",
                "series_total{v=\"x\\\\y\"}",
            ]
        );
        assert_eq!(r.counter("series_total", &[("v", "plain")]), 2);
    }
}
