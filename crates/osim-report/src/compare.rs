//! Cross-run regression attribution: structural diff of two [`SimReport`]s.
//!
//! `compare` answers "this sweep got slower — where did the cycles go?"
//! without rerunning anything: it diffs every counter, the stall-cause
//! split, the per-core stall distribution, and the v5 latency histograms
//! (per-bucket deltas plus quantile shifts), then ranks the stall causes
//! by how much of the cycle delta they explain.
//!
//! Comparing a report against itself yields a diff for which
//! [`ReportDiff::is_zero`] holds — the CI smoke job relies on this.

use osim_cpu::StallCause;
use osim_metrics::Histogram;

use crate::report::SimReport;
use osim_metrics::json::{obj, Json};

/// One scalar counter that differs between the two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Dotted path of the counter (e.g. `cpu.stall_by_cause.missing_version`).
    pub path: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
}

impl CounterDelta {
    /// Signed change B − A.
    pub fn delta(&self) -> i128 {
        self.b as i128 - self.a as i128
    }
}

/// Quantile shifts and bucket-level changes of one named histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    /// Histogram name (one of [`osim_cpu::RunHists::NAMES`]).
    pub name: String,
    /// Sample counts (A, B).
    pub count: (u64, u64),
    /// Sample sums (A, B).
    pub sum: (u64, u64),
    /// Median (A, B).
    pub p50: (u64, u64),
    /// 90th percentile (A, B).
    pub p90: (u64, u64),
    /// 99th percentile (A, B).
    pub p99: (u64, u64),
    /// Buckets whose occupancy changed: `(bucket_lo, count_a, count_b)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistDelta {
    fn build(name: &str, a: &Histogram, b: &Histogram) -> Option<HistDelta> {
        if a == b {
            return None;
        }
        let mut buckets = Vec::new();
        let (mut ia, mut ib) = (
            a.nonzero_buckets().peekable(),
            b.nonzero_buckets().peekable(),
        );
        loop {
            let (idx, ca, cb) = match (ia.peek().copied(), ib.peek().copied()) {
                (None, None) => break,
                (Some((i, c)), None) => {
                    ia.next();
                    (i, c, 0)
                }
                (None, Some((i, c))) => {
                    ib.next();
                    (i, 0, c)
                }
                (Some((i, c)), Some((j, d))) => {
                    if i < j {
                        ia.next();
                        (i, c, 0)
                    } else if j < i {
                        ib.next();
                        (j, 0, d)
                    } else {
                        ia.next();
                        ib.next();
                        (i, c, d)
                    }
                }
            };
            if ca != cb {
                buckets.push((Histogram::bucket_bounds(idx).0, ca, cb));
            }
        }
        Some(HistDelta {
            name: name.to_string(),
            count: (a.count(), b.count()),
            sum: (a.sum(), b.sum()),
            p50: (a.quantile(0.50), b.quantile(0.50)),
            p90: (a.quantile(0.90), b.quantile(0.90)),
            p99: (a.quantile(0.99), b.quantile(0.99)),
            buckets,
        })
    }
}

/// One row of the ranked regression-attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Human-readable source (e.g. `stall: missing_version`).
    pub source: String,
    /// Signed cycle change B − A attributed to this source.
    pub delta: i128,
    /// Fraction of the total cycle delta this source explains (0 when the
    /// total delta is zero).
    pub share: f64,
}

/// The full structural diff of two reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// Experiment of run A (pairing key).
    pub experiment: String,
    /// Benchmark of run A (pairing key).
    pub benchmark: String,
    /// Variant of run A (pairing key).
    pub variant: String,
    /// Configuration fields that differ (`path: a != b` strings). A
    /// non-empty list means the runs are not like-for-like comparable.
    pub config_diffs: Vec<String>,
    /// Measured cycles (A, B).
    pub cycles: (u64, u64),
    /// Counters that changed, in flattening order.
    pub counters: Vec<CounterDelta>,
    /// How many flattened counters were identical.
    pub unchanged_counters: usize,
    /// Histograms that shifted.
    pub hists: Vec<HistDelta>,
    /// Ranked attribution of the cycle delta to stall causes (largest
    /// |delta| first; `compute/other` is the non-stall residual).
    pub attribution: Vec<Attribution>,
    /// Note on which cores carry the stall-cycle change (empty when the
    /// per-core stall distribution did not move).
    pub core_note: String,
}

impl ReportDiff {
    /// True when the two reports were identical in every compared respect.
    pub fn is_zero(&self) -> bool {
        self.cycles.0 == self.cycles.1
            && self.config_diffs.is_empty()
            && self.counters.is_empty()
            && self.hists.is_empty()
    }

    /// Signed cycle change B − A.
    pub fn cycle_delta(&self) -> i128 {
        self.cycles.1 as i128 - self.cycles.0 as i128
    }

    /// Serializes the diff (`osim-compare-v1` conventions; the document
    /// schema string lives in the CLI wrapper that aggregates pairs).
    pub fn to_json(&self) -> Json {
        let counters: Vec<Json> = self
            .counters
            .iter()
            .map(|c| {
                obj(vec![
                    ("path", Json::Str(c.path.clone())),
                    ("a", Json::from_u64(c.a)),
                    ("b", Json::from_u64(c.b)),
                    ("delta", Json::Num(c.delta() as f64)),
                ])
            })
            .collect();
        let hists: Vec<Json> = self
            .hists
            .iter()
            .map(|h| {
                let pair = |(a, b): (u64, u64)| {
                    obj(vec![("a", Json::from_u64(a)), ("b", Json::from_u64(b))])
                };
                let buckets: Vec<Json> = h
                    .buckets
                    .iter()
                    .map(|&(lo, a, b)| {
                        Json::Arr(vec![
                            Json::from_u64(lo),
                            Json::from_u64(a),
                            Json::from_u64(b),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("name", Json::Str(h.name.clone())),
                    ("count", pair(h.count)),
                    ("sum", pair(h.sum)),
                    ("p50", pair(h.p50)),
                    ("p90", pair(h.p90)),
                    ("p99", pair(h.p99)),
                    ("buckets", Json::Arr(buckets)),
                ])
            })
            .collect();
        let attribution: Vec<Json> = self
            .attribution
            .iter()
            .map(|a| {
                obj(vec![
                    ("source", Json::Str(a.source.clone())),
                    ("delta", Json::Num(a.delta as f64)),
                    ("share", Json::Num(a.share)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", Json::Str(self.experiment.clone())),
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("variant", Json::Str(self.variant.clone())),
            (
                "config_diffs",
                Json::Arr(
                    self.config_diffs
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "cycles",
                obj(vec![
                    ("a", Json::from_u64(self.cycles.0)),
                    ("b", Json::from_u64(self.cycles.1)),
                    ("delta", Json::Num(self.cycle_delta() as f64)),
                ]),
            ),
            ("counters", Json::Arr(counters)),
            (
                "unchanged_counters",
                Json::from_u64(self.unchanged_counters as u64),
            ),
            ("hist", Json::Arr(hists)),
            ("attribution", Json::Arr(attribution)),
            ("zero", Json::Bool(self.is_zero())),
        ])
    }

    /// Renders the human-readable attribution table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let key = format!(
            "{} / {} / {}",
            self.experiment, self.benchmark, self.variant
        );
        if self.is_zero() {
            out.push_str(&format!("{key}: identical (zero deltas)\n"));
            return out;
        }
        let d = self.cycle_delta();
        let pct = if self.cycles.0 > 0 {
            100.0 * d as f64 / self.cycles.0 as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{key}: cycles {} -> {} ({}{}, {:+.2}%)\n",
            self.cycles.0,
            self.cycles.1,
            if d >= 0 { "+" } else { "" },
            d,
            pct
        ));
        for w in &self.config_diffs {
            out.push_str(&format!("  warning: config differs: {w}\n"));
        }
        if !self.attribution.is_empty() && d != 0 {
            out.push_str("  attribution (share of cycle delta):\n");
            for (i, a) in self.attribution.iter().enumerate() {
                out.push_str(&format!(
                    "    {}. {:<24} {:+10}  {:5.1}%\n",
                    i + 1,
                    a.source,
                    a.delta,
                    a.share * 100.0
                ));
            }
            if !self.core_note.is_empty() {
                out.push_str(&format!("    {}\n", self.core_note));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!(
                "  counters: {} changed, {} unchanged (top by |delta|):\n",
                self.counters.len(),
                self.unchanged_counters
            ));
            let mut ranked: Vec<&CounterDelta> = self.counters.iter().collect();
            ranked.sort_by_key(|c| std::cmp::Reverse(c.delta().unsigned_abs()));
            for c in ranked.iter().take(10) {
                out.push_str(&format!("    {:<40} {:+}\n", c.path, c.delta()));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&format!("  histograms: {} shifted:\n", self.hists.len()));
            for h in &self.hists {
                out.push_str(&format!(
                    "    {:<16} p50 {} -> {}, p90 {} -> {}, p99 {} -> {} (count {:+})\n",
                    h.name,
                    h.p50.0,
                    h.p50.1,
                    h.p90.0,
                    h.p90.1,
                    h.p99.0,
                    h.p99.1,
                    h.count.1 as i128 - h.count.0 as i128
                ));
            }
        }
        out
    }
}

/// Flattens every scalar counter of a report into `(dotted path, value)`
/// rows, in a stable order shared by both sides of a diff.
fn flat_counters(r: &SimReport) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(64);
    let mut push = |path: String, v: u64| out.push((path, v));
    push("cycles".into(), r.cycles);
    let c = &r.cpu;
    push("cpu.instructions".into(), c.instructions);
    push("cpu.loads".into(), c.loads);
    push("cpu.stores".into(), c.stores);
    push("cpu.cas_ops".into(), c.cas_ops);
    push("cpu.versioned_ops".into(), c.versioned_ops);
    push("cpu.versioned_loads".into(), c.versioned_loads);
    push(
        "cpu.versioned_loads_stalled".into(),
        c.versioned_loads_stalled,
    );
    push("cpu.root_loads".into(), c.root_loads);
    push("cpu.root_loads_stalled".into(), c.root_loads_stalled);
    push("cpu.stall_cycles".into(), c.stall_cycles);
    for cause in StallCause::ALL {
        push(
            format!("cpu.stall_by_cause.{}", cause.name()),
            c.stall_by_cause[cause.index()],
        );
    }
    push("cpu.tasks_run".into(), c.tasks_run);
    for (i, pc) in c.per_core.iter().enumerate() {
        push(format!("cpu.per_core.{i}.instructions"), pc.instructions);
        push(format!("cpu.per_core.{i}.versioned_ops"), pc.versioned_ops);
        push(format!("cpu.per_core.{i}.stall_cycles"), pc.stall_cycles);
        push(format!("cpu.per_core.{i}.tasks_run"), pc.tasks_run);
    }
    let m = &r.mem;
    for (name, per_core) in [
        ("l1_read_hits", &m.l1_read_hits),
        ("l1_read_misses", &m.l1_read_misses),
        ("l1_write_hits", &m.l1_write_hits),
        ("l1_write_misses", &m.l1_write_misses),
    ] {
        for (i, &v) in per_core.iter().enumerate() {
            push(format!("mem.{name}.{i}"), v);
        }
    }
    push("mem.l2_hits".into(), m.l2_hits);
    push("mem.l2_misses".into(), m.l2_misses);
    push("mem.remote_forwards".into(), m.remote_forwards);
    push("mem.invalidations".into(), m.invalidations);
    push("mem.upgrades".into(), m.upgrades);
    push("mem.back_invalidations".into(), m.back_invalidations);
    push("mem.compressed_hits".into(), m.compressed_hits);
    push("mem.compressed_misses".into(), m.compressed_misses);
    push(
        "mem.compressed_coherence_drops".into(),
        m.compressed_coherence_drops,
    );
    let o = &r.ostats;
    push("mvm.direct_hits".into(), o.direct_hits);
    push("mvm.full_lookups".into(), o.full_lookups);
    push("mvm.walk_reads".into(), o.walk_reads);
    push("mvm.stores".into(), o.stores);
    push("mvm.allocated_blocks".into(), o.allocated_blocks);
    push("mvm.reclaimed_blocks".into(), o.reclaimed_blocks);
    push("mvm.gc_phases".into(), o.gc_phases);
    push("mvm.refill_traps".into(), o.refill_traps);
    push("mvm.refill_retries".into(), o.refill_retries);
    push("mvm.recovered_allocations".into(), o.recovered_allocations);
    push(
        "mvm.injected_carve_failures".into(),
        o.injected_carve_failures,
    );
    push(
        "mvm.injected_jitter_cycles".into(),
        o.injected_jitter_cycles,
    );
    push(
        "mvm.injected_coherence_delay_cycles".into(),
        o.injected_coherence_delay_cycles,
    );
    push("mvm.forced_gc_attempts".into(), o.forced_gc_attempts);
    push("mvm.pool_shrink_events".into(), o.pool_shrink_events);
    push(
        "engine.events_dispatched".into(),
        r.engine.events_dispatched,
    );
    push("engine.stale_events".into(), r.engine.stale_events);
    out
}

/// Configuration fields that must match for a like-for-like comparison.
fn config_diffs(a: &SimReport, b: &SimReport) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |name: &str, x: String, y: String| {
        if x != y {
            out.push(format!("{name}: {x} != {y}"));
        }
    };
    check("cores", a.cores.to_string(), b.cores.to_string());
    check("l1_bytes", a.l1_bytes.to_string(), b.l1_bytes.to_string());
    check("l2_bytes", a.l2_bytes.to_string(), b.l2_bytes.to_string());
    check(
        "dram_latency",
        a.dram_latency.to_string(),
        b.dram_latency.to_string(),
    );
    check(
        "trap_latency",
        a.trap_latency.to_string(),
        b.trap_latency.to_string(),
    );
    check(
        "gc_watermark",
        a.gc_watermark.to_string(),
        b.gc_watermark.to_string(),
    );
    check(
        "versioned_extra_latency",
        a.versioned_extra_latency.to_string(),
        b.versioned_extra_latency.to_string(),
    );
    check(
        "sorted_insertion",
        a.sorted_insertion.to_string(),
        b.sorted_insertion.to_string(),
    );
    check(
        "inject",
        format!("{:?}", a.inject),
        format!("{:?}", b.inject),
    );
    out
}

/// Diffs two reports. `a` is the baseline, `b` the candidate; deltas read
/// B − A throughout.
pub fn compare(a: &SimReport, b: &SimReport) -> ReportDiff {
    let fa = flat_counters(a);
    let fb = flat_counters(b);
    let mut counters = Vec::new();
    let mut unchanged = 0usize;
    // Per-core vectors can differ in length across configs; align by path.
    let mut i = 0;
    let mut j = 0;
    while i < fa.len() || j < fb.len() {
        match (fa.get(i), fb.get(j)) {
            (Some((pa, va)), Some((pb, vb))) if pa == pb => {
                if va != vb {
                    counters.push(CounterDelta {
                        path: pa.clone(),
                        a: *va,
                        b: *vb,
                    });
                } else {
                    unchanged += 1;
                }
                i += 1;
                j += 1;
            }
            (Some((pa, va)), Some((pb, _))) => {
                // Paths diverge (different per-core lengths): emit the A-only
                // row as a disappearance, resynchronizing on B's path.
                if fb.iter().any(|(p, _)| p == pa) {
                    counters.push(CounterDelta {
                        path: pb.clone(),
                        a: 0,
                        b: fb[j].1,
                    });
                    j += 1;
                } else {
                    counters.push(CounterDelta {
                        path: pa.clone(),
                        a: *va,
                        b: 0,
                    });
                    i += 1;
                }
            }
            (Some((pa, va)), None) => {
                counters.push(CounterDelta {
                    path: pa.clone(),
                    a: *va,
                    b: 0,
                });
                i += 1;
            }
            (None, Some((pb, vb))) => {
                counters.push(CounterDelta {
                    path: pb.clone(),
                    a: 0,
                    b: *vb,
                });
                j += 1;
            }
            (None, None) => break,
        }
    }

    let hists: Vec<HistDelta> = a
        .hists
        .named()
        .iter()
        .zip(b.hists.named().iter())
        .filter_map(|((name, ha), (_, hb))| HistDelta::build(name, ha, hb))
        .collect();

    let cycle_delta = b.cycles as i128 - a.cycles as i128;
    let mut attribution = Vec::new();
    let mut stall_delta_total: i128 = 0;
    for cause in StallCause::ALL {
        let da = a.cpu.stall_by_cause[cause.index()] as i128;
        let db = b.cpu.stall_by_cause[cause.index()] as i128;
        let delta = db - da;
        stall_delta_total += delta;
        if delta != 0 {
            attribution.push(Attribution {
                source: format!("stall: {}", cause.name()),
                delta,
                share: share_of(delta, cycle_delta),
            });
        }
    }
    let residual = cycle_delta - stall_delta_total;
    if residual != 0 {
        attribution.push(Attribution {
            source: "compute/other".to_string(),
            delta: residual,
            share: share_of(residual, cycle_delta),
        });
    }
    attribution.sort_by_key(|x| std::cmp::Reverse(x.delta.unsigned_abs()));

    // Which cores carry the stall change? Name the carriers when the
    // per-core distribution moved.
    let mut core_note = String::new();
    if a.cpu.per_core.len() == b.cpu.per_core.len() && stall_delta_total != 0 {
        let per_core: Vec<(usize, i128)> = a
            .cpu
            .per_core
            .iter()
            .zip(b.cpu.per_core.iter())
            .enumerate()
            .map(|(k, (x, y))| (k, y.stall_cycles as i128 - x.stall_cycles as i128))
            .filter(|&(_, d)| d != 0)
            .collect();
        if !per_core.is_empty() {
            let moved: i128 = per_core.iter().map(|&(_, d)| d.abs()).sum();
            let mut ranked = per_core.clone();
            ranked.sort_by_key(|&(_, d)| std::cmp::Reverse(d.abs()));
            let mut covered: i128 = 0;
            let mut carriers: Vec<usize> = Vec::new();
            for &(k, d) in &ranked {
                carriers.push(k);
                covered += d.abs();
                if covered * 10 >= moved * 9 {
                    break;
                }
            }
            carriers.sort_unstable();
            let list: Vec<String> = carriers.iter().map(|k| k.to_string()).collect();
            core_note = format!(
                "cores {} carry {:.0}% of the stall-cycle movement",
                list.join(","),
                100.0 * covered as f64 / moved as f64
            );
        }
    }

    ReportDiff {
        experiment: a.experiment.clone(),
        benchmark: a.benchmark.clone(),
        variant: a.variant.clone(),
        config_diffs: config_diffs(a, b),
        cycles: (a.cycles, b.cycles),
        counters,
        unchanged_counters: unchanged,
        hists,
        attribution,
        core_note,
    }
}

fn share_of(delta: i128, total: i128) -> f64 {
    if total == 0 {
        0.0
    } else {
        delta as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests_support::sample_report;

    #[test]
    fn self_compare_is_zero() {
        let r = sample_report();
        let d = compare(&r, &r);
        assert!(d.is_zero(), "self-diff not zero: {:?}", d.counters);
        assert!(d.counters.is_empty());
        assert!(d.hists.is_empty());
        assert!(d.attribution.is_empty());
        assert!(d.render_text().contains("identical"));
        assert_eq!(d.to_json().get("zero"), Some(&Json::Bool(true)));
    }

    #[test]
    fn cycle_regression_is_attributed_to_stall_cause() {
        let a = sample_report();
        let mut b = sample_report();
        // +1000 cycles, 900 of them missing-version stall on core 1.
        b.cycles += 1000;
        b.cpu.stall_cycles += 900;
        b.cpu.stall_by_cause[StallCause::MissingVersion.index()] += 900;
        b.cpu.per_core[1].stall_cycles += 900;
        b.hists.version_walk.record(4096);
        let d = compare(&a, &b);
        assert!(!d.is_zero());
        assert_eq!(d.cycle_delta(), 1000);
        assert_eq!(d.attribution[0].source, "stall: missing_version");
        assert_eq!(d.attribution[0].delta, 900);
        assert!((d.attribution[0].share - 0.9).abs() < 1e-9);
        // The 100 unexplained cycles land in the residual row.
        assert!(d
            .attribution
            .iter()
            .any(|x| x.source == "compute/other" && x.delta == 100));
        assert!(d.core_note.contains("cores 1"));
        let text = d.render_text();
        assert!(text.contains("missing_version"), "{text}");
        assert!(text.contains("+900"), "{text}");
        // The histogram shift is reported with its quantiles.
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.hists[0].name, "version_walk");
        assert_eq!(d.hists[0].count.1, d.hists[0].count.0 + 1);
    }

    #[test]
    fn config_mismatch_is_flagged() {
        let a = sample_report();
        let mut b = sample_report();
        b.dram_latency += 10;
        let d = compare(&a, &b);
        assert!(!d.is_zero());
        assert_eq!(d.config_diffs.len(), 1);
        assert!(d.config_diffs[0].contains("dram_latency"));
        assert!(d.render_text().contains("config differs"));
    }

    #[test]
    fn json_form_carries_ranked_attribution() {
        let a = sample_report();
        let mut b = sample_report();
        b.cycles += 500;
        b.cpu.stall_cycles += 500;
        b.cpu.stall_by_cause[StallCause::FreeListGc.index()] += 500;
        let d = compare(&a, &b);
        let v = d.to_json();
        let attr = v.get("attribution").and_then(Json::as_arr).unwrap();
        assert_eq!(attr.len(), 1);
        assert_eq!(
            attr[0].get("source").and_then(Json::as_str),
            Some("stall: freelist_gc")
        );
        assert_eq!(v.get("zero"), Some(&Json::Bool(false)));
    }
}
