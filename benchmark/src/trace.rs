//! In-memory span recording for traced runs, the self-time ledger over
//! those spans, and their Chrome trace-event export.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer; nothing inside the measured crates is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use osim_metrics::json::{obj, Json};

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Recording thread (0 = main, 1.. = store clients).
    pub tid: u32,
    /// Job or op id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. A disabled recorder keeps nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    cap: usize,
    spans: Vec<Span>,
    /// Spans not kept because the recorder was full.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder keeping at most `cap` spans, or nothing when disabled.
    pub fn new(enabled: bool, epoch: Instant, tid: u32, cap: usize) -> Self {
        Tracer {
            enabled,
            epoch,
            tid,
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that covered `[start, end]`; returns its index for
    /// use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            tid: self.tid,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children opened
    /// in between may name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, id);
        let r = f();
        self.close(s);
        r
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    /// Duration minus the part covered by child spans.
    pub self_ms: f64,
}

/// Self time by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += dur.saturating_sub(child) as f64 / 1e6;
    }
    out
}

/// A Chrome trace-event document: one complete (`X`) event per span,
/// timestamps in microseconds, with the job/op id and parent span index
/// in `args`.
pub fn chrome_doc(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id", Json::from_u64(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Str(spans[p].name.into())));
                args.push(("parent_index", Json::from_u64(p as u64)));
            }
            obj(vec![
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(layer_of(s.name).into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::from_u64(1)),
                ("tid", Json::from_u64(u64::from(s.tid))),
                ("args", obj(args)),
            ])
        })
        .collect();
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The layer prefix of a span name (`store.get` → `store`).
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
