//! Critical-path analysis over captured dependency-flow edges.
//!
//! A run with capture armed ([`osim_cpu::MachineCfg::dep_edges`]) records one
//! [`DepEdge`] per satisfied blocked versioned load: who produced the
//! awaited version, who consumed it, and when. Those edges form the run's
//! task/version dependency DAG; this module extracts the longest
//! cycle-weighted producer→consumer chain ending at the *last* captured
//! wake and renders it as an exact partition of the `[path start, last
//! wake]` interval into alternating compute and wait segments, each wait
//! attributed to its [`StallCause`].
//!
//! Invariants (property-tested):
//!
//! * segments tile the path exactly — `segments[0].start == start`, each
//!   segment begins where the previous ended, the last ends at `end`;
//! * the segment cycle sum therefore equals the path length;
//! * the path is clamped to the measured window, so its length never
//!   exceeds the run's measured cycles.

use std::collections::BTreeMap;

use osim_cpu::{DepEdge, StallCause};

use osim_metrics::json::{obj, Json};

/// Simulated cycle (mirrors `osim_engine::Cycle` without the dependency).
type Cycle = u64;

/// How many top contended structures a report keeps.
const TOP_K: usize = 8;

/// One segment of the critical path: either compute (no cause) or a wait
/// attributed to a stall cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Segment start cycle (inclusive).
    pub start: Cycle,
    /// Segment end cycle (exclusive); always > `start`.
    pub end: Cycle,
    /// `None` = compute; `Some` = wait, with its attribution.
    pub cause: Option<StallCause>,
    /// Contended structure of a wait segment (0 for compute).
    pub va: u32,
    /// Task accountable for the segment: the waiting consumer of a wait
    /// segment, the task computing toward the next wake otherwise (0 when
    /// unknown — e.g. the leading compute before the first captured edge).
    pub tid: u32,
}

impl Segment {
    /// Cycles covered.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// Aggregate wait pressure on one O-structure address, across *all*
/// captured edges (not only the critical chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contender {
    /// Root virtual address of the structure.
    pub va: u32,
    /// Total blocked cycles charged waiting on it.
    pub waited: Cycle,
    /// Edges (satisfied blocked loads) recorded against it.
    pub edges: u64,
    /// The cause with the most waited cycles on this structure.
    pub top_cause: StallCause,
}

/// Wait cycles attributed to one core's consumers — how serialized each
/// core was behind dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreWait {
    /// Core id.
    pub core: u32,
    /// Total blocked cycles consumers on this core accumulated.
    pub waited: Cycle,
    /// Edges whose consumer ran on this core.
    pub edges: u64,
}

/// The extracted critical path plus whole-run contention aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    /// Path start cycle (the measured window's start).
    pub start: Cycle,
    /// Path end cycle (the last chained wake, clamped to the window).
    pub end: Cycle,
    /// Exact partition of `[start, end]`; empty when no edge fell inside
    /// the window.
    pub segments: Vec<Segment>,
    /// Top contended structures by waited cycles (at most 8), descending.
    pub contenders: Vec<Contender>,
    /// Per-core serialization (cores with at least one edge), by core id.
    pub per_core: Vec<CoreWait>,
}

impl CritPath {
    /// Path length in cycles.
    pub fn length(&self) -> Cycle {
        self.end - self.start
    }

    /// Cycles of the path spent waiting (vs computing).
    pub fn wait_cycles(&self) -> Cycle {
        self.segments
            .iter()
            .filter(|s| s.cause.is_some())
            .map(Segment::cycles)
            .sum()
    }

    /// Whether anything was captured.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Builds the analysis from captured edges and the measured window
    /// `(start, end)` (both in cycles; edges whose wake falls outside are
    /// ignored, edges that started before the window are clamped to it).
    pub fn build(edges: &[DepEdge], window: (Cycle, Cycle)) -> CritPath {
        let (w_start, w_end) = window;
        let in_window: Vec<&DepEdge> = edges
            .iter()
            .filter(|e| e.woken_at > w_start && e.woken_at <= w_end && e.woken_at > e.blocked_at)
            .collect();

        // ---- chain extraction -------------------------------------------
        // Start from the edge with the last wake and follow producers
        // backwards: the producer of edge E was itself last released by the
        // latest edge whose consumer is E's producer and whose wake
        // precedes E's produce. Unattributed origins end the chain.
        let mut chain: Vec<&DepEdge> = Vec::new();
        let mut cur = in_window
            .iter()
            .copied()
            .max_by_key(|e| (e.woken_at, e.produced_at));
        while let Some(e) = cur {
            chain.push(e);
            if chain.len() > in_window.len() {
                break; // defensive: malformed timestamps cannot loop us
            }
            cur = if e.attributed() {
                in_window
                    .iter()
                    .copied()
                    .filter(|p| {
                        p.consumer_tid == e.producer_tid
                            && p.woken_at <= e.produced_at
                            && p.woken_at < e.woken_at
                    })
                    .max_by_key(|p| (p.woken_at, p.produced_at))
            } else {
                None
            };
        }
        chain.reverse(); // chronological

        // ---- segment tiling ---------------------------------------------
        let mut segments = Vec::new();
        let mut cursor = w_start;
        let mut prev_producer: u32 = 0;
        for e in &chain {
            let wait_start = cursor.max(e.blocked_at.max(w_start));
            if wait_start > cursor {
                segments.push(Segment {
                    start: cursor,
                    end: wait_start,
                    cause: None,
                    va: 0,
                    tid: prev_producer,
                });
            }
            if e.woken_at > wait_start {
                segments.push(Segment {
                    start: wait_start,
                    end: e.woken_at,
                    cause: Some(e.cause),
                    va: e.va,
                    tid: e.consumer_tid,
                });
            }
            cursor = cursor.max(e.woken_at);
            prev_producer = e.consumer_tid;
        }
        let end = cursor;

        // ---- whole-run aggregates ---------------------------------------
        let mut by_va: BTreeMap<u32, (Cycle, u64, [Cycle; 4])> = BTreeMap::new();
        let mut by_core: BTreeMap<u32, (Cycle, u64)> = BTreeMap::new();
        for e in &in_window {
            let v = by_va.entry(e.va).or_insert((0, 0, [0; 4]));
            v.0 += e.waited;
            v.1 += 1;
            v.2[e.cause.index()] += e.waited;
            let c = by_core.entry(e.consumer_core).or_insert((0, 0));
            c.0 += e.waited;
            c.1 += 1;
        }
        let mut contenders: Vec<Contender> = by_va
            .into_iter()
            .map(|(va, (waited, edges, by_cause))| Contender {
                va,
                waited,
                edges,
                top_cause: *StallCause::ALL
                    .iter()
                    .max_by_key(|c| by_cause[c.index()])
                    .unwrap_or(&StallCause::MissingVersion),
            })
            .collect();
        // Descending by waited; va as a deterministic tie-break.
        contenders.sort_by(|a, b| b.waited.cmp(&a.waited).then(a.va.cmp(&b.va)));
        contenders.truncate(TOP_K);
        let per_core = by_core
            .into_iter()
            .map(|(core, (waited, edges))| CoreWait {
                core,
                waited,
                edges,
            })
            .collect();

        CritPath {
            start: w_start,
            end,
            segments,
            contenders,
            per_core,
        }
    }

    /// Serializes to the `critpath` object of a report.
    pub fn to_json(&self) -> Json {
        let segments: Vec<Json> = self
            .segments
            .iter()
            .map(|s| {
                obj(vec![
                    ("start", Json::from_u64(s.start)),
                    ("end", Json::from_u64(s.end)),
                    (
                        "cause",
                        match s.cause {
                            Some(c) => Json::Str(c.name().into()),
                            None => Json::Null,
                        },
                    ),
                    ("va", Json::from_u64(u64::from(s.va))),
                    ("tid", Json::from_u64(u64::from(s.tid))),
                ])
            })
            .collect();
        let contenders: Vec<Json> = self
            .contenders
            .iter()
            .map(|c| {
                obj(vec![
                    ("va", Json::from_u64(u64::from(c.va))),
                    ("waited", Json::from_u64(c.waited)),
                    ("edges", Json::from_u64(c.edges)),
                    ("top_cause", Json::Str(c.top_cause.name().into())),
                ])
            })
            .collect();
        let per_core: Vec<Json> = self
            .per_core
            .iter()
            .map(|c| {
                obj(vec![
                    ("core", Json::from_u64(u64::from(c.core))),
                    ("waited", Json::from_u64(c.waited)),
                    ("edges", Json::from_u64(c.edges)),
                ])
            })
            .collect();
        obj(vec![
            ("start", Json::from_u64(self.start)),
            ("end", Json::from_u64(self.end)),
            ("length", Json::from_u64(self.length())),
            ("wait_cycles", Json::from_u64(self.wait_cycles())),
            ("segments", Json::Arr(segments)),
            ("contenders", Json::Arr(contenders)),
            ("per_core", Json::Arr(per_core)),
        ])
    }

    /// Parses the `critpath` object back (round-trip of [`Self::to_json`]).
    pub fn from_json(v: &Json) -> Result<CritPath, String> {
        let req = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("critpath: missing or non-integer field {k:?}"))
        };
        let req_u32 = |v: &Json, k: &str| -> Result<u32, String> {
            u32::try_from(req(v, k)?).map_err(|_| format!("critpath: field {k:?} exceeds u32"))
        };
        let cause_of = |s: &str| -> Result<StallCause, String> {
            StallCause::from_name(s).ok_or_else(|| format!("critpath: unknown cause {s:?}"))
        };
        let arr = |v: &Json, k: &str| -> Result<Vec<Json>, String> {
            v.get(k)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("critpath: missing or non-array field {k:?}"))
        };
        let segments = arr(v, "segments")?
            .iter()
            .map(|s| {
                Ok(Segment {
                    start: req(s, "start")?,
                    end: req(s, "end")?,
                    cause: match s.get("cause") {
                        None | Some(Json::Null) => None,
                        Some(c) => Some(cause_of(
                            c.as_str().ok_or("critpath: non-string segment cause")?,
                        )?),
                    },
                    va: req_u32(s, "va")?,
                    tid: req_u32(s, "tid")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let contenders = arr(v, "contenders")?
            .iter()
            .map(|c| {
                Ok(Contender {
                    va: req_u32(c, "va")?,
                    waited: req(c, "waited")?,
                    edges: req(c, "edges")?,
                    top_cause: cause_of(
                        c.get("top_cause")
                            .and_then(Json::as_str)
                            .ok_or("critpath: missing top_cause")?,
                    )?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_core = arr(v, "per_core")?
            .iter()
            .map(|c| {
                Ok(CoreWait {
                    core: req_u32(c, "core")?,
                    waited: req(c, "waited")?,
                    edges: req(c, "edges")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CritPath {
            start: req(v, "start")?,
            end: req(v, "end")?,
            segments,
            contenders,
            per_core,
        })
    }

    /// Checks the tiling invariants (used by tests and consumers that
    /// ingest externally produced reports).
    pub fn validate(&self) -> Result<(), String> {
        let mut cursor = self.start;
        for (i, s) in self.segments.iter().enumerate() {
            if s.start != cursor {
                return Err(format!(
                    "segment {i} starts at {} but previous ended at {cursor}",
                    s.start
                ));
            }
            if s.end <= s.start {
                return Err(format!("segment {i} is empty or inverted"));
            }
            cursor = s.end;
        }
        if cursor != self.end {
            return Err(format!(
                "segments end at {cursor}, path ends at {}",
                self.end
            ));
        }
        let sum: Cycle = self.segments.iter().map(Segment::cycles).sum();
        if sum != self.length() {
            return Err(format!(
                "segment cycles sum to {sum}, path length is {}",
                self.length()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(
        va: u32,
        consumer_tid: u32,
        producer_tid: u32,
        blocked_at: Cycle,
        produced_at: Cycle,
        woken_at: Cycle,
        cause: StallCause,
    ) -> DepEdge {
        DepEdge {
            va,
            awaited: 1,
            resolved: 1,
            cause,
            consumer_tid,
            consumer_core: consumer_tid % 4,
            producer_tid,
            producer_core: producer_tid % 4,
            produced_at,
            blocked_at,
            woken_at,
            waited: woken_at - blocked_at,
        }
    }

    #[test]
    fn empty_capture_yields_empty_path() {
        let p = CritPath::build(&[], (0, 1000));
        assert!(p.is_empty());
        assert_eq!(p.length(), 0);
        p.validate().unwrap();
    }

    #[test]
    fn chain_follows_producers_and_tiles_exactly() {
        // Task 3 produces for task 2 (woken at 50), task 2 produces for
        // task 1 (woken at 90); an unrelated short wait elsewhere.
        let edges = vec![
            edge(0x100, 2, 3, 10, 40, 50, StallCause::MissingVersion),
            edge(0x100, 1, 2, 60, 80, 90, StallCause::LockedVersion),
            edge(0x200, 5, 6, 5, 6, 8, StallCause::MissingVersion),
        ];
        let p = CritPath::build(&edges, (0, 120));
        p.validate().unwrap();
        assert_eq!(p.start, 0);
        assert_eq!(p.end, 90);
        // compute [0,10) → wait [10,50) → compute [50,60) → wait [60,90).
        assert_eq!(p.segments.len(), 4);
        assert_eq!(p.segments[0].cause, None);
        assert_eq!(p.segments[1].cause, Some(StallCause::MissingVersion));
        assert_eq!(p.segments[1].tid, 2);
        assert_eq!(p.segments[3].cause, Some(StallCause::LockedVersion));
        assert_eq!(p.segments[3].tid, 1);
        assert_eq!(p.wait_cycles(), 40 + 30);
        assert!(p.length() <= 120);
        // Contenders aggregate every edge, hottest first.
        assert_eq!(p.contenders[0].va, 0x100);
        assert_eq!(p.contenders[0].waited, 40 + 30);
        assert_eq!(p.contenders[0].edges, 2);
        assert_eq!(p.contenders[1].va, 0x200);
    }

    #[test]
    fn unattributed_origin_ends_the_chain() {
        let mut e = edge(0x100, 1, 0, 10, 0, 50, StallCause::MissingVersion);
        e.producer_tid = 0;
        let p = CritPath::build(&[e], (0, 100));
        p.validate().unwrap();
        assert_eq!(p.segments.len(), 2); // compute [0,10) + wait [10,50)
        assert_eq!(p.end, 50);
    }

    #[test]
    fn edges_outside_window_are_ignored_and_clamped() {
        let edges = vec![
            // Wake before the window: ignored.
            edge(0x100, 1, 2, 10, 30, 40, StallCause::MissingVersion),
            // Blocked before the window, woken inside: clamped.
            edge(0x100, 3, 4, 80, 140, 150, StallCause::MissingVersion),
        ];
        let p = CritPath::build(&edges, (100, 200));
        p.validate().unwrap();
        assert_eq!(p.start, 100);
        assert_eq!(p.end, 150);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].start, 100);
        assert!(p.length() <= 100);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let edges = vec![
            edge(0x100, 2, 3, 10, 40, 50, StallCause::MissingVersion),
            edge(0x100, 1, 2, 60, 80, 90, StallCause::CoherenceInval),
        ];
        let p = CritPath::build(&edges, (0, 120));
        let back = CritPath::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        let text = p.to_json().to_pretty();
        let reparsed = CritPath::from_json(&osim_metrics::json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed, p);
    }
}
