//! Chrome trace-event exporter (loadable in Perfetto / `chrome://tracing`).
//!
//! Maps the cross-layer capture onto the trace-event JSON model:
//!
//! * **pid 0 "cores"** — one track per core (`tid` = core id) with each
//!   executed operation as a complete (`ph: "X"`) event, stall cause in
//!   `args`, and memory-hierarchy events as instants on the same track;
//! * **pid 1 "tasks"** — one track per task with its lifetime span (first
//!   to last traced operation);
//! * **pid 2 "version manager"** — GC phases as duration events plus
//!   free-list instants (carves, refill traps, watermark crossings);
//! * **pid 3 "telemetry"** — counter (`ph: "C"`) tracks from the interval
//!   sampler (instructions, stalls by cause, free blocks, cache hits),
//!   plus cumulative per-core stalled-cycle counters on the core tracks;
//! * dependency-flow edges as flow (`ph: "s"`/`"f"`) arrows from the
//!   producing core's track to the woken consumer's.
//!
//! Timestamps are simulated cycles written into the `ts`/`dur` fields
//! directly; `displayTimeUnit` is set so viewers render them compactly.
//! Every event name passes through `clean_name`, which clips overlong
//! names and replaces non-printable characters — viewers choke on raw
//! control bytes, and names here can embed formatted addresses.

use std::collections::BTreeMap;

use osim_cpu::{DepEdge, Sample, TraceRecord};
use osim_mem::{MemEvent, MemEventKind};
use osim_metrics::HostSpan;
use osim_uarch::{MvmEvent, MvmEventKind};

use crate::json::{obj, Json};

const PID_CORES: u64 = 0;
const PID_TASKS: u64 = 1;
const PID_MVM: u64 = 2;
const PID_TELEMETRY: u64 = 3;

/// Longest event name emitted (viewers render, but truncate, long names;
/// a runaway formatted name would bloat the file for no display benefit).
const NAME_MAX: usize = 64;

/// Defensive name sanitizer: replaces non-printable characters (which
/// break some trace viewers' JSON handling) and clips to [`NAME_MAX`].
fn clean_name(raw: &str) -> String {
    raw.chars()
        .take(NAME_MAX)
        .map(|c| {
            if c.is_control() || c == '"' || c == '\\' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Builds the full Chrome trace-event document from the capture streams
/// of one traced run. `deps` and `samples` come from the causal-capture
/// rings and may be empty (capture off).
pub fn chrome_trace(
    ops: &[TraceRecord],
    mem: &[MemEvent],
    mvm: &[MvmEvent],
    deps: &[DepEdge],
    samples: &[Sample],
) -> Json {
    let mut events: Vec<Json> = Vec::new();

    // Last timestamp any stream reaches: counter tracks flush a final
    // sample here. Perfetto clips a counter series at its last sample, so
    // a counter that stops emitting mid-run reads as truncated (or worse,
    // as having dropped to nothing) even though the value simply stopped
    // changing.
    let run_end = ops
        .iter()
        .map(|r| r.end)
        .chain(mem.iter().map(|e| e.cycle))
        .chain(mvm.iter().map(|e| e.cycle))
        .chain(deps.iter().map(|d| d.woken_at))
        .chain(samples.iter().map(|s| s.at))
        .max()
        .unwrap_or(0);

    for (pid, name) in [
        (PID_CORES, "cores"),
        (PID_TASKS, "tasks"),
        (PID_MVM, "version manager"),
        (PID_TELEMETRY, "telemetry"),
    ] {
        events.push(obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::from_u64(pid)),
            ("tid", Json::from_u64(0)),
            ("args", obj(vec![("name", Json::Str(name.into()))])),
        ]));
    }

    // Per-core operation spans.
    for r in ops {
        let mut args = vec![
            ("task", Json::from_u64(r.tid as u64)),
            ("va", Json::Str(format!("{:#x}", r.va))),
            ("version", Json::from_u64(r.version as u64)),
        ];
        if let Some(cause) = r.stall {
            args.push(("stall_cause", Json::Str(cause.name().into())));
        }
        events.push(obj(vec![
            ("name", Json::Str(clean_name(r.kind.name()))),
            ("ph", Json::Str("X".into())),
            ("ts", Json::from_u64(r.start)),
            ("dur", Json::from_u64(r.end - r.start)),
            ("pid", Json::from_u64(PID_CORES)),
            ("tid", Json::from_u64(r.core as u64)),
            ("args", obj(args)),
        ]));
    }

    // Cumulative per-core stalled-op cycles as counter tracks (one series
    // per core, fed by the already-collected per-op stall attribution).
    // `(cumulative, last emitted ts)` per core, so the final flush below
    // knows which series already reach the end of the run.
    let mut stalled_cum: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for r in ops {
        if r.stall.is_some() {
            let e = stalled_cum.entry(r.core).or_insert((0, 0));
            e.0 += r.end - r.start;
            e.1 = r.end;
            events.push(core_stall_counter(r.core, r.end, e.0));
        }
    }
    // Final flush sample at run end for every stall-counter series.
    for (&core, &(cum, last_ts)) in &stalled_cum {
        if last_ts < run_end {
            events.push(core_stall_counter(core, run_end, cum));
        }
    }

    // Per-task lifetime spans (first traced op to last).
    let mut spans: BTreeMap<u32, (u64, u64, usize)> = BTreeMap::new();
    for r in ops {
        let e = spans.entry(r.tid).or_insert((r.start, r.end, r.core));
        e.0 = e.0.min(r.start);
        e.1 = e.1.max(r.end);
    }
    for (tid, (start, end, core)) in spans {
        events.push(obj(vec![
            ("name", Json::Str(clean_name(&format!("task {tid}")))),
            ("ph", Json::Str("X".into())),
            ("ts", Json::from_u64(start)),
            ("dur", Json::from_u64(end - start)),
            ("pid", Json::from_u64(PID_TASKS)),
            ("tid", Json::from_u64(tid as u64)),
            ("args", obj(vec![("core", Json::from_u64(core as u64))])),
        ]));
    }

    // Memory-hierarchy instants on the issuing (or victim) core's track.
    for e in mem {
        let mut args = vec![("pa", Json::Str(format!("{:#x}", e.pa)))];
        if let MemEventKind::Access { latency, .. } = e.kind {
            args.push(("latency", Json::from_u64(latency)));
        }
        events.push(obj(vec![
            ("name", Json::Str(clean_name(e.kind_name()))),
            ("ph", Json::Str("i".into())),
            ("s", Json::Str("t".into())),
            ("ts", Json::from_u64(e.cycle)),
            ("pid", Json::from_u64(PID_CORES)),
            ("tid", Json::from_u64(e.core as u64)),
            ("args", obj(args)),
        ]));
    }

    // Version-manager track: GC phases as durations, the rest as instants.
    let mut gc_start: Option<(u64, u32, u32)> = None;
    let last_cycle = mvm.iter().map(|e| e.cycle).max().unwrap_or(0);
    for e in mvm {
        match e.kind {
            MvmEventKind::GcStart { boundary, pending } => {
                gc_start = Some((e.cycle, boundary, pending));
            }
            MvmEventKind::GcEnd { reclaimed } => {
                let (start, boundary, pending) = gc_start.take().unwrap_or((e.cycle, 0, 0));
                events.push(gc_phase(start, e.cycle, boundary, pending, Some(reclaimed)));
            }
            MvmEventKind::WatermarkCrossed { free } => {
                events.push(mvm_instant(e, vec![("free", Json::from_u64(free as u64))]));
            }
            MvmEventKind::FreeListCarve { blocks } => {
                events.push(mvm_instant(
                    e,
                    vec![("blocks", Json::from_u64(blocks as u64))],
                ));
            }
            MvmEventKind::FreeListAlloc { pa, free } => {
                events.push(mvm_instant(
                    e,
                    vec![
                        ("pa", Json::Str(format!("{pa:#x}"))),
                        ("free", Json::from_u64(free as u64)),
                    ],
                ));
            }
            MvmEventKind::RefillTrap => {
                events.push(mvm_instant(e, vec![]));
            }
            MvmEventKind::PoolShrink { dropped } => {
                events.push(mvm_instant(
                    e,
                    vec![("dropped", Json::from_u64(dropped as u64))],
                ));
            }
            MvmEventKind::CarveFailed { attempt } => {
                events.push(mvm_instant(
                    e,
                    vec![("attempt", Json::from_u64(attempt as u64))],
                ));
            }
            MvmEventKind::CompressedOccupancy {
                core,
                root_pa,
                entries,
            } => {
                events.push(mvm_instant(
                    e,
                    vec![
                        ("core", Json::from_u64(core as u64)),
                        ("root_pa", Json::Str(format!("{root_pa:#x}"))),
                        ("entries", Json::from_u64(entries as u64)),
                    ],
                ));
            }
        }
    }
    if let Some((start, boundary, pending)) = gc_start {
        // A phase still open at capture end spans to the last event.
        events.push(gc_phase(
            start,
            last_cycle.max(start),
            boundary,
            pending,
            None,
        ));
    }

    // Dependency-flow arrows: one flow per attributed edge, from the
    // producing core's track at produce time to the consumer's at wake.
    for (id, d) in deps.iter().enumerate().filter(|(_, d)| d.attributed()) {
        let name = clean_name(&format!("dep va={:#x} v{}", d.va, d.resolved));
        for (ph, ts, core, extra) in [
            (
                "s",
                d.produced_at,
                d.producer_core,
                ("task", d.producer_tid),
            ),
            ("f", d.woken_at, d.consumer_core, ("task", d.consumer_tid)),
        ] {
            let mut ev = vec![
                ("name", Json::Str(name.clone())),
                ("cat", Json::Str("dep".into())),
                ("id", Json::from_u64(id as u64)),
                ("ph", Json::Str(ph.into())),
                ("ts", Json::from_u64(ts)),
                ("pid", Json::from_u64(PID_CORES)),
                ("tid", Json::from_u64(u64::from(core))),
                (
                    "args",
                    obj(vec![
                        (extra.0, Json::from_u64(u64::from(extra.1))),
                        ("cause", Json::Str(d.cause.name().into())),
                    ]),
                ),
            ];
            if ph == "f" {
                // Bind the finish to the enclosing slice, per the spec.
                ev.push(("bp", Json::Str("e".into())));
            }
            events.push(obj(ev));
        }
    }

    // Interval-telemetry counter tracks, with a final flush sample at run
    // end repeating the last values so the series span the whole trace.
    for s in samples {
        telemetry_counters(s, s.at, &mut events);
    }
    if let Some(last) = samples.last() {
        if last.at < run_end {
            telemetry_counters(last, run_end, &mut events);
        }
    }

    obj(vec![
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Builds a Chrome trace-event document from *host* wall-clock spans (the
/// `--host-chrome` export): one process per span category — worker jobs,
/// vacuum passes, cache probes — with the span's `tid` (worker index) as
/// the track. Timestamps are microseconds since the host trace was armed,
/// which Chrome's `ts` field expects natively, so the viewer shows real
/// durations.
pub fn host_trace_doc(spans: &[HostSpan]) -> Json {
    // Stable pid per category, in first-seen order.
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let next = pids.len() as u64;
        pids.entry(s.cat).or_insert(next);
    }
    let mut events: Vec<Json> = Vec::new();
    for (cat, pid) in &pids {
        events.push(obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::from_u64(*pid)),
            ("tid", Json::from_u64(0)),
            ("args", obj(vec![("name", Json::Str((*cat).into()))])),
        ]));
    }
    for s in spans {
        events.push(obj(vec![
            ("name", Json::Str(clean_name(&s.name))),
            ("cat", Json::Str(s.cat.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::from_u64(s.start_us)),
            ("dur", Json::from_u64(s.dur_us)),
            ("pid", Json::from_u64(pids[s.cat])),
            ("tid", Json::from_u64(s.tid)),
        ]));
    }
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// One sample of a per-core cumulative stalled-cycles counter track.
fn core_stall_counter(core: usize, ts: u64, value: u64) -> Json {
    obj(vec![
        (
            "name",
            Json::Str(clean_name(&format!("core {core} stalled cycles"))),
        ),
        ("ph", Json::Str("C".into())),
        ("ts", Json::from_u64(ts)),
        ("pid", Json::from_u64(PID_CORES)),
        ("tid", Json::from_u64(core as u64)),
        ("args", obj(vec![("value", Json::from_u64(value))])),
    ])
}

/// The five interval-telemetry counter events of one sample, stamped `ts`.
fn telemetry_counters(s: &Sample, ts: u64, events: &mut Vec<Json>) {
    let stall_series: Vec<(&str, Json)> = osim_cpu::StallCause::ALL
        .iter()
        .map(|c| (c.name(), Json::from_u64(s.stalls[c.index()])))
        .collect();
    for (name, args) in [
        (
            "instructions",
            vec![("value", Json::from_u64(s.instructions))],
        ),
        ("stalls", stall_series),
        (
            "free_blocks",
            vec![("value", Json::from_u64(s.free_blocks))],
        ),
        (
            "l1",
            vec![
                ("hits", Json::from_u64(s.l1_hits)),
                ("misses", Json::from_u64(s.l1_misses)),
            ],
        ),
        (
            "l2",
            vec![
                ("hits", Json::from_u64(s.l2_hits)),
                ("misses", Json::from_u64(s.l2_misses)),
            ],
        ),
    ] {
        events.push(obj(vec![
            ("name", Json::Str(clean_name(name))),
            ("ph", Json::Str("C".into())),
            ("ts", Json::from_u64(ts)),
            ("pid", Json::from_u64(PID_TELEMETRY)),
            ("tid", Json::from_u64(0)),
            ("args", obj(args)),
        ]));
    }
}

fn gc_phase(start: u64, end: u64, boundary: u32, pending: u32, reclaimed: Option<u32>) -> Json {
    let mut args = vec![
        ("boundary_task", Json::from_u64(boundary as u64)),
        ("pending_blocks", Json::from_u64(pending as u64)),
    ];
    match reclaimed {
        Some(n) => args.push(("reclaimed_blocks", Json::from_u64(n as u64))),
        None => args.push(("unfinished", Json::Bool(true))),
    }
    obj(vec![
        ("name", Json::Str(clean_name("gc phase"))),
        ("ph", Json::Str("X".into())),
        ("ts", Json::from_u64(start)),
        ("dur", Json::from_u64(end - start)),
        ("pid", Json::from_u64(PID_MVM)),
        ("tid", Json::from_u64(0)),
        ("args", obj(args)),
    ])
}

fn mvm_instant(e: &MvmEvent, args: Vec<(&str, Json)>) -> Json {
    obj(vec![
        ("name", Json::Str(clean_name(e.kind_name()))),
        ("ph", Json::Str("i".into())),
        ("s", Json::Str("g".into())),
        ("ts", Json::from_u64(e.cycle)),
        ("pid", Json::from_u64(PID_MVM)),
        ("tid", Json::from_u64(0)),
        ("args", obj(args)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use osim_cpu::{OpKind, StallCause};
    use osim_mem::Level;

    fn op(core: usize, tid: u32, start: u64, end: u64, stall: Option<StallCause>) -> TraceRecord {
        TraceRecord {
            core,
            tid,
            kind: OpKind::VersionedLoad,
            va: 0x8000,
            version: tid,
            start,
            end,
            stall,
        }
    }

    #[test]
    fn document_shape_is_chrome_loadable() {
        let ops = vec![
            op(0, 1, 10, 60, None),
            op(1, 2, 20, 200, Some(StallCause::MissingVersion)),
        ];
        let mem = vec![MemEvent {
            cycle: 15,
            core: 0,
            pa: 0x8000,
            kind: MemEventKind::Access {
                kind: osim_mem::AccessKind::Read,
                level: Level::Dram,
                latency: 120,
            },
        }];
        let mvm = vec![
            MvmEvent {
                cycle: 30,
                kind: MvmEventKind::GcStart {
                    boundary: 4,
                    pending: 10,
                },
            },
            MvmEvent {
                cycle: 90,
                kind: MvmEventKind::GcEnd { reclaimed: 10 },
            },
        ];
        let doc = chrome_trace(&ops, &mem, &mvm, &[], &[]);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Every event carries the mandatory fields.
        for e in events {
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_u64).is_some());
            }
        }
        // The stalled op names its cause.
        let stalled = events
            .iter()
            .find(|e| e.get("args").and_then(|a| a.get("stall_cause")).is_some())
            .expect("stalled op present");
        assert_eq!(
            stalled
                .get("args")
                .unwrap()
                .get("stall_cause")
                .and_then(Json::as_str),
            Some("missing_version")
        );
        // The GC phase became one duration event.
        let gc = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("gc phase"))
            .expect("gc phase present");
        assert_eq!(gc.get("ts").and_then(Json::as_u64), Some(30));
        assert_eq!(gc.get("dur").and_then(Json::as_u64), Some(60));
        // Task spans cover first..last op of the task.
        let t2 = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("task 2"))
            .unwrap();
        assert_eq!(t2.get("ts").and_then(Json::as_u64), Some(20));
        assert_eq!(t2.get("dur").and_then(Json::as_u64), Some(180));
        assert_eq!(t2.get("pid").and_then(Json::as_u64), Some(PID_TASKS));
    }

    #[test]
    fn counters_and_flows_export() {
        let ops = vec![op(1, 2, 20, 200, Some(StallCause::MissingVersion))];
        let deps = vec![DepEdge {
            va: 0x8000,
            awaited: 2,
            resolved: 2,
            cause: StallCause::MissingVersion,
            consumer_tid: 2,
            consumer_core: 1,
            producer_tid: 1,
            producer_core: 0,
            produced_at: 150,
            blocked_at: 20,
            woken_at: 190,
            waited: 170,
        }];
        let samples = vec![Sample {
            at: 1000,
            instructions: 42,
            stalls: [5, 0, 0, 0],
            free_blocks: 99,
            l1_hits: 7,
            l1_misses: 1,
            l2_hits: 2,
            l2_misses: 1,
        }];
        let doc = chrome_trace(&ops, &[], &[], &deps, &samples);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // The stalled op fed a cumulative per-core counter.
        let ctr = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("core 1 stalled cycles"))
            .expect("stall counter present");
        assert_eq!(ctr.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            ctr.get("args").unwrap().get("value").and_then(Json::as_u64),
            Some(180)
        );
        // The dependency edge became a matched flow pair.
        let flows: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("dep"))
            .collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].get("ph").and_then(Json::as_str), Some("s"));
        assert_eq!(flows[0].get("ts").and_then(Json::as_u64), Some(150));
        assert_eq!(flows[0].get("tid").and_then(Json::as_u64), Some(0));
        assert_eq!(flows[1].get("ph").and_then(Json::as_str), Some("f"));
        assert_eq!(flows[1].get("ts").and_then(Json::as_u64), Some(190));
        assert_eq!(flows[1].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(flows[0].get("id"), flows[1].get("id"));
        // Sample counters landed on the telemetry process.
        let free = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("free_blocks"))
            .expect("free_blocks counter present");
        assert_eq!(free.get("pid").and_then(Json::as_u64), Some(PID_TELEMETRY));
        assert_eq!(
            free.get("args")
                .unwrap()
                .get("value")
                .and_then(Json::as_u64),
            Some(99)
        );
    }

    #[test]
    fn counter_tracks_flush_at_run_end() {
        // The stalled op ends at 200 and the last telemetry sample sits at
        // 1000, but a mem event stretches the run to 5000: every counter
        // series must emit a final sample there or Perfetto renders it
        // truncated.
        let ops = vec![op(1, 2, 20, 200, Some(StallCause::MissingVersion))];
        let mem = vec![MemEvent {
            cycle: 5000,
            core: 0,
            pa: 0x8000,
            kind: MemEventKind::Access {
                kind: osim_mem::AccessKind::Read,
                level: Level::Dram,
                latency: 120,
            },
        }];
        let samples = vec![Sample {
            at: 1000,
            instructions: 42,
            stalls: [5, 0, 0, 0],
            free_blocks: 99,
            l1_hits: 7,
            l1_misses: 1,
            l2_hits: 2,
            l2_misses: 1,
        }];
        let doc = chrome_trace(&ops, &mem, &[], &[], &samples);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let series = |name: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .map(|e| e.get("ts").and_then(Json::as_u64).unwrap())
                .collect()
        };
        // Each counter series ends with a flush sample at the run end,
        // repeating the last value.
        let stall_ts = series("core 1 stalled cycles");
        assert_eq!(stall_ts, vec![200, 5000]);
        let free_ts = series("free_blocks");
        assert_eq!(free_ts, vec![1000, 5000]);
        let last_free = events
            .iter()
            .rfind(|e| e.get("name").and_then(Json::as_str) == Some("free_blocks"))
            .unwrap();
        assert_eq!(
            last_free
                .get("args")
                .unwrap()
                .get("value")
                .and_then(Json::as_u64),
            Some(99)
        );
    }

    #[test]
    fn host_trace_doc_groups_categories_into_processes() {
        let spans = vec![
            HostSpan {
                cat: "job",
                name: "fig7 s0".into(),
                tid: 2,
                start_us: 100,
                dur_us: 50,
            },
            HostSpan {
                cat: "vacuum",
                name: "pass".into(),
                tid: 0,
                start_us: 120,
                dur_us: 5,
            },
            HostSpan {
                cat: "job",
                name: "fig8 s1".into(),
                tid: 3,
                start_us: 160,
                dur_us: 40,
            },
        ];
        let doc = host_trace_doc(&spans);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Two categories → two process_name metadata events.
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        // Both job spans share a pid; the vacuum span uses a different one.
        let pid_of = |name: &str| -> u64 {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("pid").and_then(Json::as_u64))
                .unwrap()
        };
        assert_eq!(pid_of("fig7 s0"), pid_of("fig8 s1"));
        assert_ne!(pid_of("fig7 s0"), pid_of("pass"));
        // Span fields survive: the second job span sits on worker track 3.
        let j = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("fig8 s1"))
            .unwrap();
        assert_eq!(j.get("tid").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("ts").and_then(Json::as_u64), Some(160));
        assert_eq!(j.get("dur").and_then(Json::as_u64), Some(40));
    }

    #[test]
    fn names_are_escaped_and_clipped() {
        assert_eq!(clean_name("plain name"), "plain name");
        assert_eq!(clean_name("bad\nname\t\"x\\"), "bad_name__x_");
        let long = "x".repeat(200);
        assert_eq!(clean_name(&long).len(), NAME_MAX);
    }

    #[test]
    fn unfinished_gc_phase_still_exports() {
        let mvm = vec![MvmEvent {
            cycle: 40,
            kind: MvmEventKind::GcStart {
                boundary: 1,
                pending: 2,
            },
        }];
        let doc = chrome_trace(&[], &[], &mvm, &[], &[]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let gc = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("gc phase"))
            .unwrap();
        assert_eq!(
            gc.get("args").unwrap().get("unfinished"),
            Some(&Json::Bool(true))
        );
    }
}
