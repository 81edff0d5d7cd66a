//! Property tests for the critical-path analysis and the report schema:
//! whatever (possibly nonsensical) edge soup capture hands over,
//! the extracted path must stay inside the measured window, its segments
//! must tile it exactly with no gaps or overlaps, and a report carrying
//! it must survive a JSON round-trip unchanged.

use proptest::prelude::*;

use osim_cpu::{CpuStats, DepEdge, EngineStats, MachineCfg, RunHists, StallCause};
use osim_mem::MemStats;
use osim_metrics::json::parse;
use osim_report::{CritPath, ReportScale, Segment, SimReport, TraceCounts};
use osim_uarch::OStats;

fn cause_strategy() -> impl Strategy<Value = StallCause> {
    prop_oneof![
        Just(StallCause::MissingVersion),
        Just(StallCause::LockedVersion),
        Just(StallCause::CoherenceInval),
        Just(StallCause::FreeListGc),
    ]
}

/// Arbitrary-ish edges with ordered timestamps (blocked ≤ produced ≤
/// woken) over a small task/address universe so chains actually form.
fn edge_strategy(horizon: u64) -> impl Strategy<Value = DepEdge> {
    (
        (
            0u32..4, // va index
            1u32..8, // consumer tid
            0u32..8, // producer tid (0 = unattributed)
            cause_strategy(),
        ),
        (
            0u64..horizon, // blocked_at
            0u64..horizon, // produce offset
            1u64..64,      // wake offset after produce
            1u32..16,      // version
        ),
    )
        .prop_map(
            |((va, consumer, producer, cause), (blocked, produce_off, wake_off, v))| {
                let produced_at = blocked.saturating_add(produce_off);
                let woken_at = produced_at + wake_off;
                DepEdge {
                    va: 0x1000 + va * 0x100,
                    awaited: v,
                    resolved: v,
                    cause,
                    consumer_tid: consumer,
                    consumer_core: consumer % 4,
                    producer_tid: producer,
                    producer_core: producer % 4,
                    produced_at,
                    blocked_at: blocked,
                    woken_at,
                    waited: woken_at - blocked,
                }
            },
        )
}

proptest! {
    /// The path never exceeds the measured window: its length is at most
    /// `end - start` (the run's measured cycles for that window).
    #[test]
    fn path_length_never_exceeds_total_cycles(
        edges in proptest::collection::vec(edge_strategy(4096), 0..40),
        start in 0u64..512,
        extent in 1u64..8192,
    ) {
        let window = (start, start + extent);
        let cp = CritPath::build(&edges, window);
        prop_assert!(cp.start == window.0);
        prop_assert!(cp.end <= window.1);
        prop_assert!(cp.length() <= extent);
    }

    /// Segments tile the path exactly: consecutive, non-empty, no gaps or
    /// overlaps, and their cycle sum equals the path length. Wait
    /// segments carry a cause, compute segments none — together the
    /// causes partition the path's cycles with nothing double-counted.
    #[test]
    fn segments_partition_the_path_exactly(
        edges in proptest::collection::vec(edge_strategy(2048), 0..40),
        extent in 1u64..4096,
    ) {
        let cp = CritPath::build(&edges, (0, extent));
        cp.validate().expect("tiling invariants");
        let mut cursor = cp.start;
        let mut by_kind = [0u64; 5]; // 4 causes + compute
        for s in &cp.segments {
            prop_assert_eq!(s.start, cursor, "no gap or overlap");
            prop_assert!(s.end > s.start, "no empty segment");
            cursor = s.end;
            by_kind[s.cause.map_or(4, |c| c.index())] += s.cycles();
        }
        prop_assert_eq!(cursor, cp.end);
        prop_assert_eq!(by_kind.iter().sum::<u64>(), cp.length());
        let waits: u64 = by_kind[..4].iter().sum();
        prop_assert_eq!(waits, cp.wait_cycles());
    }

    /// A current-schema report carrying a critical path round-trips `to_json` → text → `from_json` exactly.
    #[test]
    fn capture_report_round_trips(
        edges in proptest::collection::vec(edge_strategy(2048), 0..20),
        cycles in 1u64..1 << 30,
    ) {
        let mut r = SimReport::new(
            "analyze",
            "proptest",
            "capture",
            &MachineCfg::paper(2),
            ReportScale { small: 1, large: 2, ops: 3, mat_n: 4, lev_len: 5 },
            cycles,
            CpuStats::for_cores(2),
            MemStats::default(),
            OStats::default(),
            EngineStats::default(),
            RunHists::default(),
        );
        r.critpath = Some(CritPath::build(&edges, (0, cycles)));
        r.trace = Some(TraceCounts {
            dep_edges: edges.len() as u64,
            ..TraceCounts::default()
        });
        let text = r.to_json().to_pretty();
        let back = SimReport::from_json(&parse(&text).expect("parses")).expect("valid");
        prop_assert_eq!(back.critpath, r.critpath);
        prop_assert_eq!(back.trace, r.trace);
        prop_assert_eq!(back.cycles, r.cycles);
    }
}

/// Deterministic sanity case alongside the properties: a hand-built
/// two-hop chain yields the documented segment structure.
#[test]
fn two_hop_chain_has_four_segments() {
    let mk = |consumer, producer, blocked, produced, woken| DepEdge {
        va: 0x2000,
        awaited: 1,
        resolved: 1,
        cause: StallCause::MissingVersion,
        consumer_tid: consumer,
        consumer_core: 0,
        producer_tid: producer,
        producer_core: 1,
        produced_at: produced,
        blocked_at: blocked,
        woken_at: woken,
        waited: woken - blocked,
    };
    let cp = CritPath::build(&[mk(2, 3, 10, 40, 50), mk(1, 2, 60, 80, 90)], (0, 100));
    cp.validate().unwrap();
    assert_eq!(
        cp.segments.iter().map(Segment::cycles).sum::<u64>(),
        cp.length()
    );
    assert_eq!(cp.segments.len(), 4);
    assert_eq!(cp.wait_cycles(), 70);
}
