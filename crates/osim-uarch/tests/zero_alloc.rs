//! Proof that the versioned-operation path is allocation-free once warm:
//! direct loads, data fills that evict a compressed line, walked loads,
//! lock-load/unlock pairs, the coherence drops another core's lock-loads
//! cause and the loss marks they leave all run without touching the heap.
//! Version lists are searched in simulated memory and compressed-line
//! payloads live in each L1's slab, whose freed slots are reused, so
//! nothing on these paths needs host storage beyond what the warm-up
//! sized.
//!
//! The shared per-thread counting allocator is armed after a warm-up pass
//! over the same roots and disarmed before the assertions; the count of
//! allocations inside the window must be exactly zero.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use osim_mem::{AccessKind, HierarchyCfg, MemSys, PageFlags};
use osim_uarch::{OManager, OManagerCfg, OpOutcome};

const ROOTS: u32 = 16;
const VERSIONS: u32 = 4;
const LOCKER: u32 = 1000;
/// Physical base of the conventional lines that evict compressed ones;
/// no version block lives this high.
const EVICTORS: u32 = 0x4000_0000;

fn done(out: OpOutcome) -> u32 {
    match out {
        OpOutcome::Done { value, .. } => value,
        other => panic!("expected Done, got {other:?}"),
    }
}

/// One pass of every measured operation over every root. Core 1 caches
/// each root's line first, so core 0's lock-load must drop it.
fn round(ms: &mut MemSys, mgr: &mut OManager, roots: &[(u32, u32)]) {
    for &(va, root_pa) in roots {
        // Direct: the newest version sits in core 0's compressed line.
        assert_eq!(done(mgr.load_version(ms, 0, va, VERSIONS).unwrap()), va);
        // Eight data fills into the line's set evict it and free its
        // payload; the next load walks and refills a recycled slot.
        let cfg = ms.hier.cfg().l1;
        let sets = cfg.size_bytes / 64 / cfg.assoc;
        let set = (root_pa / 4) % sets;
        for way in 0..cfg.assoc {
            ms.hier
                .access(0, EVICTORS + (way * sets + set) * 64, AccessKind::Read);
        }
        assert!(ms.hier.compressed_peek(0, root_pa).is_none());
        assert_eq!(done(mgr.load_version(ms, 0, va, VERSIONS).unwrap()), va);
        // Walked: without the line, version 1 needs a full list walk.
        ms.hier.compressed_drop(0, root_pa);
        assert_eq!(done(mgr.load_version(ms, 0, va, 1).unwrap()), va);
        // Core 1 caches the structure; core 0's lock-load then discards
        // core 1's line by coherence.
        done(mgr.load_latest(ms, 1, va, VERSIONS).unwrap());
        done(mgr.lock_load_version(ms, 0, va, VERSIONS, LOCKER).unwrap());
        assert!(mgr.take_coherence_lost(ms, 1, va));
        assert!(
            !mgr.take_coherence_lost(ms, 1, va),
            "a mark is consumed once"
        );
        done(
            mgr.unlock_version(ms, 0, va, VERSIONS, LOCKER, None)
                .unwrap(),
        );
    }
}

#[test]
fn steady_state_versioned_ops_are_allocation_free() {
    let mut ms = MemSys::new(HierarchyCfg::paper(2), 64 << 20);
    let base = ms.map_zeroed(1, PageFlags::VersionedRoot).unwrap();
    let roots: Vec<(u32, u32)> = (0..ROOTS)
        .map(|i| {
            let va = base + i * 64;
            (va, ms.pt.translate_versioned(va).unwrap())
        })
        .collect();
    let mut mgr = OManager::new(OManagerCfg::default(), &mut ms).unwrap();
    for &(va, _) in &roots {
        for v in 1..=VERSIONS {
            done(mgr.store_version(&mut ms, 0, va, v, va).unwrap());
        }
    }
    // Warm-up: every map and scratch buffer reaches its steady size.
    for _ in 0..4 {
        round(&mut ms, &mut mgr, &roots);
    }

    let before = mgr.stats.clone();
    let drops_before = ms.hier.stats.compressed_coherence_drops;
    let ((), allocs) = counting_alloc::counted(|| {
        for _ in 0..32 {
            round(&mut ms, &mut mgr, &roots);
        }
    });

    // Every measured path ran inside the window.
    let ops = 32 * u64::from(ROOTS);
    assert!(mgr.stats.direct_hits - before.direct_hits >= ops);
    assert!(mgr.stats.full_lookups - before.full_lookups >= 2 * ops);
    assert!(mgr.stats.walk_reads - before.walk_reads >= ops);
    assert_eq!(
        ms.hier.stats.compressed_coherence_drops - drops_before,
        ops,
        "each round drops core 1's line once per root"
    );
    assert_eq!(allocs, 0, "versioned operations allocated {allocs} times");
}
