//! Proof that the cache hierarchy's demand and compressed-line paths are
//! allocation-free once warm: reads, writes, remote forwards, walks'
//! no-allocate reads with the matched line's `fill_local`, compressed
//! fills, their eviction by data fills, and coherence drops with the loss
//! marks they leave. The lines sit on more pages than the L1s can hold at
//! once, so the presence directories keep releasing page chunks and
//! taking them back from their spare lists inside the window.
//!
//! The shared per-thread counting allocator is armed after a warm-up pass
//! over the same lines and disarmed before the assertions; the count of
//! allocations inside the window must be exactly zero.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use osim_mem::cache::LineKind;
use osim_mem::{AccessKind, Hierarchy, HierarchyCfg, PAGE_SIZE};

const CORES: usize = 32;
/// More pages than the machine's set-0 ways (32 cores x 8) can keep live
/// at ~4 lines per page.
const PAGES: u32 = 192;

/// The data line of page `p`: offset 0, so set 0 of every L1.
fn line(p: u32) -> u32 {
    (1 + p) * PAGE_SIZE
}

/// The root word of page `p`: word 64, which also indexes set 0.
fn root(p: u32) -> u32 {
    line(p) + 64 * 4
}

/// One pass over every page: three cores share, write, forward and walk
/// its line, and two cache its compressed line, one of them losing it by
/// coherence. Every fill lands in set 0, so each evicts an older page's
/// data or compressed line.
fn round(h: &mut Hierarchy) {
    for p in 0..PAGES {
        let a = (p as usize * 5) % CORES;
        let (b, d) = ((a + 1) % CORES, (a + 2) % CORES);
        let (line, root) = (line(p), root(p));
        h.access(a, line, AccessKind::Read);
        h.access(b, line, AccessKind::Write);
        h.access(a, line, AccessKind::Read);
        h.access(d, line, AccessKind::ReadNoAlloc);
        h.fill_local(d, line);
        h.compressed_fill(a, root);
        h.compressed_fill(d, root);
        assert_eq!(h.compressed_invalidate_others(a, root), 1 << d);
        assert!(h.compressed_take_lost(d, root));
    }
}

/// Pages none of whose lines any L1 holds: their directory chunks are
/// released, to be taken back when the next round reaches them.
fn vacant_pages(h: &Hierarchy) -> usize {
    (0..PAGES)
        .filter(|&p| {
            (0..CORES).all(|c| {
                h.l1(c).peek(line(p), LineKind::Data).is_none()
                    && h.l1(c).peek(root(p), LineKind::Compressed).is_none()
            })
        })
        .count()
}

#[test]
fn steady_state_hierarchy_is_allocation_free() {
    let mut h = Hierarchy::new(HierarchyCfg::paper(CORES));
    // Warm-up: the directories' page tables, chunk pools and spare lists
    // and the L1 payload slabs reach their steady size.
    for _ in 0..4 {
        round(&mut h);
    }
    assert!(vacant_pages(&h) >= 64, "pages must leave every L1");

    let before = h.stats.clone();
    let ((), allocs) = counting_alloc::counted(|| {
        for _ in 0..16 {
            round(&mut h);
        }
    });

    // Every measured path ran inside the window.
    let ops = 16 * u64::from(PAGES);
    assert_eq!(h.stats.remote_forwards - before.remote_forwards, ops);
    assert!(h.stats.invalidations - before.invalidations >= ops);
    assert_eq!(
        h.stats.compressed_coherence_drops - before.compressed_coherence_drops,
        ops
    );
    let misses: u64 = (0..CORES)
        .map(|c| h.stats.l1_read_misses[c] - before.l1_read_misses[c])
        .sum();
    assert!(misses >= ops, "first-touch reads miss the L1");
    assert!(vacant_pages(&h) >= 64, "pages must leave every L1");
    assert_eq!(allocs, 0, "the hierarchy allocated {allocs} times");
}
