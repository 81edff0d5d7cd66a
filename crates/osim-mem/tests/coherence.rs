//! Coherence-protocol scenario tests for the hierarchy: MESI state walks,
//! inclusion, and the no-allocate/fill-local paths the O-structure manager
//! depends on.

use osim_mem::{AccessKind, CacheCfg, Hierarchy, HierarchyCfg, Level};

fn hier(cores: usize) -> Hierarchy {
    Hierarchy::new(HierarchyCfg::paper(cores))
}

#[test]
fn read_read_write_upgrade_walk() {
    let mut h = hier(4);
    // Three cores read the same line: first from DRAM, then L2.
    assert_eq!(h.access(0, 0x9000, AccessKind::Read).level, Level::Dram);
    assert_eq!(h.access(1, 0x9000, AccessKind::Read).level, Level::L2);
    assert_eq!(h.access(2, 0x9000, AccessKind::Read).level, Level::L2);
    // Core 1 writes: local hit + upgrade, invalidating cores 0 and 2.
    let inv_before = h.stats.invalidations;
    assert_eq!(h.access(1, 0x9000, AccessKind::Write).level, Level::L1);
    assert_eq!(h.stats.invalidations - inv_before, 2);
    // Cores 0 and 2 lost their copies; core 1 now forwards dirty data.
    assert_eq!(h.access(0, 0x9000, AccessKind::Read).level, Level::RemoteL1);
    assert_eq!(h.access(2, 0x9000, AccessKind::Read).level, Level::L2);
}

#[test]
fn dirty_forward_then_both_can_read_locally() {
    let mut h = hier(2);
    h.access(0, 0x40, AccessKind::Write);
    assert_eq!(h.access(1, 0x40, AccessKind::Read).level, Level::RemoteL1);
    // After the forward both have Shared copies: local hits on both sides.
    assert_eq!(h.access(0, 0x40, AccessKind::Read).level, Level::L1);
    assert_eq!(h.access(1, 0x40, AccessKind::Read).level, Level::L1);
}

#[test]
fn ping_pong_writes_bounce_between_cores() {
    let mut h = hier(2);
    h.access(0, 0x80, AccessKind::Write);
    for i in 0..6 {
        let writer = 1 - (i % 2);
        let r = h.access(writer, 0x80, AccessKind::Write);
        assert_eq!(r.level, Level::RemoteL1, "iteration {i}");
    }
    assert!(h.stats.remote_forwards >= 6);
}

#[test]
fn l2_eviction_back_invalidates_l1() {
    // A tiny L2 forces evictions that must strip L1 copies (inclusion).
    let mut h = Hierarchy::new(HierarchyCfg {
        cores: 1,
        l1: CacheCfg::l1_paper(),
        l2: CacheCfg {
            size_bytes: 4096, // 64 lines, 16-way => 4 sets
            assoc: 16,
            hit_latency: 35,
        },
        dram_latency: 120,
    });
    // 17 lines mapping to the same L2 set: stride = sets * 64 = 256.
    for i in 0..17u32 {
        h.access(0, i * 256, AccessKind::Read);
    }
    assert!(h.stats.back_invalidations >= 1, "inclusion enforced");
    // The back-invalidated line is a miss in L1 despite L1 having room.
    let r = h.access(0, 0, AccessKind::Read);
    assert_ne!(r.level, Level::L1);
}

#[test]
fn read_no_alloc_then_fill_local_promotes() {
    let mut h = hier(2);
    h.access(0, 0x200, AccessKind::ReadNoAlloc);
    // The walk decided this block matters: promote it without a charge.
    h.fill_local(0, 0x200);
    assert_eq!(h.access(0, 0x200, AccessKind::Read).level, Level::L1);
    // The promotion respected sharing: another core reading demotes both.
    assert_eq!(h.access(1, 0x200, AccessKind::Read).level, Level::L2);
    assert_eq!(h.access(1, 0x200, AccessKind::Read).level, Level::L1);
}

#[test]
fn fill_local_is_shared_when_others_hold_the_line() {
    let mut h = hier(2);
    h.access(1, 0x300, AccessKind::Read); // core 1 holds it (Exclusive)
    h.fill_local(0, 0x300);
    // A write by core 0 must still invalidate core 1 (its copy was Shared,
    // not Exclusive).
    let inv = h.stats.invalidations;
    h.access(0, 0x300, AccessKind::Write);
    assert!(h.stats.invalidations > inv);
    assert_ne!(h.access(1, 0x300, AccessKind::Read).level, Level::L1);
}

#[test]
fn write_miss_after_l2_hit_invalidates_sharers() {
    let mut h = hier(3);
    h.access(0, 0x600, AccessKind::Read);
    h.access(1, 0x600, AccessKind::Read);
    // Core 2 write-misses; data comes from L2; cores 0/1 get invalidated.
    let r = h.access(2, 0x600, AccessKind::Write);
    assert_eq!(r.level, Level::L2);
    assert_ne!(h.access(0, 0x600, AccessKind::Read).level, Level::L1);
    // Core 2 owns it dirty now.
    assert_eq!(h.access(2, 0x600, AccessKind::Write).level, Level::L1);
}

#[test]
fn per_core_l1_stats_attribute_correctly() {
    let mut h = hier(2);
    h.access(0, 0x700, AccessKind::Read);
    h.access(0, 0x700, AccessKind::Read);
    h.access(1, 0x700, AccessKind::Write);
    assert_eq!(h.stats.l1_read_misses[0], 1);
    assert_eq!(h.stats.l1_read_hits[0], 1);
    assert_eq!(h.stats.l1_write_misses[1], 1);
    assert_eq!(h.stats.l1_read_hits[1], 0);
}
