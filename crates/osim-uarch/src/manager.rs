//! The O-structure manager: versioned operations, free list, and the
//! Memory Version Manager's garbage collector (§III of the paper).

use osim_mem::{FxHashMap, FxHashSet};
use osim_metrics::Histogram;
use std::collections::{BTreeSet, HashSet};

use osim_mem::{
    line_of, AccessKind, EventLog, Fault, FaultPlan, Injector, MemSys, PageFlags, PAGE_SIZE,
};

use crate::compressed::{CEntry, CompressedLine};
use crate::oracle::OracleReport;
use crate::vblock::{VBlock, VBLOCK_BYTES};
use crate::{TaskId, Version};

/// Garbage-collection configuration (§III-B).
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Start a collection phase when the free list drops below this many
    /// blocks. 0 disables the collector entirely (the §IV-F "plentiful"
    /// baseline).
    pub watermark: u32,
}

/// Configuration of the O-structure manager.
#[derive(Debug, Clone, Copy)]
pub struct OManagerCfg {
    /// Version blocks carved at boot.
    pub initial_free_blocks: u32,
    /// Version blocks the OS trap adds when the free list empties.
    pub refill_blocks: u32,
    /// Cost of the OS free-list refill trap, in cycles.
    pub trap_latency: u64,
    /// Fixed extra latency injected into *every* versioned operation — the
    /// knob behind Figure 10 (0 in the baseline; the paper sweeps 2–10).
    pub versioned_extra_latency: u64,
    /// Keep version-block lists sorted (newest first). Disabling this is the
    /// §IV-F "no version sorting" ablation: stores always prepend and
    /// lookups must scan the whole list.
    pub sorted_insertion: bool,
    /// Garbage collector settings.
    pub gc: GcConfig,
    /// Deterministic fault-injection plan (None = inject nothing).
    pub fault_plan: Option<FaultPlan>,
    /// Refill-trap attempts (beyond the first) before an empty free list
    /// surfaces as [`Fault::OutOfVersionBlocks`]. Each retry doubles the
    /// modeled trap cost (bounded exponential backoff) and forces a
    /// garbage-collection attempt first.
    pub refill_retry_limit: u32,
    /// Arm the runtime invariant oracles (lock exclusion, version
    /// monotonicity, GC liveness); violations accumulate in the
    /// [`crate::OracleReport`] returned by [`OManager::oracle_report`].
    /// Off by default — the stress harness turns it on.
    pub oracles: bool,
}

impl Default for OManagerCfg {
    fn default() -> Self {
        OManagerCfg {
            initial_free_blocks: 1 << 16,
            refill_blocks: 1 << 12,
            trap_latency: 500,
            versioned_extra_latency: 0,
            sorted_insertion: true,
            gc: GcConfig { watermark: 1 << 10 },
            fault_plan: None,
            refill_retry_limit: 3,
            oracles: false,
        }
    }
}

/// Counters kept by the manager.
#[derive(Debug, Clone, Default)]
pub struct OStats {
    /// Versioned loads (plain and locking) answered by a compressed line.
    pub direct_hits: u64,
    /// Versioned operations that walked the version-block list.
    pub full_lookups: u64,
    /// Version blocks read during walks (unique lines charged).
    pub walk_reads: u64,
    /// `STORE-VERSION` operations completed (including unlock-created).
    pub stores: u64,
    /// Version blocks allocated from the free list.
    pub allocated_blocks: u64,
    /// Version blocks reclaimed by the collector.
    pub reclaimed_blocks: u64,
    /// Garbage-collection phases completed.
    pub gc_phases: u64,
    /// OS traps taken to refill the free list.
    pub refill_traps: u64,
    /// Refill-trap *retries*: extra attempts after a first refill failed.
    pub refill_retries: u64,
    /// Allocations that succeeded only after at least one failed refill or
    /// a forced reclamation (graceful-degradation recoveries).
    pub recovered_allocations: u64,
    /// Carve attempts failed by the fault injector.
    pub injected_carve_failures: u64,
    /// Per-operation latency cycles added by injected jitter.
    pub injected_jitter_cycles: u64,
    /// Stall cycles added by injected coherence-invalidation delay.
    pub injected_coherence_delay_cycles: u64,
    /// Garbage-collection attempts forced by allocation pressure (ignoring
    /// the watermark) before giving up on an allocation.
    pub forced_gc_attempts: u64,
    /// Mid-run pool shrinks applied by the fault injector.
    pub pool_shrink_events: u64,
}

impl OStats {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = OStats::default();
    }
}

/// Latency distributions recorded by the manager alongside [`OStats`].
/// Values are simulated cycles, so the contents are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MvmHists {
    /// Cycles charged per version-list walk (the `ReadNoAlloc` pointer
    /// chase of a full lookup; 0 for single-node lists already local).
    pub version_walk: Histogram,
    /// Cycles an allocation was paused by the refill-trap/forced-GC path
    /// — the graceful-degradation pauses of an empty free list.
    pub gc_pause: Histogram,
}

impl MvmHists {
    /// Clears both histograms.
    pub fn reset(&mut self) {
        self.version_walk.reset();
        self.gc_pause.reset();
    }
}

/// One observable Memory Version Manager event. Timestamps come from the
/// hierarchy clock ([`osim_mem::Hierarchy::set_clock`]), which issuing
/// cores keep current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvmEvent {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// What happened.
    pub kind: MvmEventKind,
}

/// Kinds of Memory Version Manager events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvmEventKind {
    /// The free list dropped below the GC watermark.
    WatermarkCrossed {
        /// Blocks left on the free list.
        free: u32,
    },
    /// A collection phase started.
    GcStart {
        /// Task-id boundary recorded at phase start (§III-B).
        boundary: TaskId,
        /// Shadowed blocks moved to the pending list.
        pending: u32,
    },
    /// A collection phase finalized.
    GcEnd {
        /// Blocks returned to the free list.
        reclaimed: u32,
    },
    /// The OS carved fresh version blocks onto the free list.
    FreeListCarve {
        /// Blocks added.
        blocks: u32,
    },
    /// A version block was popped off the free list.
    FreeListAlloc {
        /// Physical address of the block.
        pa: u32,
        /// Blocks left after the pop.
        free: u32,
    },
    /// An OS trap refilled the empty free list.
    RefillTrap,
    /// The fault injector shrank the free list mid-run.
    PoolShrink {
        /// Blocks dropped from the free list.
        dropped: u32,
    },
    /// A refill carve failed (injected or genuine physical exhaustion).
    CarveFailed {
        /// Zero-based retry attempt this failure belongs to.
        attempt: u32,
    },
    /// A compressed version-block line was installed/updated; samples the
    /// line's per-line occupancy (live entries out of 8).
    CompressedOccupancy {
        /// Core whose L1 holds the compressed line.
        core: u32,
        /// Physical address of the O-structure root word (the line's tag).
        root_pa: u32,
        /// Live entries in the line after the update.
        entries: u32,
    },
}

impl MvmEvent {
    /// Short stable name for exporters.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            MvmEventKind::WatermarkCrossed { .. } => "watermark_crossed",
            MvmEventKind::GcStart { .. } => "gc_start",
            MvmEventKind::GcEnd { .. } => "gc_end",
            MvmEventKind::FreeListCarve { .. } => "freelist_carve",
            MvmEventKind::FreeListAlloc { .. } => "freelist_alloc",
            MvmEventKind::RefillTrap => "refill_trap",
            MvmEventKind::PoolShrink { .. } => "pool_shrink",
            MvmEventKind::CarveFailed { .. } => "carve_failed",
            MvmEventKind::CompressedOccupancy { .. } => "compressed_occupancy",
        }
    }
}

/// Why a versioned operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// The requested version (or any version ≤ the cap) does not exist yet.
    VersionAbsent,
    /// The target version exists but is locked.
    VersionLocked,
}

/// Result of one versioned operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation completed.
    Done {
        /// Loaded/stored datum.
        value: u32,
        /// The version actually accessed (relevant for `LOAD-LATEST`).
        version: Version,
        /// Cycles charged.
        latency: u64,
    },
    /// The operation must stall; the issuing core should retry once the
    /// O-structure changes. The cycles spent discovering this are charged.
    Blocked {
        reason: BlockReason,
        latency: u64,
        /// Task holding the contended version (0 = none/unknown); feeds
        /// deadlock blame reports.
        holder: TaskId,
    },
}

impl OpOutcome {
    /// Latency charged by this attempt.
    pub fn latency(&self) -> u64 {
        match *self {
            OpOutcome::Done { latency, .. } | OpOutcome::Blocked { latency, .. } => latency,
        }
    }
}

/// State of an in-flight collection phase.
struct GcPhase {
    /// "Youngest active task recorded" at phase start (§III-B), widened to
    /// the highest task id ever begun so that out-of-order spawning
    /// cannot create a reader for a pending block after the phase started.
    boundary: TaskId,
    /// `(root_pa, block_pa)` pairs moved from the shadowed list.
    pending: Vec<(u32, u32)>,
}

/// The O-structure manager: per-core compressed-line payloads plus the
/// shared free list and garbage collector.
pub struct OManager {
    cfg: OManagerCfg,
    /// Physical address of the first free version block (0 = empty).
    free_head: u32,
    free_count: u32,
    /// Compressed-line payloads, one map per core keyed by `root_pa`. The
    /// matching L1 slot is tracked by the hierarchy; both are kept in sync.
    /// Splitting per core keeps the hot-path key a bare `u32` and each
    /// map small (bounded by that core's L1 compressed slots).
    compressed: Vec<FxHashMap<u32, CompressedLine>>,
    /// Shadowed version blocks: `(root_pa, block_pa)`.
    shadowed: Vec<(u32, u32)>,
    /// With `sorted_insertion` off, roots whose list order has actually
    /// been violated by an out-of-order store. Lists not in this set are
    /// still descending (in-order creation, "the common case in real
    /// programs"), so lookups may keep their early exits.
    unsorted_roots: FxHashSet<u32>,
    gc_phase: Option<GcPhase>,
    /// Currently active task ids.
    active: BTreeSet<TaskId>,
    /// Highest task id ever begun.
    max_id_seen: u32,
    /// `(core, root_pa)` pairs whose compressed line was discarded by
    /// another core's mutation since the core last asked. Feeds the cpu
    /// layer's stall-cause attribution (coherence vs. version state).
    coherence_lost: FxHashSet<(usize, u32)>,
    /// Host-side mirror of every version-block list, in exact list order:
    /// `(version, block_pa)` per node. The simulated list in [`PhysMem`]
    /// stays authoritative — walks still charge the modeled accesses — but
    /// the *search* (version comparisons, match resolution) runs on this
    /// mirror so the hot path never decodes simulated memory per node.
    /// Debug builds cross-check the mirror against the physical list.
    lists: FxHashMap<u32, Vec<(Version, u32)>>,
    /// Exact-version index: `(root_pa, version)` → block pa, maintained on
    /// store/unlink/GC/release, so exact-version lookups resolve in O(1).
    index: FxHashMap<(u32, Version), u32>,
    /// Reusable unique-line scratch for walk charging (replaces a per-walk
    /// `HashSet` allocation; walks are short, so linear scan wins).
    walk_lines: Vec<u32>,
    /// OS refill-trap cycles charged since the last
    /// [`OManager::take_trap_cycles`] — the free-list/GC share of an
    /// operation's latency, kept separate so cores can attribute it.
    pending_trap_cycles: u64,
    /// Deterministic fault injector (present iff the config carries a plan).
    injector: Option<Injector>,
    /// Invariant-oracle accumulator (present iff `cfg.oracles`); boxed so
    /// the disarmed common case costs one pointer.
    oracle: Option<Box<OracleReport>>,
    /// Counters; reset between warm-up and measurement.
    pub stats: OStats,
    /// Latency distributions; reset alongside [`OManager::stats`].
    pub hists: MvmHists,
    /// Observable event stream (disabled by default; enable by replacing
    /// with [`EventLog::with_capacity`]).
    pub events: EventLog<MvmEvent>,
}

impl OManager {
    /// Creates a manager and carves its initial free list out of fresh
    /// version-block pool pages.
    pub fn new(cfg: OManagerCfg, ms: &mut MemSys) -> Result<Self, Fault> {
        // Every mirrored list node backs one version block, so the pool
        // size bounds both host-side maps: pre-sizing moves all their
        // rehashes out of the measured hot path.
        let blocks = cfg.initial_free_blocks as usize;
        let mut mgr = OManager {
            cfg,
            free_head: 0,
            free_count: 0,
            compressed: (0..ms.hier.cfg().cores)
                .map(|_| FxHashMap::default())
                .collect(),
            shadowed: Vec::new(),
            unsorted_roots: FxHashSet::default(),
            gc_phase: None,
            active: BTreeSet::new(),
            max_id_seen: 0,
            coherence_lost: FxHashSet::default(),
            lists: FxHashMap::with_capacity_and_hasher(blocks, Default::default()),
            index: FxHashMap::with_capacity_and_hasher(blocks, Default::default()),
            walk_lines: Vec::new(),
            pending_trap_cycles: 0,
            injector: cfg.fault_plan.map(Injector::new),
            oracle: cfg.oracles.then(Box::default),
            stats: OStats::default(),
            hists: MvmHists::default(),
            events: EventLog::disabled(),
        };
        mgr.carve(ms, cfg.initial_free_blocks)?;
        Ok(mgr)
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &OManagerCfg {
        &self.cfg
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> u32 {
        self.free_count
    }

    /// Entries currently on the shadowed list (awaiting a GC phase).
    pub fn shadowed_len(&self) -> usize {
        self.shadowed.len()
    }

    /// True while a collection phase is pending finalization.
    pub fn gc_phase_active(&self) -> bool {
        self.gc_phase.is_some()
    }

    /// Whether the list rooted at `root_pa` is known to be in descending
    /// version order (always true with sorted insertion).
    fn list_sorted(&self, root_pa: u32) -> bool {
        self.cfg.sorted_insertion || !self.unsorted_roots.contains(&root_pa)
    }

    // ------------------------------------------------------------------
    // Invariant oracles (armed by `OManagerCfg::oracles`)
    // ------------------------------------------------------------------

    /// The invariant-oracle accumulator (None unless [`OManagerCfg::oracles`]
    /// was set). The report survives stat resets: oracle checks are about
    /// whole-run correctness, not the measurement window.
    pub fn oracle_report(&self) -> Option<&OracleReport> {
        self.oracle.as_deref()
    }

    /// Lock-exclusion oracle, acquire side: a lock grant must find the
    /// block unlocked.
    #[inline]
    fn oracle_lock_grant(
        &mut self,
        root_pa: u32,
        block_pa: u32,
        held_by: TaskId,
        grant_to: TaskId,
    ) {
        if let Some(o) = self.oracle.as_deref_mut() {
            o.lock_checks += 1;
            if held_by != 0 {
                o.violation(format!(
                    "lock-exclusion: root {root_pa:#010x} block {block_pa:#010x} \
                     granted to task {grant_to} while held by task {held_by}"
                ));
            }
        }
    }

    /// Lock-exclusion oracle, release side: the cleared lock must have been
    /// held by the releasing task.
    #[inline]
    fn oracle_lock_release(&mut self, root_pa: u32, block_pa: u32, held_by: TaskId, tid: TaskId) {
        if let Some(o) = self.oracle.as_deref_mut() {
            o.lock_checks += 1;
            if held_by != tid {
                o.violation(format!(
                    "lock-exclusion: root {root_pa:#010x} block {block_pa:#010x} \
                     unlocked by task {tid} but held by task {held_by}"
                ));
            }
        }
    }

    /// Version-monotonicity oracle: after inserting `v` at `pos`, a sorted
    /// list must still be strictly descending around the insertion point.
    fn oracle_order(&mut self, root_pa: u32, pos: usize, v: Version) {
        if self.oracle.is_none() || !self.list_sorted(root_pa) {
            return;
        }
        let (prev, next) = match self.lists.get(&root_pa) {
            Some(list) => (
                pos.checked_sub(1)
                    .and_then(|i| list.get(i))
                    .map(|&(p, _)| p),
                list.get(pos + 1).map(|&(n, _)| n),
            ),
            None => (None, None),
        };
        let Some(o) = self.oracle.as_deref_mut() else {
            return;
        };
        o.order_checks += 1;
        if prev.is_some_and(|p| p <= v) || next.is_some_and(|n| n >= v) {
            o.violation(format!(
                "version-monotonicity: root {root_pa:#010x} insert of version {v} \
                 at position {pos} between {prev:?} and {next:?} breaks descending order"
            ));
        }
    }

    /// GC-liveness oracle: a block the collector just reclaimed must have
    /// been shadowed, unlocked, off the list head, and superseded by a
    /// strictly newer version — i.e. unreachable by every present or
    /// future task (§III-B).
    fn oracle_gc_free(&mut self, ms: &MemSys, root_pa: u32, blk: &VBlock) {
        if self.oracle.is_none() {
            return;
        }
        let head = ms.phys.read_u32(root_pa);
        let newer = self
            .lists
            .get(&root_pa)
            .is_some_and(|l| l.iter().any(|&(ver, _)| ver > blk.version));
        let Some(o) = self.oracle.as_deref_mut() else {
            return;
        };
        o.gc_checks += 1;
        let mut bad: Vec<&str> = Vec::new();
        if !blk.shadowed {
            bad.push("not shadowed");
        }
        if !blk.unlocked() {
            bad.push("still locked");
        }
        if head == blk.pa {
            bad.push("is the list head");
        }
        if !newer {
            bad.push("no newer version remains");
        }
        if !bad.is_empty() {
            o.violation(format!(
                "gc-liveness: root {root_pa:#010x} freed version {} block {:#010x}: {}",
                blk.version,
                blk.pa,
                bad.join(", ")
            ));
        }
    }

    // ------------------------------------------------------------------
    // Host-side list mirror + exact-version index
    // ------------------------------------------------------------------

    /// Records a freshly linked block in the mirror and the index.
    fn mirror_insert(&mut self, root_pa: u32, pos: usize, v: Version, block_pa: u32) {
        self.lists
            .entry(root_pa)
            .or_default()
            .insert(pos, (v, block_pa));
        let prev = self.index.insert((root_pa, v), block_pa);
        debug_assert!(
            prev.is_none(),
            "duplicate version {v} at root {root_pa:#010x}"
        );
    }

    /// Drops an unlinked block from the mirror and the index.
    fn mirror_remove(&mut self, root_pa: u32, block_pa: u32) {
        let Some(list) = self.lists.get_mut(&root_pa) else {
            debug_assert!(false, "unlink from unmirrored root {root_pa:#010x}");
            return;
        };
        let Some(pos) = list.iter().position(|&(_, pa)| pa == block_pa) else {
            debug_assert!(false, "unlink of unmirrored block {block_pa:#010x}");
            return;
        };
        let (v, _) = list.remove(pos);
        self.index.remove(&(root_pa, v));
    }

    /// Drops a whole structure from the mirror and the index.
    fn mirror_release(&mut self, root_pa: u32) {
        if let Some(list) = self.lists.remove(&root_pa) {
            for (v, _) in list {
                self.index.remove(&(root_pa, v));
            }
        }
    }

    /// Debug cross-check: the mirror must match the physical list exactly.
    #[cfg(debug_assertions)]
    fn mirror_check(&self, ms: &MemSys, root_pa: u32) {
        let mut physical = Vec::new();
        let mut cur = ms.phys.read_u32(root_pa);
        while cur != 0 {
            let blk = VBlock::read(&ms.phys, cur);
            physical.push((blk.version, blk.pa));
            cur = blk.next;
        }
        let mirrored = self.lists.get(&root_pa).cloned().unwrap_or_default();
        assert_eq!(
            mirrored, physical,
            "mirror diverged from physical list at root {root_pa:#010x}"
        );
        for &(v, pa) in &physical {
            assert_eq!(self.index.get(&(root_pa, v)), Some(&pa));
        }
    }

    /// Charges the modeled walk over the first `nodes` mirror entries of
    /// `root_pa`'s list: one `ReadNoAlloc` per *unique line*, exactly as the
    /// physical pointer chase did. Returns the charged latency.
    fn charge_walk(&mut self, ms: &mut MemSys, core: usize, root_pa: u32, nodes: usize) -> u64 {
        let mut latency = 0;
        let mut lines = std::mem::take(&mut self.walk_lines);
        lines.clear();
        for i in 0..nodes {
            let pa = self.lists[&root_pa][i].1;
            let line = line_of(pa);
            if !lines.contains(&line) {
                lines.push(line);
                let acc = ms.hier.access(core, pa, AccessKind::ReadNoAlloc);
                latency += acc.latency;
                self.prune(&acc.dropped_compressed);
                self.stats.walk_reads += 1;
            }
        }
        self.walk_lines = lines;
        self.hists.version_walk.record(latency);
        latency
    }

    // ------------------------------------------------------------------
    // Free list (§III "Free-list")
    // ------------------------------------------------------------------

    /// Carves `blocks` fresh version blocks from new pool pages and links
    /// them onto the free list. This is the protected OS-side operation.
    fn carve(&mut self, ms: &mut MemSys, blocks: u32) -> Result<(), Fault> {
        self.events.push(MvmEvent {
            cycle: ms.hier.clock(),
            kind: MvmEventKind::FreeListCarve { blocks },
        });
        let per_page = PAGE_SIZE / VBLOCK_BYTES;
        let pages = blocks.div_ceil(per_page);
        for _ in 0..pages {
            let ppn = ms.phys.alloc_page().ok_or(Fault::OutOfVersionBlocks)?;
            // Mark the page as version-block storage so user-mode accesses
            // fault; the VA itself is never handed to user code.
            ms.pt.map_next(ppn, PageFlags::VBlockPool);
            let base = ppn * PAGE_SIZE;
            for i in 0..per_page {
                let pa = base + i * VBLOCK_BYTES;
                self.push_free(ms, pa);
            }
        }
        Ok(())
    }

    /// Links a block onto the free list (functional write; free-list
    /// maintenance happens off the critical path).
    fn push_free(&mut self, ms: &mut MemSys, pa: u32) {
        let blk = VBlock {
            pa,
            version: 0,
            next: self.free_head,
            head: false,
            shadowed: false,
            locked_by: 0,
            data: 0,
        };
        blk.write(&mut ms.phys);
        self.free_head = pa;
        self.free_count += 1;
    }

    /// Pops a block from the free list, trapping to the OS for a refill if
    /// it is empty. Returns `(block_pa, latency)`.
    ///
    /// The Memory Version Manager keeps the free-list head (and its link)
    /// staged off the critical path — "unused version blocks are stored in
    /// a free-list that is managed mostly by the hardware" — so a pop
    /// costs one L1-class access rather than a demand miss, and the fresh
    /// block's line is installed locally so the immediately following
    /// full-block write hits (a write-no-fetch: the old contents are dead).
    fn alloc_block(&mut self, ms: &mut MemSys, core: usize) -> Result<(u32, u64), Fault> {
        let now = ms.hier.clock();
        let mut latency = 0;
        if let Some(keep) = self.injector.as_mut().and_then(Injector::shrink_due) {
            self.apply_pool_shrink(ms, now, keep);
        }
        if self.free_count == 0 {
            latency += self.refill_with_retry(ms, now)?;
        }
        let pa = self.free_head;
        debug_assert_ne!(pa, 0, "free list non-empty after refill");
        latency += 4; // staged free-list pop: L1-class latency
        let dropped = ms.hier.fill_local(core, pa);
        self.prune(&dropped);
        let blk = VBlock::read(&ms.phys, pa);
        self.free_head = blk.next;
        self.free_count -= 1;
        self.stats.allocated_blocks += 1;
        self.events.push(MvmEvent {
            cycle: now,
            kind: MvmEventKind::FreeListAlloc {
                pa,
                free: self.free_count,
            },
        });
        let wm = self.cfg.gc.watermark;
        if wm != 0 && self.free_count + 1 >= wm && self.free_count < wm {
            self.events.push(MvmEvent {
                cycle: now,
                kind: MvmEventKind::WatermarkCrossed {
                    free: self.free_count,
                },
            });
        }
        self.maybe_start_gc(now);
        Ok((pa, latency))
    }

    /// Drops free-list blocks until only `keep` remain — the injected
    /// "OS reclaimed pool pages under memory pressure" fault.
    fn apply_pool_shrink(&mut self, ms: &mut MemSys, now: u64, keep: u32) {
        let mut dropped = 0u32;
        while self.free_count > keep && self.free_head != 0 {
            let blk = VBlock::read(&ms.phys, self.free_head);
            self.free_head = blk.next;
            self.free_count -= 1;
            dropped += 1;
        }
        if dropped > 0 {
            self.stats.pool_shrink_events += 1;
            self.events.push(MvmEvent {
                cycle: now,
                kind: MvmEventKind::PoolShrink { dropped },
            });
        }
    }

    /// The graceful-degradation path for an empty free list: a modeled OS
    /// refill trap with bounded retry/backoff. Each failed attempt (injected
    /// carve failure, exhausted refill budget, or genuine physical-memory
    /// exhaustion) forces a garbage-collection attempt before retrying; the
    /// trap cost doubles per retry. Returns the cycles charged, or
    /// [`Fault::OutOfVersionBlocks`] once the retry limit is exhausted.
    fn refill_with_retry(&mut self, ms: &mut MemSys, now: u64) -> Result<u64, Fault> {
        let mut latency = 0;
        let mut attempt: u32 = 0;
        loop {
            self.stats.refill_traps += 1;
            let cost = self.cfg.trap_latency << attempt.min(4);
            latency += cost;
            self.pending_trap_cycles += cost;
            self.events.push(MvmEvent {
                cycle: now,
                kind: MvmEventKind::RefillTrap,
            });

            let injected_fail = self
                .injector
                .as_mut()
                .is_some_and(Injector::transient_carve_failure);
            let budget_ok = self.injector.as_ref().is_none_or(Injector::refill_allowed);
            let mut carved = false;
            if injected_fail {
                self.stats.injected_carve_failures += 1;
            } else if budget_ok && self.carve(ms, self.cfg.refill_blocks).is_ok() {
                carved = true;
                if let Some(inj) = &mut self.injector {
                    inj.note_refill();
                }
            }
            if carved && self.free_count > 0 {
                if attempt > 0 {
                    self.stats.recovered_allocations += 1;
                }
                self.hists.gc_pause.record(latency);
                return Ok(latency);
            }
            self.events.push(MvmEvent {
                cycle: now,
                kind: MvmEventKind::CarveFailed { attempt },
            });

            // Before retrying, try to reclaim shadowed blocks regardless of
            // the watermark (forced GC under allocation pressure).
            self.stats.forced_gc_attempts += 1;
            self.force_gc(ms, now);
            if self.free_count > 0 {
                self.stats.recovered_allocations += 1;
                self.hists.gc_pause.record(latency);
                return Ok(latency);
            }

            if attempt >= self.cfg.refill_retry_limit {
                return Err(Fault::OutOfVersionBlocks);
            }
            attempt += 1;
            self.stats.refill_retries += 1;
        }
    }

    /// Pressure reclamation: start a collection phase regardless of the
    /// watermark and try to finalize it immediately. Succeeds only when no
    /// active task can still reach the pending blocks (the §III-B boundary
    /// rule holds even under pressure).
    fn force_gc(&mut self, ms: &mut MemSys, now: u64) {
        if self.cfg.gc.watermark == 0 {
            return; // collector disabled (§IV-F ablation): no pressure GC either
        }
        if self.gc_phase.is_none() && !self.shadowed.is_empty() {
            let youngest_active = self.active.last().copied().unwrap_or(0);
            let boundary = youngest_active.max(self.max_id_seen);
            let pending = std::mem::take(&mut self.shadowed);
            self.events.push(MvmEvent {
                cycle: now,
                kind: MvmEventKind::GcStart {
                    boundary,
                    pending: pending.len() as u32,
                },
            });
            self.gc_phase = Some(GcPhase { boundary, pending });
        }
        self.maybe_finalize_gc(ms);
    }

    /// Per-operation latency added by injected jitter (0 without a plan).
    fn injected_jitter(&mut self) -> u64 {
        match &mut self.injector {
            Some(inj) => {
                let j = inj.jitter();
                self.stats.injected_jitter_cycles += j;
                j
            }
            None => 0,
        }
    }

    /// Injected delivery delay for a coherence invalidation's effect, in
    /// cycles (0 without a plan). The cpu layer adds this to the stall of a
    /// coherence-attributed blocked retry, modeling a delayed invalidation.
    pub fn coherence_delay_penalty(&mut self) -> u64 {
        match &mut self.injector {
            Some(inj) => {
                let d = inj.coherence_delay();
                self.stats.injected_coherence_delay_cycles += d;
                d
            }
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection (§III-B)
    // ------------------------------------------------------------------

    /// Registers the beginning of task `tid` (the `TASK-BEGIN` instruction).
    pub fn task_begin(&mut self, tid: TaskId) {
        debug_assert!(tid > 0, "task id 0 is reserved for 'unlocked'");
        if let Some(&oldest) = self.active.first() {
            debug_assert!(
                tid >= oldest,
                "rule 3 violated: task {tid} created below the oldest active task {oldest}"
            );
        }
        self.active.insert(tid);
        self.max_id_seen = self.max_id_seen.max(tid);
    }

    /// Registers the end of task `tid` (the `TASK-END` instruction) and
    /// gives the collector a chance to finalize a pending phase.
    pub fn task_end(&mut self, ms: &mut MemSys, tid: TaskId) {
        self.active.remove(&tid);
        self.maybe_finalize_gc(ms);
    }

    /// Starts a collection phase if the watermark is crossed and shadowed
    /// blocks are available.
    fn maybe_start_gc(&mut self, now: u64) {
        if self.cfg.gc.watermark == 0
            || self.gc_phase.is_some()
            || self.shadowed.is_empty()
            || self.free_count >= self.cfg.gc.watermark
        {
            return;
        }
        let youngest_active = self.active.last().copied().unwrap_or(0);
        let boundary = youngest_active.max(self.max_id_seen);
        let pending = std::mem::take(&mut self.shadowed);
        self.events.push(MvmEvent {
            cycle: now,
            kind: MvmEventKind::GcStart {
                boundary,
                pending: pending.len() as u32,
            },
        });
        self.gc_phase = Some(GcPhase { boundary, pending });
    }

    /// Finalizes the current phase once the oldest active task is younger
    /// than the recorded boundary, moving pending blocks to the free list.
    fn maybe_finalize_gc(&mut self, ms: &mut MemSys) {
        let ready = match (&self.gc_phase, self.active.first()) {
            (Some(_), None) => true,
            (Some(ph), Some(&oldest)) => oldest > ph.boundary,
            (None, _) => false,
        };
        if !ready {
            return;
        }
        let Some(phase) = self.gc_phase.take() else {
            return; // unreachable: `ready` implies a phase exists
        };
        let mut reclaimed: HashSet<u32> = HashSet::new();
        for (root_pa, block_pa) in phase.pending {
            let blk = VBlock::read(&ms.phys, block_pa);
            if !blk.unlocked() {
                // A leaked lock: keep the block alive rather than corrupt
                // the structure (debug builds flag the protocol violation;
                // the oracle records it so release stress runs see it too).
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.gc_checks += 1;
                    o.violation(format!(
                        "gc-liveness: shadowed block {block_pa:#010x} reached \
                         finalization still locked by task {}",
                        blk.locked_by
                    ));
                }
                debug_assert!(false, "shadowed block {block_pa:#010x} still locked");
                self.shadowed.push((root_pa, block_pa));
                continue;
            }
            if self.unlink(ms, root_pa, block_pa) {
                self.oracle_gc_free(ms, root_pa, &blk);
                self.push_free(ms, block_pa);
                reclaimed.insert(block_pa);
                self.stats.reclaimed_blocks += 1;
            }
        }
        // Any compressed line that cached a reclaimed block is stale;
        // conservatively drop the whole line (GC phases are rare).
        if !reclaimed.is_empty() {
            for per_core in &mut self.compressed {
                per_core.retain(|_, line| !line_contains_any(line, &reclaimed));
            }
        }
        self.stats.gc_phases += 1;
        self.events.push(MvmEvent {
            cycle: ms.hier.clock(),
            kind: MvmEventKind::GcEnd {
                reclaimed: reclaimed.len() as u32,
            },
        });
    }

    /// Unlinks `block_pa` from the list rooted at `root_pa` (background
    /// hardware operation, no timing). Returns false if the block was not
    /// found (already unlinked).
    fn unlink(&mut self, ms: &mut MemSys, root_pa: u32, block_pa: u32) -> bool {
        let head = ms.phys.read_u32(root_pa);
        if head == 0 {
            return false;
        }
        if head == block_pa {
            // A shadowed block has a newer version, so it is never the head
            // while that newer version is still linked; reaching here means
            // the protocol was violated.
            if let Some(o) = self.oracle.as_deref_mut() {
                o.gc_checks += 1;
                o.violation(format!(
                    "gc-liveness: shadowed block {block_pa:#010x} is the head \
                     of the list rooted at {root_pa:#010x}"
                ));
            }
            debug_assert!(false, "shadowed block at head of list");
            return false;
        }
        let mut prev = head;
        loop {
            let prev_blk = VBlock::read(&ms.phys, prev);
            if prev_blk.next == 0 {
                return false;
            }
            if prev_blk.next == block_pa {
                let victim = VBlock::read(&ms.phys, block_pa);
                let mut updated = prev_blk;
                updated.next = victim.next;
                updated.write(&mut ms.phys);
                self.mirror_remove(root_pa, block_pa);
                return true;
            }
            prev = prev_blk.next;
        }
    }

    // ------------------------------------------------------------------
    // Compressed-line plumbing
    // ------------------------------------------------------------------

    /// Removes payloads whose L1 slots were evicted or invalidated.
    fn prune(&mut self, dropped: &[(usize, u32)]) {
        for &(core, root_pa) in dropped {
            self.compressed[core].remove(&root_pa);
        }
    }

    /// Direct-access probe: returns a clone of the compressed entry for
    /// (core, root) if both the L1 slot and the payload are present.
    fn compressed_line(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        root_pa: u32,
    ) -> Option<&mut CompressedLine> {
        let slot_hit = ms.hier.compressed_probe(core, root_pa);
        if !slot_hit {
            self.compressed[core].remove(&root_pa);
            return None;
        }
        self.compressed[core].get_mut(&root_pa)
    }

    /// Installs/updates this core's compressed line with an entry, allocating
    /// the L1 slot if needed.
    fn compressed_install(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        root_pa: u32,
        entry: CEntry,
        head_version: Option<Version>,
    ) {
        let dropped = ms.hier.compressed_fill(core, root_pa);
        self.prune(&dropped);
        let line = self.compressed[core].entry(root_pa).or_default();
        if !line.insert(entry) {
            // The version does not fit this line's 2^14 window (stale base):
            // rebuild the line around the new version, as hardware would
            // rebuild a discarded compressed block.
            *line = CompressedLine::new();
            let ok = line.insert(entry);
            debug_assert!(
                ok || entry.locked_by != 0,
                "fresh line rejects only odd lockers"
            );
        }
        if let Some(h) = head_version {
            if line.get(h).is_some() {
                line.set_head_version(Some(h));
            }
        }
        let entries = line.len() as u32;
        self.events.push(MvmEvent {
            cycle: ms.hier.clock(),
            kind: MvmEventKind::CompressedOccupancy {
                core: core as u32,
                root_pa,
                entries,
            },
        });
    }

    /// Coherence: a mutation of the structure rooted at `root_pa` by `core`
    /// discards every other core's compressed line for it. Each loss is
    /// remembered so the victims' next blocked retry can be attributed to
    /// coherence (see [`OManager::take_coherence_lost`]).
    fn compressed_coherence(&mut self, ms: &mut MemSys, core: usize, root_pa: u32) {
        let dropped = ms.hier.compressed_invalidate_others(core, root_pa);
        self.coherence_lost.extend(dropped.iter().copied());
        self.prune(&dropped);
    }

    /// Consumes the coherence-loss marker for `core`'s view of the
    /// structure at `va`: true exactly once after another core's mutation
    /// invalidated this core's compressed line. Issuing cores call this
    /// when an operation blocks, to attribute the stall to coherence
    /// rather than to the version state alone.
    pub fn take_coherence_lost(&mut self, ms: &MemSys, core: usize, va: u32) -> bool {
        match ms.pt.translate_versioned(va) {
            Ok(root_pa) => self.coherence_lost.remove(&(core, root_pa)),
            Err(_) => false,
        }
    }

    /// Drains the OS refill-trap cycles charged since the last call. The
    /// issuing core folds these into its stall accounting under the
    /// free-list/GC cause — the latency itself is already part of the
    /// operation's charged latency.
    pub fn take_trap_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.pending_trap_cycles)
    }

    // ------------------------------------------------------------------
    // The versioned operations (§II-A)
    // ------------------------------------------------------------------

    /// `LOAD-VERSION`: load the exact version `v` of the O-structure at
    /// virtual address `va`.
    pub fn load_version(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        v: Version,
    ) -> Result<OpOutcome, Fault> {
        self.load_impl(ms, core, va, v, false, 0)
    }

    /// `LOAD-LATEST`: load the highest created version ≤ `cap`.
    pub fn load_latest(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        cap: Version,
    ) -> Result<OpOutcome, Fault> {
        self.load_impl(ms, core, va, cap, true, 0)
    }

    /// `LOCK-LOAD-VERSION`: exact load + lock by task `tid`.
    pub fn lock_load_version(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        v: Version,
        tid: TaskId,
    ) -> Result<OpOutcome, Fault> {
        debug_assert!(tid > 0);
        self.load_impl(ms, core, va, v, false, tid)
    }

    /// `LOCK-LOAD-LATEST`: capped load + lock by task `tid`.
    pub fn lock_load_latest(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        cap: Version,
        tid: TaskId,
    ) -> Result<OpOutcome, Fault> {
        debug_assert!(tid > 0);
        self.load_impl(ms, core, va, cap, true, tid)
    }

    /// Shared implementation of the four load flavours. `lock_as == 0`
    /// means no lock is taken.
    fn load_impl(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        v: Version,
        latest: bool,
        lock_as: TaskId,
    ) -> Result<OpOutcome, Fault> {
        let root_pa = ms.pt.translate_versioned(va)?;
        let mut latency = self.cfg.versioned_extra_latency + self.injected_jitter();
        let l1_hit = 4; // compressed lines live in the L1

        // --- Direct access -------------------------------------------------
        let direct = match self.compressed_line(ms, core, root_pa) {
            Some(line) => {
                let found = if latest {
                    line.latest_capped(v).copied()
                } else {
                    line.get(v).copied()
                };
                if let Some(e) = &found {
                    if e.locked_by == 0 {
                        line.touch(e.version);
                    }
                }
                found
            }
            None => None,
        };
        {
            if let Some(e) = direct {
                latency += l1_hit;
                if e.locked_by != 0 {
                    return Ok(OpOutcome::Blocked {
                        reason: BlockReason::VersionLocked,
                        latency,
                        holder: e.locked_by,
                    });
                }
                self.stats.direct_hits += 1;
                if lock_as != 0 {
                    // Acquire the lock: write the backing version block.
                    latency += ms.hier.access(core, e.block_pa, AccessKind::Write).latency;
                    let mut blk = VBlock::read(&ms.phys, e.block_pa);
                    self.oracle_lock_grant(root_pa, e.block_pa, blk.locked_by, lock_as);
                    debug_assert!(blk.unlocked());
                    blk.locked_by = lock_as;
                    blk.write(&mut ms.phys);
                    if let Some(line) = self.compressed[core].get_mut(&root_pa) {
                        if !line.set_lock(e.version, lock_as) {
                            line.remove(e.version);
                        }
                    }
                    self.compressed_coherence(ms, core, root_pa);
                }
                return Ok(OpOutcome::Done {
                    value: e.data,
                    version: e.version,
                    latency,
                });
            }
        }

        // --- Full lookup ----------------------------------------------------
        self.stats.full_lookups += 1;
        let root = ms.hier.access(core, root_pa, AccessKind::Read);
        latency += root.latency;
        self.prune(&root.dropped_compressed);

        let head_pa = ms.phys.read_u32(root_pa);
        if head_pa == 0 {
            return Ok(OpOutcome::Blocked {
                reason: BlockReason::VersionAbsent,
                latency,
                holder: 0,
            });
        }

        #[cfg(debug_assertions)]
        self.mirror_check(ms, root_pa);

        let sorted = self.list_sorted(root_pa);

        // The walk is still the latency model, but the *search* runs on the
        // host mirror: version comparisons read `lists` and the match is
        // resolved by the exact-version index, so simulated memory is only
        // decoded for the head-protection check and the returned block.
        let head_ok = VBlock::read(&ms.phys, head_pa).head;
        let list = &self.lists[&root_pa];
        debug_assert_eq!(list[0].1, head_pa, "mirror head is stale");
        let head_version = list[0].0;
        let mut nodes = 0;
        let mut best: Option<(Version, u32)> = None;
        if head_ok {
            for &(ver, pa) in list {
                nodes += 1;
                let matched = if latest { ver <= v } else { ver == v };
                if matched {
                    if sorted {
                        best = Some((ver, pa));
                        break;
                    }
                    // Unsorted: remember the best candidate and keep scanning.
                    match best {
                        Some((bv, _)) if bv >= ver => {}
                        _ => best = Some((ver, pa)),
                    }
                    if !latest {
                        break; // exact match; duplicates are impossible
                    }
                } else if sorted && ver < v {
                    break; // sorted: nothing older can match an exact load
                }
            }
        } else {
            nodes = 1; // the protection check charges the head before faulting
        }
        if !latest {
            // O(1) exact-version resolution; the mirror scan above only
            // determines how far the modeled walk advances.
            let indexed = self.index.get(&(root_pa, v)).copied();
            debug_assert_eq!(best.map(|(_, pa)| pa), indexed, "index out of sync");
            best = indexed.map(|pa| (v, pa));
        }
        latency += self.charge_walk(ms, core, root_pa, nodes);
        if !head_ok {
            return Err(Fault::NotListHead { pa: head_pa });
        }

        let Some((_, best_pa)) = best else {
            return Ok(OpOutcome::Blocked {
                reason: BlockReason::VersionAbsent,
                latency,
                holder: 0,
            });
        };
        let blk = VBlock::read(&ms.phys, best_pa);
        if !blk.unlocked() {
            return Ok(OpOutcome::Blocked {
                reason: BlockReason::VersionLocked,
                latency,
                holder: blk.locked_by,
            });
        }

        // Cache the matching block (pollution rule: only this one).
        let dropped = ms.hier.fill_local(core, blk.pa);
        self.prune(&dropped);

        let mut locked_by = 0;
        if lock_as != 0 {
            latency += ms.hier.access(core, blk.pa, AccessKind::Write).latency;
            self.oracle_lock_grant(root_pa, blk.pa, blk.locked_by, lock_as);
            let mut b = blk;
            b.locked_by = lock_as;
            b.write(&mut ms.phys);
            locked_by = lock_as;
        }

        // Refresh this core's compressed line with the accessed version.
        // Only in sorted mode does the list head prove "newest overall",
        // which is what `latest_capped` needs.
        let known_head = (sorted && blk.pa == head_pa).then_some(head_version);
        self.compressed_install(
            ms,
            core,
            root_pa,
            CEntry {
                version: blk.version,
                locked_by,
                data: blk.data,
                block_pa: blk.pa,
            },
            known_head,
        );
        if lock_as != 0 {
            self.compressed_coherence(ms, core, root_pa);
        }

        Ok(OpOutcome::Done {
            value: blk.data,
            version: blk.version,
            latency,
        })
    }

    /// Front insertion with a known head (the store fast path): allocate,
    /// link ahead of the current head, demote the old head's head bit and
    /// register it on the shadowed list.
    #[allow(clippy::too_many_arguments)]
    fn store_at_front(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        root_pa: u32,
        v: Version,
        data: u32,
        old_head_pa: u32,
        mut latency: u64,
    ) -> Result<OpOutcome, Fault> {
        debug_assert_eq!(
            ms.phys.read_u32(root_pa),
            old_head_pa,
            "compressed line's head is stale"
        );
        let (new_pa, alloc_lat) = self.alloc_block(ms, core)?;
        latency += alloc_lat;
        let new_blk = VBlock {
            pa: new_pa,
            version: v,
            next: old_head_pa,
            head: true,
            shadowed: false,
            locked_by: 0,
            data,
        };
        new_blk.write(&mut ms.phys);
        latency += ms.hier.access(core, new_pa, AccessKind::Write).latency;
        latency += ms.hier.access(core, root_pa, AccessKind::Write).latency;
        ms.phys.write_u32(root_pa, new_pa);
        let mut oh = VBlock::read(&ms.phys, old_head_pa);
        oh.head = false;
        let shadow = !oh.shadowed;
        oh.shadowed = true;
        oh.write(&mut ms.phys);
        latency += ms.hier.access(core, old_head_pa, AccessKind::Write).latency;
        if shadow {
            self.shadowed.push((root_pa, old_head_pa));
        }
        debug_assert_eq!(
            self.lists
                .get(&root_pa)
                .and_then(|l| l.first())
                .map(|&(_, pa)| pa),
            Some(old_head_pa),
            "mirror head is stale"
        );
        self.mirror_insert(root_pa, 0, v, new_pa);
        self.oracle_order(root_pa, 0, v);
        self.stats.stores += 1;
        let head_version = self.list_sorted(root_pa).then_some(v);
        self.compressed_install(
            ms,
            core,
            root_pa,
            CEntry {
                version: v,
                locked_by: 0,
                data,
                block_pa: new_pa,
            },
            head_version,
        );
        if head_version.is_none() {
            // The head changed but the list is no longer provably sorted:
            // any head-version claim the line carries is stale now.
            if let Some(line) = self.compressed[core].get_mut(&root_pa) {
                line.set_head_version(None);
            }
        }
        self.compressed_coherence(ms, core, root_pa);
        Ok(OpOutcome::Done {
            value: data,
            version: v,
            latency,
        })
    }

    /// `STORE-VERSION`: create version `v` with datum `data`.
    pub fn store_version(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        v: Version,
        data: u32,
    ) -> Result<OpOutcome, Fault> {
        let root_pa = ms.pt.translate_versioned(va)?;
        let mut latency = self.cfg.versioned_extra_latency + self.injected_jitter();

        // Direct-access fast path: when this core's compressed line knows
        // the head version and `v` is a fresh maximum, the front insertion
        // point is known from one cache lookup — no list walk, mirroring
        // what direct access does for loads.
        let fast = match self.compressed_line(ms, core, root_pa) {
            Some(line) => match line.head_version() {
                Some(h) if v > h => line.get(h).map(|e| (h, e.block_pa)),
                _ => None,
            },
            None => None,
        };
        if let Some((_, head_block_pa)) = fast {
            latency += 4; // the compressed-line lookup
            return self.store_at_front(ms, core, root_pa, v, data, head_block_pa, latency);
        }

        // Read the root to find the insertion point.
        let root = ms.hier.access(core, root_pa, AccessKind::Read);
        latency += root.latency;
        self.prune(&root.dropped_compressed);
        let head_pa = ms.phys.read_u32(root_pa);

        // Find `prev` (last block with version > v) and the follower. The
        // search runs on the host mirror; the modeled walk is charged after.
        let mut prev: Option<VBlock> = None;
        let mut follower: Option<VBlock> = None;
        let mut prev_idx: Option<usize> = None;
        if head_pa != 0 {
            #[cfg(debug_assertions)]
            self.mirror_check(ms, root_pa);
            let was_sorted = self.list_sorted(root_pa);
            let head_ok = VBlock::read(&ms.phys, head_pa).head;
            let list = &self.lists[&root_pa];
            debug_assert_eq!(list[0].1, head_pa, "mirror head is stale");
            let mut nodes = 0;
            let mut follower_pa = None;
            let mut dup = false;
            if head_ok {
                for (i, &(ver, pa)) in list.iter().enumerate() {
                    nodes += 1;
                    if ver == v {
                        dup = true;
                        break;
                    }
                    if self.cfg.sorted_insertion {
                        if ver < v {
                            follower_pa = Some(pa);
                            break;
                        }
                        prev_idx = Some(i);
                    } else if i == 0 && was_sorted && ver < v {
                        // Unsorted mode: always prepend. Versions created in
                        // order keep the list sorted anyway (the paper's
                        // common case), which lets the duplicate scan stop
                        // at the head; only lists whose order was actually
                        // violated pay a full scan.
                        break; // prepend of a fresh maximum: no duplicate possible
                    }
                }
            } else {
                nodes = 1; // the protection check charges the head before faulting
            }
            debug_assert_eq!(
                dup,
                self.index.contains_key(&(root_pa, v)),
                "index out of sync"
            );
            latency += self.charge_walk(ms, core, root_pa, nodes);
            if !head_ok {
                return Err(Fault::NotListHead { pa: head_pa });
            }
            if dup {
                return Err(Fault::VersionExists { va, version: v });
            }
            if self.cfg.sorted_insertion {
                prev = prev_idx.map(|i| VBlock::read(&ms.phys, self.lists[&root_pa][i].1));
                follower = follower_pa.map(|pa| VBlock::read(&ms.phys, pa));
            } else {
                let head_blk = VBlock::read(&ms.phys, head_pa);
                if v < head_blk.version {
                    // An out-of-order prepend breaks the list's order.
                    self.unsorted_roots.insert(root_pa);
                }
                follower = Some(head_blk);
            }
        }

        // Allocate and fill the new block.
        let (new_pa, alloc_lat) = self.alloc_block(ms, core)?;
        latency += alloc_lat;
        let at_front = prev.is_none();
        let next_pa = match &follower {
            Some(f) => f.pa,
            None => 0,
        };
        let new_blk = VBlock {
            pa: new_pa,
            version: v,
            next: next_pa,
            head: at_front,
            shadowed: false,
            locked_by: 0,
            data,
        };
        new_blk.write(&mut ms.phys);
        latency += ms.hier.access(core, new_pa, AccessKind::Write).latency;

        // Link it in. The two lines involved are acquired for exclusive
        // access; in the simulator operations are serialized by timestamps,
        // so the paper's re-check/retry protocol always succeeds on the
        // first try and we charge the two exclusive accesses.
        if at_front {
            latency += ms.hier.access(core, root_pa, AccessKind::Write).latency;
            ms.phys.write_u32(root_pa, new_pa);
            if let Some(old_head) = &follower {
                // Clear the old head bit (same exclusive access pattern).
                let mut oh = *old_head;
                oh.head = false;
                oh.write(&mut ms.phys);
                latency += ms.hier.access(core, oh.pa, AccessKind::Write).latency;
            }
        } else {
            let Some(mut p) = prev else {
                unreachable!("not at front implies a predecessor");
            };
            p.next = new_pa;
            p.write(&mut ms.phys);
            latency += ms.hier.access(core, p.pa, AccessKind::Write).latency;
        }
        self.mirror_insert(root_pa, prev_idx.map_or(0, |i| i + 1), v, new_pa);
        self.oracle_order(root_pa, prev_idx.map_or(0, |i| i + 1), v);

        // Shadow the next-older version (Figure 5): creating v makes the
        // version just below it unreachable for tasks ≥ v. (An
        // out-of-order prepend of an *older* version shadows nothing.)
        if let Some(f) = &follower {
            let mut fb = VBlock::read(&ms.phys, f.pa);
            if !fb.shadowed && fb.version < v {
                fb.shadowed = true;
                fb.write(&mut ms.phys);
                self.shadowed.push((root_pa, fb.pa));
            }
        }

        self.stats.stores += 1;

        // Compressed-line upkeep: update ours, discard everyone else's.
        // `head_version` on the compressed line means "newest version
        // overall", which a front insertion proves whenever the list is
        // still in descending order.
        let head_version = (self.list_sorted(root_pa) && at_front).then_some(v);
        self.compressed_install(
            ms,
            core,
            root_pa,
            CEntry {
                version: v,
                locked_by: 0,
                data,
                block_pa: new_pa,
            },
            head_version,
        );
        if at_front && head_version.is_none() {
            // An out-of-order prepend changed the head without proving
            // "newest overall": drop any stale head-version claim so the
            // store fast path cannot front-insert against the wrong block.
            // (When not at front the head did not change and our line's
            // claim stays valid; remote lines are dropped either way.)
            if let Some(line) = self.compressed[core].get_mut(&root_pa) {
                line.set_head_version(None);
            }
        }
        self.compressed_coherence(ms, core, root_pa);

        Ok(OpOutcome::Done {
            value: data,
            version: v,
            latency,
        })
    }

    /// `UNLOCK-VERSION`: unlock version `vl` (held by `tid`), optionally
    /// creating a new unlocked version `vn` carrying the same datum.
    pub fn unlock_version(
        &mut self,
        ms: &mut MemSys,
        core: usize,
        va: u32,
        vl: Version,
        tid: TaskId,
        create: Option<Version>,
    ) -> Result<OpOutcome, Fault> {
        let root_pa = ms.pt.translate_versioned(va)?;
        let mut latency = self.cfg.versioned_extra_latency + self.injected_jitter();

        // Locate the block holding vl: via our compressed line if possible,
        // else by walking.
        let block_pa = match self.compressed_line(ms, core, root_pa) {
            Some(line) => line.get(vl).map(|e| e.block_pa),
            None => None,
        };
        let (block_pa, walk_latency) = match block_pa {
            Some(pa) => {
                self.stats.direct_hits += 1;
                (pa, 4)
            }
            None => {
                self.stats.full_lookups += 1;
                let root = ms.hier.access(core, root_pa, AccessKind::Read);
                let mut lat = root.latency;
                self.prune(&root.dropped_compressed);
                let sorted = self.list_sorted(root_pa);
                let head_pa = ms.phys.read_u32(root_pa);
                let mut found = None;
                let mut nodes = 0;
                let mut head_ok = true;
                if head_pa != 0 {
                    #[cfg(debug_assertions)]
                    self.mirror_check(ms, root_pa);
                    head_ok = VBlock::read(&ms.phys, head_pa).head;
                    if head_ok {
                        for &(ver, pa) in &self.lists[&root_pa] {
                            nodes += 1;
                            if ver == vl {
                                found = Some(pa);
                                break;
                            }
                            if sorted && ver < vl {
                                break;
                            }
                        }
                    } else {
                        nodes = 1; // the protection check charges the head
                    }
                }
                debug_assert_eq!(
                    found,
                    self.index.get(&(root_pa, vl)).copied().filter(|_| head_ok),
                    "index out of sync"
                );
                lat += self.charge_walk(ms, core, root_pa, nodes);
                if !head_ok {
                    return Err(Fault::NotListHead { pa: head_pa });
                }
                match found {
                    Some(pa) => (pa, lat),
                    None => return Err(Fault::NotLockOwner { va, version: vl }),
                }
            }
        };
        latency += walk_latency;

        let mut blk = VBlock::read(&ms.phys, block_pa);
        if blk.locked_by != tid {
            return Err(Fault::NotLockOwner { va, version: vl });
        }
        self.oracle_lock_release(root_pa, block_pa, blk.locked_by, tid);
        blk.locked_by = 0;
        blk.write(&mut ms.phys);
        latency += ms.hier.access(core, block_pa, AccessKind::Write).latency;

        if let Some(line) = self.compressed[core].get_mut(&root_pa) {
            let _ = line.set_lock(vl, 0);
        }
        self.compressed_coherence(ms, core, root_pa);

        let value = blk.data;
        if let Some(vn) = create {
            let store = self.store_version(ms, core, va, vn, value)?;
            latency += store
                .latency()
                .saturating_sub(self.cfg.versioned_extra_latency);
        }

        Ok(OpOutcome::Done {
            value,
            version: vl,
            latency,
        })
    }

    /// Releases an entire O-structure (§III-C, "Allocating and Freeing
    /// O-structures"): every version block of the list rooted at `va` goes
    /// back to the free list and the root word is reset to null, after
    /// which the address behaves like a fresh O-structure again.
    ///
    /// The caller owns the safety contract the paper states: "no unfinished
    /// task may access that location as an O-structure" — i.e. call this
    /// only at quiescent points (the paper's suggested policy for delayed
    /// memory recycling). Locked blocks indicate a violated contract and
    /// fault.
    pub fn release_structure(&mut self, ms: &mut MemSys, va: u32) -> Result<u32, Fault> {
        let root_pa = ms.pt.translate_versioned(va)?;
        let mut cur = ms.phys.read_u32(root_pa);
        let mut freed = 0;
        let mut first = true;
        while cur != 0 {
            let blk = VBlock::read(&ms.phys, cur);
            if first && !blk.head {
                return Err(Fault::NotListHead { pa: cur });
            }
            first = false;
            if !blk.unlocked() {
                return Err(Fault::NotLockOwner {
                    va,
                    version: blk.version,
                });
            }
            let next = blk.next;
            self.push_free(ms, cur);
            freed += 1;
            cur = next;
        }
        ms.phys.write_u32(root_pa, 0);
        self.mirror_release(root_pa);
        // Blocks returned to the free list may still sit on the shadowed
        // list; drop those entries (they are already free).
        self.shadowed.retain(|&(r, _)| r != root_pa);
        if let Some(phase) = &mut self.gc_phase {
            phase.pending.retain(|&(r, _)| r != root_pa);
        }
        // Every cached view of this structure is now stale. This is an
        // explicit release, not a coherence event, so pending loss markers
        // for the root die with it.
        for core in 0..ms.hier.cfg().cores {
            ms.hier.compressed_drop(core, root_pa);
            self.compressed[core].remove(&root_pa);
        }
        self.coherence_lost.retain(|&(_, r)| r != root_pa);
        self.stats.reclaimed_blocks += freed as u64;
        self.unsorted_roots.remove(&root_pa);
        Ok(freed)
    }

    // ------------------------------------------------------------------
    // Functional inspection (zero-timing; tests and validation harness)
    // ------------------------------------------------------------------

    /// Returns every `(version, data, locked_by)` of the O-structure at
    /// `va`, newest first, without touching timing state.
    pub fn peek_versions(
        &self,
        ms: &MemSys,
        va: u32,
    ) -> Result<Vec<(Version, u32, TaskId)>, Fault> {
        let root_pa = ms.pt.translate_versioned(va)?;
        let mut out = Vec::new();
        let mut cur = ms.phys.read_u32(root_pa);
        while cur != 0 {
            let blk = VBlock::read(&ms.phys, cur);
            out.push((blk.version, blk.data, blk.locked_by));
            cur = blk.next;
        }
        Ok(out)
    }

    /// Functional `LOAD-LATEST` (no timing): the newest version ≤ `cap`.
    pub fn peek_latest(
        &self,
        ms: &MemSys,
        va: u32,
        cap: Version,
    ) -> Result<Option<(Version, u32)>, Fault> {
        Ok(self
            .peek_versions(ms, va)?
            .into_iter()
            .filter(|&(ver, _, _)| ver <= cap)
            .max_by_key(|&(ver, _, _)| ver)
            .map(|(ver, data, _)| (ver, data)))
    }
}

/// True if any entry of the line references a reclaimed block.
fn line_contains_any(line: &CompressedLine, reclaimed: &HashSet<u32>) -> bool {
    // CompressedLine does not expose iteration; test via its public API by
    // checking each reclaimed block address. Small sets keep this cheap.
    reclaimed.iter().any(|&pa| line_has_block(line, pa))
}

fn line_has_block(line: &CompressedLine, pa: u32) -> bool {
    line.entries_ref().iter().any(|e| e.block_pa == pa)
}
