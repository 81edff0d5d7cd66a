//! Simulated memory system for the O-structures microarchitecture.
//!
//! This crate models the parts of the paper's platform (Table II) that sit
//! below the O-structure manager:
//!
//! * [`phys::PhysMem`] — a sparse, paged 32-bit physical memory that actually
//!   stores data (version blocks are real 16-byte records in here, linked by
//!   physical pointers).
//! * [`page::PageTable`] — virtual→physical translation plus the paper's
//!   protection extension: pages are tagged *conventional*, *versioned root*
//!   or *version-block pool*, and the wrong kind of access faults.
//! * [`cache::Cache`] — a set-associative, LRU, write-back cache holding
//!   line metadata (tags + MESI state). Data itself stays in [`phys::PhysMem`];
//!   the caches are a timing and coherence filter, which is all the paper's
//!   evaluation needs.
//! * [`hierarchy::Hierarchy`] — per-core L1s over a shared inclusive L2 over
//!   DRAM, with invalidation-based coherence and the paper's latencies
//!   (L1 4 cycles, L2 35 cycles, DRAM 60 ns = 120 cycles at 2 GHz).
//!
//! Compressed version-block lines (§III-A of the paper,
//! [`compressed::CompressedLine`]) occupy real L1 slots here, payload
//! included: an eviction, invalidation or coherence discard frees the
//! payload with the slot, mirroring the paper's "discard the compressed
//! version block on a coherence message" rule. `osim-uarch` reads and
//! updates the payloads through the hierarchy.

pub mod cache;
pub mod compressed;
pub mod events;
pub mod fault;
pub mod fxhash;
pub mod hierarchy;
pub mod inject;
pub mod page;
mod pagedir;
pub mod phys;
pub mod stats;

pub use cache::{Cache, CacheCfg};
pub use compressed::{CEntry, CompressedLine};
pub use events::{EventLog, MemEvent, MemEventKind};
pub use fault::Fault;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyCfg, Level};
pub use inject::{FaultPlan, Injector, PoolShrink, SpecError};
pub use page::{PageFlags, PageTable, PAGE_SIZE};
pub use phys::PhysMem;
pub use stats::{MemHists, MemStats};

/// The full memory system of one simulated machine, bundled so the
/// O-structure manager and the cores can thread it through their operations.
pub struct MemSys {
    /// The cache hierarchy (timing + coherence).
    pub hier: Hierarchy,
    /// Physical memory (data).
    pub phys: PhysMem,
    /// The process page table (translation + protection).
    pub pt: PageTable,
}

impl MemSys {
    /// Builds a memory system with the given hierarchy configuration and
    /// `ram_bytes` of allocatable simulated RAM.
    pub fn new(cfg: HierarchyCfg, ram_bytes: u64) -> Self {
        MemSys {
            hier: Hierarchy::new(cfg),
            phys: PhysMem::new(ram_bytes),
            pt: PageTable::new(),
        }
    }

    /// Maps `n` fresh zeroed pages with the given flags, returning the
    /// virtual base address of the first page (pages are virtually
    /// contiguous).
    pub fn map_zeroed(&mut self, n: u32, flags: PageFlags) -> Option<u32> {
        let mut base = None;
        for _ in 0..n {
            let ppn = self.phys.alloc_page()?;
            let va = self.pt.map_next(ppn, flags);
            base.get_or_insert(va);
        }
        base
    }
}

/// Cache line size in bytes (Table II: 64 B blocks at both levels).
pub const LINE_BYTES: u32 = 64;

/// Returns the 64-byte-aligned line address containing `addr`.
#[inline]
pub fn line_of(addr: u32) -> u32 {
    addr & !(LINE_BYTES - 1)
}
