//! Page table with the paper's version-block protection bit.

use std::cell::{Cell, RefCell};

use crate::events::EventLog;
use crate::fault::Fault;

/// Page size in bytes. 4 KiB, as on the paper's ARM platform.
pub const PAGE_SIZE: u32 = 4096;

/// How a virtual page may be used.
///
/// The paper extends the page table with "a bit indicating that a page
/// contains version blocks" and faults mismatched accesses. We keep two
/// versioned kinds because the runtime maps two distinct versioned regions:
/// user-visible O-structure *roots* and the *pool* pages that the free list
/// is carved from. Both have the version-block bit set as far as the
/// protection rules are concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFlags {
    /// Ordinary data page: conventional loads/stores only.
    Conventional,
    /// Page of O-structure root words: versioned instructions only.
    VersionedRoot,
    /// Page carved into 16-byte version blocks for the free list. Only the
    /// O-structure manager itself dereferences these (via physical
    /// pointers); *no* user-visible access is legal.
    VBlockPool,
}

impl PageFlags {
    /// True if the version-block page-table bit is set for this kind.
    pub fn versioned_bit(self) -> bool {
        !matches!(self, PageFlags::Conventional)
    }
}

#[derive(Clone, Copy)]
struct Pte {
    ppn: u32,
    flags: PageFlags,
}

/// One observable page-table walk (a `translate*` call).
///
/// Observation only: walks are logged through interior mutability so the
/// `&self` translation API (used under shared borrows by the host-side
/// result validators) is unchanged, and logging never affects timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkEvent {
    /// Hierarchy clock at the walk ([`PageTable::set_clock`]).
    pub cycle: u64,
    /// Virtual address translated.
    pub va: u32,
    /// Version-block bit of the resolved page (false on faults).
    pub versioned: bool,
    /// The walk ended in a fault (unmapped or protection mismatch).
    pub fault: bool,
}

impl WalkEvent {
    /// Short stable name for exporters.
    pub fn kind_name(&self) -> &'static str {
        match (self.fault, self.versioned) {
            (true, _) => "pt_walk_fault",
            (false, true) => "pt_walk_versioned",
            (false, false) => "pt_walk",
        }
    }
}

/// A single-address-space page table (the simulator models one process, as
/// gem5 SE mode does).
#[derive(Default)]
pub struct PageTable {
    entries: Vec<Option<Pte>>,
    next_vpn: u32,
    /// Cheap enabled flag mirroring `events` so the disabled hot path pays
    /// one `Cell` read, not a `RefCell` borrow, per walk.
    events_on: Cell<bool>,
    events: RefCell<EventLog<WalkEvent>>,
    clock: Cell<u64>,
}

impl PageTable {
    /// Creates an empty page table. Virtual page 0 is never handed out so
    /// that va 0 behaves as a null pointer.
    pub fn new() -> Self {
        PageTable {
            entries: Vec::new(),
            next_vpn: 1,
            events_on: Cell::new(false),
            events: RefCell::new(EventLog::disabled()),
            clock: Cell::new(0),
        }
    }

    /// Arms walk-event capture with a ring of `capacity` events.
    pub fn enable_walk_events(&self, capacity: usize) {
        *self.events.borrow_mut() = EventLog::with_capacity(capacity);
        self.events_on.set(capacity > 0);
    }

    /// Stamps the cycle subsequent walk events carry (mirrors
    /// [`crate::Hierarchy::set_clock`]).
    pub fn set_clock(&self, cycle: u64) {
        self.clock.set(cycle);
    }

    /// The captured walk events in arrival order.
    pub fn walk_events(&self) -> Vec<WalkEvent> {
        self.events.borrow().records()
    }

    /// Walk events overwritten because the ring was full.
    pub fn walk_dropped(&self) -> u64 {
        self.events.borrow().dropped
    }

    /// Number of walk events currently retained.
    pub fn walk_event_len(&self) -> usize {
        self.events.borrow().len()
    }

    fn log_walk(&self, va: u32, versioned: bool, fault: bool) {
        if !self.events_on.get() {
            return;
        }
        self.events.borrow_mut().push(WalkEvent {
            cycle: self.clock.get(),
            va,
            versioned,
            fault,
        });
    }

    /// Maps the next free virtual page to physical page `ppn` with `flags`,
    /// returning the virtual base address of the new page.
    pub fn map_next(&mut self, ppn: u32, flags: PageFlags) -> u32 {
        let vpn = self.next_vpn;
        self.next_vpn += 1;
        if self.entries.len() <= vpn as usize {
            self.entries.resize_with(vpn as usize + 1, || None);
        }
        self.entries[vpn as usize] = Some(Pte { ppn, flags });
        vpn * PAGE_SIZE
    }

    /// The raw PTE walk, shared by every `translate*` entry point; does not
    /// log, so each walk is captured exactly once by its public caller.
    fn lookup(&self, va: u32) -> Result<(u32, PageFlags), Fault> {
        let vpn = (va / PAGE_SIZE) as usize;
        match self.entries.get(vpn).copied().flatten() {
            Some(pte) => Ok((pte.ppn * PAGE_SIZE + va % PAGE_SIZE, pte.flags)),
            None => Err(Fault::NotMapped { va }),
        }
    }

    /// Translates a virtual address, returning `(pa, flags)`.
    pub fn translate(&self, va: u32) -> Result<(u32, PageFlags), Fault> {
        let out = self.lookup(va);
        match &out {
            Ok((_, flags)) => self.log_walk(va, flags.versioned_bit(), false),
            Err(_) => self.log_walk(va, false, true),
        }
        out
    }

    /// Translation for a conventional `LOAD`/`STORE`: faults on pages whose
    /// version-block bit is set.
    pub fn translate_conventional(&self, va: u32) -> Result<u32, Fault> {
        let (pa, flags) = self.lookup(va).inspect_err(|_| {
            self.log_walk(va, false, true);
        })?;
        if flags.versioned_bit() {
            self.log_walk(va, true, true);
            return Err(Fault::ConventionalAccessToVersionedPage { va });
        }
        self.log_walk(va, false, false);
        Ok(pa)
    }

    /// Translation for an O-structure instruction: faults unless the page is
    /// a versioned-root page, and requires 4-byte alignment (roots are
    /// 32-bit words).
    pub fn translate_versioned(&self, va: u32) -> Result<u32, Fault> {
        if !va.is_multiple_of(4) {
            return Err(Fault::Misaligned { va });
        }
        let (pa, flags) = self.lookup(va).inspect_err(|_| {
            self.log_walk(va, false, true);
        })?;
        match flags {
            PageFlags::VersionedRoot => {
                self.log_walk(va, true, false);
                Ok(pa)
            }
            _ => {
                self.log_walk(va, flags.versioned_bit(), true);
                Err(Fault::VersionedAccessToConventionalPage { va })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate() {
        let mut pt = PageTable::new();
        let va = pt.map_next(7, PageFlags::Conventional);
        let (pa, flags) = pt.translate(va + 12).unwrap();
        assert_eq!(pa, 7 * PAGE_SIZE + 12);
        assert_eq!(flags, PageFlags::Conventional);
    }

    #[test]
    fn unmapped_faults() {
        let pt = PageTable::new();
        assert_eq!(pt.translate(0x1234), Err(Fault::NotMapped { va: 0x1234 }));
    }

    #[test]
    fn conventional_access_to_versioned_page_faults() {
        let mut pt = PageTable::new();
        let va = pt.map_next(3, PageFlags::VersionedRoot);
        assert_eq!(
            pt.translate_conventional(va),
            Err(Fault::ConventionalAccessToVersionedPage { va })
        );
        let va2 = pt.map_next(4, PageFlags::VBlockPool);
        assert_eq!(
            pt.translate_conventional(va2),
            Err(Fault::ConventionalAccessToVersionedPage { va: va2 })
        );
    }

    #[test]
    fn versioned_access_to_conventional_page_faults() {
        let mut pt = PageTable::new();
        let va = pt.map_next(3, PageFlags::Conventional);
        assert_eq!(
            pt.translate_versioned(va),
            Err(Fault::VersionedAccessToConventionalPage { va })
        );
    }

    #[test]
    fn versioned_access_to_pool_page_faults() {
        // User code must not address version blocks directly, even with
        // versioned instructions: only root pages are legal targets.
        let mut pt = PageTable::new();
        let va = pt.map_next(3, PageFlags::VBlockPool);
        assert_eq!(
            pt.translate_versioned(va),
            Err(Fault::VersionedAccessToConventionalPage { va })
        );
    }

    #[test]
    fn misaligned_versioned_access_faults() {
        let mut pt = PageTable::new();
        let va = pt.map_next(3, PageFlags::VersionedRoot);
        assert_eq!(
            pt.translate_versioned(va + 2),
            Err(Fault::Misaligned { va: va + 2 })
        );
    }

    #[test]
    fn walk_events_capture_hits_and_faults() {
        let mut pt = PageTable::new();
        let conv = pt.map_next(2, PageFlags::Conventional);
        let root = pt.map_next(3, PageFlags::VersionedRoot);
        // Disabled by default: walks leave no trace.
        let _ = pt.translate(conv);
        assert_eq!(pt.walk_event_len(), 0);

        pt.enable_walk_events(8);
        pt.set_clock(42);
        let _ = pt.translate_conventional(conv);
        let _ = pt.translate_versioned(root);
        let _ = pt.translate(0xdead_f000); // unmapped → fault
        let _ = pt.translate_conventional(root); // protection mismatch
        let ev = pt.walk_events();
        assert_eq!(ev.len(), 4);
        assert!(ev.iter().all(|e| e.cycle == 42));
        assert_eq!(ev[0].kind_name(), "pt_walk");
        assert_eq!(ev[1].kind_name(), "pt_walk_versioned");
        assert!(ev[2].fault && ev[3].fault);
        assert_eq!(pt.walk_dropped(), 0);
    }

    #[test]
    fn walk_ring_counts_drops() {
        let mut pt = PageTable::new();
        let va = pt.map_next(2, PageFlags::Conventional);
        pt.enable_walk_events(2);
        for _ in 0..5 {
            let _ = pt.translate(va);
        }
        assert_eq!(pt.walk_event_len(), 2);
        assert_eq!(pt.walk_dropped(), 3);
    }

    #[test]
    fn null_page_is_never_mapped() {
        let mut pt = PageTable::new();
        let va = pt.map_next(1, PageFlags::Conventional);
        assert!(va >= PAGE_SIZE);
        assert!(pt.translate(0).is_err());
    }
}
