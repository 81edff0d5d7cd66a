//! Page table with the paper's version-block protection bit.

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

/// A single-address-space page table (the simulator models one process, as
/// gem5 SE mode does).
#[derive(Default)]
pub struct PageTable {
    entries: Vec<Option<Pte>>,
    next_vpn: u32,
}

impl PageTable {
    /// Creates an empty page table. Virtual page 0 is never handed out so
    /// that va 0 behaves as a null pointer.
    pub fn new() -> Self {
        PageTable {
            entries: Vec::new(),
            next_vpn: 1,
        }
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

    /// Translates a virtual address, returning `(pa, flags)`.
    pub fn translate(&self, va: u32) -> Result<(u32, PageFlags), Fault> {
        let vpn = (va / PAGE_SIZE) as usize;
        match self.entries.get(vpn).copied().flatten() {
            Some(pte) => Ok((pte.ppn * PAGE_SIZE + va % PAGE_SIZE, pte.flags)),
            None => Err(Fault::NotMapped { va }),
        }
    }

    /// Translation for a conventional `LOAD`/`STORE`: faults on pages whose
    /// version-block bit is set.
    pub fn translate_conventional(&self, va: u32) -> Result<u32, Fault> {
        let (pa, flags) = self.translate(va)?;
        if flags.versioned_bit() {
            return Err(Fault::ConventionalAccessToVersionedPage { va });
        }
        Ok(pa)
    }

    /// Translation for an O-structure instruction: faults unless the page is
    /// a versioned-root page, and requires 4-byte alignment (roots are
    /// 32-bit words).
    pub fn translate_versioned(&self, va: u32) -> Result<u32, Fault> {
        if !va.is_multiple_of(4) {
            return Err(Fault::Misaligned { va });
        }
        match self.translate(va)? {
            (pa, PageFlags::VersionedRoot) => Ok(pa),
            _ => Err(Fault::VersionedAccessToConventionalPage { va }),
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
    fn null_page_is_never_mapped() {
        let mut pt = PageTable::new();
        let va = pt.map_next(1, PageFlags::Conventional);
        assert!(va >= PAGE_SIZE);
        assert!(pt.translate(0).is_err());
    }
}
