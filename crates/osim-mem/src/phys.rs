//! Sparse 32-bit simulated physical memory.

use crate::page::PAGE_SIZE;

/// Simulated physical memory.
///
/// Pages are allocated on demand by [`PhysMem::alloc_page`] and stored
/// sparsely, so a simulated "64 GB" machine (Table II) costs only what the
/// workload actually touches. All data in the simulation — workload heap
/// data, O-structure roots, and version blocks — lives in here, addressed by
/// physical address.
pub struct PhysMem {
    pages: Vec<Option<Box<[u8; PAGE_SIZE as usize]>>>,
    /// Next physical page number to hand out.
    next_ppn: u32,
    /// Upper bound on allocatable pages (simulated RAM size).
    max_pages: u32,
}

impl PhysMem {
    /// Creates a physical memory capped at `max_bytes` of backing RAM.
    pub fn new(max_bytes: u64) -> Self {
        let max_pages = (max_bytes / PAGE_SIZE as u64).min(1 << 20) as u32;
        PhysMem {
            pages: Vec::new(),
            next_ppn: 1, // keep ppn 0 unused so pa 0 can serve as null
            max_pages,
        }
    }

    /// Allocates a zeroed physical page, returning its page number.
    ///
    /// Returns `None` when the simulated RAM is exhausted.
    pub fn alloc_page(&mut self) -> Option<u32> {
        if self.next_ppn >= self.max_pages {
            return None;
        }
        let ppn = self.next_ppn;
        self.next_ppn += 1;
        if self.pages.len() <= ppn as usize {
            self.pages.resize_with(ppn as usize + 1, || None);
        }
        self.pages[ppn as usize] = Some(Box::new([0; PAGE_SIZE as usize]));
        Some(ppn)
    }

    #[inline]
    fn page(&self, pa: u32) -> &[u8; PAGE_SIZE as usize] {
        self.pages
            .get((pa / PAGE_SIZE) as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("access to unallocated physical page, pa {pa:#010x}"))
    }

    #[inline]
    fn page_mut(&mut self, pa: u32) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .get_mut((pa / PAGE_SIZE) as usize)
            .and_then(|p| p.as_mut())
            .unwrap_or_else(|| panic!("access to unallocated physical page, pa {pa:#010x}"))
    }

    /// Reads one byte at physical address `pa`.
    #[inline]
    pub fn read_u8(&self, pa: u32) -> u8 {
        self.page(pa)[(pa % PAGE_SIZE) as usize]
    }

    /// Writes one byte at physical address `pa`.
    #[inline]
    pub fn write_u8(&mut self, pa: u32, v: u8) {
        self.page_mut(pa)[(pa % PAGE_SIZE) as usize] = v;
    }

    /// Reads a little-endian `u32` at 4-byte-aligned physical address `pa`.
    #[inline]
    pub fn read_u32(&self, pa: u32) -> u32 {
        debug_assert_eq!(pa % 4, 0, "misaligned u32 read at {pa:#010x}");
        let off = (pa % PAGE_SIZE) as usize;
        let p = self.page(pa);
        u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
    }

    /// Writes a little-endian `u32` at 4-byte-aligned physical address `pa`.
    #[inline]
    pub fn write_u32(&mut self, pa: u32, v: u32) {
        debug_assert_eq!(pa % 4, 0, "misaligned u32 write at {pa:#010x}");
        let off = (pa % PAGE_SIZE) as usize;
        self.page_mut(pa)[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut m = PhysMem::new(1 << 20);
        let ppn = m.alloc_page().unwrap();
        let base = ppn * PAGE_SIZE;
        assert_eq!(m.read_u32(base), 0, "fresh pages are zeroed");
        m.write_u32(base + 8, 0xdead_beef);
        assert_eq!(m.read_u32(base + 8), 0xdead_beef);
        m.write_u8(base + 1, 0x42);
        assert_eq!(m.read_u8(base + 1), 0x42);
    }

    #[test]
    fn pages_are_independent() {
        let mut m = PhysMem::new(1 << 20);
        let a = m.alloc_page().unwrap() * PAGE_SIZE;
        let b = m.alloc_page().unwrap() * PAGE_SIZE;
        m.write_u32(a, 1);
        m.write_u32(b, 2);
        assert_eq!(m.read_u32(a), 1);
        assert_eq!(m.read_u32(b), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = PhysMem::new(3 * PAGE_SIZE as u64);
        assert!(m.alloc_page().is_some());
        assert!(m.alloc_page().is_some());
        assert!(
            m.alloc_page().is_none(),
            "ppn 0 is reserved, so 3 pages give 2 allocs"
        );
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_access_panics() {
        let m = PhysMem::new(1 << 20);
        m.read_u32(0x5000);
    }
}
