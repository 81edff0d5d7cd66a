//! The 16-byte Version Block record (Figure 3 of the paper).
//!
//! Layout in simulated physical memory (little-endian words):
//!
//! | offset | field |
//! |--------|-------|
//! | +0     | version identifier (32 bits) |
//! | +4     | link word: bits 0–27 = next block's physical address ÷ 16, bit 30 = shadowed flag, bit 31 = head bit |
//! | +8     | locked-by task id (0 = unlocked) |
//! | +12    | datum (32 bits) |
//!
//! The paper gives the next pointer 30 bits; since blocks are 16-byte
//! aligned, 28 bits of block index address the full 32-bit physical space,
//! which leaves bit 30 free for the *shadowed* flag the garbage collector
//! uses to avoid double-registering a block on the shadowed list.

use osim_mem::PhysMem;

use crate::{TaskId, Version};

/// Size of a version block in bytes.
pub const VBLOCK_BYTES: u32 = 16;

const HEAD_BIT: u32 = 1 << 31;
const SHADOW_BIT: u32 = 1 << 30;
const NEXT_MASK: u32 = (1 << 28) - 1;

/// The next block's physical address encoded in a link word.
fn link_next(link: u32) -> u32 {
    (link & NEXT_MASK) * VBLOCK_BYTES
}

/// A decoded version block. The authoritative copy always lives in
/// [`PhysMem`]; this struct is a read/modify/write view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VBlock {
    /// Physical address of this block (16-byte aligned).
    pub pa: u32,
    /// Version identifier.
    pub version: Version,
    /// Physical address of the next (older) block, or 0 for end of list.
    pub next: u32,
    /// Head-of-list bit; checked on every O-structure entry for protection.
    pub head: bool,
    /// Garbage-collector flag: this block is already on the shadowed list.
    pub shadowed: bool,
    /// Task currently holding this version's lock (0 = unlocked).
    pub locked_by: TaskId,
    /// The stored datum.
    pub data: u32,
}

impl VBlock {
    /// Reads and decodes the block at physical address `pa`.
    pub fn read(mem: &PhysMem, pa: u32) -> VBlock {
        debug_assert_eq!(pa % VBLOCK_BYTES, 0, "unaligned version block {pa:#010x}");
        let link = mem.read_u32(pa + 4);
        VBlock {
            pa,
            version: mem.read_u32(pa),
            next: link_next(link),
            head: link & HEAD_BIT != 0,
            shadowed: link & SHADOW_BIT != 0,
            locked_by: mem.read_u32(pa + 8),
            data: mem.read_u32(pa + 12),
        }
    }

    /// Encodes and writes the block back to physical memory.
    pub fn write(&self, mem: &mut PhysMem) {
        debug_assert_eq!(self.pa % VBLOCK_BYTES, 0);
        debug_assert_eq!(self.next % VBLOCK_BYTES, 0, "unaligned next pointer");
        let mut link = self.next / VBLOCK_BYTES;
        debug_assert!(link <= NEXT_MASK);
        if self.head {
            link |= HEAD_BIT;
        }
        if self.shadowed {
            link |= SHADOW_BIT;
        }
        mem.write_u32(self.pa, self.version);
        mem.write_u32(self.pa + 4, link);
        mem.write_u32(self.pa + 8, self.locked_by);
        mem.write_u32(self.pa + 12, self.data);
    }

    /// True when no task holds this version's lock.
    pub fn unlocked(&self) -> bool {
        self.locked_by == 0
    }
}

/// Iterates the version-block list starting at `head_pa` (0 = empty), in
/// list order, yielding `(version, block_pa)` per node. Only the version
/// and link words of each block are decoded.
pub fn list_nodes(mem: &PhysMem, head_pa: u32) -> impl Iterator<Item = (Version, u32)> + '_ {
    let mut cur = head_pa;
    std::iter::from_fn(move || {
        if cur == 0 {
            return None;
        }
        let pa = cur;
        cur = link_next(mem.read_u32(pa + 4));
        Some((mem.read_u32(pa), pa))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_page() -> (PhysMem, u32) {
        let mut m = PhysMem::new(1 << 20);
        let base = m.alloc_page().unwrap() * osim_mem::PAGE_SIZE;
        (m, base)
    }

    #[test]
    fn roundtrip_all_fields() {
        let (mut m, base) = mem_with_page();
        let b = VBlock {
            pa: base + 32,
            version: 0xfeed_f00d,
            next: base + 16,
            head: true,
            shadowed: false,
            locked_by: 77,
            data: 0xdede_dede,
        };
        b.write(&mut m);
        assert_eq!(VBlock::read(&m, base + 32), b);
    }

    #[test]
    fn head_and_shadow_bits_are_independent() {
        let (mut m, base) = mem_with_page();
        for (head, shadowed) in [(false, false), (true, false), (false, true), (true, true)] {
            let b = VBlock {
                pa: base,
                version: 1,
                next: 0,
                head,
                shadowed,
                locked_by: 0,
                data: 0,
            };
            b.write(&mut m);
            let r = VBlock::read(&m, base);
            assert_eq!((r.head, r.shadowed), (head, shadowed));
            assert_eq!(r.next, 0);
        }
    }

    #[test]
    fn null_next_roundtrips() {
        let (mut m, base) = mem_with_page();
        let b = VBlock {
            pa: base,
            version: 3,
            next: 0,
            head: true,
            shadowed: false,
            locked_by: 0,
            data: 42,
        };
        b.write(&mut m);
        let r = VBlock::read(&m, base);
        assert_eq!(r.next, 0);
        assert!(r.unlocked());
    }

    #[test]
    fn list_nodes_follows_links_in_order() {
        let (mut m, base) = mem_with_page();
        // Three blocks linked out of address order: 48 -> 16 -> 32.
        for (pa, version, next) in [(base + 48, 9, base + 16), (base + 16, 5, base + 32)] {
            let b = VBlock {
                pa,
                version,
                next,
                head: pa == base + 48,
                shadowed: true,
                locked_by: 3,
                data: 7,
            };
            b.write(&mut m);
        }
        VBlock {
            pa: base + 32,
            version: 2,
            next: 0,
            head: false,
            shadowed: false,
            locked_by: 0,
            data: 0,
        }
        .write(&mut m);
        let nodes: Vec<_> = list_nodes(&m, base + 48).collect();
        assert_eq!(nodes, [(9, base + 48), (5, base + 16), (2, base + 32)]);
        assert_eq!(list_nodes(&m, 0).count(), 0, "null head is an empty list");
    }

    #[test]
    fn high_physical_next_pointer() {
        // 28 bits of block index cover the whole 32-bit physical space.
        let (mut m, base) = mem_with_page();
        let far = 0xffff_fff0; // highest 16-aligned address
        let b = VBlock {
            pa: base,
            version: 1,
            next: far,
            head: false,
            shadowed: false,
            locked_by: 0,
            data: 0,
        };
        b.write(&mut m);
        assert_eq!(VBlock::read(&m, base).next, far);
    }
}
