//! Red-black tree (§IV-D): a single serialized writer, snapshot readers.
//!
//! "The red-black tree benchmark is an attempt to handle balanced data
//! structures, which are harder to parallelize due to the rebalancing
//! procedure. Our implementation allows a single writer, and readers might
//! see a slightly unbalanced tree."
//!
//! Writers serialize on a versioned *order cell* (held for the whole
//! operation). Rebalancing is the classic functional red-black formulation
//! (Okasaki's insert balance, Kahrs' delete), run on a host-side
//! *persistent arena*: path copying happens only there. Simulated memory
//! holds one node per key, whose left and right child pointers are
//! versioned cells. After each insert/delete the writer publishes only
//! what changed, all at its own version: a fresh node for each new key, a
//! `STORE-VERSION` to each child cell whose child changed, an in-place
//! store for each changed color, and last a `STORE-VERSION` to the root
//! cell if the root changed. Old versions stay in every cell, so a reader
//! ordered before the writer follows the old tree's pointers throughout
//! and can never observe a half-rotated tree, until the garbage collector
//! reclaims versions no reader can reach.
//!
//! The writer performs the real memory traffic (descent loads, node
//! materialization stores, per-cell publishes), while the algorithmic
//! decisions run on the arena, keeping the async surface small. Finding
//! what a write changed costs host time linear in the arena nodes it
//! created, not in the tree size, because the arena is append-only: a node
//! older than the published tree is a subtree it shares unchanged. Tests
//! assert mirror/memory agreement, the red-black invariants, and the
//! incremental diff against a whole-tree diff.
//!
//! Node layout (conventional heap, 16 bytes): `+0` key, `+4` color
//! (0 = red, 1 = black), `+8` va of the versioned left cell, `+12` va of
//! the versioned right cell.

use std::cell::RefCell;
use std::rc::Rc;

use osim_cpu::{MachineCfg, MachineState, TaskCtx};
use osim_uarch::Version;

use crate::harness::{self, peek_latest, peek_word, DsCfg, DsResult, Op, OpResult};
use crate::vers;

const NODE_BYTES: u32 = 16;
const HOP_WORK: u64 = 6;
const OP_WORK: u64 = 20;
/// Instruction budget for building one copied node host-side.
const COPY_WORK: u64 = 12;

/// How long the writer holds the order cell (the §IV-D delete-locking
/// ablation: the paper's baseline "was locking a deleted pointer longer
/// than necessary; algorithmic modifications shortened the locking").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockHold {
    /// Baseline: the order cell is released only after the writer's
    /// post-publication bookkeeping.
    Long,
    /// Optimized: released immediately after the new root is published.
    Short,
}

// ----------------------------------------------------------------------
// Persistent (copy-on-write) red-black tree on a host arena
// ----------------------------------------------------------------------

/// Arena-based persistent red-black tree. All mutation builds new nodes;
/// `usize::MAX` is the empty tree.
pub mod persistent {
    pub const NIL: usize = usize::MAX;

    /// Node color.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Color {
        Red,
        Black,
    }
    use Color::{Black, Red};

    /// An arena node. Children always sit at lower indices than their
    /// parent, since a node is created after the nodes it points to.
    #[derive(Debug, Clone, Copy)]
    pub struct Node {
        pub key: u32,
        pub color: Color,
        pub l: usize,
        pub r: usize,
    }

    /// The arena. Old nodes are never mutated once published, so every
    /// historical root index remains a valid snapshot.
    #[derive(Default)]
    pub struct Arena {
        pub nodes: Vec<Node>,
    }

    impl Arena {
        /// Creates a node, returning its index.
        fn mk(&mut self, color: Color, l: usize, key: u32, r: usize) -> usize {
            self.nodes.push(Node { key, color, l, r });
            self.nodes.len() - 1
        }

        fn is_red(&self, i: usize) -> bool {
            i != NIL && self.nodes[i].color == Red
        }

        fn is_black_node(&self, i: usize) -> bool {
            i != NIL && self.nodes[i].color == Black
        }

        /// Kahrs' `balance`: resolves a red-red violation under a black
        /// parent (also used by delete's rebalancing).
        fn balance(&mut self, l: usize, key: u32, r: usize) -> usize {
            let n = |a: &Self, i: usize| a.nodes[i];
            if self.is_red(l) && self.is_red(r) {
                let (lc, rc) = (n(self, l), n(self, r));
                let lb = self.mk(Black, lc.l, lc.key, lc.r);
                let rb = self.mk(Black, rc.l, rc.key, rc.r);
                return self.mk(Red, lb, key, rb);
            }
            if self.is_red(l) {
                let lc = n(self, l);
                if self.is_red(lc.l) {
                    let ll = n(self, lc.l);
                    let a = self.mk(Black, ll.l, ll.key, ll.r);
                    let b = self.mk(Black, lc.r, key, r);
                    return self.mk(Red, a, lc.key, b);
                }
                if self.is_red(lc.r) {
                    let lr = n(self, lc.r);
                    let a = self.mk(Black, lc.l, lc.key, lr.l);
                    let b = self.mk(Black, lr.r, key, r);
                    return self.mk(Red, a, lr.key, b);
                }
            }
            if self.is_red(r) {
                let rc = n(self, r);
                if self.is_red(rc.r) {
                    let rr = n(self, rc.r);
                    let a = self.mk(Black, l, key, rc.l);
                    let b = self.mk(Black, rr.l, rr.key, rr.r);
                    return self.mk(Red, a, rc.key, b);
                }
                if self.is_red(rc.l) {
                    let rl = n(self, rc.l);
                    let a = self.mk(Black, l, key, rl.l);
                    let b = self.mk(Black, rl.r, rc.key, rc.r);
                    return self.mk(Red, a, rl.key, b);
                }
            }
            self.mk(Black, l, key, r)
        }

        fn ins(&mut self, t: usize, key: u32, inserted: &mut bool) -> usize {
            if t == NIL {
                *inserted = true;
                return self.mk(Red, NIL, key, NIL);
            }
            let node = self.nodes[t];
            match (key.cmp(&node.key), node.color) {
                (std::cmp::Ordering::Equal, _) => {
                    *inserted = false;
                    t
                }
                (std::cmp::Ordering::Less, Black) => {
                    let nl = self.ins(node.l, key, inserted);
                    if *inserted {
                        self.balance(nl, node.key, node.r)
                    } else {
                        t
                    }
                }
                (std::cmp::Ordering::Greater, Black) => {
                    let nr = self.ins(node.r, key, inserted);
                    if *inserted {
                        self.balance(node.l, node.key, nr)
                    } else {
                        t
                    }
                }
                (std::cmp::Ordering::Less, Red) => {
                    let nl = self.ins(node.l, key, inserted);
                    if *inserted {
                        self.mk(Red, nl, node.key, node.r)
                    } else {
                        t
                    }
                }
                (std::cmp::Ordering::Greater, Red) => {
                    let nr = self.ins(node.r, key, inserted);
                    if *inserted {
                        self.mk(Red, node.l, node.key, nr)
                    } else {
                        t
                    }
                }
            }
        }

        /// Persistent insert. Returns `(new_root, inserted)`; the root of a
        /// changed tree is always black.
        pub fn insert(&mut self, root: usize, key: u32) -> (usize, bool) {
            let mut inserted = false;
            let t = self.ins(root, key, &mut inserted);
            if !inserted {
                return (root, false);
            }
            let n = self.nodes[t];
            let black_root = if n.color == Red {
                self.mk(Black, n.l, n.key, n.r)
            } else {
                t
            };
            (black_root, true)
        }

        // --- Kahrs delete -------------------------------------------------

        /// `sub1`: demote a black node to red (black-height bookkeeping).
        fn sub1(&mut self, t: usize) -> usize {
            debug_assert!(self.is_black_node(t), "sub1 requires a black node");
            let n = self.nodes[t];
            self.mk(Red, n.l, n.key, n.r)
        }

        fn balleft(&mut self, l: usize, key: u32, r: usize) -> usize {
            if self.is_red(l) {
                let ln = self.nodes[l];
                let lb = self.mk(Black, ln.l, ln.key, ln.r);
                return self.mk(Red, lb, key, r);
            }
            if self.is_black_node(r) {
                let rn = self.nodes[r];
                let rr = self.mk(Red, rn.l, rn.key, rn.r);
                return self.balance(l, key, rr);
            }
            debug_assert!(self.is_red(r) && self.is_black_node(self.nodes[r].l));
            let rn = self.nodes[r];
            let rl = self.nodes[rn.l];
            let a = self.mk(Black, l, key, rl.l);
            let c1 = self.sub1(rn.r);
            let b = self.balance(rl.r, rn.key, c1);
            self.mk(Red, a, rl.key, b)
        }

        fn balright(&mut self, l: usize, key: u32, r: usize) -> usize {
            if self.is_red(r) {
                let rn = self.nodes[r];
                let rb = self.mk(Black, rn.l, rn.key, rn.r);
                return self.mk(Red, l, key, rb);
            }
            if self.is_black_node(l) {
                let ln = self.nodes[l];
                let lr = self.mk(Red, ln.l, ln.key, ln.r);
                return self.balance(lr, key, r);
            }
            debug_assert!(self.is_red(l) && self.is_black_node(self.nodes[l].r));
            let ln = self.nodes[l];
            let lr = self.nodes[ln.r];
            let a1 = self.sub1(ln.l);
            let a = self.balance(a1, ln.key, lr.l);
            let b = self.mk(Black, lr.r, key, r);
            self.mk(Red, a, lr.key, b)
        }

        /// `app` (fuse): joins the two subtrees of a deleted node.
        fn app(&mut self, l: usize, r: usize) -> usize {
            if l == NIL {
                return r;
            }
            if r == NIL {
                return l;
            }
            let (ln, rn) = (self.nodes[l], self.nodes[r]);
            match (ln.color, rn.color) {
                (Color::Red, Color::Red) => {
                    let m = self.app(ln.r, rn.l);
                    if self.is_red(m) {
                        let mn = self.nodes[m];
                        let a = self.mk(Red, ln.l, ln.key, mn.l);
                        let b = self.mk(Red, mn.r, rn.key, rn.r);
                        self.mk(Red, a, mn.key, b)
                    } else {
                        let b = self.mk(Red, m, rn.key, rn.r);
                        self.mk(Red, ln.l, ln.key, b)
                    }
                }
                (Color::Black, Color::Black) => {
                    let m = self.app(ln.r, rn.l);
                    if self.is_red(m) {
                        let mn = self.nodes[m];
                        let a = self.mk(Black, ln.l, ln.key, mn.l);
                        let b = self.mk(Black, mn.r, rn.key, rn.r);
                        self.mk(Red, a, mn.key, b)
                    } else {
                        let b = self.mk(Black, m, rn.key, rn.r);
                        self.balleft(ln.l, ln.key, b)
                    }
                }
                (_, Color::Red) => {
                    let m = self.app(l, rn.l);
                    self.mk(Red, m, rn.key, rn.r)
                }
                (Color::Red, _) => {
                    let m = self.app(ln.r, r);
                    self.mk(Red, ln.l, ln.key, m)
                }
            }
        }

        fn del(&mut self, t: usize, key: u32) -> usize {
            debug_assert_ne!(t, NIL, "del called below a missing key");
            let n = self.nodes[t];
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => {
                    let nl = self.del(n.l, key);
                    if self.is_black_node(n.l) {
                        self.balleft(nl, n.key, n.r)
                    } else {
                        self.mk(Red, nl, n.key, n.r)
                    }
                }
                std::cmp::Ordering::Greater => {
                    let nr = self.del(n.r, key);
                    if self.is_black_node(n.r) {
                        self.balright(n.l, n.key, nr)
                    } else {
                        self.mk(Red, n.l, n.key, nr)
                    }
                }
                std::cmp::Ordering::Equal => self.app(n.l, n.r),
            }
        }

        /// Persistent delete. The key **must** be present (callers check
        /// membership first). Returns the new root.
        pub fn delete(&mut self, root: usize, key: u32) -> usize {
            let t = self.del(root, key);
            if t == NIL {
                return NIL;
            }
            let n = self.nodes[t];
            if n.color == Red {
                self.mk(Black, n.l, n.key, n.r)
            } else {
                t
            }
        }

        /// Membership test (no copying).
        pub fn contains(&self, mut t: usize, key: u32) -> bool {
            while t != NIL {
                let n = self.nodes[t];
                match key.cmp(&n.key) {
                    std::cmp::Ordering::Equal => return true,
                    std::cmp::Ordering::Less => t = n.l,
                    std::cmp::Ordering::Greater => t = n.r,
                }
            }
            false
        }

        /// In-order keys.
        pub fn keys(&self, root: usize) -> Vec<u32> {
            let mut out = Vec::new();
            let mut stack = Vec::new();
            let mut cur = root;
            loop {
                while cur != NIL {
                    stack.push(cur);
                    cur = self.nodes[cur].l;
                }
                let Some(t) = stack.pop() else { break };
                out.push(self.nodes[t].key);
                cur = self.nodes[t].r;
            }
            out
        }

        /// Checks the red-black invariants: BST order, no red-red edges,
        /// equal black height. Returns the black height.
        pub fn check_invariants(&self, root: usize) -> Result<u32, String> {
            fn go(a: &Arena, t: usize, lo: Option<u32>, hi: Option<u32>) -> Result<u32, String> {
                if t == NIL {
                    return Ok(1);
                }
                let n = a.nodes[t];
                if lo.is_some_and(|lo| n.key <= lo) || hi.is_some_and(|hi| n.key >= hi) {
                    return Err(format!("BST order violated at key {}", n.key));
                }
                if n.color == Red && (a.is_red(n.l) || a.is_red(n.r)) {
                    return Err(format!("red-red edge at key {}", n.key));
                }
                let lh = go(a, n.l, lo, Some(n.key))?;
                let rh = go(a, n.r, Some(n.key), hi)?;
                if lh != rh {
                    return Err(format!("black height mismatch at key {}", n.key));
                }
                Ok(lh + u32::from(n.color == Black))
            }
            if self.is_red(root) {
                return Err("root is red".into());
            }
            go(self, root, None, None)
        }
    }
}

use persistent::{Arena, Color, NIL};

// ----------------------------------------------------------------------
// Simulated writer / readers
// ----------------------------------------------------------------------

/// One node's published state: `(left key, right key, color)`, with the
/// color encoded as stored at `+4` (0 = red, 1 = black).
type Entry = (Option<u32>, Option<u32>, u32);

/// Builds the tree sequential insertion of `keys` produces; returns its root.
fn build(arena: &mut Arena, keys: &[u32]) -> usize {
    keys.iter().fold(NIL, |root, &k| arena.insert(root, k).0)
}

fn key_at(arena: &Arena, i: usize) -> Option<u32> {
    (i != NIL).then(|| arena.nodes[i].key)
}

fn entry_at(arena: &Arena, i: usize) -> (u32, Entry) {
    let n = arena.nodes[i];
    let color = if n.color == Color::Red { 0 } else { 1 };
    (n.key, (key_at(arena, n.l), key_at(arena, n.r), color))
}

/// What one write changed between the published tree and the tree rooted
/// at `new_root`.
#[derive(Debug, PartialEq)]
struct Delta {
    /// `(key, old entry, new entry)` for every key whose entry differs,
    /// ascending by key; the old entry is `None` for a key that just
    /// appeared.
    changed: Vec<(u32, Option<Entry>, Entry)>,
    /// Keys of the old tree that are absent from the new one, ascending.
    removed: Vec<u32>,
}

/// Computes the [`Delta`] from `old_root` to `new_root` in time that
/// grows with the nodes the write created, not with the tree size.
///
/// `shared_below` is the arena length when `old_root` was published. The
/// arena is append-only and its nodes are never mutated, and a write
/// builds the new tree only from fresh nodes and nodes of the old tree. So
/// a node of the new tree below `shared_below` roots a subtree that the
/// old tree holds unchanged, and every entry in it is unchanged too. Only
/// the fresh nodes above those shared subtrees, and the old nodes outside
/// them, can differ; both walks stop at the shared roots.
fn delta(arena: &Arena, old_root: usize, new_root: usize, shared_below: usize) -> Delta {
    let mut shared = Vec::new();
    let mut new = Vec::new();
    let mut stack = vec![new_root];
    while let Some(i) = stack.pop() {
        if i == NIL {
            continue;
        }
        if i < shared_below {
            shared.push(i);
            continue;
        }
        new.push(entry_at(arena, i));
        stack.extend([arena.nodes[i].l, arena.nodes[i].r]);
    }
    shared.sort_unstable();
    let mut old = Vec::new();
    stack.push(old_root);
    while let Some(i) = stack.pop() {
        if i == NIL || shared.binary_search(&i).is_ok() {
            continue;
        }
        old.push(entry_at(arena, i));
        stack.extend([arena.nodes[i].l, arena.nodes[i].r]);
    }
    new.sort_unstable_by_key(|&(k, _)| k);
    old.sort_unstable_by_key(|&(k, _)| k);

    let mut d = Delta {
        changed: Vec::new(),
        removed: Vec::new(),
    };
    let mut old = old.into_iter().peekable();
    for (key, entry) in new {
        while let Some((k, _)) = old.next_if(|&(k, _)| k < key) {
            d.removed.push(k);
        }
        let prev = old.next_if(|&(k, _)| k == key).map(|(_, e)| e);
        if prev != Some(entry) {
            d.changed.push((key, prev, entry));
        }
    }
    d.removed.extend(old.map(|(k, _)| k));
    d
}

/// The physical embodiment of one tree node (identity = key; versioned
/// child cells hold every historical child pointer).
#[derive(Clone, Copy)]
struct PhysNode {
    va: u32,
    lcell: u32,
    rcell: u32,
}

struct RbShared {
    arena: Arena,
    /// The published tree (mirrors the newest versions in memory).
    root: usize,
    /// Arena length when `root` was published (see [`delta`]).
    shared_below: usize,
    root_cell: u32,
    order_cell: u32,
    hold: LockHold,
    /// Materialized nodes by key.
    phys: std::collections::HashMap<u32, PhysNode>,
}

/// Applies the difference between the published tree and the tree rooted
/// at `new_root` as *in-place versioned updates*: fresh nodes are
/// allocated, and every changed child pointer becomes a new version of
/// that node's cell. Old versions stay behind for snapshot readers — the
/// mechanism the whole paper is about — so no copying of unchanged nodes
/// is needed. Allocations and stores go in ascending key order, the root
/// pointer last.
async fn apply_diff(ctx: &TaskCtx, sh: &Rc<RefCell<RbShared>>, new_root: usize, ver: Version) {
    let (Delta { changed, removed }, old_root_key, new_root_key) = {
        let s = sh.borrow();
        (
            delta(&s.arena, s.root, new_root, s.shared_below),
            key_at(&s.arena, s.root),
            key_at(&s.arena, new_root),
        )
    };
    // Pass 1: allocate nodes for keys that just appeared.
    for &(key, _, (_, _, color)) in changed.iter().filter(|c| c.1.is_none()) {
        ctx.work(COPY_WORK).await;
        let node = ctx.malloc(NODE_BYTES).await;
        let lcell = ctx.malloc_root().await;
        let rcell = ctx.malloc_root().await;
        ctx.store_u32(node, key).await;
        ctx.store_u32(node + 4, color).await;
        ctx.store_u32(node + 8, lcell).await;
        ctx.store_u32(node + 12, rcell).await;
        sh.borrow_mut().phys.insert(
            key,
            PhysNode {
                va: node,
                lcell,
                rcell,
            },
        );
    }
    // Pass 2: publish changed child pointers and colors.
    type Write = Option<(u32, u32)>; // (address-or-cell, value)
    let writes: Vec<(Write, Write, Write)> = {
        let s = sh.borrow();
        let va_of = |k: Option<u32>| k.map_or(0, |k| s.phys[&k].va);
        changed
            .iter()
            .map(|&(key, old, (nl, nr, ncolor))| {
                let p = s.phys[&key];
                let lw = (old.map(|o| o.0) != Some(nl)).then(|| (p.lcell, va_of(nl)));
                let rw = (old.map(|o| o.1) != Some(nr)).then(|| (p.rcell, va_of(nr)));
                let cw = (old.map(|o| o.2) != Some(ncolor)).then_some((p.va + 4, ncolor));
                (lw, rw, cw)
            })
            .collect()
    };
    for (lw, rw, cw) in writes {
        if let Some((cell, va)) = lw {
            ctx.store_version(cell, ver, va).await;
        }
        if let Some((cell, va)) = rw {
            ctx.store_version(cell, ver, va).await;
        }
        if let Some((addr, color)) = cw {
            // Colors are writer-private metadata (readers never consult
            // them), so a conventional in-place store suffices.
            ctx.store_u32(addr, color).await;
        }
    }
    // Root pointer last.
    if old_root_key != new_root_key {
        let (va, root_cell) = {
            let s = sh.borrow();
            (new_root_key.map_or(0, |k| s.phys[&k].va), s.root_cell)
        };
        ctx.store_version(root_cell, ver, va).await;
    }
    // Host bookkeeping: retire removed keys, publish the new tree.
    {
        let mut s = sh.borrow_mut();
        for k in removed {
            // The node's memory (and its cells' old versions) stays for
            // snapshot readers; only the identity mapping is retired.
            s.phys.remove(&k);
        }
        s.root = new_root;
        s.shared_below = s.arena.nodes.len();
    }
}

/// Issues the realistic read traffic of one root-to-key descent.
async fn descend_traffic(ctx: &TaskCtx, sh: &Rc<RefCell<RbShared>>, key: u32) {
    let cap = vers::cap(ctx.tid());
    let root_cell = sh.borrow().root_cell;
    let (_, mut cur) = ctx.load_latest(root_cell, cap).await;
    while cur != 0 {
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            break;
        }
        let cell = ctx.load_u32(cur + if key < k { 8 } else { 12 }).await;
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
}

/// One writer operation, fully serialized on the order cell.
async fn write_op(ctx: &TaskCtx, sh: &Rc<RefCell<RbShared>>, entry: Version, op: Op) -> OpResult {
    let tid = ctx.tid();
    let pass = vers::passv(tid);
    let (order_cell, hold) = {
        let sh = sh.borrow();
        (sh.order_cell, sh.hold)
    };
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    ctx.lock_load_version(order_cell, entry).await;

    let key = match op {
        Op::Insert(k) | Op::Delete(k) => k,
        _ => unreachable!("write_op with read op"),
    };
    descend_traffic(ctx, sh, key).await;

    let (new_root, result) = {
        let mut s = sh.borrow_mut();
        let root = s.root;
        match op {
            Op::Insert(k) => {
                let (nr, inserted) = s.arena.insert(root, k);
                (nr, OpResult::Inserted(inserted))
            }
            Op::Delete(k) => {
                if s.arena.contains(root, k) {
                    (s.arena.delete(root, k), OpResult::Deleted(true))
                } else {
                    (root, OpResult::Deleted(false))
                }
            }
            _ => unreachable!(),
        }
    };

    if new_root != sh.borrow().root {
        apply_diff(ctx, sh, new_root, vers::modv(tid, 0)).await;
    }

    match hold {
        LockHold::Short => {
            ctx.unlock_version(order_cell, entry, Some(pass)).await;
            ctx.work(4 * OP_WORK).await; // bookkeeping off the critical path
        }
        LockHold::Long => {
            // Baseline: bookkeeping happens while the order cell is held,
            // throttling every later task (the delete-locking observation
            // of §IV-D).
            ctx.work(4 * OP_WORK).await;
            ctx.unlock_version(order_cell, entry, Some(pass)).await;
        }
    }
    result
}

/// Snapshot lookup.
async fn lookup(ctx: &TaskCtx, sh: &Rc<RefCell<RbShared>>, entry: Version, key: u32) -> OpResult {
    let cap = vers::cap(ctx.tid());
    let (order_cell, root_cell) = {
        let sh = sh.borrow();
        (sh.order_cell, sh.root_cell)
    };
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    ctx.load_version(order_cell, entry).await;
    let (_, mut cur) = ctx.load_latest(root_cell, cap).await;
    while cur != 0 {
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            return OpResult::Found(true);
        }
        let cell = ctx.load_u32(cur + if key < k { 8 } else { 12 }).await;
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
    OpResult::Found(false)
}

/// Snapshot range scan (ascending, up to `range` keys ≥ `from`).
async fn scan(
    ctx: &TaskCtx,
    sh: &Rc<RefCell<RbShared>>,
    entry: Version,
    from: u32,
    range: u32,
) -> OpResult {
    let cap = vers::cap(ctx.tid());
    let (order_cell, root_cell) = {
        let sh = sh.borrow();
        (sh.order_cell, sh.root_cell)
    };
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    ctx.load_version(order_cell, entry).await;
    let mut out = Vec::new();
    let mut stack: Vec<(u32, u32)> = Vec::new();
    let (_, mut cur) = ctx.load_latest(root_cell, cap).await;
    loop {
        while cur != 0 {
            let k = ctx.load_u32(cur).await;
            ctx.work(HOP_WORK).await;
            if k >= from {
                stack.push((cur, k));
                let cell = ctx.load_u32(cur + 8).await;
                (_, cur) = ctx.load_latest(cell, cap).await;
            } else {
                let cell = ctx.load_u32(cur + 12).await;
                (_, cur) = ctx.load_latest(cell, cap).await;
            }
        }
        let Some((node, k)) = stack.pop() else { break };
        out.push(k);
        if out.len() as u32 >= range {
            break;
        }
        let cell = ctx.load_u32(node + 12).await;
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
    OpResult::Scanned(out)
}

/// Population: builds the initial tree in the arena, then materializes it
/// as the diff from the empty tree.
async fn populate_versioned(ctx: &TaskCtx, sh: &Rc<RefCell<RbShared>>, keys: Vec<u32>) {
    let pv = vers::passv(ctx.tid());
    let root = build(&mut sh.borrow_mut().arena, &keys);
    apply_diff(ctx, sh, root, pv).await;
    let (root_cell, order_cell, empty) = {
        let s = sh.borrow();
        (s.root_cell, s.order_cell, s.root == NIL)
    };
    if empty {
        ctx.store_version(root_cell, pv, 0).await;
    }
    ctx.store_version(order_cell, pv, 0).await;
}

/// One operation of the versioned tree.
async fn versioned_op(
    ctx: &TaskCtx,
    sh: &Rc<RefCell<RbShared>>,
    entry: Version,
    op: Op,
) -> OpResult {
    match op {
        Op::Insert(_) | Op::Delete(_) => write_op(ctx, sh, entry, op).await,
        Op::Lookup(k) => lookup(ctx, sh, entry, k).await,
        Op::Scan(k, n) => scan(ctx, sh, entry, k, n).await,
    }
}

/// The final keys in simulated memory, checked against the mirror arena
/// and the red-black invariants.
fn extract_versioned(st: &MachineState, sh: &Rc<RefCell<RbShared>>) -> Result<Vec<u32>, String> {
    let s = sh.borrow();
    let mut out = Vec::new();
    let mut stack = vec![peek_latest(st, s.root_cell)];
    while let Some(node) = stack.pop() {
        // Zero, like a cell with no version, is the null pointer.
        if let Some(n @ 1..) = node {
            out.push(peek_word(st, n));
            stack.push(peek_latest(st, peek_word(st, n + 8)));
            stack.push(peek_latest(st, peek_word(st, n + 12)));
        }
    }
    out.sort_unstable();
    if s.arena.keys(s.root) != out {
        return Err("mirror arena diverged from simulated memory".into());
    }
    s.arena
        .check_invariants(s.root)
        .map_err(|e| format!("red-black invariant violated: {e}"))?;
    Ok(out)
}

/// Runs the versioned red-black tree with the given lock-hold policy.
pub fn run_versioned_with(mcfg: MachineCfg, cfg: &DsCfg, hold: LockHold) -> DsResult {
    harness::run_per_op(
        mcfg,
        cfg,
        |m| {
            let root_cell = harness::alloc_roots(m, 1);
            Rc::new(RefCell::new(RbShared {
                arena: Arena::default(),
                // Population applies the diff from the empty tree, with no
                // node shared.
                root: NIL,
                shared_below: 0,
                root_cell,
                order_cell: harness::alloc_roots(m, 1),
                hold,
                phys: std::collections::HashMap::new(),
            }))
        },
        populate_versioned,
        versioned_op,
        extract_versioned,
    )
}

/// Runs the versioned red-black tree with the optimized (short) hold.
pub fn run_versioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    run_versioned_with(mcfg, cfg, LockHold::Short)
}

/// Unversioned sequential baseline: the same red-black algorithm with
/// in-place conventional updates (the shape diff is applied by overwriting
/// node words instead of creating versions).
pub fn run_unversioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    harness::run_sequential(
        mcfg,
        cfg,
        |m| {
            Rc::new(RefCell::new(UnvShared {
                arena: Arena::default(),
                root: NIL,
                shared_below: 0,
                root_word: harness::alloc_data(m, 4),
                phys: std::collections::HashMap::new(),
            }))
        },
        async |ctx, sh, keys| {
            let root = build(&mut sh.borrow_mut().arena, &keys);
            apply_diff_unversioned(ctx, sh, root).await;
        },
        unversioned_op,
        |_, sh| {
            let s = sh.borrow();
            Ok(s.arena.keys(s.root))
        },
    )
}

/// One operation of the unversioned tree: the descent's read traffic,
/// then the arena decides and any change is written in place.
async fn unversioned_op(ctx: &TaskCtx, sh: &Rc<RefCell<UnvShared>>, op: Op) -> OpResult {
    ctx.work(OP_WORK).await;
    let key = match op {
        Op::Lookup(k) | Op::Insert(k) | Op::Delete(k) | Op::Scan(k, _) => k,
    };
    // Read traffic: descend to the key.
    let root_word = sh.borrow().root_word;
    let mut cur = ctx.load_u32(root_word).await;
    while cur != 0 {
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            break;
        }
        cur = ctx.load_u32(cur + if key < k { 8 } else { 12 }).await;
    }
    match op {
        Op::Lookup(k) => {
            let s = sh.borrow();
            OpResult::Found(s.arena.contains(s.root, k))
        }
        Op::Scan(k, n) => {
            let keys: Vec<u32> = {
                let s = sh.borrow();
                s.arena
                    .keys(s.root)
                    .into_iter()
                    .filter(|&x| x >= k)
                    .take(n as usize)
                    .collect()
            };
            // Charge the scan's additional read traffic.
            ctx.work(HOP_WORK * keys.len() as u64).await;
            OpResult::Scanned(keys)
        }
        Op::Insert(k) => {
            let (new_root, inserted) = {
                let mut s = sh.borrow_mut();
                let r0 = s.root;
                s.arena.insert(r0, k)
            };
            if inserted {
                apply_diff_unversioned(ctx, sh, new_root).await;
            }
            OpResult::Inserted(inserted)
        }
        Op::Delete(k) => {
            let new_root = {
                let mut s = sh.borrow_mut();
                let r0 = s.root;
                s.arena.contains(r0, k).then(|| s.arena.delete(r0, k))
            };
            match new_root {
                Some(nr) => {
                    apply_diff_unversioned(ctx, sh, nr).await;
                    OpResult::Deleted(true)
                }
                None => OpResult::Deleted(false),
            }
        }
    }
}

struct UnvShared {
    arena: Arena,
    root: usize,
    /// Arena length when `root` was published (see [`delta`]).
    shared_below: usize,
    root_word: u32,
    /// key -> node va (layout: +0 key, +4 color, +8 left va, +12 right va).
    phys: std::collections::HashMap<u32, u32>,
}

/// The unversioned twin of [`apply_diff`]: conventional in-place stores.
async fn apply_diff_unversioned(ctx: &TaskCtx, sh: &Rc<RefCell<UnvShared>>, new_root: usize) {
    let (Delta { changed, removed }, old_root_key, new_root_key) = {
        let s = sh.borrow();
        (
            delta(&s.arena, s.root, new_root, s.shared_below),
            key_at(&s.arena, s.root),
            key_at(&s.arena, new_root),
        )
    };
    for &(key, _, (_, _, color)) in changed.iter().filter(|c| c.1.is_none()) {
        ctx.work(COPY_WORK).await;
        let node = ctx.malloc(NODE_BYTES).await;
        ctx.store_u32(node, key).await;
        ctx.store_u32(node + 4, color).await;
        sh.borrow_mut().phys.insert(key, node);
    }
    type Write = Option<(u32, u32)>; // (address, value)
    let writes: Vec<(Write, Write, Write)> = {
        let s = sh.borrow();
        let va_of = |k: Option<u32>| k.map_or(0, |k| s.phys[&k]);
        changed
            .iter()
            .map(|&(key, old, (nl, nr, ncolor))| {
                let va = s.phys[&key];
                let lw = (old.map(|o| o.0) != Some(nl)).then(|| (va + 8, va_of(nl)));
                let rw = (old.map(|o| o.1) != Some(nr)).then(|| (va + 12, va_of(nr)));
                let cw = (old.map(|o| o.2) != Some(ncolor)).then_some((va + 4, ncolor));
                (lw, rw, cw)
            })
            .collect()
    };
    for (lw, rw, cw) in writes {
        for w in [lw, rw, cw].into_iter().flatten() {
            ctx.store_u32(w.0, w.1).await;
        }
    }
    if old_root_key != new_root_key {
        let (va, root_word) = {
            let s = sh.borrow();
            (new_root_key.map_or(0, |k| s.phys[&k]), s.root_word)
        };
        ctx.store_u32(root_word, va).await;
    }
    {
        let mut s = sh.borrow_mut();
        for k in removed {
            s.phys.remove(&k);
        }
        s.root = new_root;
        s.shared_below = s.arena.nodes.len();
    }
}

#[cfg(test)]
mod tests {
    use super::persistent::{Arena, NIL};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn persistent_insert_keeps_invariants() {
        let mut a = Arena::default();
        let mut root = NIL;
        for k in 0..200u32 {
            let (nr, ins) = a.insert(root, k.wrapping_mul(0x9e37) % 501);
            root = nr;
            let _ = ins;
            a.check_invariants(root).expect("invariants after insert");
        }
    }

    #[test]
    fn persistent_randomized_against_btreeset() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut a = Arena::default();
        let mut root = NIL;
        let mut model = BTreeSet::new();
        for step in 0..3000 {
            let k = rng.gen_range(0..200u32);
            if rng.gen_bool(0.5) {
                let (nr, inserted) = a.insert(root, k);
                root = nr;
                assert_eq!(inserted, model.insert(k), "insert {k} at step {step}");
            } else if a.contains(root, k) {
                root = a.delete(root, k);
                assert!(model.remove(&k), "delete {k} at step {step}");
            } else {
                assert!(!model.contains(&k));
            }
            a.check_invariants(root)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        let want: Vec<u32> = model.into_iter().collect();
        assert_eq!(a.keys(root), want);
    }

    type Shape = std::collections::BTreeMap<u32, Entry>;

    /// Reference for [`delta`]: every `key -> entry` of the tree at `root`.
    fn shape_of(arena: &Arena, root: usize) -> Shape {
        let mut shape = Shape::default();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if i == NIL {
                continue;
            }
            let (key, entry) = entry_at(arena, i);
            shape.insert(key, entry);
            stack.extend([arena.nodes[i].l, arena.nodes[i].r]);
        }
        shape
    }

    /// The whole-tree diff [`delta`] must reproduce.
    fn full_diff(old: &Shape, new: &Shape) -> Delta {
        Delta {
            changed: new
                .iter()
                .filter(|&(k, e)| old.get(k) != Some(e))
                .map(|(&k, &e)| (k, old.get(&k).copied(), e))
                .collect(),
            removed: old
                .keys()
                .filter(|k| !new.contains_key(k))
                .copied()
                .collect(),
        }
    }

    #[test]
    fn delta_matches_full_shape_diff() {
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a = Arena::default();
            // Population: a tree built from nothing, applied against the
            // empty tree with no node shared.
            let mut root = NIL;
            for _ in 0..rng.gen_range(0..40usize) {
                root = a.insert(root, rng.gen_range(0..48u32)).0;
            }
            let mut shape = shape_of(&a, root);
            assert_eq!(delta(&a, NIL, root, 0), full_diff(&Shape::new(), &shape));
            let mut shared_below = a.nodes.len();
            let mut emptied = 0;
            for step in 0..3000 {
                // Alternate growing and draining phases so the tree runs
                // down to empty and grows again.
                let p_insert = if step / 300 % 2 == 0 { 0.8 } else { 0.02 };
                let k = rng.gen_range(0..48u32);
                let new_root = if rng.gen_bool(p_insert) {
                    a.insert(root, k).0
                } else if a.contains(root, k) {
                    a.delete(root, k)
                } else {
                    root
                };
                if new_root == root {
                    assert_eq!(a.nodes.len(), shared_below, "unchanged tree grew the arena");
                    continue;
                }
                let new_shape = shape_of(&a, new_root);
                let d = delta(&a, root, new_root, shared_below);
                assert_eq!(d, full_diff(&shape, &new_shape), "seed {seed} step {step}");
                for &(k, _, e) in &d.changed {
                    shape.insert(k, e);
                }
                for k in &d.removed {
                    shape.remove(k);
                }
                assert_eq!(shape, new_shape, "seed {seed} step {step}");
                root = new_root;
                shared_below = a.nodes.len();
                emptied += usize::from(root == NIL);
            }
            assert!(emptied > 0, "seed {seed} never drained the tree");
        }
    }

    #[test]
    fn persistent_snapshots_survive_mutation() {
        let mut a = Arena::default();
        let mut root = NIL;
        for k in [5u32, 2, 8, 1, 9] {
            root = a.insert(root, k).0;
        }
        let snapshot = root;
        root = a.delete(root, 5);
        root = a.insert(root, 7).0;
        assert_eq!(a.keys(snapshot), vec![1, 2, 5, 8, 9], "old snapshot intact");
        assert_eq!(a.keys(root), vec![1, 2, 7, 8, 9]);
    }

    fn cfg(initial: usize, ops: usize, rpw: u32) -> DsCfg {
        DsCfg {
            initial,
            ops,
            reads_per_write: rpw,
            scan_range: 0,
            key_space: (initial as u32) * 4,
            seed: 31,
            insert_only: false,
        }
    }

    #[test]
    fn unversioned_sequential_matches_reference() {
        run_unversioned(MachineCfg::paper(1), &cfg(60, 60, 4)).assert_ok();
    }

    #[test]
    fn versioned_parallel_matches_reference() {
        run_versioned(MachineCfg::paper(4), &cfg(60, 60, 4)).assert_ok();
    }

    #[test]
    fn versioned_write_intensive_matches_reference() {
        run_versioned(MachineCfg::paper(8), &cfg(60, 80, 1)).assert_ok();
    }

    #[test]
    fn versioned_scans_match_reference() {
        let mut c = cfg(60, 60, 3);
        c.scan_range = 8;
        run_versioned(MachineCfg::paper(4), &c).assert_ok();
    }

    #[test]
    fn short_hold_beats_long_hold() {
        // The §IV-D ablation: shortening the writer's lock hold helps
        // parallel throughput.
        let c = cfg(80, 96, 1);
        let long = run_versioned_with(MachineCfg::paper(8), &c, LockHold::Long);
        let short = run_versioned_with(MachineCfg::paper(8), &c, LockHold::Short);
        long.assert_ok();
        short.assert_ok();
        assert!(
            short.cycles < long.cycles,
            "short {} vs long {}",
            short.cycles,
            long.cycles
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg(50, 40, 4);
        let a = run_versioned(MachineCfg::paper(4), &c);
        let b = run_versioned(MachineCfg::paper(4), &c);
        assert_eq!(a.cycles, b.cycles);
    }
}
