//! Unbalanced binary search tree (§IV-C, §IV-D, Figure 8).
//!
//! Three variants:
//!
//! * **Versioned parallel** — edge cells (child pointers) are O-structures;
//!   mutators enter the root in task order, descend hand-over-hand, and a
//!   delete locks its whole splice region before storing, so snapshot
//!   readers can never observe a half-restructured tree.
//! * **Unversioned sequential** — the Fig. 6 baseline.
//! * **Read-write lock parallel** — the Fig. 8 baseline: the same
//!   unversioned tree under one [`SimRwLock`]; scans take the lock shared,
//!   inserts take it exclusive.
//!
//! Node layout (conventional heap, 12 bytes): `+0` key, `+4` va of the
//! versioned *left* cell, `+8` va of the versioned *right* cell (the
//! unversioned variants store child node addresses directly at `+4`/`+8`).

use std::cell::RefCell;
use std::rc::Rc;

use osim_cpu::{task, Machine, MachineCfg, MachineState, SimRwLock, TaskCtx};
use osim_uarch::Version;

use crate::harness::{self, peek_latest, peek_word, DsCfg, DsResult, Op, OpResult};
use crate::vers;

const NODE_BYTES: u32 = 12;
const HOP_WORK: u64 = 6;
const OP_WORK: u64 = 20;

// ----------------------------------------------------------------------
// Host-side shape builder (population)
// ----------------------------------------------------------------------

/// Builds the BST shape that sequential insertion of `keys` produces.
/// Returns `(nodes, root_index)`; children are indices into the vec
/// (`usize::MAX` = none).
fn host_shape(keys: &[u32]) -> (Vec<(u32, usize, usize)>, usize) {
    const NONE: usize = usize::MAX;
    let mut nodes: Vec<(u32, usize, usize)> = Vec::with_capacity(keys.len());
    let mut root = NONE;
    for &k in keys {
        if root == NONE {
            root = 0;
            nodes.push((k, NONE, NONE));
            continue;
        }
        let mut at = root;
        loop {
            let (nk, l, r) = nodes[at];
            if k == nk {
                break;
            } else if k < nk {
                if l == NONE {
                    nodes.push((k, NONE, NONE));
                    nodes[at].1 = nodes.len() - 1;
                    break;
                }
                at = l;
            } else {
                if r == NONE {
                    nodes.push((k, NONE, NONE));
                    nodes[at].2 = nodes.len() - 1;
                    break;
                }
                at = r;
            }
        }
    }
    (nodes, root)
}

// ----------------------------------------------------------------------
// Versioned variant
// ----------------------------------------------------------------------

async fn new_vnode(ctx: &TaskCtx, key: u32) -> (u32, u32, u32) {
    let node = ctx.malloc(NODE_BYTES).await;
    let lcell = ctx.malloc_root().await;
    let rcell = ctx.malloc_root().await;
    ctx.store_u32(node, key).await;
    ctx.store_u32(node + 4, lcell).await;
    ctx.store_u32(node + 8, rcell).await;
    (node, lcell, rcell)
}

/// Population: materialize the host shape bottom-up, one version per cell.
async fn populate_versioned(ctx: &TaskCtx, &root_cell: &u32, keys: Vec<u32>) {
    const NONE: usize = usize::MAX;
    let pv = vers::passv(ctx.tid());
    let (nodes, root) = host_shape(&keys);
    let mut vas = vec![0u32; nodes.len()];
    // Children before parents: explicit post-order stack.
    let mut stack = Vec::new();
    if root != NONE {
        stack.push((root, false));
    }
    while let Some((i, expanded)) = stack.pop() {
        let (k, l, r) = nodes[i];
        if !expanded {
            stack.push((i, true));
            if l != NONE {
                stack.push((l, false));
            }
            if r != NONE {
                stack.push((r, false));
            }
            continue;
        }
        let (va, lcell, rcell) = new_vnode(ctx, k).await;
        let lva = if l == NONE { 0 } else { vas[l] };
        let rva = if r == NONE { 0 } else { vas[r] };
        ctx.store_version(lcell, pv, lva).await;
        ctx.store_version(rcell, pv, rva).await;
        vas[i] = va;
    }
    let root_va = if root == NONE { 0 } else { vas[root] };
    ctx.store_version(root_cell, pv, root_va).await;
}

/// Loads a node's key and the vas of its two edge cells.
async fn node_fields(ctx: &TaskCtx, node: u32) -> (u32, u32, u32) {
    let k = ctx.load_u32(node).await;
    let l = ctx.load_u32(node + 4).await;
    let r = ctx.load_u32(node + 8).await;
    (k, l, r)
}

/// Releases the final held edge, optionally publishing a new child value.
/// Root edges always get the task's pass version (the next entry point).
async fn release(ctx: &TaskCtx, cell: u32, locked: Version, is_root: bool, new_value: Option<u32>) {
    let tid = ctx.tid();
    let pass = vers::passv(tid);
    match new_value {
        Some(v) => {
            ctx.store_version(cell, vers::modv(tid, 0), v).await;
            if is_root {
                ctx.store_version(cell, pass, v).await;
            }
            ctx.unlock_version(cell, locked, None).await;
        }
        None => {
            ctx.unlock_version(cell, locked, if is_root { Some(pass) } else { None })
                .await;
        }
    }
}

/// A mutating task (insert or delete).
async fn mutate(ctx: &TaskCtx, root_cell: u32, entry: Version, op: Op) -> OpResult {
    let tid = ctx.tid();
    let cap = vers::cap(tid);
    let pass = vers::passv(tid);
    let key = match op {
        Op::Insert(k) | Op::Delete(k) => k,
        _ => unreachable!("mutate with read op"),
    };
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    let mut cur = ctx.lock_load_version(root_cell, entry).await;
    let mut prev_cell = root_cell;
    let mut prev_locked = entry;
    // Descend hand-over-hand until the key or an empty edge.
    let mut found: Option<(u32, u32, u32)> = None; // (node, lcell, rcell)
    while cur != 0 {
        let (k, lcell, rcell) = node_fields(ctx, cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            found = Some((cur, lcell, rcell));
            break;
        }
        let cell = if key < k { lcell } else { rcell };
        let (vl, nxt) = ctx.lock_load_latest(cell, cap).await;
        // Only the root edge is renamed (the next task's entry version);
        // inner edges are ordered by the locks alone.
        let create = (prev_cell == root_cell).then_some(pass);
        ctx.unlock_version(prev_cell, prev_locked, create).await;
        prev_cell = cell;
        prev_locked = vl;
        cur = nxt;
    }
    let at_root = prev_cell == root_cell;

    match op {
        Op::Insert(k) => {
            if found.is_some() {
                release(ctx, prev_cell, prev_locked, at_root, None).await;
                return OpResult::Inserted(false);
            }
            ctx.work(OP_WORK).await;
            let (node, lcell, rcell) = new_vnode(ctx, k).await;
            // Publish the fresh node's empty edges before linking it in.
            ctx.store_version(lcell, vers::modv(tid, 0), 0).await;
            ctx.store_version(rcell, vers::modv(tid, 0), 0).await;
            release(ctx, prev_cell, prev_locked, at_root, Some(node)).await;
            OpResult::Inserted(true)
        }
        Op::Delete(_) => {
            let Some((_, lcell, rcell)) = found else {
                release(ctx, prev_cell, prev_locked, at_root, None).await;
                return OpResult::Deleted(false);
            };
            ctx.work(OP_WORK).await;
            // Lock the whole splice region before storing anything, so
            // snapshot readers block at the frontier instead of observing a
            // half-restructured tree, and predecessors below are drained.
            let (lvl, l) = ctx.lock_load_latest(lcell, cap).await;
            let (rvl, r) = ctx.lock_load_latest(rcell, cap).await;
            let replacement = if l == 0 {
                r
            } else if r == 0 {
                l
            } else {
                // Two children: find the in-order successor (min of the
                // right subtree) hand-over-hand.
                let mut pcell = rcell;
                let mut pvl = rvl;
                let mut s = r;
                let (s_final, slc, slvl, parent_is_rcell) = loop {
                    let (_, slcell, _) = node_fields(ctx, s).await;
                    ctx.work(HOP_WORK).await;
                    let (svl, sl) = ctx.lock_load_latest(slcell, cap).await;
                    if sl == 0 {
                        break (s, slcell, svl, pcell == rcell);
                    }
                    if pcell != rcell {
                        ctx.unlock_version(pcell, pvl, None).await;
                    }
                    pcell = slcell;
                    pvl = svl;
                    s = sl;
                };
                let s = s_final;
                let (_, _, srcell) = node_fields(ctx, s).await;
                if parent_is_rcell {
                    // Successor is the right child itself: graft the left
                    // subtree under it.
                    ctx.store_version(slc, vers::modv(tid, 0), l).await;
                    ctx.unlock_version(slc, slvl, None).await;
                } else {
                    // Unlink s from its parent, then take over both
                    // subtrees of the deleted node.
                    let (srvl, sr) = ctx.lock_load_latest(srcell, cap).await;
                    ctx.store_version(pcell, vers::modv(tid, 0), sr).await;
                    ctx.store_version(slc, vers::modv(tid, 0), l).await;
                    ctx.store_version(srcell, vers::modv(tid, 0), r).await;
                    ctx.unlock_version(srcell, srvl, None).await;
                    ctx.unlock_version(slc, slvl, None).await;
                    ctx.unlock_version(pcell, pvl, None).await;
                }
                s
            };
            ctx.unlock_version(rcell, rvl, None).await;
            ctx.unlock_version(lcell, lvl, None).await;
            release(ctx, prev_cell, prev_locked, at_root, Some(replacement)).await;
            OpResult::Deleted(true)
        }
        _ => unreachable!(),
    }
}

/// Snapshot point lookup.
async fn lookup(ctx: &TaskCtx, root_cell: u32, entry: Version, key: u32) -> OpResult {
    let cap = vers::cap(ctx.tid());
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    let mut cur = ctx.load_version(root_cell, entry).await;
    while cur != 0 {
        let (k, lcell, rcell) = node_fields(ctx, cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            return OpResult::Found(true);
        }
        let cell = if key < k { lcell } else { rcell };
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
    OpResult::Found(false)
}

/// Snapshot range scan: up to `range` keys ≥ `from`, ascending.
async fn scan(ctx: &TaskCtx, root_cell: u32, entry: Version, from: u32, range: u32) -> OpResult {
    let cap = vers::cap(ctx.tid());
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    let mut out = Vec::new();
    // Explicit in-order stack of (node, key) with key >= from.
    let mut stack: Vec<(u32, u32)> = Vec::new();
    let mut cur = ctx.load_version(root_cell, entry).await;
    loop {
        while cur != 0 {
            let (k, lcell, rcell) = node_fields(ctx, cur).await;
            ctx.work(HOP_WORK).await;
            if k >= from {
                stack.push((cur, k));
                (_, cur) = ctx.load_latest(lcell, cap).await;
            } else {
                (_, cur) = ctx.load_latest(rcell, cap).await;
            }
        }
        let Some((node, k)) = stack.pop() else { break };
        out.push(k);
        if out.len() as u32 >= range {
            break;
        }
        let rcell = ctx.load_u32(node + 8).await;
        (_, cur) = ctx.load_latest(rcell, cap).await;
    }
    OpResult::Scanned(out)
}

/// One operation of the versioned tree.
async fn versioned_op(ctx: &TaskCtx, &root_cell: &u32, entry: Version, op: Op) -> OpResult {
    match op {
        Op::Insert(_) | Op::Delete(_) => mutate(ctx, root_cell, entry, op).await,
        Op::Lookup(k) => lookup(ctx, root_cell, entry, k).await,
        Op::Scan(k, n) => scan(ctx, root_cell, entry, k, n).await,
    }
}

fn extract_versioned(st: &MachineState, &root_cell: &u32) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    let mut stack = vec![peek_latest(st, root_cell)];
    while let Some(node) = stack.pop() {
        // Zero, like a cell with no version, is the null pointer.
        if let Some(n @ 1..) = node {
            out.push(peek_word(st, n));
            stack.push(peek_latest(st, peek_word(st, n + 4)));
            stack.push(peek_latest(st, peek_word(st, n + 8)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Runs the versioned parallel BST.
pub fn run_versioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    harness::run_per_op(
        mcfg,
        cfg,
        |m| harness::alloc_roots(m, 1),
        populate_versioned,
        versioned_op,
        extract_versioned,
    )
}

// ----------------------------------------------------------------------
// Unversioned tree (shared by the sequential and rwlock variants)
// ----------------------------------------------------------------------

async fn populate_unversioned(ctx: &TaskCtx, &root_word: &u32, keys: Vec<u32>) {
    const NONE: usize = usize::MAX;
    let (nodes, root) = host_shape(&keys);
    let mut vas = vec![0u32; nodes.len()];
    let mut stack = Vec::new();
    if root != NONE {
        stack.push((root, false));
    }
    while let Some((i, expanded)) = stack.pop() {
        let (k, l, r) = nodes[i];
        if !expanded {
            stack.push((i, true));
            if l != NONE {
                stack.push((l, false));
            }
            if r != NONE {
                stack.push((r, false));
            }
            continue;
        }
        let va = ctx.malloc(NODE_BYTES).await;
        ctx.store_u32(va, k).await;
        ctx.store_u32(va + 4, if l == NONE { 0 } else { vas[l] })
            .await;
        ctx.store_u32(va + 8, if r == NONE { 0 } else { vas[r] })
            .await;
        vas[i] = va;
    }
    ctx.store_u32(root_word, if root == NONE { 0 } else { vas[root] })
        .await;
}

async fn unversioned_op(ctx: &TaskCtx, &root_word: &u32, op: Op) -> OpResult {
    ctx.work(OP_WORK).await;
    match op {
        Op::Lookup(key) => {
            let mut cur = ctx.load_u32(root_word).await;
            while cur != 0 {
                let k = ctx.load_u32(cur).await;
                ctx.work(HOP_WORK).await;
                if k == key {
                    return OpResult::Found(true);
                }
                cur = ctx.load_u32(cur + if key < k { 4 } else { 8 }).await;
            }
            OpResult::Found(false)
        }
        Op::Insert(key) => {
            let mut edge = root_word;
            let mut cur = ctx.load_u32(root_word).await;
            while cur != 0 {
                let k = ctx.load_u32(cur).await;
                ctx.work(HOP_WORK).await;
                if k == key {
                    return OpResult::Inserted(false);
                }
                edge = cur + if key < k { 4 } else { 8 };
                cur = ctx.load_u32(edge).await;
            }
            ctx.work(OP_WORK).await;
            let node = ctx.malloc(NODE_BYTES).await;
            ctx.store_u32(node, key).await;
            ctx.store_u32(node + 4, 0).await;
            ctx.store_u32(node + 8, 0).await;
            ctx.store_u32(edge, node).await;
            OpResult::Inserted(true)
        }
        Op::Delete(key) => {
            let mut edge = root_word;
            let mut cur = ctx.load_u32(root_word).await;
            while cur != 0 {
                let k = ctx.load_u32(cur).await;
                ctx.work(HOP_WORK).await;
                if k == key {
                    break;
                }
                edge = cur + if key < k { 4 } else { 8 };
                cur = ctx.load_u32(edge).await;
            }
            if cur == 0 {
                return OpResult::Deleted(false);
            }
            ctx.work(OP_WORK).await;
            let l = ctx.load_u32(cur + 4).await;
            let r = ctx.load_u32(cur + 8).await;
            let replacement = if l == 0 {
                r
            } else if r == 0 {
                l
            } else {
                // Splice the in-order successor out of the right subtree.
                let mut pedge = cur + 8;
                let mut s = r;
                loop {
                    let sl = ctx.load_u32(s + 4).await;
                    ctx.work(HOP_WORK).await;
                    if sl == 0 {
                        break;
                    }
                    pedge = s + 4;
                    s = sl;
                }
                if pedge != cur + 8 {
                    let sr = ctx.load_u32(s + 8).await;
                    ctx.store_u32(pedge, sr).await;
                    ctx.store_u32(s + 8, r).await;
                }
                ctx.store_u32(s + 4, l).await;
                s
            };
            ctx.store_u32(edge, replacement).await;
            OpResult::Deleted(true)
        }
        Op::Scan(from, range) => {
            let mut out = Vec::new();
            let mut stack: Vec<(u32, u32)> = Vec::new();
            let mut cur = ctx.load_u32(root_word).await;
            loop {
                while cur != 0 {
                    let k = ctx.load_u32(cur).await;
                    ctx.work(HOP_WORK).await;
                    if k >= from {
                        stack.push((cur, k));
                        cur = ctx.load_u32(cur + 4).await;
                    } else {
                        cur = ctx.load_u32(cur + 8).await;
                    }
                }
                let Some((node, k)) = stack.pop() else { break };
                out.push(k);
                if out.len() as u32 >= range {
                    break;
                }
                cur = ctx.load_u32(node + 8).await;
            }
            OpResult::Scanned(out)
        }
    }
}

fn extract_unversioned(st: &MachineState, root_word: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut stack = vec![peek_word(st, root_word)];
    while let Some(n) = stack.pop() {
        if n == 0 {
            continue;
        }
        out.push(peek_word(st, n));
        stack.push(peek_word(st, n + 4));
        stack.push(peek_word(st, n + 8));
    }
    out.sort_unstable();
    out
}

/// Runs the unversioned sequential BST.
pub fn run_unversioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    harness::run_sequential(
        mcfg,
        cfg,
        |m| harness::alloc_data(m, 4),
        populate_unversioned,
        unversioned_op,
        |st, &root_word| Ok(extract_unversioned(st, root_word)),
    )
}

/// Runs the unversioned BST under a global read-write lock with one task
/// per operation (the Fig. 8 baseline).
///
/// The lock admits arbitrary interleavings, so per-operation results are
/// only checked against the reference for insert-only mixes (where the
/// final contents are order-independent); scans are checked for internal
/// consistency (sorted, within range) instead.
pub fn run_rwlock(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    if let Err(detail) = cfg.check() {
        return harness::collect(&Machine::new(mcfg), 0, false, detail);
    }
    let initial = harness::gen_initial(cfg);
    let ops = harness::gen_ops(cfg);
    let (_, want_final) = harness::replay_reference(&initial, &ops);

    let mut m = Machine::new(mcfg);
    let root_word = harness::alloc_data(&m, 4);
    let lock_word = harness::alloc_data(&m, 4);
    m.run_tasks(vec![task(move |ctx| async move {
        populate_unversioned(&ctx, &root_word, initial).await
    })])
    .expect("population");
    m.reset_stats();

    let scan_ok = Rc::new(RefCell::new(true));
    let mut tasks = Vec::with_capacity(ops.len());
    for &op in &ops {
        let scan_ok = Rc::clone(&scan_ok);
        tasks.push(task(move |ctx| async move {
            let lock = SimRwLock::at(lock_word);
            match op {
                Op::Lookup(_) | Op::Scan(_, _) => {
                    lock.read_lock(&ctx).await;
                    let r = unversioned_op(&ctx, &root_word, op).await;
                    lock.read_unlock(&ctx).await;
                    if let (Op::Scan(from, range), OpResult::Scanned(keys)) = (op, &r) {
                        let sorted = keys.windows(2).all(|w| w[0] < w[1]);
                        let bounded = keys.len() as u32 <= range && keys.iter().all(|&k| k >= from);
                        if !(sorted && bounded) {
                            *scan_ok.borrow_mut() = false;
                        }
                    }
                }
                Op::Insert(_) | Op::Delete(_) => {
                    lock.write_lock(&ctx).await;
                    unversioned_op(&ctx, &root_word, op).await;
                    lock.write_unlock(&ctx).await;
                }
            }
        }));
    }
    let report = m.run_tasks(tasks).expect("measurement");

    let got_final = extract_unversioned(&m.state().borrow(), root_word);
    let (mut ok, mut detail) = if cfg.insert_only {
        if got_final == want_final {
            (true, String::new())
        } else {
            (false, "rwlock final contents differ".to_string())
        }
    } else {
        (true, String::new())
    };
    if !*scan_ok.borrow() {
        ok = false;
        detail = "rwlock scan returned unsorted/out-of-range keys".into();
    }
    harness::collect(&m, report.cycles(), ok, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(initial: usize, ops: usize, rpw: u32) -> DsCfg {
        DsCfg {
            initial,
            ops,
            reads_per_write: rpw,
            scan_range: 0,
            key_space: (initial as u32) * 4,
            seed: 11,
            insert_only: false,
        }
    }

    #[test]
    fn host_shape_is_a_bst() {
        let keys = vec![5, 2, 8, 1, 3, 9, 2];
        let (nodes, root) = host_shape(&keys);
        assert_eq!(nodes.len(), 6, "duplicate key not re-inserted");
        fn check(nodes: &[(u32, usize, usize)], i: usize, lo: u32, hi: u32) {
            if i == usize::MAX {
                return;
            }
            let (k, l, r) = nodes[i];
            assert!(k >= lo && k < hi);
            check(nodes, l, lo, k);
            check(nodes, r, k + 1, hi);
        }
        check(&nodes, root, 0, u32::MAX);
    }

    #[test]
    fn unversioned_sequential_matches_reference() {
        run_unversioned(MachineCfg::paper(1), &cfg(60, 80, 4)).assert_ok();
    }

    #[test]
    fn versioned_parallel_matches_reference() {
        run_versioned(MachineCfg::paper(4), &cfg(60, 80, 4)).assert_ok();
    }

    #[test]
    fn versioned_write_intensive_with_deletes() {
        // 1R-1W exercises the two-children delete splice heavily.
        run_versioned(MachineCfg::paper(8), &cfg(80, 100, 1)).assert_ok();
    }

    #[test]
    fn versioned_scans_match_reference() {
        let mut c = cfg(60, 60, 3);
        c.scan_range = 8;
        c.insert_only = true;
        run_versioned(MachineCfg::paper(4), &c).assert_ok();
    }

    #[test]
    fn rwlock_parallel_final_state_validates() {
        let mut c = cfg(60, 60, 3);
        c.scan_range = 8;
        c.insert_only = true;
        run_rwlock(MachineCfg::paper(4), &c).assert_ok();
    }

    #[test]
    fn versioned_parallel_beats_sequential_versioned() {
        let c = cfg(100, 96, 4);
        let seq = run_versioned(MachineCfg::paper(1), &c);
        let par = run_versioned(MachineCfg::paper(8), &c);
        seq.assert_ok();
        par.assert_ok();
        assert!(par.cycles < seq.cycles, "{} vs {}", par.cycles, seq.cycles);
    }

    #[test]
    fn deterministic() {
        let c = cfg(50, 50, 4);
        let a = run_versioned(MachineCfg::paper(4), &c);
        let b = run_versioned(MachineCfg::paper(4), &c);
        assert_eq!(a.cycles, b.cycles);
    }
}
