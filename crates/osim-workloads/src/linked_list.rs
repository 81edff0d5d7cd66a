//! Sorted singly-linked list (§II-B Figure 1, §IV-D).
//!
//! Node layout in conventional heap (8 bytes): `+0` key, `+4` the virtual
//! address of the node's versioned `next` cell. The `next` cells and the
//! list head cell are O-structure roots; only pointers are versioned, as in
//! the paper's library API (`versioned<node_t*> next`).
//!
//! Mutating tasks enter the list in task order by `LOCK-LOAD-VERSION` on
//! the head cell at their *entry version* (the pass version of the nearest
//! preceding mutator), traverse hand-over-hand with `LOCK-LOAD-LATEST`,
//! renaming each cell they move past; readers enter with `LOAD-VERSION`
//! (no lock) and traverse with `LOAD-LATEST` capped at their own slot,
//! giving them a consistent snapshot of the list as of their program point.

use osim_cpu::{MachineCfg, MachineState, TaskCtx};
use osim_uarch::Version;

use crate::harness::{self, peek_latest, peek_word, DsCfg, DsResult, Op, OpResult};
use crate::vers;

const NODE_BYTES: u32 = 8;
/// Instruction budget per traversal hop (compare + branch + chase).
const HOP_WORK: u64 = 4;
/// Instruction budget per operation (call overhead, hashing the op, ...).
const OP_WORK: u64 = 20;

async fn new_node(ctx: &TaskCtx, key: u32) -> (u32, u32) {
    let node = ctx.malloc(NODE_BYTES).await;
    let cell = ctx.malloc_root().await;
    ctx.store_u32(node, key).await;
    ctx.store_u32(node + 4, cell).await;
    (node, cell)
}

/// The versioned list's cells: the head cell, and whether mutators rename
/// every cell they pass (see [`run_versioned_with`]).
#[derive(Clone, Copy)]
struct List {
    head_cell: u32,
    rename_on_pass: bool,
}

/// Builds the initial list (population phase, single task).
async fn populate_versioned(ctx: &TaskCtx, list: &List, mut keys: Vec<u32>) {
    keys.sort_unstable();
    let pv = vers::passv(ctx.tid());
    let mut next = 0u32;
    for &key in keys.iter().rev() {
        let (node, cell) = new_node(ctx, key).await;
        ctx.store_version(cell, pv, next).await;
        next = node;
    }
    ctx.store_version(list.head_cell, pv, next).await;
}

/// One operation of the versioned list.
async fn versioned_op(ctx: &TaskCtx, list: &List, entry: Version, op: Op) -> OpResult {
    match op {
        Op::Insert(_) | Op::Delete(_) => {
            mutate(ctx, list.head_cell, entry, op, list.rename_on_pass).await
        }
        Op::Lookup(_) | Op::Scan(..) => read(ctx, list.head_cell, entry, op).await,
    }
}

/// A mutating task: hand-over-hand descent, then insert/delete at the
/// located position. Always publishes its pass version at the head cell so
/// the next task's entry version exists.
async fn mutate(
    ctx: &TaskCtx,
    head_cell: u32,
    entry: Version,
    op: Op,
    rename_on_pass: bool,
) -> OpResult {
    let tid = ctx.tid();
    let cap = vers::cap(tid);
    let pass = vers::passv(tid);
    let key = match op {
        Op::Insert(k) | Op::Delete(k) => k,
        _ => unreachable!("mutate called with a read op"),
    };
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    let mut cur = ctx.lock_load_version(head_cell, entry).await;
    let mut prev_cell = head_cell;
    let mut prev_locked = entry;
    // Key of the node `cur`, once known (None while cur == 0).
    let mut cur_key = None;
    loop {
        if cur == 0 {
            break;
        }
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k >= key {
            cur_key = Some(k);
            break;
        }
        let cell = ctx.load_u32(cur + 4).await;
        let (vl, nxt) = ctx.lock_load_latest(cell, cap).await;
        // Release the trailing lock. The head cell is always renamed (it
        // carries the next task's entry version); inner cells are renamed
        // only in the Fig. 1-faithful variant — lock serialization already
        // maintains ordering, so the rename is version churn, not a
        // correctness requirement.
        let create = if prev_cell == head_cell || rename_on_pass {
            Some(pass)
        } else {
            None
        };
        ctx.unlock_version(prev_cell, prev_locked, create).await;
        prev_cell = cell;
        prev_locked = vl;
        cur = nxt;
    }

    let at_head = prev_cell == head_cell;
    match op {
        Op::Insert(k) => {
            if cur_key == Some(k) {
                // Key present: release and report a no-op insert.
                release(ctx, prev_cell, prev_locked, at_head, pass, None).await;
                OpResult::Inserted(false)
            } else {
                ctx.work(OP_WORK).await;
                let (node, cell) = new_node(ctx, k).await;
                ctx.store_version(cell, vers::modv(tid, 0), cur).await;
                release(ctx, prev_cell, prev_locked, at_head, pass, Some(node)).await;
                OpResult::Inserted(true)
            }
        }
        Op::Delete(k) => {
            if cur_key == Some(k) {
                ctx.work(OP_WORK).await;
                // Take the victim's next pointer, then splice it out.
                let vcell = ctx.load_u32(cur + 4).await;
                let (vvl, vnext) = ctx.lock_load_latest(vcell, cap).await;
                release(ctx, prev_cell, prev_locked, at_head, pass, Some(vnext)).await;
                // The victim's cell is renamed so any follower that locked
                // ahead sees the passage; the node memory itself stays
                // allocated for snapshot readers (§III-C).
                ctx.unlock_version(vcell, vvl, None).await;
                OpResult::Deleted(true)
            } else {
                release(ctx, prev_cell, prev_locked, at_head, pass, None).await;
                OpResult::Deleted(false)
            }
        }
        _ => unreachable!(),
    }
}

/// Releases the final held cell. `new_value = Some(v)` publishes a
/// modification first. Head cells additionally get the task's pass version
/// (the next task's entry point); for unmodified cells `UNLOCK-VERSION`'s
/// create-option does that copy in one instruction.
async fn release(
    ctx: &TaskCtx,
    cell: u32,
    locked: Version,
    is_head: bool,
    pass: Version,
    new_value: Option<u32>,
) {
    let tid = ctx.tid();
    match new_value {
        Some(v) => {
            ctx.store_version(cell, vers::modv(tid, 0), v).await;
            if is_head {
                ctx.store_version(cell, pass, v).await;
            }
            ctx.unlock_version(cell, locked, None).await;
        }
        None => {
            ctx.unlock_version(cell, locked, if is_head { Some(pass) } else { None })
                .await;
        }
    }
}

/// A read-only task: snapshot traversal with `LOAD-LATEST`.
async fn read(ctx: &TaskCtx, head_cell: u32, entry: Version, op: Op) -> OpResult {
    let tid = ctx.tid();
    let cap = vers::cap(tid);
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    let mut cur = ctx.load_version(head_cell, entry).await;
    let key = match op {
        Op::Lookup(k) | Op::Scan(k, _) => k,
        _ => unreachable!("read called with a write op"),
    };
    let mut cur_key = None;
    loop {
        if cur == 0 {
            break;
        }
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k >= key {
            cur_key = Some(k);
            break;
        }
        let cell = ctx.load_u32(cur + 4).await;
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
    match op {
        Op::Lookup(k) => OpResult::Found(cur_key == Some(k)),
        Op::Scan(_, range) => {
            let mut out = Vec::new();
            while cur != 0 && (out.len() as u32) < range {
                out.push(ctx.load_u32(cur).await);
                ctx.work(HOP_WORK).await;
                let cell = ctx.load_u32(cur + 4).await;
                (_, cur) = ctx.load_latest(cell, cap).await;
            }
            OpResult::Scanned(out)
        }
        _ => unreachable!(),
    }
}

/// Reads the final list contents without touching timing state.
fn extract_versioned(st: &MachineState, list: &List) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    let mut cur = peek_latest(st, list.head_cell).unwrap_or(0);
    while cur != 0 {
        out.push(peek_word(st, cur));
        cur = peek_latest(st, peek_word(st, cur + 4)).unwrap_or(0);
    }
    Ok(out)
}

/// Runs the versioned parallel list on the given machine configuration
/// (without per-pass renames; see [`run_versioned_with`]).
pub fn run_versioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    run_versioned_with(mcfg, cfg, false)
}

/// Runs the versioned parallel list. `rename_on_pass = true` follows
/// Fig. 1 to the letter: every cell a mutator moves past is renamed to its
/// pass version, generating the version churn the §IV-F garbage-collection
/// experiment measures.
pub fn run_versioned_with(mcfg: MachineCfg, cfg: &DsCfg, rename_on_pass: bool) -> DsResult {
    harness::run_per_op(
        mcfg,
        cfg,
        |m| List {
            head_cell: harness::alloc_roots(m, 1),
            rename_on_pass,
        },
        populate_versioned,
        versioned_op,
        extract_versioned,
    )
}

// ----------------------------------------------------------------------
// Unversioned sequential baseline
// ----------------------------------------------------------------------

async fn unversioned_op(ctx: &TaskCtx, &head: &u32, op: Op) -> OpResult {
    let key = match op {
        Op::Lookup(k) | Op::Insert(k) | Op::Delete(k) | Op::Scan(k, _) => k,
    };
    ctx.work(OP_WORK).await;
    // prev points at the word holding the link to cur.
    let mut prev = head;
    let mut cur = ctx.load_u32(head).await;
    let mut cur_key = None;
    loop {
        if cur == 0 {
            break;
        }
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k >= key {
            cur_key = Some(k);
            break;
        }
        prev = cur + 4;
        cur = ctx.load_u32(cur + 4).await;
    }
    match op {
        Op::Lookup(k) => OpResult::Found(cur_key == Some(k)),
        Op::Insert(k) => {
            if cur_key == Some(k) {
                OpResult::Inserted(false)
            } else {
                ctx.work(OP_WORK).await;
                let node = ctx.malloc(NODE_BYTES).await;
                ctx.store_u32(node, k).await;
                ctx.store_u32(node + 4, cur).await;
                ctx.store_u32(prev, node).await;
                OpResult::Inserted(true)
            }
        }
        Op::Delete(k) => {
            if cur_key == Some(k) {
                ctx.work(OP_WORK).await;
                let next = ctx.load_u32(cur + 4).await;
                ctx.store_u32(prev, next).await;
                OpResult::Deleted(true)
            } else {
                OpResult::Deleted(false)
            }
        }
        Op::Scan(_, range) => {
            let mut out = Vec::new();
            while cur != 0 && (out.len() as u32) < range {
                out.push(ctx.load_u32(cur).await);
                ctx.work(HOP_WORK).await;
                cur = ctx.load_u32(cur + 4).await;
            }
            OpResult::Scanned(out)
        }
    }
}

/// Population: sequential inserts in sorted order (cheap to build).
async fn populate_unversioned(ctx: &TaskCtx, &head: &u32, mut keys: Vec<u32>) {
    keys.sort_unstable();
    let mut next = 0u32;
    for &key in keys.iter().rev() {
        let node = ctx.malloc(NODE_BYTES).await;
        ctx.store_u32(node, key).await;
        ctx.store_u32(node + 4, next).await;
        next = node;
    }
    ctx.store_u32(head, next).await;
}

fn extract_unversioned(st: &MachineState, &head: &u32) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    let mut cur = peek_word(st, head);
    while cur != 0 {
        out.push(peek_word(st, cur));
        cur = peek_word(st, cur + 4);
    }
    Ok(out)
}

/// Runs the unversioned list, all operations in one sequential task.
pub fn run_unversioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    harness::run_sequential(
        mcfg,
        cfg,
        |m| harness::alloc_data(m, 4),
        populate_unversioned,
        unversioned_op,
        extract_unversioned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DsCfg {
        DsCfg {
            initial: 40,
            ops: 60,
            reads_per_write: 4,
            scan_range: 0,
            key_space: 160,
            seed: 7,
            insert_only: false,
        }
    }

    #[test]
    fn unversioned_sequential_matches_reference() {
        let r = run_unversioned(MachineCfg::paper(1), &small_cfg());
        r.assert_ok();
        assert!(r.cycles > 0);
        assert_eq!(r.cpu.versioned_ops, 0);
    }

    #[test]
    fn versioned_sequential_matches_reference() {
        let r = run_versioned(MachineCfg::paper(1), &small_cfg());
        r.assert_ok();
        assert!(r.cpu.versioned_ops > 0);
    }

    #[test]
    fn versioned_parallel_matches_reference() {
        let r = run_versioned(MachineCfg::paper(4), &small_cfg());
        r.assert_ok();
    }

    #[test]
    fn versioned_parallel_write_intensive_matches_reference() {
        let mut cfg = small_cfg();
        cfg.reads_per_write = 1;
        let r = run_versioned(MachineCfg::paper(8), &cfg);
        r.assert_ok();
    }

    #[test]
    fn parallel_is_faster_than_sequential_versioned() {
        let cfg = DsCfg {
            initial: 60,
            ops: 80,
            reads_per_write: 4,
            scan_range: 0,
            key_space: 240,
            seed: 3,
            insert_only: false,
        };
        let seq = run_versioned(MachineCfg::paper(1), &cfg);
        let par = run_versioned(MachineCfg::paper(8), &cfg);
        seq.assert_ok();
        par.assert_ok();
        assert!(
            par.cycles < seq.cycles,
            "8-core {} vs 1-core {}",
            par.cycles,
            seq.cycles
        );
    }

    #[test]
    fn versioning_overhead_on_one_core() {
        // §IV-B: versioning adds non-trivial single-thread overhead.
        let cfg = small_cfg();
        let unv = run_unversioned(MachineCfg::paper(1), &cfg);
        let ver = run_versioned(MachineCfg::paper(1), &cfg);
        assert!(
            ver.cycles > unv.cycles,
            "versioned {} vs unversioned {}",
            ver.cycles,
            unv.cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_cfg();
        let a = run_versioned(MachineCfg::paper(4), &cfg);
        let b = run_versioned(MachineCfg::paper(4), &cfg);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn scan_ops_work_on_list() {
        let mut cfg = small_cfg();
        cfg.scan_range = 4;
        let r = run_versioned(MachineCfg::paper(4), &cfg);
        r.assert_ok();
    }
}
