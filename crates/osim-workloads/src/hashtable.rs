//! Chained hash table (§IV-D).
//!
//! Buckets are sorted singly-linked chains of versioned `next` cells, with
//! one versioned *order cell* serving as the table's root: every mutator
//! enters it in task order with `LOCK-LOAD-VERSION` and holds it until it
//! has locked its bucket's head (hand-over-hand from the order cell into
//! the bucket); readers pass it with a plain `LOAD-VERSION`. This is the
//! "root ordering" the paper identifies as the hash-table bottleneck —
//! "on write-intensive hash tables, up to 85% of versioned root loads are
//! stalled. However, readers do not lock the root".
//!
//! Node layout (conventional, 8 bytes): `+0` key, `+4` va of the node's
//! versioned `next` cell. Bucket head cells are a contiguous run of
//! versioned root words.

use osim_cpu::{MachineCfg, MachineState, TaskCtx};
use osim_uarch::Version;

use crate::harness::{self, peek_latest, peek_word, DsCfg, DsResult, Op, OpResult};
use crate::vers;

const NODE_BYTES: u32 = 8;
const HOP_WORK: u64 = 4;
const OP_WORK: u64 = 20;
/// Instruction budget for hashing a key.
const HASH_WORK: u64 = 10;

/// Average chain length the table is sized for.
const LOAD_FACTOR: usize = 4;

fn n_buckets(initial: usize) -> u32 {
    ((initial / LOAD_FACTOR).max(4) as u32).next_power_of_two()
}

fn bucket_of(key: u32, buckets: u32) -> u32 {
    // Fibonacci hashing; cheap and deterministic.
    (key.wrapping_mul(0x9e37_79b9) >> 16) & (buckets - 1)
}

#[derive(Clone, Copy)]
struct Table {
    order_cell: u32,
    bucket_base: u32,
    buckets: u32,
}

impl Table {
    fn bucket_cell(&self, key: u32) -> u32 {
        self.bucket_base + 4 * bucket_of(key, self.buckets)
    }
}

async fn new_node(ctx: &TaskCtx, key: u32) -> (u32, u32) {
    let node = ctx.malloc(NODE_BYTES).await;
    let cell = ctx.malloc_root().await;
    ctx.store_u32(node, key).await;
    ctx.store_u32(node + 4, cell).await;
    (node, cell)
}

/// Population: one version per cell, chains sorted per bucket.
async fn populate_versioned(ctx: &TaskCtx, table: &Table, keys: Vec<u32>) {
    let pv = vers::passv(ctx.tid());
    let mut chains: Vec<Vec<u32>> = vec![Vec::new(); table.buckets as usize];
    for &k in &keys {
        chains[bucket_of(k, table.buckets) as usize].push(k);
    }
    for (b, chain) in chains.iter_mut().enumerate() {
        chain.sort_unstable();
        let mut next = 0u32;
        for &key in chain.iter().rev() {
            let (node, cell) = new_node(ctx, key).await;
            ctx.store_version(cell, pv, next).await;
            next = node;
        }
        ctx.store_version(table.bucket_base + 4 * b as u32, pv, next)
            .await;
    }
    ctx.store_version(table.order_cell, pv, 0).await;
}

/// A mutating task: ordered entry through the order cell, then the same
/// hand-over-hand chain protocol as the linked list.
async fn mutate(ctx: &TaskCtx, table: &Table, entry: Version, op: Op) -> OpResult {
    let tid = ctx.tid();
    let cap = vers::cap(tid);
    let pass = vers::passv(tid);
    let key = match op {
        Op::Insert(k) | Op::Delete(k) => k,
        _ => unreachable!("mutate with read op"),
    };
    ctx.work(OP_WORK).await;
    // Ordered entry: lock the order cell at the entry version, hash, lock
    // the bucket head, then release the order cell renamed to our pass
    // version (the next task's entry point).
    ctx.tag_root();
    ctx.lock_load_version(table.order_cell, entry).await;
    ctx.work(HASH_WORK).await;
    let bucket = table.bucket_cell(key);
    let (bvl, first) = ctx.lock_load_latest(bucket, cap).await;
    ctx.unlock_version(table.order_cell, entry, Some(pass))
        .await;

    let mut prev_cell = bucket;
    let mut prev_locked = bvl;
    let mut cur = first;
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
        // Chain cells are ordered by the locks alone; only the order cell
        // above carried a rename (the entry chain).
        ctx.unlock_version(prev_cell, prev_locked, None).await;
        prev_cell = cell;
        prev_locked = vl;
        cur = nxt;
    }

    match op {
        Op::Insert(k) => {
            if cur_key == Some(k) {
                ctx.unlock_version(prev_cell, prev_locked, None).await;
                OpResult::Inserted(false)
            } else {
                ctx.work(OP_WORK).await;
                let (node, cell) = new_node(ctx, k).await;
                ctx.store_version(cell, vers::modv(tid, 0), cur).await;
                ctx.store_version(prev_cell, vers::modv(tid, 1), node).await;
                ctx.unlock_version(prev_cell, prev_locked, None).await;
                OpResult::Inserted(true)
            }
        }
        Op::Delete(k) => {
            if cur_key == Some(k) {
                ctx.work(OP_WORK).await;
                let vcell = ctx.load_u32(cur + 4).await;
                let (vvl, vnext) = ctx.lock_load_latest(vcell, cap).await;
                ctx.store_version(prev_cell, vers::modv(tid, 0), vnext)
                    .await;
                ctx.unlock_version(prev_cell, prev_locked, None).await;
                ctx.unlock_version(vcell, vvl, None).await;
                OpResult::Deleted(true)
            } else {
                ctx.unlock_version(prev_cell, prev_locked, None).await;
                OpResult::Deleted(false)
            }
        }
        _ => unreachable!(),
    }
}

/// A read-only task: unordered entry (no lock on the order cell).
async fn read(ctx: &TaskCtx, table: &Table, entry: Version, key: u32) -> OpResult {
    let cap = vers::cap(ctx.tid());
    ctx.work(OP_WORK).await;
    ctx.tag_root();
    ctx.load_version(table.order_cell, entry).await;
    ctx.work(HASH_WORK).await;
    let bucket = table.bucket_cell(key);
    let (_, mut cur) = ctx.load_latest(bucket, cap).await;
    loop {
        if cur == 0 {
            return OpResult::Found(false);
        }
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k == key {
            return OpResult::Found(true);
        }
        if k > key {
            return OpResult::Found(false);
        }
        let cell = ctx.load_u32(cur + 4).await;
        (_, cur) = ctx.load_latest(cell, cap).await;
    }
}

/// One operation of the versioned table (tables have no ordered scans:
/// a scan looks its first key up).
async fn versioned_op(ctx: &TaskCtx, table: &Table, entry: Version, op: Op) -> OpResult {
    match op {
        Op::Insert(_) | Op::Delete(_) => mutate(ctx, table, entry, op).await,
        Op::Lookup(k) | Op::Scan(k, _) => read(ctx, table, entry, k).await,
    }
}

fn extract_versioned(st: &MachineState, table: &Table) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for b in 0..table.buckets {
        let mut cur = peek_latest(st, table.bucket_base + 4 * b).unwrap_or(0);
        while cur != 0 {
            out.push(peek_word(st, cur));
            cur = peek_latest(st, peek_word(st, cur + 4)).unwrap_or(0);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Runs the versioned parallel hash table.
pub fn run_versioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    let buckets = n_buckets(cfg.initial);
    harness::run_per_op(
        mcfg,
        cfg,
        |m| {
            let order_cell = harness::alloc_roots(m, 1);
            Table {
                order_cell,
                bucket_base: harness::alloc_roots(m, buckets),
                buckets,
            }
        },
        populate_versioned,
        versioned_op,
        extract_versioned,
    )
}

// ----------------------------------------------------------------------
// Unversioned sequential baseline: nodes are `{key, next}` pairs in
// conventional memory, bucket heads a conventional array.
// ----------------------------------------------------------------------

/// The unversioned table: `(bucket_base, buckets)`.
type Plain = (u32, u32);

async fn populate_unversioned(ctx: &TaskCtx, &(bucket_base, buckets): &Plain, keys: Vec<u32>) {
    let mut chains: Vec<Vec<u32>> = vec![Vec::new(); buckets as usize];
    for &k in &keys {
        chains[bucket_of(k, buckets) as usize].push(k);
    }
    for (b, chain) in chains.iter_mut().enumerate() {
        chain.sort_unstable();
        let mut next = 0u32;
        for &key in chain.iter().rev() {
            let node = ctx.malloc(NODE_BYTES).await;
            ctx.store_u32(node, key).await;
            ctx.store_u32(node + 4, next).await;
            next = node;
        }
        ctx.store_u32(bucket_base + 4 * b as u32, next).await;
    }
}

async fn unversioned_op(ctx: &TaskCtx, &(bucket_base, buckets): &Plain, op: Op) -> OpResult {
    let key = match op {
        Op::Lookup(k) | Op::Insert(k) | Op::Delete(k) | Op::Scan(k, _) => k,
    };
    ctx.work(OP_WORK + HASH_WORK).await;
    let head = bucket_base + 4 * bucket_of(key, buckets);
    // Walk to the first key >= target, keeping the edge.
    let mut edge = head;
    let mut cur = ctx.load_u32(head).await;
    let mut cur_key = None;
    while cur != 0 {
        let k = ctx.load_u32(cur).await;
        ctx.work(HOP_WORK).await;
        if k >= key {
            cur_key = Some(k);
            break;
        }
        edge = cur + 4;
        cur = ctx.load_u32(cur + 4).await;
    }
    match op {
        Op::Lookup(k) | Op::Scan(k, _) => OpResult::Found(cur_key == Some(k)),
        Op::Insert(k) => {
            if cur_key == Some(k) {
                OpResult::Inserted(false)
            } else {
                ctx.work(OP_WORK).await;
                let node = ctx.malloc(NODE_BYTES).await;
                ctx.store_u32(node, k).await;
                ctx.store_u32(node + 4, cur).await;
                ctx.store_u32(edge, node).await;
                OpResult::Inserted(true)
            }
        }
        Op::Delete(k) => {
            if cur_key == Some(k) {
                ctx.work(OP_WORK).await;
                let next = ctx.load_u32(cur + 4).await;
                ctx.store_u32(edge, next).await;
                OpResult::Deleted(true)
            } else {
                OpResult::Deleted(false)
            }
        }
    }
}

fn extract_unversioned(
    st: &MachineState,
    &(bucket_base, buckets): &Plain,
) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for b in 0..buckets {
        let mut cur = peek_word(st, bucket_base + 4 * b);
        while cur != 0 {
            out.push(peek_word(st, cur));
            cur = peek_word(st, cur + 4);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Runs the unversioned sequential hash table.
pub fn run_unversioned(mcfg: MachineCfg, cfg: &DsCfg) -> DsResult {
    let buckets = n_buckets(cfg.initial);
    harness::run_sequential(
        mcfg,
        cfg,
        |m| (harness::alloc_data(m, buckets * 4), buckets),
        populate_unversioned,
        unversioned_op,
        extract_unversioned,
    )
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
            seed: 23,
            insert_only: false,
        }
    }

    #[test]
    fn bucket_distribution_is_full_range() {
        let buckets = n_buckets(1000);
        assert_eq!(buckets, 256);
        let mut seen = vec![false; buckets as usize];
        for k in 0..10_000u32 {
            seen[bucket_of(k, buckets) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "hash covers all buckets");
    }

    #[test]
    fn unversioned_sequential_matches_reference() {
        run_unversioned(MachineCfg::paper(1), &cfg(80, 100, 4)).assert_ok();
    }

    #[test]
    fn versioned_parallel_matches_reference() {
        run_versioned(MachineCfg::paper(4), &cfg(80, 100, 4)).assert_ok();
    }

    #[test]
    fn versioned_write_intensive_matches_reference() {
        run_versioned(MachineCfg::paper(8), &cfg(80, 100, 1)).assert_ok();
    }

    #[test]
    fn write_intensive_stalls_the_root_harder_than_read_intensive() {
        // §IV-D: root ordering forms a bottleneck on write-intensive
        // tables; read mixes stall far less because readers do not lock.
        let wi = run_versioned(MachineCfg::paper(8), &cfg(200, 128, 1));
        let ri = run_versioned(MachineCfg::paper(8), &cfg(200, 128, 4));
        wi.assert_ok();
        ri.assert_ok();
        assert!(
            wi.cpu.root_stall_rate() > ri.cpu.root_stall_rate(),
            "write-intensive {:.2} vs read-intensive {:.2}",
            wi.cpu.root_stall_rate(),
            ri.cpu.root_stall_rate()
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg(60, 60, 4);
        let a = run_versioned(MachineCfg::paper(4), &c);
        let b = run_versioned(MachineCfg::paper(4), &c);
        assert_eq!(a.cycles, b.cycles);
    }
}
