//! A snapshot-isolated concurrent map (Table I, "Concurrent DS" row).
//!
//! [`OMap`] stores one [`OCell`] per key, each holding the full version
//! history of that key's value (`None` = absent at that version). Writers
//! publish at their task version; readers iterate a *consistent snapshot*
//! at any version cap without blocking on writers of other keys —
//! "renaming to isolate readers from writers", which the paper lists as
//! the concurrent-data-structure use case for O-structures.
//!
//! # Sharding
//!
//! The key → cell index is split across a fixed power-of-two array of
//! shards selected by an fxhash of the key, each shard a
//! `RwLock<BTreeMap>`. Writers to different keys land on different shards
//! with high probability and never serialize on a global lock; per-key
//! version history still lives in the cell, so the index locks stay
//! uncontended and *brief*. The lock discipline is strict: a shard lock
//! is only ever held to look up or create a cell *handle*, or across a
//! cell operation that cannot block (a `try_*` read, a prune) — it is
//! always released before any blocking `OCell` operation runs, because
//! those can wait indefinitely (on an unwritten version) and a lock held
//! across one would wedge every unrelated key in the shard.
//!
//! # Reclamation
//!
//! Each shard also keeps a *dirty queue*: the keys whose cells a vacuum
//! pass must visit. A store or remove queues its key, and so does the
//! creation of a cell (a cell no store ever reaches must still be found
//! to be unlinked). A `queued` flag in the cell's state keeps each cell
//! on the queue at most once; it is set by the store and cleared by the
//! pass under the cell mutex either already takes, so queuing adds no
//! atomic. A pass ([`OMap::prune_below`], reached by the vacuum and by
//! `ORuntime` collections alike) swaps each shard's queue out against a
//! spare buffer, so a warm pass allocates nothing, and prunes every
//! queued cell under the shard's *read* lock and the cell's own lock:
//! gets and stores on the shard run beside it. A cell left with one
//! unlocked value is settled and leaves the queue, since no later pass
//! could change it before the next store. Any other cell goes back on
//! the queue — one that can still shed a version, or whose only version
//! is a removal the watermark has not passed yet — except one that no
//! snapshot at or after the boundary can observe: that one is unlinked
//! under the shard *write* lock, the only time a pass takes it, after
//! `handle_count() == 1` and unobservability are checked again under
//! that lock (handles are minted under the read lock). A cell kept for
//! an outstanding handle goes back on the queue. Lock order is shard →
//! queue; no queue lock is taken while a cell lock is held, so a store
//! queues its key after its cell lock is released, but while it still
//! holds the cell's handle so no pass can unlink the cell first.
//!
//! # Values
//!
//! A key's cell holds `Option<Arc<V>>` inline in each version, so an
//! insert allocates once, for the value's `Arc<V>`, and a remove not at
//! all. Reads never clone `V`: [`OMap::get_arc`], [`OMap::snapshot_arc`]
//! and [`OMap::scan_arc`] hand out the shared `Arc<V>`, which costs one
//! reference-count increment per value returned.
//!
//! Consistency contract (the same one the paper's runtime rules give):
//! writers use monotonically increasing versions (e.g. task ids), and a
//! snapshot at cap `c` reflects exactly the writes with version ≤ `c`.
//! Writers to the *same* key must be externally ordered (distinct
//! versions); writers to different keys need no coordination at all.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use crate::cell::{OCell, Prune, Sweep};
use crate::error::OError;
use crate::Version;

/// Default shard count (power of two).
const DEFAULT_SHARDS: usize = 64;

/// Fx hash (the FireFox / rustc hasher): multiply-xor over machine words.
/// Inlined here because the crate must stay dependency-light and the
/// quality bar is only shard selection, not cryptography.
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn new() -> Self {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type ShardMap<K, V> = BTreeMap<K, OCell<Option<Arc<V>>>>;
type Index<K, V> = RwLock<ShardMap<K, V>>;

/// One shard: its part of the key → cell index, and the dirty queue of
/// its keys whose cells the next vacuum pass must visit.
struct Shard<K, V> {
    index: Index<K, V>,
    dirty: Mutex<Dirty<K>>,
}

/// A shard's dirty queue. `keys` holds each queued cell's key once (the
/// cell's queued mark sees to that); `spare` is the buffer a pass swaps
/// in while it works through the keys it drained, so a warm pass
/// allocates nothing.
struct Dirty<K> {
    keys: Vec<K>,
    spare: Vec<K>,
}

impl<K: Ord, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            index: RwLock::new(BTreeMap::new()),
            dirty: Mutex::new(Dirty {
                keys: Vec::new(),
                spare: Vec::new(),
            }),
        }
    }

    fn enqueue(&self, key: K) {
        self.dirty.lock().keys.push(key);
    }

    /// Prunes the cells of the drained `keys` and returns how many
    /// versions went. Every cell is pruned under the index read lock, so
    /// gets and stores on the shard run beside the pass; the keys are
    /// sorted in place into `[unlink | requeue | settled]`, the settled
    /// ones dropped and the requeued ones put back. The write lock is
    /// taken only when some cell looked unlinkable, and both conditions
    /// are checked again under it. Leaves `keys` empty.
    fn sweep(&self, keys: &mut Vec<K>, boundary: Version) -> usize {
        let mut reclaimed = 0;
        let (mut unlink, mut kept) = (0, 0);
        {
            let index = self.index.read();
            for i in 0..keys.len() {
                let Some(cell) = index.get(&keys[i]) else {
                    continue;
                };
                let (pruned, sweep) = cell.sweep(boundary);
                reclaimed += pruned;
                match sweep {
                    Sweep::Settled => {}
                    // Handles can be minted under the read lock, so a
                    // count of one here is only a hint.
                    Sweep::Unlink if cell.handle_count() == 1 => {
                        keys.swap(kept, i);
                        keys.swap(unlink, kept);
                        unlink += 1;
                        kept += 1;
                    }
                    Sweep::Unlink | Sweep::Requeue => {
                        keys.swap(kept, i);
                        kept += 1;
                    }
                }
            }
        }
        keys.truncate(kept);
        if kept > unlink {
            self.dirty.lock().keys.extend(keys.drain(unlink..));
        }
        if unlink > 0 {
            let mut index = self.index.write();
            for key in keys.drain(..) {
                let Some(cell) = index.get(&key) else {
                    continue;
                };
                let (pruned, sweep) = cell.sweep(boundary);
                reclaimed += pruned;
                match sweep {
                    Sweep::Settled => {}
                    // Keep any cell someone outside the index still holds
                    // a handle to: `cell_for` hands out handles after
                    // releasing the shard lock, so a writer (or
                    // `wait_version` waiter) may be about to store into a
                    // cell that currently looks empty — dropping it would
                    // orphan that store and strand its waiters. The write
                    // lock held here keeps new handles from being minted,
                    // so a count of one proves the index entry is the
                    // only reference.
                    Sweep::Unlink if cell.handle_count() == 1 => {
                        index.remove(&key);
                    }
                    Sweep::Unlink | Sweep::Requeue => self.enqueue(key),
                }
            }
        }
        reclaimed
    }
}

struct MapInner<K, V> {
    /// `shards.len()` is a power of two; selection is `hash & mask`.
    shards: Box<[Shard<K, V>]>,
    mask: u64,
}

impl<K, V> MapInner<K, V>
where
    K: Hash,
{
    fn shard(&self, key: &K) -> &Shard<K, V> {
        let mut h = FxHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.mask) as usize]
    }
}

/// Index read lock with contention accounting: a failed try-lock counts
/// as contention before falling back to the blocking acquire.
fn read_counted<K, V>(index: &Index<K, V>) -> parking_lot::RwLockReadGuard<'_, ShardMap<K, V>> {
    index.try_read().unwrap_or_else(|| {
        crate::metrics::note_shard_contention();
        index.read()
    })
}

/// Index write lock with contention accounting.
fn write_counted<K, V>(index: &Index<K, V>) -> parking_lot::RwLockWriteGuard<'_, ShardMap<K, V>> {
    index.try_write().unwrap_or_else(|| {
        crate::metrics::note_shard_contention();
        index.write()
    })
}

impl<K, V> Prune for MapInner<K, V>
where
    K: Ord,
{
    /// Visits only the queued cells of each shard (see `Shard::sweep`):
    /// a pass costs the cells written since they last settled, not the
    /// keys.
    fn prune_below(&self, boundary: Version) -> usize {
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            let mut keys = {
                let mut dirty = shard.dirty.lock();
                let spare = std::mem::take(&mut dirty.spare);
                std::mem::replace(&mut dirty.keys, spare)
            };
            if !keys.is_empty() {
                reclaimed += shard.sweep(&mut keys, boundary);
            }
            shard.dirty.lock().spare = keys;
        }
        reclaimed
    }
}

/// A sharded concurrent map with versioned values and snapshot reads.
///
/// ```
/// use ostructs_core::map::OMap;
/// use std::sync::Arc;
///
/// let m: OMap<&str, u32> = OMap::new();
/// m.insert("x", 1, 10).unwrap();          // version 1
/// m.insert("y", 2, 20).unwrap();          // version 2
/// m.remove("x", 3).unwrap();              // version 3
///
/// assert_eq!(m.get_arc(&"x", 2).as_deref(), Some(&10)); // before the remove
/// assert_eq!(m.get_arc(&"x", 3), None);
/// assert_eq!(m.snapshot_arc(2), vec![("x", Arc::new(10)), ("y", Arc::new(20))]);
/// assert_eq!(m.snapshot_arc(9), vec![("y", Arc::new(20))]);
/// ```
pub struct OMap<K, V> {
    inner: Arc<MapInner<K, V>>,
}

impl<K, V> Clone for OMap<K, V> {
    fn clone(&self) -> Self {
        OMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Ord + Hash + Clone, V> Default for OMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Hash + Clone, V> OMap<K, V> {
    /// An empty map with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty map with at least `shards` shards (rounded up to a power
    /// of two). `with_shards(1)` degenerates to a single global lock —
    /// useful in tests that want maximum contention.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        OMap {
            inner: Arc::new(MapInner {
                shards: (0..n).map(|_| Shard::new()).collect(),
                mask: (n - 1) as u64,
            }),
        }
    }

    /// Number of shards the key space is split across.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Looks up or creates the cell for `key`, returning a *handle*; the
    /// shard lock is released before this returns, so callers may block
    /// on the cell freely.
    fn cell_for(&self, shard: &Shard<K, V>, key: &K) -> OCell<Option<Arc<V>>> {
        if let Some(cell) = read_counted(&shard.index).get(key) {
            return cell.clone();
        }
        match write_counted(&shard.index).entry(key.clone()) {
            Entry::Occupied(e) => e.get().clone(),
            // A new cell is queued as it is indexed: a pass must find it
            // to unlink it if no store ever lands in it.
            Entry::Vacant(e) => {
                shard.enqueue(key.clone());
                e.insert(OCell::new_queued()).clone()
            }
        }
    }

    /// Stores `value` at `version` in `key`'s cell and queues the cell
    /// for the vacuum if the store marked it.
    fn store(&self, key: K, version: Version, value: Option<Arc<V>>) -> Result<(), OError> {
        let shard = self.inner.shard(&key);
        let cell = self.cell_for(shard, &key);
        if cell.store_marking(version, value)? {
            // Queued while `cell` is still held, so no pass can unlink
            // the cell before its key is on the queue.
            shard.enqueue(key);
        }
        Ok(())
    }

    /// Publishes `key -> value` at `version`.
    pub fn insert(&self, key: K, version: Version, value: V) -> Result<(), OError> {
        self.insert_arc(key, version, Arc::new(value))
    }

    /// Publishes an already-shared value at `version` without re-boxing.
    pub fn insert_arc(&self, key: K, version: Version, value: Arc<V>) -> Result<(), OError> {
        self.store(key, version, Some(value))
    }

    /// Publishes the removal of `key` at `version` (an absence version —
    /// older snapshots still see the previous value).
    pub fn remove(&self, key: K, version: Version) -> Result<(), OError> {
        self.store(key, version, None)
    }

    /// The shared value of `key` in the snapshot at `cap`, without
    /// cloning `V` (non-blocking: a key with no version ≤ `cap` is simply
    /// absent from that snapshot).
    pub fn get_arc(&self, key: &K, cap: Version) -> Option<Arc<V>> {
        // A non-blocking cell read may run under the shard read lock; only
        // the value's own `Arc` is cloned, not the cell handle.
        read_counted(&self.inner.shard(key).index)
            .get(key)?
            .try_load_latest(cap)?
            .1
    }

    /// Blocks until `key` has version `version` published, and returns
    /// the shared value at exactly that version (`None` = the version is
    /// a removal). The blocking analogue of [`OMap::get_arc`] for
    /// dataflow-style consumers waiting on a specific writer. No shard
    /// lock is held while blocked.
    pub fn wait_version(&self, key: K, version: Version) -> Option<Arc<V>> {
        let cell = self.cell_for(self.inner.shard(&key), &key);
        cell.load_version(version)
    }

    /// Holds `key`'s cell as a parked [`OMap::wait_version`] does: the
    /// cell is created if absent and stays indexed, even with no value in
    /// it, until the returned handle drops. For tests of the vacuum's
    /// outstanding-handle rule.
    #[doc(hidden)]
    pub fn hold(&self, key: &K) -> impl Sized {
        self.cell_for(self.inner.shard(key), key)
    }

    /// The full snapshot at `cap` as shared values, in key order.
    pub fn snapshot_arc(&self, cap: Version) -> Vec<(K, Arc<V>)> {
        self.visible_arc(Bound::Unbounded, usize::MAX, cap)
    }

    /// A range scan over the snapshot at `cap`: up to `limit` entries
    /// with key ≥ `from` — the operation Figure 8 measures.
    pub fn scan_arc(&self, from: K, limit: usize, cap: Version) -> Vec<(K, Arc<V>)> {
        self.visible_arc(Bound::Included(&from), limit, cap)
    }

    /// The first `limit` entries from `from` up that are present in the
    /// snapshot at `cap`, in key order. Each shard is read under its read
    /// lock, as [`OMap::get_arc`] reads (a `try_*` read cannot block), and
    /// gives at most `limit` present entries.
    fn visible_arc(&self, from: Bound<&K>, limit: usize, cap: Version) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for shard in self.inner.shards.iter() {
            let index = read_counted(&shard.index);
            let present = index
                .range((from, Bound::Unbounded))
                .filter_map(|(k, cell)| {
                    let v = cell.try_load_latest(cap)?.1?;
                    Some((k.clone(), v))
                });
            out.extend(present.take(limit));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.truncate(limit);
        out
    }

    /// Garbage collection: drops versions below the newest one ≤
    /// `boundary` in every cell, and drops cells that are absent in every
    /// surviving version. Only the cells on the dirty queues are visited
    /// (see "Reclamation" above); no other cell has anything to drop.
    /// Safe once no reader's cap can go below `boundary`.
    pub fn prune_below(&self, boundary: Version) -> usize {
        Prune::prune_below(&*self.inner, boundary)
    }

    /// Number of keys with any version history.
    pub fn tracked_keys(&self) -> usize {
        self.inner.shards.iter().map(|s| s.index.read().len()).sum()
    }
}

impl<K, V> crate::vacuum::Prunable for OMap<K, V>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync> {
        let arc: Arc<dyn Prune + Send + Sync> = Arc::clone(&self.inner) as _;
        Arc::downgrade(&arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// `pairs` with each shared value copied out, for comparisons.
    fn values<K, V: Copy>(pairs: Vec<(K, Arc<V>)>) -> Vec<(K, V)> {
        pairs.into_iter().map(|(k, v)| (k, *v)).collect()
    }

    #[test]
    fn insert_get_remove_snapshots() {
        let m: OMap<u32, &str> = OMap::new();
        m.insert(1, 1, "a").unwrap();
        m.insert(2, 2, "b").unwrap();
        m.remove(1, 3).unwrap();
        m.insert(1, 4, "a2").unwrap();
        assert_eq!(m.get_arc(&1, 1).as_deref(), Some(&"a"));
        assert_eq!(m.get_arc(&1, 3), None);
        assert_eq!(m.get_arc(&1, 4).as_deref(), Some(&"a2"));
        assert_eq!(m.get_arc(&2, 1), None, "not yet inserted at cap 1");
        assert_eq!(values(m.snapshot_arc(2)), vec![(1, "a"), (2, "b")]);
        assert_eq!(values(m.snapshot_arc(3)), vec![(2, "b")]);
        assert_eq!(values(m.snapshot_arc(9)), vec![(1, "a2"), (2, "b")]);
    }

    #[test]
    fn versions_are_write_once_per_key() {
        let m: OMap<u32, u32> = OMap::new();
        m.insert(1, 5, 50).unwrap();
        assert_eq!(m.insert(1, 5, 51), Err(OError::VersionExists(5)));
        // Different key, same version: fine (versions are per-cell).
        m.insert(2, 5, 52).unwrap();
    }

    #[test]
    fn scan_respects_range_limit_and_cap() {
        let m: OMap<u32, u32> = OMap::new();
        for k in 0..20u32 {
            m.insert(k, (k + 1) as u64, k * 10).unwrap();
        }
        let got = values(m.scan_arc(5, 4, u64::MAX));
        assert_eq!(got, vec![(5, 50), (6, 60), (7, 70), (8, 80)]);
        // Cap 8 means only keys 0..=7 exist (version = key+1).
        let got = values(m.scan_arc(5, 4, 8));
        assert_eq!(got, vec![(5, 50), (6, 60), (7, 70)]);
    }

    #[test]
    fn scan_cuts_each_shard_by_present_keys() {
        // One shard: keys 0-2 were removed and keys 3-5 are written only
        // after the cap, so at cap 5 the first six keys of the shard are
        // absent and the scan must reach past them.
        let m: OMap<u32, u32> = OMap::with_shards(1);
        for k in 0..3 {
            m.insert(k, 1, k).unwrap();
            m.remove(k, 2).unwrap();
        }
        for k in 3..6 {
            m.insert(k, 10, k).unwrap();
        }
        for k in 6..10 {
            m.insert(k, 3, k).unwrap();
        }
        assert_eq!(values(m.scan_arc(0, 2, 5)), vec![(6, 6), (7, 7)]);
        assert_eq!(values(m.scan_arc(7, 9, 5)), vec![(7, 7), (8, 8), (9, 9)]);
        assert_eq!(m.snapshot_arc(5).len(), 4);
    }

    #[test]
    fn shard_counts_round_up_and_degenerate() {
        assert_eq!(OMap::<u32, u32>::with_shards(1).shard_count(), 1);
        assert_eq!(OMap::<u32, u32>::with_shards(3).shard_count(), 4);
        assert_eq!(OMap::<u32, u32>::with_shards(64).shard_count(), 64);
        // All operations still work on the degenerate single shard.
        let m: OMap<u32, u32> = OMap::with_shards(1);
        for k in 0..32 {
            m.insert(k, (k + 1) as u64, k).unwrap();
        }
        assert_eq!(m.snapshot_arc(u64::MAX).len(), 32);
    }

    #[test]
    fn arc_reads_share_the_allocation() {
        let m: OMap<u32, String> = OMap::new();
        m.insert(1, 1, "shared".to_string()).unwrap();
        let a = m.get_arc(&1, 5).unwrap();
        let b = m.get_arc(&1, 5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads share one allocation");
        assert_eq!(m.get_arc(&2, 5), None);
    }

    #[test]
    fn wait_version_blocks_until_publish() {
        let m: OMap<u32, u32> = OMap::new();
        let m2 = m.clone();
        let t = thread::spawn(move || m2.wait_version(7, 3).map(|v| *v));
        thread::sleep(std::time::Duration::from_millis(20));
        m.insert(7, 3, 30).unwrap();
        assert_eq!(t.join().unwrap(), Some(30));
    }

    #[test]
    fn concurrent_writers_and_snapshot_readers() {
        // Writers publish disjoint batches at increasing versions; every
        // reader snapshot must equal a prefix of the version order.
        let m: OMap<u32, u64> = OMap::new();
        let mut writers = Vec::new();
        for t in 1..=16u64 {
            let m = m.clone();
            writers.push(thread::spawn(move || {
                for k in 0..8u32 {
                    m.insert(t as u32 * 100 + k, t, t).unwrap();
                }
            }));
        }
        let readers: Vec<_> = (1..=16u64)
            .map(|cap| {
                let m = m.clone();
                thread::spawn(move || (cap, m.snapshot_arc(cap)))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            let (cap, snap) = r.join().unwrap();
            for (k, v) in values(snap) {
                assert!(v <= cap, "key {k}: version {v} leaked into snapshot {cap}");
                assert_eq!(k / 100, v as u32, "key batch matches its writer");
            }
        }
        // The final snapshot has every batch.
        assert_eq!(m.snapshot_arc(u64::MAX).len(), 16 * 8);
    }

    #[test]
    fn prune_reclaims_history() {
        let m: OMap<u32, u32> = OMap::new();
        for ver in 1..=10u64 {
            m.insert(7, ver, ver as u32).unwrap();
        }
        let reclaimed = m.prune_below(8);
        assert_eq!(reclaimed, 7);
        assert_eq!(m.get_arc(&7, 8).as_deref(), Some(&8));
        assert_eq!(m.get_arc(&7, u64::MAX).as_deref(), Some(&10));
    }

    #[test]
    fn removed_keys_can_be_fully_dropped() {
        let m: OMap<u32, u32> = OMap::new();
        m.insert(1, 1, 10).unwrap();
        m.remove(1, 2).unwrap();
        m.insert(2, 3, 20).unwrap();
        assert_eq!(m.tracked_keys(), 2);
        m.prune_below(u64::MAX - 1);
        // Key 1's only surviving version is an absence: the cell may go.
        assert_eq!(m.get_arc(&1, u64::MAX), None);
        assert_eq!(m.get_arc(&2, u64::MAX).as_deref(), Some(&20));
    }

    #[test]
    fn prune_keeps_cells_with_outstanding_handles() {
        // The vacuum-vs-writer race: a writer acquires the cell handle for
        // a fresh key (shard lock already released) but has not stored
        // yet; a vacuum pass in that window must not drop the cell from
        // the index, or the store lands in an orphan every later read
        // misses.
        let m: OMap<u32, u32> = OMap::new();
        let cell = m.cell_for(m.inner.shard(&1), &1);
        m.prune_below(u64::MAX - 1);
        cell.store_version(1, Some(Arc::new(10))).unwrap();
        assert_eq!(m.get_arc(&1, u64::MAX).as_deref(), Some(&10));
    }

    #[test]
    fn prune_does_not_strand_wait_version_waiters() {
        // Same race, waiter flavor: a wait_version parked on an unwritten
        // key materializes the cell; a vacuum pass must leave it indexed
        // so the eventual insert wakes the waiter instead of creating a
        // fresh cell (which would hang the waiter forever).
        let m: OMap<u32, u32> = OMap::new();
        let m2 = m.clone();
        let t = thread::spawn(move || m2.wait_version(5, 1).map(|v| *v));
        thread::sleep(std::time::Duration::from_millis(20));
        m.prune_below(u64::MAX - 1);
        m.insert(5, 1, 50).unwrap();
        assert_eq!(t.join().unwrap(), Some(50));
    }

    #[test]
    fn vacuum_tracks_whole_maps() {
        use crate::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), VacuumCfg::default());
        let m: OMap<u32, u64> = OMap::new();
        vac.track(&m);
        for _ in 0..20 {
            let v = reg.next_version();
            m.insert(1, v, v).unwrap();
        }
        let reclaimed = vac.run_pass();
        assert_eq!(reclaimed, 19);
        assert_eq!(m.get_arc(&1, u64::MAX).as_deref(), Some(&20));
    }
}
