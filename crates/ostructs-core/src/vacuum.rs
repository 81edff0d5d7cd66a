//! Epoch-watermark reclamation: the reader registry and the one
//! collector.
//!
//! The paper's §III-B garbage collector frees only versions shadowed
//! below the oldest active task. Free-threaded users of [`crate::OCell`] /
//! [`crate::map::OMap`] — long-lived services where readers come and go —
//! need the MVCC equivalent: a registry of live readers pinning their
//! snapshot caps, and a background **vacuum** pruning versions strictly
//! below the oldest pinned cap (the *watermark*). This is the
//! `running_transactions` + `Vacuum` pattern of xdb's `VersionManager`.
//! [`crate::ORuntime`] is a client of the same machinery: each active
//! task is a pin at its task id, and each collection is a pass of the
//! same collector, so the crate has one boundary rule and one prune loop.
//!
//! Protocol:
//!
//! 1. Writers allocate versions from the registry's monotone
//!    [`ReaderRegistry::next_version`] clock (or advance it past
//!    externally chosen versions with [`ReaderRegistry::advance_to`]).
//! 2. Readers call [`ReaderRegistry::pin`] and hold the returned
//!    [`ReaderGuard`] for the duration; the cap is the guard's pinned
//!    version, the newest allocated one. A pin takes no lock: it reads
//!    the clock, claims a free slot by writing the cap into it, and
//!    reads the clock again, republishing the cap until the clock stood
//!    still across its claim. Dropping the guard frees the slot with one
//!    store.
//! 3. A pass computes the watermark: it reads the clock, then scans the
//!    slots, and takes the oldest cap it saw, bounded above by the newest
//!    allocated version (the clock minus one). The bound is what makes a
//!    pin the scan missed safe: that pin's clock re-check ran after the
//!    scan's clock read, so its cap is at or above the bound. The pass
//!    then calls [`crate::cell::Prune::prune_below`] on every tracked
//!    store. `prune_below` keeps the newest version ≤ the boundary, so a
//!    reader pinned exactly *at* the watermark still resolves every load.
//!    A tracked [`crate::map::OMap`] visits only the cells on its
//!    per-shard dirty queues (see the map's "Reclamation" notes): those
//!    its stores, removes and cell creations queued, under a flag in each
//!    cell that keeps it queued at most once, plus those an earlier pass
//!    put back because they could still shed a version or be unlinked
//!    later. Each is pruned under its shard's read lock; the shard's
//!    write lock is taken only to unlink a cell no snapshot can observe
//!    and no handle holds. A warm pass allocates nothing.
//!
//! A bare [`crate::OCell`] tracked directly is pruned on every pass,
//! written or not, and gets no dirty flag. Visiting a settled cell costs
//! one `Weak` upgrade and one lock of its short version `Vec`: a pass
//! over 4,096 settled bare `OCell<u64>`s took a median 196–232 µs (48–56
//! ns a cell, three runs of 200 passes on a 2-vCPU x86-64 container). A
//! flag would need a second store path that knows the cell's collector
//! and queues the cell on it, beside the plain store every bare cell
//! uses; services with many cells track an `OMap`, whose cells do queue.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cell::Prune;
use crate::Version;

/// Registry of live readers; the source of the vacuum's watermark and of
/// writers' monotone versions.
///
/// Cheap to clone (a handle); all clones share one registry.
pub struct ReaderRegistry {
    inner: Arc<RegistryInner>,
}

/// A slot's value while no pin holds it; a pin's cap is stored below it.
const FREE: u64 = u64::MAX;

/// Pin slots per chunk.
const CHUNK: usize = 32;

struct RegistryInner {
    /// Monotone version clock: the next version a writer should use.
    /// It starts at 1 and never moves back, so `clock - 1` cannot wrap.
    clock: AtomicU64,
    /// Bumped by every [`ReaderRegistry::pin_at`] below the newest
    /// allocated version; a watermark scan during which it moved is
    /// repeated (see `pin_at`).
    historical: AtomicU64,
    /// The first chunk of pin slots; later chunks hang off its `next`.
    slots: Chunk,
}

/// One pin slot on its own cache line, so readers pinning on different
/// slots do not share a line.
#[repr(align(64))]
struct Slot(AtomicU64);

/// A fixed run of pin slots and the link to the next run. Chunks are
/// added when every slot is taken and never removed, so a pin and its
/// drop allocate nothing once the registry has grown to the peak number
/// of concurrent readers.
struct Chunk {
    slots: [Slot; CHUNK],
    next: OnceLock<Box<Chunk>>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            slots: std::array::from_fn(|_| Slot(AtomicU64::new(FREE))),
            next: OnceLock::new(),
        }
    }
}

impl RegistryInner {
    /// Every slot of every chunk, in chunk order.
    fn slots(&self) -> impl Iterator<Item = &AtomicU64> {
        std::iter::successors(Some(&self.slots), |c| c.next.get().map(|b| &**b))
            .flat_map(|c| c.slots.iter().map(|s| &s.0))
    }

    /// The caps of the live pins.
    fn caps(&self) -> impl Iterator<Item = Version> + '_ {
        self.slots()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|&v| v != FREE)
    }

    /// Claims the first free slot in chunk order by writing `cap` into
    /// it, growing a chunk when every slot is taken.
    fn claim(&self, cap: Version) -> &AtomicU64 {
        let mut chunk = &self.slots;
        loop {
            for Slot(slot) in &chunk.slots {
                if slot.load(Ordering::Relaxed) == FREE
                    && slot
                        .compare_exchange(FREE, cap, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return slot;
                }
            }
            chunk = chunk.next.get_or_init(|| Box::new(Chunk::new()));
            // Pairs with the fence in `watermark`: a scan that did not
            // see this chunk read the clock before any claim in it.
            fence(Ordering::SeqCst);
        }
    }
}

impl Clone for ReaderRegistry {
    fn clone(&self) -> Self {
        ReaderRegistry {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for ReaderRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ReaderRegistry {
    /// An empty registry with the version clock at 1 (version 0 is the
    /// conventional "initial value" version).
    pub fn new() -> Self {
        ReaderRegistry {
            inner: Arc::new(RegistryInner {
                clock: AtomicU64::new(1),
                historical: AtomicU64::new(0),
                slots: Chunk::new(),
            }),
        }
    }

    /// Allocates the next writer version (monotone, never reused).
    ///
    /// Allocate-then-publish: a reader pinning between the allocation and
    /// the store may watch version ≤ its cap *appear* (its observed
    /// latest version only ever grows toward the cap — reclamation safety
    /// is unaffected). A single writer wanting pin-stable snapshots can
    /// instead publish at [`ReaderRegistry::current`] and then
    /// [`ReaderRegistry::advance_to`] it, so caps only ever cover
    /// published versions.
    pub fn next_version(&self) -> Version {
        self.inner.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The newest version the clock has moved past (i.e. every allocated
    /// version is `< current()`).
    pub fn current(&self) -> Version {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Advances the clock to at least `version + 1`, for writers that
    /// choose versions externally (e.g. task ids). Never moves backwards.
    /// The clock saturates at `Version::MAX`: `advance_to(Version::MAX)`
    /// leaves `current() == Version::MAX`, not a wrapped clock.
    pub fn advance_to(&self, version: Version) {
        self.inner
            .clock
            .fetch_max(version.saturating_add(1), Ordering::Relaxed);
    }

    /// Pins the newest allocated version as a snapshot cap and returns
    /// the guard holding it live. Read with `guard.cap()` as the version
    /// cap; the vacuum will not reclaim anything such a read could
    /// observe until the guard drops. Writers that allocate *after* the
    /// pin get versions above the cap, so the snapshot is stable.
    pub fn pin(&self) -> ReaderGuard<'_> {
        let clock = &self.inner.clock;
        let mut c = clock.load(Ordering::SeqCst);
        let slot = self.inner.claim(c - 1);
        // A scan that missed the claim read the clock before it; once the
        // clock reads the same after the claim, that scan's bound (its
        // clock minus one) is at most this cap.
        loop {
            let now = clock.load(Ordering::SeqCst);
            if now == c {
                return ReaderGuard { slot, cap: c - 1 };
            }
            c = now;
            slot.store(c - 1, Ordering::SeqCst);
        }
    }

    /// Pins an explicit cap (for readers replaying a historical snapshot
    /// they know is still live, e.g. under another guard they drop once
    /// this returns).
    pub fn pin_at(&self, cap: Version) -> ReaderGuard<'_> {
        let slot = self.inner.claim(cap.min(FREE - 1));
        // A cap at or above the newest allocated version is covered by
        // the watermark's bound, as in `pin`. A historical cap is not: a
        // scan could read this slot before the claim and the caller's
        // other guard after its drop. The bump makes such a scan repeat.
        if cap < self.inner.clock.load(Ordering::SeqCst) - 1 {
            self.inner.historical.fetch_add(1, Ordering::SeqCst);
        }
        ReaderGuard { slot, cap }
    }

    /// Pins the first `pinned` of the `n` caps from `current() - 1` up
    /// and moves the clock past all `n`: the slots are claimed first and
    /// the clock moved after, republishing the caps if it moved in
    /// between, so a watermark read never sees the clock past a reserved
    /// cap that is not pinned. For a task runtime, whose clock runs one
    /// ahead of its next task id; returns the first cap and the guards in
    /// cap order.
    pub(crate) fn reserve_pinned(&self, n: u64, pinned: u64) -> (Version, Vec<ReaderGuard<'_>>) {
        let clock = &self.inner.clock;
        let mut c = clock.load(Ordering::SeqCst);
        let slots: Vec<&AtomicU64> = (0..pinned).map(|i| self.inner.claim(c - 1 + i)).collect();
        while let Err(now) = clock.compare_exchange(c, c + n, Ordering::SeqCst, Ordering::SeqCst) {
            c = now;
            for (cap, slot) in (c - 1..).zip(&slots) {
                slot.store(cap, Ordering::SeqCst);
            }
        }
        let first = c - 1;
        let guards = (first..)
            .zip(slots)
            .map(|(cap, slot)| ReaderGuard { slot, cap })
            .collect();
        (first, guards)
    }

    /// The reclamation boundary: the oldest pinned cap, bounded above by
    /// the newest allocated version (`current() - 1`), the lowest cap a
    /// reader pinning after this call can get. Versions strictly below
    /// the newest version ≤ this value are unreachable by any current or
    /// future reader.
    pub fn watermark(&self) -> Version {
        let inner = &*self.inner;
        loop {
            let historical = inner.historical.load(Ordering::SeqCst);
            let bound = inner.clock.load(Ordering::SeqCst) - 1;
            // Pairs with the fence in `claim`: a chunk this scan does not
            // see holds no pin older than the clock just read.
            fence(Ordering::SeqCst);
            let oldest = inner.caps().min().unwrap_or(FREE);
            if inner.historical.load(Ordering::SeqCst) == historical {
                return oldest.min(bound);
            }
        }
    }

    /// Number of live reader guards.
    pub fn live_readers(&self) -> usize {
        self.inner.caps().count()
    }

    /// How far the version clock has run ahead of the oldest pinned cap:
    /// 0 when no reader is live, growing while a parked guard pins an old
    /// cap and writers keep allocating. The software analogue of
    /// Louvre-style version-table occupancy.
    pub fn watermark_lag(&self) -> u64 {
        let clock = self.inner.clock.load(Ordering::SeqCst);
        self.inner
            .caps()
            .min()
            .map_or(0, |oldest| clock.saturating_sub(oldest))
    }

    /// Pin-lag distribution in versions: for every live pin, how far the
    /// clock has run past its cap, so a parked guard shows as the history
    /// it holds back.
    pub fn pin_lags(&self) -> osim_metrics::Histogram {
        let clock = self.inner.clock.load(Ordering::SeqCst);
        let mut h = osim_metrics::Histogram::new();
        for cap in self.inner.caps() {
            h.record(clock.saturating_sub(cap));
        }
        h
    }
}

/// RAII pin on a snapshot cap; see [`ReaderRegistry::pin`]. It borrows
/// its registry slot, and dropping it frees the slot.
pub struct ReaderGuard<'a> {
    slot: &'a AtomicU64,
    cap: Version,
}

impl ReaderGuard<'_> {
    /// The pinned snapshot cap — use it as the version cap for every load
    /// performed under this guard.
    pub fn cap(&self) -> Version {
        self.cap
    }
}

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        self.slot.store(FREE, Ordering::Release);
    }
}

/// Vacuum configuration.
#[derive(Debug, Clone)]
pub struct VacuumCfg {
    /// Sleep between passes.
    pub interval: Duration,
}

impl Default for VacuumCfg {
    fn default() -> Self {
        VacuumCfg {
            interval: Duration::from_millis(10),
        }
    }
}

/// Counters for one collector's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Passes executed (including ones that reclaimed nothing).
    pub passes: u64,
    /// Total versions reclaimed.
    pub reclaimed: u64,
    /// The boundary used by the most recent pass.
    pub last_watermark: Version,
}

type PruneHandle = Weak<dyn Prune + Send + Sync>;

/// The one collector of the crate: a registry, the weakly held stores it
/// prunes below the registry's watermark, and its counters. [`Vacuum`]
/// runs its passes on a background thread and [`crate::ORuntime`] as its
/// tasks end. Dropping a store untracks it.
pub(crate) struct Collector {
    pub(crate) registry: ReaderRegistry,
    stores: Mutex<Vec<PruneHandle>>,
    /// The buffer a pass copies `stores` into, kept between passes so a
    /// warm pass allocates nothing.
    scratch: Mutex<Vec<PruneHandle>>,
    stats: Mutex<VacuumStats>,
    /// Per-pass duration in microseconds, merged into `osim-metrics`
    /// output via [`Vacuum::fill_registry`].
    pause_us: Mutex<osim_metrics::Histogram>,
}

impl Collector {
    pub(crate) fn new(registry: ReaderRegistry) -> Self {
        Collector {
            registry,
            stores: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
            stats: Mutex::new(VacuumStats::default()),
            pause_us: Mutex::new(osim_metrics::Histogram::new()),
        }
    }

    pub(crate) fn track<S: Prunable>(&self, store: &S) {
        self.stores.lock().push(store.prune_weak());
    }

    pub(crate) fn stats(&self) -> VacuumStats {
        *self.stats.lock()
    }

    /// Prunes every live store below the watermark, dropping dead
    /// handles; returns the versions reclaimed. The handles are copied
    /// out first so [`Collector::track`] never waits on the pruning.
    pub(crate) fn pass(&self) -> u64 {
        let started = Instant::now();
        let boundary = self.registry.watermark();
        let mut stores = std::mem::take(&mut *self.scratch.lock());
        {
            let mut tracked = self.stores.lock();
            tracked.retain(|w| w.strong_count() > 0);
            stores.extend(tracked.iter().cloned());
        }
        let mut reclaimed = 0u64;
        for weak in stores.drain(..) {
            if let Some(store) = weak.upgrade() {
                reclaimed += store.prune_below(boundary) as u64;
            }
        }
        *self.scratch.lock() = stores;
        {
            let mut stats = self.stats.lock();
            stats.passes += 1;
            stats.reclaimed += reclaimed;
            stats.last_watermark = boundary;
        }
        self.pause_us
            .lock()
            .record(started.elapsed().as_micros() as u64);
        reclaimed
    }
}

/// Background reclamation daemon over a [`ReaderRegistry`].
///
/// ```
/// use std::time::Duration;
/// use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
/// use ostructs_core::OCell;
///
/// let registry = ReaderRegistry::new();
/// let vac = Vacuum::start(
///     registry.clone(),
///     VacuumCfg { interval: Duration::from_millis(1) },
/// );
/// let cell = OCell::with_initial(0, 0u64);
/// vac.track(&cell);
/// for _ in 0..100 {
///     let v = registry.next_version();
///     cell.store_version(v, v).unwrap();
/// }
/// vac.run_pass(); // or just wait for the background cadence
/// assert_eq!(cell.version_count(), 1);
/// drop(vac); // clean shutdown: joins the background thread
/// ```
pub struct Vacuum {
    collector: Arc<Collector>,
    /// Dropping the sender wakes the background thread and ends it.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Vacuum {
    /// Starts the background thread, which runs a pass every
    /// `cfg.interval`.
    pub fn start(registry: ReaderRegistry, cfg: VacuumCfg) -> Self {
        let collector = Arc::new(Collector::new(registry));
        let (stop, stopped) = mpsc::channel::<()>();
        let bg = Arc::clone(&collector);
        let thread = std::thread::Builder::new()
            .name("ostructs-vacuum".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(cfg.interval) {
                    bg.pass();
                }
            })
            .expect("spawn vacuum thread");
        Vacuum {
            collector,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Registers a prunable store (a cell or a map). Tracking is by weak
    /// reference — dropping the store untracks it.
    pub fn track<S: Prunable>(&self, store: &S) {
        self.collector.track(store);
    }

    /// Runs one pass synchronously on the calling thread; returns the
    /// number of versions reclaimed.
    pub fn run_pass(&self) -> u64 {
        self.collector.pass()
    }

    /// Counters so far.
    pub fn stats(&self) -> VacuumStats {
        self.collector.stats()
    }

    /// The registry this vacuum reclaims against.
    pub fn registry(&self) -> &ReaderRegistry {
        &self.collector.registry
    }

    /// Folds the vacuum's telemetry into an `osim-metrics` registry:
    /// `ostructs_vacuum_passes_total`, `ostructs_vacuum_reclaimed_total`,
    /// `ostructs_vacuum_watermark`, the live
    /// `ostructs_vacuum_watermark_lag` (clock minus watermark — how much
    /// history a parked reader is holding back), the per-pass
    /// `ostructs_vacuum_pause_us` histogram, and the
    /// `ostructs_vacuum_reader_pin_lag` histogram of each live pin's lag
    /// behind the clock, in versions.
    pub fn fill_registry(&self, reg: &mut osim_metrics::Registry) {
        let stats = self.stats();
        reg.counter_add("ostructs_vacuum_passes_total", &[], stats.passes);
        reg.counter_add("ostructs_vacuum_reclaimed_total", &[], stats.reclaimed);
        reg.gauge_set(
            "ostructs_vacuum_watermark",
            &[],
            stats.last_watermark as f64,
        );
        reg.gauge_set(
            "ostructs_vacuum_watermark_lag",
            &[],
            self.registry().watermark_lag() as f64,
        );
        reg.hist_mut("ostructs_vacuum_pause_us", &[])
            .merge(&self.collector.pause_us.lock());
        reg.hist_mut("ostructs_vacuum_reader_pin_lag", &[])
            .merge(&self.registry().pin_lags());
    }

    /// Stops the background thread and joins it. Idempotent; also run by
    /// `Drop`.
    pub fn stop(&mut self) {
        self.stop.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Vacuum {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Anything a collector can track: exposes a weak, type-erased [`Prune`]
/// handle.
pub trait Prunable {
    fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OCell;

    fn fast_cfg() -> VacuumCfg {
        VacuumCfg {
            interval: Duration::from_millis(1),
        }
    }

    #[test]
    fn watermark_follows_oldest_pin() {
        let reg = ReaderRegistry::new();
        assert_eq!(reg.watermark(), 0, "clock starts at 1");
        for _ in 0..9 {
            reg.next_version();
        }
        assert_eq!(reg.watermark(), 9, "no readers: watermark = clock - 1");
        let old = reg.pin();
        assert_eq!(old.cap(), 9, "caps at the newest allocated version");
        for _ in 0..5 {
            reg.next_version();
        }
        let newer = reg.pin();
        assert_eq!(newer.cap(), 14);
        assert_eq!(reg.watermark(), old.cap());
        drop(old);
        assert_eq!(reg.watermark(), newer.cap());
        drop(newer);
        assert_eq!(reg.watermark(), 14);
        assert_eq!(reg.watermark_lag(), 0, "no readers: no lag");
        assert_eq!(reg.live_readers(), 0);
    }

    #[test]
    fn pin_after_a_boundary_read_keeps_its_snapshot() {
        // A pin taken after a pass has read its boundary, but before the
        // pass prunes, must still resolve: the boundary with no reader
        // live is the newest allocated version, never the clock.
        let reg = ReaderRegistry::new();
        let m: crate::OMap<u32, u64> = crate::OMap::new();
        let v1 = reg.next_version();
        m.insert(7, v1, v1).unwrap();
        let boundary = reg.watermark();
        let pin = reg.pin();
        assert_eq!(pin.cap(), v1);
        let v2 = reg.next_version();
        m.insert(7, v2, v2).unwrap();
        m.prune_below(boundary);
        assert_eq!(m.get_arc(&7, pin.cap()).as_deref(), Some(&v1));
    }

    #[test]
    fn a_pin_above_the_clock_does_not_raise_the_watermark() {
        // A pin at a cap the clock has not reached must not lift the
        // boundary past the newest allocated version: a reader pinning
        // after a pass read that boundary gets the newest allocated
        // version as its cap, and the pass must keep its snapshot.
        let reg = ReaderRegistry::new();
        let m: crate::OMap<u32, u64> = crate::OMap::new();
        let v1 = reg.next_version();
        m.insert(7, v1, v1).unwrap();
        let ahead = reg.pin_at(100);
        let boundary = reg.watermark();
        assert_eq!(boundary, v1, "bounded by the clock minus one");
        let pin = reg.pin();
        assert_eq!(pin.cap(), v1);
        let v2 = reg.next_version();
        m.insert(7, v2, v2).unwrap();
        m.prune_below(boundary);
        assert_eq!(m.get_arc(&7, pin.cap()).as_deref(), Some(&v1));
        drop((ahead, pin));
    }

    #[test]
    fn pins_beyond_the_first_chunk_are_seen() {
        // More live pins than one chunk holds: the registry links a new
        // chunk, and the watermark and live count see pins in it.
        let reg = ReaderRegistry::new();
        let mut guards: Vec<_> = (0..CHUNK as u64 + 8)
            .map(|_| {
                reg.next_version();
                reg.pin()
            })
            .collect();
        assert_eq!(reg.live_readers(), CHUNK + 8);
        assert_eq!(reg.watermark(), 1);
        guards.drain(..CHUNK + 4);
        assert_eq!(reg.live_readers(), 4);
        assert_eq!(
            reg.watermark(),
            guards[0].cap(),
            "oldest pin sits in chunk two"
        );
        drop(guards);
        assert_eq!(reg.watermark(), reg.current() - 1);
        assert_eq!(reg.live_readers(), 0);
    }

    #[test]
    fn duplicate_caps_unpin_one_at_a_time() {
        let reg = ReaderRegistry::new();
        let a = reg.pin();
        let b = reg.pin();
        assert_eq!(a.cap(), b.cap());
        assert_eq!(reg.live_readers(), 2);
        drop(a);
        assert_eq!(reg.watermark(), b.cap(), "second pin still holds");
        drop(b);
        assert_eq!(reg.live_readers(), 0);
    }

    #[test]
    fn advance_to_never_regresses() {
        let reg = ReaderRegistry::new();
        reg.advance_to(100);
        assert_eq!(reg.current(), 101);
        reg.advance_to(50);
        assert_eq!(reg.current(), 101);
        // The top of the version space saturates instead of wrapping.
        let top = ReaderRegistry::new();
        top.advance_to(u64::MAX);
        assert_eq!(top.current(), u64::MAX);
    }

    #[test]
    fn vacuum_prunes_unpinned_history() {
        let reg = ReaderRegistry::new();
        let mut vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..50 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        let reclaimed = vac.run_pass();
        assert_eq!(reclaimed, 50, "all but the newest version reclaimed");
        assert_eq!(cell.version_count(), 1);
        cell.check_invariants().unwrap();
        vac.stop();
        let stats = vac.stats();
        assert!(stats.passes >= 1);
        assert_eq!(stats.reclaimed, 50);
    }

    #[test]
    fn vacuum_never_reclaims_pinned_snapshots() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        let v1 = reg.next_version();
        cell.store_version(v1, 111).unwrap();
        let pin = reg.pin(); // caps at the clock after v1
        for _ in 0..20 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        vac.run_pass();
        // The pinned snapshot still resolves: newest version ≤ cap is v1.
        assert_eq!(cell.try_load_latest(pin.cap()), Some((v1, 111)));
        drop(pin);
        vac.run_pass();
        assert_eq!(cell.version_count(), 1, "history drains after unpin");
    }

    #[test]
    fn background_cadence_prunes_without_explicit_passes() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..100 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while cell.version_count() > 1 {
            assert!(Instant::now() < deadline, "vacuum never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn stop_is_clean_and_idempotent() {
        let reg = ReaderRegistry::new();
        let mut vac = Vacuum::start(reg, fast_cfg());
        vac.stop();
        vac.stop();
        assert!(vac.thread.is_none());
    }

    #[test]
    fn dropped_cells_are_untracked() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg, fast_cfg());
        {
            let cell = OCell::with_initial(0, 0u32);
            vac.track(&cell);
        }
        assert_eq!(vac.run_pass(), 0, "dead weak refs are skipped");
    }

    #[test]
    fn parked_reader_grows_watermark_lag() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        for _ in 0..5 {
            reg.next_version();
        }
        let parked = reg.pin();
        let mut m0 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m0);
        let lag0 = m0.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        // Writers keep allocating while the guard stays parked: the lag
        // must grow with every allocation the pin holds back.
        for _ in 0..40 {
            reg.next_version();
        }
        let mut m1 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m1);
        let lag1 = m1.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        assert!(
            lag1 >= lag0 + 40.0,
            "parked guard must make the lag grow: {lag0} -> {lag1}"
        );
        // The clock stands at 46 and the parked cap at 5.
        let lags = m1
            .hist("ostructs_vacuum_reader_pin_lag", &[])
            .expect("pin-lag histogram present");
        let mut want = osim_metrics::Histogram::new();
        want.record(41);
        assert_eq!(
            lags, &want,
            "the parked pin's lag is the clock minus its cap"
        );
        drop(parked);
        let mut m2 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m2);
        let lag2 = m2.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        assert_eq!(lag2, 0.0, "lag collapses once the guard drops");
    }

    #[test]
    fn metrics_surface() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..10 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        vac.run_pass();
        let mut m = osim_metrics::Registry::new();
        vac.fill_registry(&mut m);
        assert!(m.counter("ostructs_vacuum_passes_total", &[]) >= 1);
        assert_eq!(m.counter("ostructs_vacuum_reclaimed_total", &[]), 10);
        let h = m.hist("ostructs_vacuum_pause_us", &[]).unwrap();
        assert!(h.count() >= 1);
    }
}
