//! The time-ordered single-threaded executor.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use osim_metrics::Histogram;

use crate::time::Cycle;

/// Identifier of a spawned simulation task (a hardware context, usually).
pub type TaskId = usize;

type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

/// How the executor breaks ties between events scheduled for the same
/// cycle.
///
/// Every event carries an ordering key `(cycle, tie, seq)` where `seq` is
/// the global schedule sequence number. With the default [`Off`] policy the
/// tie word *is* `seq`, so ties resolve in schedule (FIFO) order — the
/// order every committed reference output was produced under. With
/// [`Seeded`] each event instead draws its tie word from a splitmix64
/// stream, which permutes same-cycle dispatch order while leaving the time
/// order untouched. The stream is consumed once per scheduled event, in
/// schedule order, so a given seed produces one exact schedule:
/// same seed ⇒ byte-identical run, regardless of host parallelism. The
/// stress harness fans many seeds to exercise invariants across
/// interleavings; see `osim-experiments stress`.
///
/// [`Off`]: ShakePolicy::Off
/// [`Seeded`]: ShakePolicy::Seeded
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShakePolicy {
    /// FIFO tie-breaks (`tie == seq`). The deterministic default.
    #[default]
    Off,
    /// Randomized tie-breaks drawn from a splitmix64 stream with this
    /// seed. Still fully deterministic per seed.
    Seeded(u64),
}

impl ShakePolicy {
    /// The seed when shaking is on.
    pub fn seed(&self) -> Option<u64> {
        match self {
            ShakePolicy::Off => None,
            ShakePolicy::Seeded(s) => Some(*s),
        }
    }

    /// Initial RNG state for the tie-break stream (`None` when off).
    fn rng_state(self) -> Option<u64> {
        self.seed()
    }
}

/// One step of the splitmix64 sequence, the repository's standard
/// deterministic stream (shaken tie-breaks, generated test programs, store
/// benchmark inputs); advances `state` and returns the output word.
///
/// Two other copies exist: `osim-mem`'s fault injector, because that
/// crate does not depend on this one, and the `benchmark/` crate's input
/// generator, which changes only together with the benchmark.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host-side counters describing what the engine's dispatch loop did.
///
/// Functions of the simulated event order alone (a total order on
/// `(cycle, tie, seq)`), so exposing these in reports keeps output
/// byte-identical across runs and host worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events popped that resumed a live task (one per task poll).
    pub events_dispatched: u64,
    /// Events popped for an already-completed task. Each is skipped
    /// without a poll and without moving the clock, so a dead event never
    /// changes a run's end time.
    pub stale_events: u64,
}

/// Latency distributions recorded by the engine's wait/notify layer.
///
/// Like [`EngineStats`], the contents are functions of the simulated
/// event order only — park and wake cycles are simulated times — so the
/// histograms are safe to embed in byte-compared reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineHists {
    /// Simulated cycles each gate waiter spent parked before its wake.
    pub gate_wait: Histogram,
    /// Waiters released per gate open (0 when a targeted open matched
    /// nobody; empty-queue opens are not recorded).
    pub wake_fanout: Histogram,
}

impl EngineHists {
    /// Clears both histograms.
    pub fn reset(&mut self) {
        self.gate_wait.reset();
        self.wake_fanout.reset();
    }
}

/// What a blocked task is waiting for, as reported by the layer that parked
/// it (the engine only stores and returns these records). The fields are
/// deliberately plain integers so the engine stays ignorant of addresses,
/// versions and task-id vocabularies defined above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitInfo {
    /// Upper-layer label of the waiting task (e.g. the cpu-layer task id),
    /// distinct from the engine [`TaskId`].
    pub label: u64,
    /// The contended resource (e.g. a virtual address).
    pub resource: u64,
    /// The awaited state of the resource (e.g. a version number).
    pub target: u64,
    /// Short stable wait-kind name (e.g. `missing-version`).
    pub kind: &'static str,
    /// Label of the task holding the resource, when known.
    pub holder: Option<u64>,
}

impl std::fmt::Display for WaitInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} waiting for {} at va {:#010x} version {}",
            self.label, self.kind, self.resource, self.target
        )?;
        if let Some(h) = self.holder {
            write!(f, " held by task {h}")?;
        }
        Ok(())
    }
}

/// One entry of a deadlock report: a task that can never run again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedTask {
    /// Engine task id.
    pub task: TaskId,
    /// Cycle at which the wait record was registered (None if the task
    /// never registered one).
    pub since: Option<Cycle>,
    /// The wait record, when the parking layer registered one via
    /// [`SimHandle::set_wait_info`].
    pub info: Option<WaitInfo>,
}

/// Why [`Sim::run`] stopped before all tasks completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event queue drained while tasks were still pending: every pending
    /// task is blocked on a [`crate::Gate`] that nobody will open. For the
    /// O-structures simulator this means a versioned load is waiting for a
    /// version that no remaining task will ever create.
    Deadlock {
        /// Simulated time at which the deadlock was detected.
        now: Cycle,
        /// Every task still blocked, with its wait record when one was
        /// registered.
        blocked: Vec<BlockedTask>,
    },
    /// A task asked the simulation to stop via [`SimHandle::request_halt`]
    /// (the cpu layer does this to surface an architectural fault as a
    /// typed error instead of a panic).
    Halted {
        /// Simulated time at which the halt took effect.
        now: Cycle,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { now, blocked } => {
                write!(
                    f,
                    "simulation deadlock at cycle {now}: {} task(s) blocked forever",
                    blocked.len()
                )?;
                for b in blocked {
                    match &b.info {
                        Some(info) => write!(f, "\n  engine task {}: {info}", b.task)?,
                        None => write!(f, "\n  engine task {}: no wait record", b.task)?,
                    }
                }
                Ok(())
            }
            RunError::Halted { now } => {
                write!(f, "simulation halted at cycle {now} by request")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Cycles per calendar epoch: one bucket per cycle, `WHEEL_SLOTS` cycles
/// per wheel turn. Sized so typical memory/pipeline latencies (1–200
/// cycles) land in the near wheel and only long watchdog/DRAM-refresh-style
/// sleeps overflow to the heap.
const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// One calendar bucket: all events for a single cycle, in `(tie, seq)`
/// order. `head` marks how many have been consumed; the `Vec` keeps its
/// capacity across wheel turns, so steady-state pushes are allocation-free.
#[derive(Default)]
struct Bucket {
    head: usize,
    events: Vec<(u64, u64, TaskId)>,
}

/// Hierarchical calendar queue over `(cycle, tie, seq, task)` events.
///
/// Pops follow the total order on `(cycle, tie, seq)` — the order a plain
/// `BinaryHeap<Reverse<(Cycle, u64, u64, TaskId)>>` would give, which the
/// differential proptest in this module's tests checks. The invariants
/// that make this hold:
///
/// * Between [`clear`](Self::clear)s `epoch` only moves forward, and
///   bucket `i` holds events for exactly cycle `epoch * WHEEL_SLOTS + i`.
///   Pushes target cycles `>= now` (`schedule` clamps them), and the cursor
///   never passes `now` while a push can follow: `now` moves to every
///   popped live event, and a run that pops dead events until the queue is
///   empty re-anchors it at `now` with `clear`. So a push targeting the
///   current epoch can only land at or after the cursor. With shaking off
///   (`tie == seq`, monotone) appends within a bucket already arrive
///   sorted; with shaking on, `push` binary-searches the un-consumed tail
///   so the bucket stays in `(tie, seq)` order.
/// * The overflow heap only ever holds events of epochs *after* `epoch`
///   (current-epoch events go straight to their bucket), so near events
///   always sort before every overflow event and the two stores never have
///   to be merged for a single cycle.
/// * When the near wheel drains, the queue jumps to the earliest overflow
///   epoch and migrates that whole epoch into the (empty) buckets; the heap
///   pops in `(cycle, tie, seq)` order, so each bucket is filled sorted.
struct CalendarQueue {
    epoch: u64,
    /// Next bucket index to inspect: the last popped event's bucket, or
    /// `now`'s after a `clear`.
    cursor: usize,
    /// Events currently in the near wheel.
    near_len: usize,
    /// Total events (near wheel + overflow).
    len: usize,
    /// Whether tie words may be non-monotone (shaking on); gates the
    /// sorted-insert path in `push` so the common case stays a plain append.
    shaken: bool,
    /// One bit per bucket with at least one un-consumed event.
    occupied: [u64; WHEEL_WORDS],
    buckets: Vec<Bucket>,
    overflow: BinaryHeap<Reverse<(Cycle, u64, u64, TaskId)>>,
}

impl CalendarQueue {
    fn new(shaken: bool) -> Self {
        let mut buckets = Vec::with_capacity(WHEEL_SLOTS);
        buckets.resize_with(WHEEL_SLOTS, Bucket::default);
        CalendarQueue {
            epoch: 0,
            cursor: 0,
            near_len: 0,
            len: 0,
            shaken,
            occupied: [0; WHEEL_WORDS],
            buckets,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, at: Cycle, tie: u64, seq: u64, task: TaskId) {
        self.len += 1;
        if at >> WHEEL_BITS == self.epoch {
            let idx = (at & WHEEL_MASK) as usize;
            let b = &mut self.buckets[idx];
            if self.shaken {
                // Keep the un-consumed tail sorted by (tie, seq); already-
                // dispatched entries before `head` must not move.
                let pos =
                    b.head + b.events[b.head..].partition_point(|&(t, s, _)| (t, s) < (tie, seq));
                b.events.insert(pos, (tie, seq, task));
            } else {
                b.events.push((tie, seq, task));
            }
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.near_len += 1;
        } else {
            self.overflow.push(Reverse((at, tie, seq, task)));
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, TaskId)> {
        if self.len == 0 {
            return None;
        }
        if self.near_len == 0 {
            self.advance_epoch();
        }
        let idx = self.next_occupied(self.cursor);
        self.cursor = idx;
        let b = &mut self.buckets[idx];
        let (_, _, task) = b.events[b.head];
        b.head += 1;
        if b.head == b.events.len() {
            b.events.clear();
            b.head = 0;
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.near_len -= 1;
        self.len -= 1;
        Some(((self.epoch << WHEEL_BITS) | idx as u64, task))
    }

    /// Jumps the wheel to the earliest overflow epoch and unloads that
    /// epoch's events into the (drained) buckets. Only called when the
    /// near wheel is empty and the overflow is not.
    fn advance_epoch(&mut self) {
        let next = match self.overflow.peek() {
            Some(&Reverse((c, _, _, _))) => c >> WHEEL_BITS,
            None => unreachable!("non-empty queue with empty wheel and empty overflow"),
        };
        debug_assert!(next > self.epoch, "epoch went backwards");
        self.epoch = next;
        self.cursor = 0;
        while let Some(&Reverse((c, _, _, _))) = self.overflow.peek() {
            if c >> WHEEL_BITS != self.epoch {
                break;
            }
            let Some(Reverse((c, tie, seq, task))) = self.overflow.pop() else {
                unreachable!("peeked entry vanished")
            };
            let idx = (c & WHEEL_MASK) as usize;
            self.buckets[idx].events.push((tie, seq, task));
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.near_len += 1;
        }
    }

    /// Index of the first occupied bucket at or after `from`. Callers
    /// guarantee the wheel is non-empty.
    #[inline]
    fn next_occupied(&self, from: usize) -> usize {
        let word = from / 64;
        let masked = self.occupied[word] & (!0u64 << (from % 64));
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
        }
        for w in word + 1..WHEEL_WORDS {
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        unreachable!("occupancy bitmap empty with near_len > 0")
    }

    /// Cycle of the event `pop` would return next, without removing it.
    /// Near-wheel events all precede the overflow heap's, so the first
    /// occupied bucket from the cursor wins when there is one.
    #[inline]
    fn min_cycle(&self) -> Option<Cycle> {
        if self.near_len > 0 {
            let idx = self.next_occupied(self.cursor);
            Some((self.epoch << WHEEL_BITS) | idx as u64)
        } else {
            self.overflow.peek().map(|&Reverse((c, _, _, _))| c)
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Drops every event and anchors the wheel at `now`, so pushes at or
    /// after `now` keep the pop order.
    fn clear(&mut self, now: Cycle) {
        self.epoch = now >> WHEEL_BITS;
        self.cursor = (now & WHEEL_MASK) as usize;
        for b in &mut self.buckets {
            b.events.clear();
            b.head = 0;
        }
        self.occupied = [0; WHEEL_WORDS];
        self.near_len = 0;
        self.len = 0;
        self.overflow.clear();
    }
}

pub(crate) struct Inner {
    now: Cycle,
    next_seq: u64,
    /// splitmix64 state for shaken tie-breaks; `None` when the policy is
    /// [`ShakePolicy::Off`] (ties then fall back to `seq`).
    shake_rng: Option<u64>,
    /// Pending `(wake_time, tie, sequence, task)` events. The sequence
    /// number makes the pop order a total order, which makes runs
    /// deterministic — including shaken runs, where the tie word comes
    /// from a seeded stream consumed in schedule order.
    queue: CalendarQueue,
    tasks: Vec<Option<BoxedTask>>,
    live: usize,
    /// Task currently being polled; leaf futures read this to learn who they
    /// belong to.
    current: Option<TaskId>,
    stats: EngineStats,
    /// Gate wait/fan-out distributions (recorded by `gate.rs`).
    hists: EngineHists,
    /// Wait records registered by parked tasks (indexed like `tasks`),
    /// paired with the registration cycle.
    wait_info: Vec<Option<(Cycle, WaitInfo)>>,
    /// Set by [`SimHandle::request_halt`]; the run loop stops before the
    /// next event once it is raised.
    halt: bool,
}

impl Inner {
    #[inline]
    pub(crate) fn schedule(&mut self, at: Cycle, task: TaskId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tie = match &mut self.shake_rng {
            Some(state) => splitmix64(state),
            None => seq,
        };
        let at = at.max(self.now);
        self.queue.push(at, tie, seq, task);
    }

    pub(crate) fn now(&self) -> Cycle {
        self.now
    }

    /// Resumes the current task at `at` without a queue round trip, when
    /// the run loop would do nothing between scheduling that event and
    /// popping it: no halt pending, and `at` (clamped to `now`) strictly
    /// before every queued event — so the event would pop next under FIFO
    /// ties and under every shake seed. Makes the same `seq` and tie draws
    /// [`schedule`](Self::schedule) would and counts the event as
    /// dispatched, so every later event keys, and every counter reads, as
    /// if it had gone through the queue. Returns `false` (changing nothing)
    /// when the event must be queued instead.
    #[inline]
    fn resume_inline(&mut self, at: Cycle) -> bool {
        if self.halt {
            return false;
        }
        let at = at.max(self.now);
        if matches!(self.queue.min_cycle(), Some(next) if next <= at) {
            return false;
        }
        self.next_seq += 1;
        if let Some(state) = &mut self.shake_rng {
            splitmix64(state);
        }
        self.now = at;
        self.stats.events_dispatched += 1;
        true
    }

    /// Records one waiter's parked duration (allocation-free).
    #[inline]
    pub(crate) fn record_gate_wait(&mut self, cycles: Cycle) {
        self.hists.gate_wait.record(cycles);
    }

    /// Records how many waiters one gate open released (allocation-free).
    #[inline]
    pub(crate) fn record_wake_fanout(&mut self, n: u64) {
        self.hists.wake_fanout.record(n);
    }

    pub(crate) fn current_task(&self) -> TaskId {
        match self.current {
            Some(t) => t,
            None => unreachable!("engine primitive used outside of a simulation task poll"),
        }
    }

    /// Every live task not checked out for a poll, with its wait record.
    fn blocked_snapshot(&self) -> Vec<BlockedTask> {
        let mut out = Vec::new();
        for (task, t) in self.tasks.iter().enumerate() {
            if t.is_some() {
                let (since, info) = match &self.wait_info[task] {
                    Some((at, w)) => (Some(*at), Some(w.clone())),
                    None => (None, None),
                };
                out.push(BlockedTask { task, since, info });
            }
        }
        out
    }
}

/// A deterministic discrete-event simulation.
///
/// Create one, [`spawn`](Sim::spawn) the hardware contexts, then [`run`](Sim::run).
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at cycle 0 with FIFO tie-breaks.
    pub fn new() -> Self {
        Self::with_shake(ShakePolicy::Off)
    }

    /// Creates an empty simulation at cycle 0 with the given same-cycle
    /// tie-break policy.
    pub fn with_shake(shake: ShakePolicy) -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: 0,
                next_seq: 0,
                shake_rng: shake.rng_state(),
                queue: CalendarQueue::new(shake != ShakePolicy::Off),
                tasks: Vec::new(),
                live: 0,
                current: None,
                stats: EngineStats::default(),
                hists: EngineHists::default(),
                wait_info: Vec::new(),
                halt: false,
            })),
        }
    }

    /// Returns a cloneable handle used by tasks to interact with simulated
    /// time (sleep, gates, wait records, halt).
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Spawns a task; it becomes runnable at the current simulated time.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.tasks.len();
        inner.tasks.push(Some(Box::pin(fut)));
        inner.wait_info.push(None);
        inner.live += 1;
        let now = inner.now;
        inner.schedule(now, id);
        id
    }

    /// Runs until every task has completed.
    ///
    /// Returns the final simulated time, or a [`RunError::Deadlock`] if some
    /// tasks can never make progress again.
    pub fn run(&self) -> Result<Cycle, RunError> {
        loop {
            // One borrow covers pop-event plus check-out-task: this loop runs
            // once per task resumption, so the borrow bookkeeping is hot.
            let (task, mut fut) = {
                let mut inner = self.inner.borrow_mut();
                if inner.halt {
                    let now = inner.now;
                    // Break the task<->handle Rc cycle so dropped Sims
                    // release their task closures even on halt.
                    inner.tasks.clear();
                    inner.queue.clear(now);
                    return Err(RunError::Halted { now });
                }
                let (at, task) = match inner.queue.pop() {
                    Some(ev) => ev,
                    None => {
                        let now = inner.now;
                        // Dead events popped last may have left the wheel
                        // ahead of `now`; later spawns push at `now`.
                        inner.queue.clear(now);
                        if inner.live > 0 {
                            let blocked = inner.blocked_snapshot();
                            // Break the task<->handle Rc cycle so dropped Sims
                            // release their task closures even on deadlock.
                            inner.tasks.clear();
                            return Err(RunError::Deadlock { now, blocked });
                        }
                        return Ok(now);
                    }
                };
                debug_assert!(at >= inner.now, "time went backwards");
                match inner.tasks[task].take() {
                    Some(f) => {
                        inner.now = at;
                        inner.current = Some(task);
                        inner.stats.events_dispatched += 1;
                        (task, f)
                    }
                    // Stale event for a task that already finished: skipped
                    // without moving the clock.
                    None => {
                        inner.stats.stale_events += 1;
                        continue;
                    }
                }
            };
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            let done = fut.as_mut().poll(&mut cx).is_ready();
            let mut inner = self.inner.borrow_mut();
            inner.current = None;
            if done {
                inner.live -= 1;
                inner.wait_info[task] = None;
            } else {
                inner.tasks[task] = Some(fut);
            }
        }
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> Cycle {
        self.inner.borrow().now
    }

    /// Dispatch-loop counters accumulated so far (also available after
    /// [`Sim::run`] returns).
    pub fn stats(&self) -> EngineStats {
        self.inner.borrow().stats
    }

    /// Snapshot of the gate wait/fan-out histograms accumulated so far.
    pub fn hists(&self) -> EngineHists {
        self.inner.borrow().hists.clone()
    }

    /// Clears the gate wait/fan-out histograms (used when a measurement
    /// window starts after a warm-up phase).
    pub fn reset_hists(&self) {
        self.inner.borrow_mut().hists.reset();
    }
}

/// A cloneable handle to the simulation, usable from inside tasks.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl SimHandle {
    /// Current simulated time in cycles.
    pub fn now(&self) -> Cycle {
        self.inner.borrow().now
    }

    /// Number of tasks that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.borrow().live
    }

    /// Suspends the calling task for `cycles` simulated cycles.
    ///
    /// `sleep(0)` yields: the task is rescheduled at the current time behind
    /// every event already queued for this cycle. When the wake-up would
    /// be the very next event anyway (nothing queued at or before the
    /// deadline), the sleep resumes inline on its first poll instead of
    /// passing through the queue — same time, counters and later order.
    pub fn sleep(&self, cycles: Cycle) -> Sleep<'_> {
        Sleep {
            inner: &self.inner,
            until: None,
            duration: cycles,
        }
    }

    /// Creates a new [`crate::Gate`] bound to this simulation.
    pub fn gate(&self) -> crate::Gate {
        crate::Gate::new(Rc::clone(&self.inner))
    }

    /// Registers what the *current* task is about to block on, so that a
    /// later deadlock or watchdog report can name the wait target. Call
    /// [`clear_wait_info`](Self::clear_wait_info) after waking.
    pub fn set_wait_info(&self, info: WaitInfo) {
        let mut inner = self.inner.borrow_mut();
        let task = inner.current_task();
        let now = inner.now;
        inner.wait_info[task] = Some((now, info));
    }

    /// Clears the current task's wait record (the wait completed).
    pub fn clear_wait_info(&self) {
        let mut inner = self.inner.borrow_mut();
        let task = inner.current_task();
        inner.wait_info[task] = None;
    }

    /// Asks the run loop to stop before dispatching the next event;
    /// [`Sim::run`] then returns [`RunError::Halted`]. Used by upper layers
    /// to abort the simulation on an unrecoverable modeled fault.
    pub fn request_halt(&self) {
        self.inner.borrow_mut().halt = true;
    }

    /// Snapshot of every live-but-parked task (the currently-polled task
    /// is checked out, so it is not listed) and its wait record, cloning
    /// each [`WaitInfo`]. Meant for terminal diagnostics: a watchdog that
    /// decided to fire, a deadlock dump.
    pub fn parked_tasks(&self) -> Vec<BlockedTask> {
        self.inner.borrow().blocked_snapshot()
    }
}

/// Future returned by [`SimHandle::sleep`].
///
/// The first poll fixes the deadline. If the wake-up is strictly earlier
/// than every queued event it resumes inline (see `Inner::resume_inline`)
/// and the poll returns `Ready`; otherwise — a queued event at or before
/// the deadline, or a pending halt — it is queued and the poll returns
/// `Pending`, so a zero-cycle sleep yields whenever another event shares
/// its cycle.
///
/// It borrows the engine from the handle that made it rather than holding
/// a reference count of its own: a sleep is awaited where it is made, so
/// making one costs no reference-count traffic.
pub struct Sleep<'a> {
    inner: &'a RefCell<Inner>,
    /// Absolute deadline, set once the sleep is queued; `None` until then.
    until: Option<Cycle>,
    duration: Cycle,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.inner.borrow_mut();
        if let Some(deadline) = this.until {
            // Queued on the first poll; by now `now >= deadline` holds.
            return if inner.now >= deadline {
                Poll::Ready(())
            } else {
                Poll::Pending // spurious poll before the deadline
            };
        }
        let deadline = inner.now + this.duration;
        if inner.resume_inline(deadline) {
            return Poll::Ready(());
        }
        this.until = Some(deadline);
        let task = inner.current_task();
        inner.schedule(deadline, task);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), Ok(0));
    }

    #[test]
    fn sleep_advances_time() {
        let sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            assert_eq!(h.now(), 0);
            h.sleep(7).await;
            assert_eq!(h.now(), 7);
            h.sleep(3).await;
            assert_eq!(h.now(), 10);
        });
        assert_eq!(sim.run(), Ok(10));
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, Cycle)>>> = Rc::default();
        for (id, period) in [(0u32, 3u64), (1, 5)] {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for _ in 0..3 {
                    h.sleep(period).await;
                    log.borrow_mut().push((id, h.now()));
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *log.borrow(),
            vec![(0, 3), (1, 5), (0, 6), (0, 9), (1, 10), (1, 15)]
        );
    }

    #[test]
    fn same_cycle_ties_break_by_schedule_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for id in 0..4u32 {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.sleep(10).await;
                log.borrow_mut().push(id);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_sleep_is_a_yield_point() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        {
            let log = Rc::clone(&log);
            let h = sim.handle();
            sim.spawn(async move {
                log.borrow_mut().push(1);
                h.sleep(0).await;
                log.borrow_mut().push(3);
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push(2);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn spawn_after_a_run_starts_at_the_current_time() {
        let sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(12).await;
        });
        assert_eq!(sim.run(), Ok(12));
        let h = sim.handle();
        let hit = Rc::new(Cell::new(0u64));
        let hit2 = Rc::clone(&hit);
        sim.spawn(async move {
            h.sleep(5).await;
            hit2.set(h.now());
        });
        assert_eq!(sim.run(), Ok(17));
        assert_eq!(hit.get(), 17);
    }

    #[test]
    fn long_sleeps_cross_epochs_in_order() {
        // Exercises the overflow heap and epoch migration: deadlines far
        // beyond one wheel turn, plus a short sleeper interleaved.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, Cycle)>>> = Rc::default();
        for (id, period) in [(0u32, 7u64), (1, 300), (2, 70_000)] {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for _ in 0..3 {
                    h.sleep(period).await;
                    log.borrow_mut().push((id, h.now()));
                }
            });
        }
        sim.run().unwrap();
        let mut sorted = log.borrow().clone();
        sorted.sort_by_key(|&(_, at)| at);
        assert_eq!(*log.borrow(), sorted, "dispatch must follow time order");
        assert_eq!(log.borrow().len(), 9);
        assert_eq!(log.borrow().last(), Some(&(2, 210_000)));
    }

    #[test]
    fn deadlock_is_reported() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        sim.spawn(async move {
            gate.wait().await; // nobody will ever open this
        });
        assert_eq!(
            sim.run(),
            Err(RunError::Deadlock {
                now: 0,
                blocked: vec![BlockedTask {
                    task: 0,
                    since: None,
                    info: None,
                }],
            })
        );
    }

    #[test]
    fn deadlock_report_carries_wait_info() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        sim.spawn(async move {
            h.sleep(4).await;
            h.set_wait_info(WaitInfo {
                label: 17,
                resource: 0x1000,
                target: 3,
                kind: "missing-version",
                holder: Some(9),
            });
            gate.wait().await; // nobody will ever open this
        });
        let err = sim.run().unwrap_err();
        let RunError::Deadlock { now, blocked } = err.clone() else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(now, 4);
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].since, Some(4));
        let info = blocked[0].info.as_ref().unwrap();
        assert_eq!((info.label, info.resource, info.target), (17, 0x1000, 3));
        assert_eq!(info.kind, "missing-version");
        assert_eq!(info.holder, Some(9));
        let msg = err.to_string();
        assert!(msg.contains("task 17"), "{msg}");
        assert!(msg.contains("missing-version"), "{msg}");
        assert!(msg.contains("version 3"), "{msg}");
        assert!(msg.contains("held by task 9"), "{msg}");
    }

    #[test]
    fn wait_info_cleared_on_completion_and_clear() {
        let sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        let gate = h.gate();
        let gate2 = gate.clone();
        sim.spawn(async move {
            h.set_wait_info(WaitInfo {
                label: 1,
                resource: 0,
                target: 0,
                kind: "test",
                holder: None,
            });
            gate.wait().await;
            h.clear_wait_info();
            h.sleep(1).await;
        });
        sim.spawn(async move {
            h2.sleep(2).await;
            gate2.open();
        });
        assert_eq!(sim.run(), Ok(3));
    }

    #[test]
    fn halt_request_stops_the_run() {
        let sim = Sim::new();
        let h = sim.handle();
        let h2 = sim.handle();
        sim.spawn(async move {
            h.sleep(5).await;
            h.request_halt();
            h.sleep(100).await; // never resumed
        });
        sim.spawn(async move {
            h2.sleep(1_000).await; // never reached either
        });
        assert_eq!(sim.run(), Err(RunError::Halted { now: 5 }));
    }

    #[test]
    fn determinism_across_runs() {
        fn one_run() -> Vec<(u32, Cycle)> {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<(u32, Cycle)>>> = Rc::default();
            for id in 0..8u32 {
                let h = sim.handle();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    for k in 0..20u64 {
                        h.sleep((id as u64 * 7 + k * 3) % 11 + 1).await;
                        log.borrow_mut().push((id, h.now()));
                    }
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(one_run(), one_run());
    }

    #[test]
    fn stale_events_are_counted() {
        // Each waiter takes a ticket, then leaves by another path (its
        // sleep) before the opener's later wake fires: every wake event is
        // queued behind a task that completes long before it pops. However
        // many are queued, and whether they wake in the current wheel epoch
        // or a later one, the run ends at the last live event (the
        // opener's sleep), and a later run on the same `Sim` starts there.
        for wake_in in [100, 10_000] {
            for waiters in [1u64, 63, 64, 200] {
                let sim = Sim::new();
                let h = sim.handle();
                let gate = h.gate();
                for _ in 0..waiters {
                    let gate = gate.clone();
                    let h = h.clone();
                    sim.spawn(async move {
                        let ticket = gate.ticket();
                        h.sleep(1).await;
                        drop(ticket); // abandoned: the task exits early
                    });
                }
                {
                    let h = h.clone();
                    sim.spawn(async move {
                        gate.open_at(h.now() + wake_in);
                        h.sleep(2).await;
                    });
                }
                let case = format!("{waiters} dead wakes at +{wake_in}");
                assert_eq!(sim.run(), Ok(2), "{case} moved the clock");
                let stats = sim.stats();
                assert_eq!(stats.stale_events, waiters, "{case}");
                assert!(stats.events_dispatched > 0);
                sim.spawn(async move { h.sleep(5).await });
                assert_eq!(sim.run(), Ok(7), "{case}: next run misordered");
            }
        }
    }

    /// Polls `fut` once outside the run loop's bookkeeping.
    fn poll_once<F: Future>(fut: Pin<&mut F>) -> Poll<F::Output> {
        fut.poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn lone_sleep_loop_resumes_inline() {
        // Nothing else is ever queued, so every sleep is the next event:
        // each resumes on its first poll, yet draws a seq and counts as one
        // dispatched event, exactly as a queue round trip would.
        const SLEEPS: u64 = 1_000;
        let sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            for k in 0..SLEEPS {
                // Near-wheel, epoch-crossing and overflow-range deadlines.
                let d = [0, 1, 7, 300, 70_000][k as usize % 5];
                let before = h.now();
                let mut s = std::pin::pin!(h.sleep(d));
                assert!(poll_once(s.as_mut()).is_ready(), "sleep {k} was queued");
                assert_eq!(h.now(), before + d);
                assert_eq!(h.inner.borrow().queue.len(), 0);
            }
        });
        let per_round: u64 = 1 + 7 + 300 + 70_000;
        assert_eq!(sim.run(), Ok(per_round * SLEEPS / 5));
        // One event for the spawn, one per sleep.
        assert_eq!(sim.stats().events_dispatched, 1 + SLEEPS);
        assert_eq!(sim.inner.borrow().next_seq, 1 + SLEEPS);
    }

    /// Task 1 sleeps onto the cycle of task 0's queued wake-up; returns the
    /// order the two finish in and whether that sleep's first poll queued.
    fn tie_with_queued(shake: ShakePolicy) -> (Vec<u32>, bool) {
        let sim = Sim::with_shake(shake);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let queued = Rc::new(Cell::new(false));
        {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.spawn(async move {
                h.sleep(10).await;
                log.borrow_mut().push(0);
            });
        }
        {
            let (h, log, queued) = (sim.handle(), Rc::clone(&log), Rc::clone(&queued));
            sim.spawn(async move {
                h.sleep(3).await; // strictly before cycle 10: inline
                let mut s = std::pin::pin!(h.sleep(7));
                queued.set(poll_once(s.as_mut()).is_pending());
                s.await;
                assert_eq!(h.now(), 10);
                log.borrow_mut().push(1);
            });
        }
        assert_eq!(sim.run(), Ok(10));
        let log = Rc::try_unwrap(log).unwrap().into_inner();
        (log, queued.get())
    }

    #[test]
    fn sleep_tying_a_queued_event_goes_through_the_queue() {
        let (order, queued) = tie_with_queued(ShakePolicy::Off);
        assert!(queued, "a tie must be queued");
        assert_eq!(order, vec![0, 1], "FIFO: the earlier-queued event first");
        // Shaken, the tie is broken by the two events' tie words, so both
        // orders occur across seeds; an inline resume would always put
        // task 1 first.
        let mut orders = std::collections::BTreeSet::new();
        for seed in 1..=16u64 {
            let (order, queued) = tie_with_queued(ShakePolicy::Seeded(seed));
            assert!(queued, "seed {seed}: a tie must be queued");
            orders.insert(order);
        }
        assert_eq!(
            orders.len(),
            2,
            "16 seeds never reordered the tie: {orders:?}"
        );
    }

    #[test]
    fn pending_halt_disables_inline_resume() {
        let sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.request_halt();
            let mut s = std::pin::pin!(h.sleep(5));
            assert!(poll_once(s.as_mut()).is_pending(), "halted sleep resumed");
            s.await;
            unreachable!("the run loop halts before the wake-up");
        });
        assert_eq!(sim.run(), Err(RunError::Halted { now: 0 }));
        assert_eq!(sim.stats().events_dispatched, 1);
    }

    /// Order in which same-cycle ties dispatch under one shake policy.
    fn tie_order(shake: ShakePolicy, tasks: u32) -> Vec<u32> {
        let sim = Sim::with_shake(shake);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for id in 0..tasks {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.sleep(10).await;
                log.borrow_mut().push(id);
            });
        }
        sim.run().unwrap();
        Rc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn shake_off_keeps_fifo_tie_order() {
        assert_eq!(tie_order(ShakePolicy::Off, 8), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shaken_ties_are_deterministic_per_seed() {
        let mut permuted = false;
        for seed in 1..=16u64 {
            let shake = ShakePolicy::Seeded(seed);
            let order = tie_order(shake, 8);
            // Same seed ⇒ identical order on a re-run.
            assert_eq!(order, tie_order(shake, 8));
            // It is still a permutation of the same event multiset.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
            permuted |= order != (0..8).collect::<Vec<_>>();
        }
        assert!(permuted, "16 seeds never permuted an 8-way tie");
    }

    #[test]
    fn shaken_runs_preserve_time_order_across_epochs() {
        // Shaking permutes same-cycle ties only; events at distinct cycles
        // (including overflow-heap epochs) must still dispatch in time
        // order, and per-seed determinism must hold across re-runs.
        for seed in [3u64, 41] {
            let mut runs = Vec::new();
            for _ in 0..2 {
                let sim = Sim::with_shake(ShakePolicy::Seeded(seed));
                let log: Rc<RefCell<Vec<(u32, Cycle)>>> = Rc::default();
                for (id, period) in [(0u32, 7u64), (1, 300), (2, 70_000)] {
                    let h = sim.handle();
                    let log = Rc::clone(&log);
                    sim.spawn(async move {
                        for _ in 0..3 {
                            h.sleep(period).await;
                            log.borrow_mut().push((id, h.now()));
                        }
                    });
                }
                sim.run().unwrap();
                let log = Rc::try_unwrap(log).unwrap().into_inner();
                let mut sorted = log.clone();
                sorted.sort_by_key(|&(_, at)| at);
                assert_eq!(log, sorted, "dispatch must follow time order");
                runs.push(log);
            }
            assert_eq!(runs[0], runs[1], "seed {seed} differs across re-runs");
        }
    }

    #[test]
    fn shake_policy_seed_accessor() {
        assert_eq!(ShakePolicy::Off.seed(), None);
        assert_eq!(ShakePolicy::Seeded(9).seed(), Some(9));
        assert_eq!(ShakePolicy::default(), ShakePolicy::Off);
    }

    #[test]
    fn parked_tasks_lists_waiters_with_their_records() {
        let sim = Sim::new();
        let h = sim.handle();
        let probe = h.clone();
        let gate = h.gate();
        let seen: Rc<RefCell<Vec<BlockedTask>>> = Rc::default();
        let seen2 = Rc::clone(&seen);
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(3).await;
                h.set_wait_info(WaitInfo {
                    label: 5,
                    resource: 0x40,
                    target: 1,
                    kind: "missing-version",
                    holder: None,
                });
                gate.wait().await;
            });
        }
        sim.spawn(async move {
            probe.sleep(10).await;
            // The prober itself is checked out while being polled, so only
            // the parked task is reported.
            *seen2.borrow_mut() = probe.parked_tasks();
            gate.open();
        });
        sim.run().unwrap();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].task, 0);
        assert_eq!(seen[0].since, Some(3));
        assert_eq!(seen[0].info.as_ref().map(|w| w.label), Some(5));
    }

    /// One step of a queue-level program for the differential test below.
    #[derive(Debug, Clone, Copy)]
    enum QueueOp {
        /// Push an event for `task` at `delay` cycles after `now`. `tie` is
        /// used only when shaking is on; FIFO ties are `seq`.
        Push {
            delay: u64,
            tie: u64,
            task: TaskId,
        },
        /// Pop the next event; a live one moves `now` to its cycle, a dead
        /// one (its task completed) leaves `now` where it was.
        Pop {
            live: bool,
        },
        /// Check `min_cycle` against the reference heap's top.
        Peek,
        /// Move `now` ahead by `delay` without a pop, as an inline resume
        /// does — only when that stays strictly before every queued event.
        Advance(u64),
        Clear,
    }

    fn queue_op_strategy() -> impl proptest::strategy::Strategy<Value = QueueOp> {
        use proptest::prelude::*;
        let push = |delays: std::ops::Range<u64>| {
            (delays, any::<u64>(), 0..8usize).prop_map(|(delay, tie, task)| QueueOp::Push {
                delay,
                tie,
                task,
            })
        };
        let wheel = WHEEL_SLOTS as u64;
        prop_oneof![
            // The current cycle and the next few: same-bucket pushes,
            // often behind a bucket's consumed head.
            push(0..4),
            push(0..4),
            // Anywhere in the near wheel, or just past its end.
            push(0..2 * wheel),
            // Far overflow, several epochs out.
            push(wheel..40 * wheel),
            // One pop in four is a dead event's.
            (0..4u8).prop_map(|r| QueueOp::Pop { live: r != 0 }),
            (0..4u8).prop_map(|r| QueueOp::Pop { live: r != 0 }),
            (0..4u8).prop_map(|r| QueueOp::Pop { live: r != 0 }),
            Just(QueueOp::Peek),
            // Inline resumes within the wheel and across epochs.
            (0..2 * wheel).prop_map(QueueOp::Advance),
            (wheel..40 * wheel).prop_map(QueueOp::Advance),
            (0..16u8).prop_map(|r| if r == 0 {
                QueueOp::Clear
            } else {
                QueueOp::Peek
            }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The calendar queue pops exactly what the reference
        /// `BinaryHeap<Reverse<(Cycle, u64, u64, TaskId)>>` pops, under the
        /// same contract `Inner` keeps: pushes never target a cycle before
        /// `now`, which moves to each popped live event's cycle and, by
        /// inline resume, ahead to any cycle strictly before every queued
        /// event. A dead pop leaves `now` behind, and no task runs until
        /// the next live pop, so nothing pushes or resumes inline until
        /// then, or until a pop finds the queue empty and `run` re-anchors
        /// it with `clear(now)`. `Sim` reaches its queue only through
        /// `push`, `pop`, `min_cycle` and `clear`, so this is the whole
        /// equivalence.
        #[test]
        fn calendar_queue_matches_binary_heap(
            shaken in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(queue_op_strategy(), 0..400),
        ) {
            let mut cal = CalendarQueue::new(shaken);
            let mut heap: BinaryHeap<Reverse<(Cycle, u64, u64, TaskId)>> = BinaryHeap::new();
            let (mut now, mut seq): (Cycle, u64) = (0, 0);
            // Set by a dead pop: no task is running, so nothing pushes.
            let mut between_live = false;
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    QueueOp::Push { .. } | QueueOp::Advance(_) if between_live => {}
                    QueueOp::Push { delay, tie, task } => {
                        let tie = if shaken { tie } else { seq };
                        cal.push(now + delay, tie, seq, task);
                        heap.push(Reverse((now + delay, tie, seq, task)));
                        seq += 1;
                    }
                    QueueOp::Pop { live } => {
                        let want = heap.pop().map(|Reverse((at, _, _, task))| (at, task));
                        proptest::prop_assert_eq!(cal.pop(), want, "pop diverged at op {}", i);
                        match want {
                            Some((at, _)) if live => now = at,
                            Some(_) => {}
                            None => cal.clear(now),
                        }
                        between_live = !live && want.is_some();
                    }
                    QueueOp::Peek => {
                        let want = heap.peek().map(|&Reverse((at, _, _, _))| at);
                        proptest::prop_assert_eq!(cal.min_cycle(), want, "peek diverged at op {}", i);
                    }
                    QueueOp::Advance(delay) => {
                        let at = now + delay;
                        if heap.peek().is_none_or(|&Reverse((next, _, _, _))| at < next) {
                            now = at;
                        }
                    }
                    QueueOp::Clear => {
                        cal.clear(now);
                        heap.clear();
                        between_live = false;
                    }
                }
                proptest::prop_assert_eq!(cal.len(), heap.len(), "len diverged at op {}", i);
            }
            while let Some(Reverse((at, _, _, task))) = heap.pop() {
                proptest::prop_assert_eq!(cal.pop(), Some((at, task)), "drain diverged");
            }
            proptest::prop_assert_eq!(cal.pop(), None);
        }
    }
}
