//! The task-side instruction interface.

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::rc::Rc;

use osim_engine::{Cycle, Gate, SimHandle, WaitInfo, WakeOrigin};
use osim_mem::{AccessKind, Fault};
use osim_uarch::{BlockReason, OpOutcome, TaskId, Version};

use crate::capture::DepEdge;
use crate::error::TaskFault;
use crate::machine::MachineState;
use crate::stats::StallCause;
use crate::trace::{OpKind, TraceRecord};

/// The instruction interface one task programs against.
///
/// Every method models one or more instructions of the paper's extended
/// ISA. Memory operations suspend the issuing core for the exact modeled
/// latency; the blocking O-structure flavours additionally park the core on
/// the structure's wait gate until a `STORE-VERSION`/`UNLOCK-VERSION`
/// arrives, charging the wait as stall cycles.
///
/// Faults (protection violations, double-stores, exhausted version-block
/// storage, …) abort the simulation *gracefully*: the fault is recorded
/// with the issuing task's coordinates, the engine is halted, and
/// [`crate::Machine::run_tasks`] surfaces it as
/// [`crate::SimError::Fault`] — in hardware the OS would kill the process.
#[derive(Clone)]
pub struct TaskCtx {
    core: usize,
    tid: u32,
    st: Rc<RefCell<MachineState>>,
    h: SimHandle,
    /// One-shot tag: the next versioned operation is a data-structure root
    /// entry (for the §IV-D root-stall statistics).
    root_tag: Rc<Cell<bool>>,
}

impl TaskCtx {
    pub(crate) fn new(core: usize, tid: u32, st: Rc<RefCell<MachineState>>, h: SimHandle) -> Self {
        TaskCtx {
            core,
            tid,
            st,
            h,
            root_tag: Rc::new(Cell::new(false)),
        }
    }

    /// The core this task runs on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// This task's id (doubles as its version under the runtime rules).
    pub fn tid(&self) -> TaskId {
        self.tid
    }

    /// A context identical to this one but with a different task id.
    pub fn with_tid(&self, tid: TaskId) -> TaskCtx {
        TaskCtx {
            tid,
            root_tag: Rc::new(Cell::new(false)),
            ..self.clone()
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.h.now()
    }

    /// Records an architectural fault and halts the simulation; the caller's
    /// future is never resumed (the engine stops dispatching events), so the
    /// return type is uninhabited — divergence is expressed as
    /// `match ctx.fault_abort(..).await {}`.
    async fn fault_abort(&self, va: u32, fault: Fault) -> Infallible {
        {
            let mut st = self.st.borrow_mut();
            if st.fault.is_none() {
                st.fault = Some(TaskFault {
                    tid: self.tid,
                    core: self.core,
                    va,
                    cycle: self.h.now(),
                    fault,
                });
            }
        }
        self.h.request_halt();
        std::future::pending().await
    }

    /// The engine handle (for gates and sleeps in test harnesses).
    pub fn handle(&self) -> &SimHandle {
        &self.h
    }

    // ------------------------------------------------------------------
    // Plain computation
    // ------------------------------------------------------------------

    /// Executes `instrs` non-memory instructions on this 2-way in-order
    /// core: `ceil(instrs / issue_width)` cycles.
    pub async fn work(&self, instrs: u64) {
        let (cycles, traced) = {
            let mut st = self.st.borrow_mut();
            st.cpu.instructions += instrs;
            st.cpu.core_mut(self.core).instructions += instrs;
            (instrs.div_ceil(st.issue_width), st.trace.enabled())
        };
        self.h.sleep(cycles).await;
        if traced {
            self.trace(OpKind::Work, 0, 0, self.h.now() - cycles, None);
        }
    }

    // ------------------------------------------------------------------
    // Conventional memory
    // ------------------------------------------------------------------

    /// Conventional 32-bit load.
    pub async fn load_u32(&self, va: u32) -> u32 {
        let now = self.h.now();
        let (res, traced) = {
            let mut st = self.st.borrow_mut();
            st.tick(now);
            let traced = st.trace.enabled();
            let MachineState { ms, cpu, .. } = &mut *st;
            let res = ms.pt.translate_conventional(va).map(|pa| {
                let acc = ms.hier.access(self.core, pa, AccessKind::Read);
                cpu.instructions += 1;
                cpu.loads += 1;
                cpu.core_mut(self.core).instructions += 1;
                (acc.latency, ms.phys.read_u32(pa))
            });
            (res, traced)
        };
        let (latency, val) = match res {
            Ok(x) => x,
            Err(f) => match self.fault_abort(va, f).await {},
        };
        self.h.sleep(latency).await;
        if traced {
            self.trace(OpKind::Load, va, 0, now, None);
        }
        val
    }

    /// Conventional 32-bit store.
    pub async fn store_u32(&self, va: u32, val: u32) {
        let now = self.h.now();
        let (res, traced) = {
            let mut st = self.st.borrow_mut();
            st.tick(now);
            let traced = st.trace.enabled();
            let MachineState { ms, cpu, .. } = &mut *st;
            let res = ms.pt.translate_conventional(va).map(|pa| {
                let acc = ms.hier.access(self.core, pa, AccessKind::Write);
                cpu.instructions += 1;
                cpu.stores += 1;
                cpu.core_mut(self.core).instructions += 1;
                ms.phys.write_u32(pa, val);
                acc.latency
            });
            (res, traced)
        };
        let latency = match res {
            Ok(l) => l,
            Err(f) => match self.fault_abort(va, f).await {},
        };
        self.h.sleep(latency).await;
        if traced {
            self.trace(OpKind::Store, va, 0, now, None);
        }
    }

    /// Atomic compare-and-swap on a conventional word. Returns the value
    /// observed before the operation (success ⇔ it equals `expected`).
    pub async fn cas_u32(&self, va: u32, expected: u32, new: u32) -> u32 {
        let now = self.h.now();
        let (res, traced) = {
            let mut st = self.st.borrow_mut();
            st.tick(now);
            let traced = st.trace.enabled();
            let MachineState { ms, cpu, .. } = &mut *st;
            let res = ms.pt.translate_conventional(va).map(|pa| {
                let acc = ms.hier.access(self.core, pa, AccessKind::Write);
                cpu.instructions += 1;
                cpu.cas_ops += 1;
                cpu.core_mut(self.core).instructions += 1;
                let old = ms.phys.read_u32(pa);
                if old == expected {
                    ms.phys.write_u32(pa, new);
                }
                (acc.latency, old)
            });
            (res, traced)
        };
        let (latency, old) = match res {
            Ok(x) => x,
            Err(f) => match self.fault_abort(va, f).await {},
        };
        self.h.sleep(latency).await;
        if traced {
            self.trace(OpKind::Cas, va, 0, now, None);
        }
        old
    }

    // ------------------------------------------------------------------
    // O-structure operations
    // ------------------------------------------------------------------

    /// Tags the *next* versioned operation as a data-structure root entry,
    /// feeding the §IV-D root-stall statistics.
    pub fn tag_root(&self) {
        self.root_tag.set(true);
    }

    /// `LOAD-VERSION`: blocks until version `v` exists and is unlocked.
    pub async fn load_version(&self, va: u32, v: Version) -> u32 {
        self.versioned_load(va, v, false, false).await.1
    }

    /// `LOAD-LATEST`: blocks until some version ≤ `cap` exists, unlocked.
    /// Returns `(version, value)`.
    pub async fn load_latest(&self, va: u32, cap: Version) -> (Version, u32) {
        self.versioned_load(va, cap, true, false).await
    }

    /// `LOCK-LOAD-VERSION`: exact load + lock as this task.
    pub async fn lock_load_version(&self, va: u32, v: Version) -> u32 {
        self.versioned_load(va, v, false, true).await.1
    }

    /// `LOCK-LOAD-LATEST`: capped load + lock as this task.
    /// Returns `(version, value)` — the version is needed for the matching
    /// `UNLOCK-VERSION`.
    pub async fn lock_load_latest(&self, va: u32, cap: Version) -> (Version, u32) {
        self.versioned_load(va, cap, true, true).await
    }

    async fn versioned_load(
        &self,
        va: u32,
        v: Version,
        latest: bool,
        lock: bool,
    ) -> (Version, u32) {
        let root = self.root_tag.take();
        // Issue cycle of the current attempt; the first one starts the op.
        let mut now = self.h.now();
        let op_start = now;
        let mut traced = false;
        // Stall cycles the last wake-up left to charge, under the next
        // attempt's borrow; `None` before the first attempt.
        let mut stall_due: Option<(StallCause, Cycle)> = None;
        // Cause of the most recent blocked attempt (None = never stalled).
        let mut last_stall: Option<StallCause> = None;
        // Holder of the contended version at the last blocked attempt
        // (0 = none), for deadlock blame reports.
        let mut blocked_holder: TaskId = 0;
        // Dependency-flow capture across retries: when the op first
        // blocked, total blocked cycles, and the wake that released the
        // final (satisfying) retry.
        let mut first_block_at: Option<Cycle> = None;
        let mut total_waited: Cycle = 0;
        let mut last_wake: Option<(WakeOrigin, Cycle)> = None;
        // Injected delivery delay of the invalidation behind a
        // coherence-attributed block (fault injection only).
        let mut coh_extra: u64 = 0;
        loop {
            let res = {
                let mut st = self.st.borrow_mut();
                match stall_due.take() {
                    Some((cause, waited)) => st.cpu.charge_stall(self.core, cause, waited),
                    None => {
                        st.cpu.versioned_ops += 1;
                        st.cpu.versioned_loads += 1;
                        st.cpu.core_mut(self.core).versioned_ops += 1;
                        if root {
                            st.cpu.root_loads += 1;
                        }
                        traced = st.trace.enabled();
                    }
                }
                st.tick(now);
                let MachineState { ms, omgr, .. } = &mut *st;
                let r = match (latest, lock) {
                    (false, false) => omgr.load_version(ms, self.core, va, v),
                    (true, false) => omgr.load_latest(ms, self.core, va, v),
                    (false, true) => omgr.lock_load_version(ms, self.core, va, v, self.tid),
                    (true, true) => omgr.lock_load_latest(ms, self.core, va, v, self.tid),
                };
                if let Ok(OpOutcome::Blocked { reason, holder, .. }) = r {
                    // Attribute the coming stall while the manager's view
                    // is current: a block right after another core's
                    // mutation invalidated our compressed line is charged
                    // to coherence, not to the version state.
                    let cause = if omgr.take_coherence_lost(ms, self.core, va) {
                        StallCause::CoherenceInval
                    } else {
                        match reason {
                            BlockReason::VersionAbsent => StallCause::MissingVersion,
                            BlockReason::VersionLocked => StallCause::LockedVersion,
                        }
                    };
                    coh_extra = if cause == StallCause::CoherenceInval {
                        omgr.coherence_delay_penalty()
                    } else {
                        0
                    };
                    last_stall = Some(cause);
                    blocked_holder = holder;
                }
                r
            };
            let out = match res {
                Ok(out) => out,
                Err(f) => match self.fault_abort(va, f).await {},
            };
            match out {
                OpOutcome::Done {
                    value,
                    version,
                    latency,
                } => {
                    self.h.sleep(latency).await;
                    if let Some(cause) = last_stall {
                        let mut st = self.st.borrow_mut();
                        st.cpu.versioned_loads_stalled += 1;
                        if root {
                            st.cpu.root_loads_stalled += 1;
                        }
                        // Record the producer→consumer edge for the wake
                        // that satisfied this load (observation only; see
                        // `capture` module docs).
                        if let Some((origin, woken_at)) = last_wake {
                            st.deps.push(DepEdge {
                                va,
                                awaited: v,
                                resolved: version,
                                cause,
                                consumer_tid: self.tid,
                                consumer_core: self.core as u32,
                                producer_tid: (origin.label >> 32) as u32,
                                producer_core: origin.label as u32,
                                produced_at: origin.at,
                                blocked_at: first_block_at.unwrap_or(woken_at),
                                woken_at,
                                waited: total_waited,
                            });
                        }
                    }
                    if traced {
                        let kind = if lock {
                            OpKind::VersionedLockLoad
                        } else {
                            OpKind::VersionedLoad
                        };
                        self.trace(kind, va, version, op_start, last_stall);
                    }
                    // A successful lock changes the structure's state;
                    // nothing can be *unblocked* by it, so no wake-up.
                    return (version, value);
                }
                OpOutcome::Blocked {
                    reason, latency, ..
                } => {
                    let cause = match last_stall {
                        Some(c) => c,
                        None => unreachable!("blocked attempt recorded its cause"),
                    };
                    let stall_start = now;
                    // Register what we are about to block on, so a deadlock
                    // or watchdog report can name the wait target. The kind
                    // is the *structural* wait-for edge (the manager's block
                    // reason), not the stall-cause attribution: a block whose
                    // cycles are charged to coherence is still waiting on the
                    // version's state.
                    self.h.set_wait_info(WaitInfo {
                        label: u64::from(self.tid),
                        resource: u64::from(va),
                        target: u64::from(v),
                        kind: match reason {
                            BlockReason::VersionAbsent => "missing-version",
                            BlockReason::VersionLocked => "locked-version",
                        },
                        holder: (blocked_holder != 0).then_some(u64::from(blocked_holder)),
                    });
                    // Take the ticket *now*, before sleeping off the failed
                    // attempt's latency: a store/unlock landing during that
                    // sleep must still wake us. An injected coherence delay
                    // stretches the failed attempt (the invalidation's
                    // effect arrives late), not the wake-up.
                    let ticket = self.gate_for(va).ticket();
                    self.h.sleep(latency + coh_extra).await;
                    let origin = ticket.await;
                    self.h.clear_wait_info();
                    now = self.h.now();
                    first_block_at.get_or_insert(stall_start);
                    last_wake = Some((origin, now));
                    let waited = now - stall_start;
                    total_waited += waited;
                    stall_due = Some((cause, waited));
                }
            }
        }
    }

    /// `STORE-VERSION`: creates version `v` holding `val` and wakes any
    /// task stalled on this O-structure.
    pub async fn store_version(&self, va: u32, v: Version, val: u32) {
        let now = self.h.now();
        let (res, traced) = {
            let mut st = self.st.borrow_mut();
            st.cpu.versioned_ops += 1;
            st.cpu.core_mut(self.core).versioned_ops += 1;
            st.tick(now);
            let traced = st.trace.enabled();
            let MachineState { ms, omgr, cpu, .. } = &mut *st;
            let res = omgr.store_version(ms, self.core, va, v, val).map(|out| {
                // Any OS refill-trap cycles inside that latency are stall
                // time attributable to the free-list/GC machinery.
                let trap = omgr.take_trap_cycles();
                if trap > 0 {
                    cpu.charge_stall(self.core, StallCause::FreeListGc, trap);
                }
                (out.latency(), trap)
            });
            (res, traced)
        };
        let (latency, trap) = match res {
            Ok(x) => x,
            Err(f) => match self.fault_abort(va, f).await {},
        };
        self.h.sleep(latency).await;
        if traced {
            let stall = (trap > 0).then_some(StallCause::FreeListGc);
            self.trace(OpKind::VersionedStore, va, v, now, stall);
        }
        self.open_gate(va);
    }

    /// `UNLOCK-VERSION`: unlocks `vl` (held by this task); with
    /// `create = Some(vn)` also creates unlocked version `vn` carrying the
    /// same value. Wakes stalled tasks.
    pub async fn unlock_version(&self, va: u32, vl: Version, create: Option<Version>) {
        let now = self.h.now();
        let (res, traced) = {
            let mut st = self.st.borrow_mut();
            st.cpu.versioned_ops += 1;
            st.cpu.core_mut(self.core).versioned_ops += 1;
            st.tick(now);
            let traced = st.trace.enabled();
            let MachineState { ms, omgr, cpu, .. } = &mut *st;
            let res = omgr
                .unlock_version(ms, self.core, va, vl, self.tid, create)
                .map(|out| {
                    // A rename (`create`) allocates a version block and may
                    // trap.
                    let trap = omgr.take_trap_cycles();
                    if trap > 0 {
                        cpu.charge_stall(self.core, StallCause::FreeListGc, trap);
                    }
                    (out.latency(), trap)
                });
            (res, traced)
        };
        let (latency, trap) = match res {
            Ok(x) => x,
            Err(f) => match self.fault_abort(va, f).await {},
        };
        self.h.sleep(latency).await;
        if traced {
            let stall = (trap > 0).then_some(StallCause::FreeListGc);
            self.trace(OpKind::Unlock, va, vl, now, stall);
        }
        self.open_gate(va);
    }

    /// Releases an entire O-structure (every version block back to the
    /// free list, root reset to null) and drops the machine's wait gate
    /// for `va` if nobody is parked on it.
    ///
    /// The gate cleanup is what keeps the per-machine gate map bounded:
    /// without it, every O-structure address that ever blocked a task pins
    /// a gate entry for the life of the machine, even after the structure
    /// is freed and its address recycled. Freeing at a quiescent point — the only legal time to call this, per the
    /// manager's contract — means the gate has no waiters and can go.
    /// Returns the number of version blocks freed.
    pub async fn release_structure(&self, va: u32) -> u32 {
        let res = {
            let mut st = self.st.borrow_mut();
            st.tick(self.h.now());
            let MachineState { ms, omgr, .. } = &mut *st;
            let r = omgr.release_structure(ms, va);
            if r.is_ok() {
                // A release is only legal at quiescent points, so the gate
                // (if any) should be idle; a parked waiter means the
                // caller's contract is violated — keep the gate so the
                // waiter can still be woken (or blamed by a deadlock
                // report) instead of silently orphaning it.
                if st.gates.get(&va).is_some_and(|g| g.waiting() == 0) {
                    st.gates.remove(&va);
                }
            }
            r
        };
        match res {
            Ok(freed) => freed,
            Err(f) => match self.fault_abort(va, f).await {},
        }
    }

    // ------------------------------------------------------------------
    // Task lifecycle (TASK-BEGIN / TASK-END)
    // ------------------------------------------------------------------

    /// `TASK-BEGIN`: reports this task as active to the version manager.
    pub fn task_begin(&self) {
        self.st.borrow_mut().omgr.task_begin(self.tid);
    }

    /// `TASK-END`: reports completion; may finalize a GC phase.
    pub fn task_end(&self) {
        let mut st = self.st.borrow_mut();
        st.tick(self.h.now());
        let MachineState { ms, omgr, cpu, .. } = &mut *st;
        omgr.task_end(ms, self.tid);
        cpu.tasks_run += 1;
        cpu.core_mut(self.core).tasks_run += 1;
    }

    // ------------------------------------------------------------------
    // Runtime services
    // ------------------------------------------------------------------

    /// Allocates `bytes` of conventional heap, charging the runtime's
    /// malloc instruction budget.
    pub async fn malloc(&self, bytes: u32) -> u32 {
        let (res, instrs) = {
            let mut st = self.st.borrow_mut();
            let instrs = st.malloc_instrs;
            let MachineState { ms, alloc, .. } = &mut *st;
            (alloc.alloc_data(ms, bytes), instrs)
        };
        let va = match res {
            Ok(va) => va,
            Err(f) => match self.fault_abort(0, f).await {},
        };
        self.work(instrs).await;
        va
    }

    /// Frees a conventional heap allocation.
    pub async fn free(&self, va: u32, bytes: u32) {
        let instrs = {
            let mut st = self.st.borrow_mut();
            st.alloc.free_data(va, bytes);
            st.malloc_instrs
        };
        self.work(instrs).await;
    }

    /// Allocates one fresh O-structure root word (a versioned address with
    /// no versions yet).
    pub async fn malloc_root(&self) -> u32 {
        let (res, instrs) = {
            let mut st = self.st.borrow_mut();
            let instrs = st.malloc_instrs;
            let MachineState { ms, alloc, .. } = &mut *st;
            (alloc.alloc_root(ms), instrs)
        };
        let va = match res {
            Ok(va) => va,
            Err(f) => match self.fault_abort(0, f).await {},
        };
        self.work(instrs).await;
        va
    }

    /// Appends the record of an op issued at `start` that completes now.
    /// Ops read whether tracing is armed inside their own state borrow and
    /// call this, after their sleep, only when it is; `sleep(latency)`
    /// resumes at exactly `issue + latency`, so an un-stalled op's record
    /// spans its latency.
    #[cold]
    fn trace(&self, kind: OpKind, va: u32, version: u32, start: Cycle, stall: Option<StallCause>) {
        self.st.borrow_mut().trace.push(TraceRecord {
            core: self.core,
            tid: self.tid,
            kind,
            va,
            version,
            start,
            end: self.h.now(),
            stall,
        });
    }

    /// Producer identity stamped on wake-ups this task publishes: the
    /// task/core pair packed into the origin label (task ids start at 1,
    /// so a real producer's label is never 0 = unattributed).
    fn wake_origin(&self, at: Cycle) -> WakeOrigin {
        WakeOrigin {
            label: (u64::from(self.tid) << 32) | self.core as u64,
            at,
        }
    }

    fn gate_for(&self, va: u32) -> Gate {
        let mut st = self.st.borrow_mut();
        st.gates.entry(va).or_insert_with(|| self.h.gate()).clone()
    }

    /// Wakes every task parked on `va`'s gate. A gate exists only once
    /// some task has blocked on `va`; without one there is nobody to wake.
    fn open_gate(&self, va: u32) {
        if let Some(gate) = self.st.borrow().gates.get(&va) {
            let now = self.h.now();
            gate.open_at_from(now, self.wake_origin(now));
        }
    }
}
