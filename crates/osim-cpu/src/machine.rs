//! A simulated multicore machine (Table II).

use std::cell::RefCell;
use std::rc::Rc;

use osim_engine::{Cycle, EngineStats, Gate, RunError, ShakePolicy, Sim};
use osim_mem::{EventLog, Fault, FxHashMap, HierarchyCfg, MemSys};
use osim_metrics::Histogram;
use osim_uarch::{OManager, OManagerCfg};

use crate::alloc::SimAlloc;
use crate::capture::{CaptureCfg, DepEdge, Sample, SampleBase, Sampler};
use crate::ctx::TaskCtx;
use crate::error::{DeadlockReport, SimError, TaskFault, WatchdogReport};
use crate::runtime::{self, TaskFn};
use crate::stats::{CpuStats, RunHists};
use crate::trace::TraceRecord;

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineCfg {
    /// Number of cores.
    pub cores: usize,
    /// Cache hierarchy (Table II defaults via [`HierarchyCfg::paper`]).
    pub hier: HierarchyCfg,
    /// O-structure manager configuration.
    pub omgr: OManagerCfg,
    /// Simulated RAM budget in bytes.
    pub ram_bytes: u64,
    /// Superscalar issue width (Table II: 2-way in-order).
    pub issue_width: u64,
    /// Instruction cost charged for one runtime `malloc`/`free` call.
    pub malloc_instrs: u64,
    /// Progress-based livelock watchdog: if no task retires work for this
    /// many cycles, the run aborts with [`SimError::Watchdog`] and a
    /// diagnostic dump of every parked task. `None` disables it (the
    /// default — deterministic timing is unaffected).
    pub watchdog_cycles: Option<u64>,
    /// Same-cycle tie-break policy (default [`ShakePolicy::Off`]). A seeded
    /// shake changes simulated interleavings — deterministically per seed —
    /// and is meant for the stress harness.
    pub shake: ShakePolicy,
    /// Causal-observability capture (dependency edges + interval
    /// telemetry). Default: everything off; capture is host-side
    /// observation only and never changes simulated timing.
    pub capture: CaptureCfg,
}

impl MachineCfg {
    /// The paper's platform with `cores` cores.
    pub fn paper(cores: usize) -> Self {
        MachineCfg {
            cores,
            hier: HierarchyCfg::paper(cores),
            omgr: OManagerCfg::default(),
            // The paper lists 64 GB; a 32-bit physical space caps at 4 GiB,
            // which every workload fits in comfortably.
            ram_bytes: 1 << 32,
            issue_width: 2,
            malloc_instrs: 40,
            watchdog_cycles: None,
            shake: ShakePolicy::default(),
            capture: CaptureCfg::default(),
        }
    }
}

/// Mutable machine state shared by all cores.
pub struct MachineState {
    /// Memory system (caches, physical memory, page table).
    pub ms: MemSys,
    /// O-structure manager.
    pub omgr: OManager,
    /// Runtime allocator.
    pub alloc: SimAlloc,
    /// Core-side statistics.
    pub cpu: CpuStats,
    /// Per-O-structure wait gates (keyed by root virtual address).
    pub(crate) gates: FxHashMap<u32, Gate>,
    /// Optional per-operation execution trace (bounded ring; disabled
    /// unless [`Machine::enable_trace`] arms it).
    pub trace: EventLog<TraceRecord>,
    /// Captured producer→consumer dependency edges (bounded ring;
    /// disabled unless [`MachineCfg::capture`] arms it).
    pub deps: EventLog<DepEdge>,
    /// Captured interval-telemetry samples (bounded ring).
    pub timeseries: EventLog<Sample>,
    /// Simulated cycles each task ran from `TASK-BEGIN` to completion (the
    /// static scheduler's run-quantum lengths); reset with the other stats.
    pub hist_run_quantum: Histogram,
    pub(crate) sampler: Sampler,
    pub(crate) issue_width: u64,
    pub(crate) malloc_instrs: u64,
    /// First architectural fault recorded by a task before it halted the
    /// engine; drained by [`Machine::run_tasks`].
    pub(crate) fault: Option<TaskFault>,
}

impl MachineState {
    /// Per-operation choke point: stamps the hierarchy and page-table
    /// clocks and advances interval telemetry. Host-side only — this runs
    /// inside machine-state borrows the issuing core already holds and
    /// never schedules simulation events.
    pub(crate) fn tick(&mut self, now: Cycle) {
        self.ms.hier.set_clock(now);
        self.ms.pt.set_clock(now);
        if self.sampler.every != 0 && now >= self.sampler.next_at {
            // Emit at the highest grid boundary ≤ now: a time step that
            // jumps several epochs yields one sample covering the jump.
            let boundary = (now / self.sampler.every) * self.sampler.every;
            self.push_sample(boundary);
            self.sampler.next_at = boundary + self.sampler.every;
        }
    }

    /// Running counter totals the sampler diffs against.
    fn sample_totals(&self) -> SampleBase {
        let m = &self.ms.hier.stats;
        SampleBase {
            instructions: self.cpu.instructions,
            stalls: self.cpu.stall_by_cause,
            l1_hits: m.l1_hits(),
            l1_misses: m.l1_read_misses.iter().sum::<u64>() + m.l1_write_misses.iter().sum::<u64>(),
            l2_hits: m.l2_hits,
            l2_misses: m.l2_misses,
        }
    }

    fn push_sample(&mut self, at: Cycle) {
        let cur = self.sample_totals();
        let base = self.sampler.base;
        self.timeseries.push(Sample {
            at,
            instructions: cur.instructions - base.instructions,
            stalls: [
                cur.stalls[0] - base.stalls[0],
                cur.stalls[1] - base.stalls[1],
                cur.stalls[2] - base.stalls[2],
                cur.stalls[3] - base.stalls[3],
            ],
            free_blocks: u64::from(self.omgr.free_blocks()),
            l1_hits: cur.l1_hits - base.l1_hits,
            l1_misses: cur.l1_misses - base.l1_misses,
            l2_hits: cur.l2_hits - base.l2_hits,
            l2_misses: cur.l2_misses - base.l2_misses,
        });
        self.sampler.base = cur;
    }

    /// Flushes the final partial epoch at the end of a run phase, so the
    /// timeseries covers the whole run even when it does not end on a
    /// grid boundary. A no-op when nothing advanced since the last sample.
    pub(crate) fn flush_sample(&mut self, now: Cycle) {
        if self.sampler.every == 0 {
            return;
        }
        let cur = self.sample_totals();
        let base = self.sampler.base;
        let changed = cur.instructions != base.instructions
            || cur.stalls != base.stalls
            || cur.l1_hits != base.l1_hits
            || cur.l1_misses != base.l1_misses
            || cur.l2_hits != base.l2_hits
            || cur.l2_misses != base.l2_misses;
        if changed {
            self.push_sample(now);
            self.sampler.next_at = (now / self.sampler.every + 1) * self.sampler.every;
        }
    }
}

/// Timing report for one [`Machine::run_tasks`] phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Simulated cycle at which the phase started.
    pub start: Cycle,
    /// Simulated cycle at which the last task finished.
    pub end: Cycle,
}

impl PhaseReport {
    /// Cycles elapsed during the phase.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// One simulated machine: engine + memory system + O-structure manager.
pub struct Machine {
    sim: Sim,
    state: Rc<RefCell<MachineState>>,
    cfg: MachineCfg,
    next_tid: u32,
}

impl Machine {
    /// Builds a machine; panics if the initial free-list carve fails.
    pub fn new(cfg: MachineCfg) -> Self {
        match Self::try_new(cfg) {
            Ok(m) => m,
            Err(f) => panic!("machine construction failed: {f}"),
        }
    }

    /// Builds a machine, surfacing an initial free-list carve failure
    /// (RAM too small for `initial_free_blocks`) as a typed error.
    pub fn try_new(cfg: MachineCfg) -> Result<Self, Fault> {
        let mut ms = MemSys::new(cfg.hier.clone(), cfg.ram_bytes);
        let omgr = OManager::new(cfg.omgr, &mut ms)?;
        let state = MachineState {
            ms,
            omgr,
            alloc: SimAlloc::new(),
            cpu: CpuStats::for_cores(cfg.cores),
            gates: FxHashMap::default(),
            trace: EventLog::disabled(),
            deps: EventLog::with_capacity(cfg.capture.dep_edges),
            timeseries: if cfg.capture.sample_every > 0 {
                EventLog::with_capacity(cfg.capture.samples)
            } else {
                EventLog::disabled()
            },
            sampler: Sampler {
                every: if cfg.capture.samples > 0 {
                    cfg.capture.sample_every
                } else {
                    0
                },
                next_at: cfg.capture.sample_every.max(1),
                base: SampleBase::default(),
            },
            hist_run_quantum: Histogram::new(),
            issue_width: cfg.issue_width,
            malloc_instrs: cfg.malloc_instrs,
            fault: None,
        };
        Ok(Machine {
            sim: Sim::with_shake(cfg.shake),
            state: Rc::new(RefCell::new(state)),
            cfg,
            next_tid: 1,
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cfg.cores
    }

    /// The configuration this machine was built with.
    pub fn cfg(&self) -> &MachineCfg {
        &self.cfg
    }

    /// Shared machine state (memory, manager, statistics).
    pub fn state(&self) -> Rc<RefCell<MachineState>> {
        Rc::clone(&self.state)
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.sim.now()
    }

    /// The task id that the next [`Machine::run_tasks`] phase will assign to
    /// its first task. Workload harnesses use this to precompute the entry
    /// versions of their in-order root protocol.
    pub fn next_tid(&self) -> u32 {
        self.next_tid
    }

    /// A context pinned to `core` with task id `tid` — for direct use in
    /// tests and single-task programs. Most code goes through
    /// [`Machine::run_tasks`] instead.
    pub fn ctx(&self, core: usize, tid: u32) -> TaskCtx {
        assert!(core < self.cfg.cores, "core {core} out of range");
        TaskCtx::new(core, tid, Rc::clone(&self.state), self.sim.handle())
    }

    /// Engine-side counters (events dispatched, stale wakes skipped).
    pub fn engine_stats(&self) -> EngineStats {
        self.sim.stats()
    }

    /// Every layer's latency histograms, gathered into one snapshot
    /// (engine gate waits, MVM walks/GC pauses, cache access latencies,
    /// and task run quanta). All simulated-cycle quantities.
    ///
    /// Every L1 hit costs the configured hit latency, so `l1_access` is
    /// built here from the hit counters instead of being recorded per hit.
    pub fn run_hists(&self) -> RunHists {
        let st = self.state.borrow();
        let eng = self.sim.hists();
        let mut l1_access = Histogram::new();
        l1_access.record_n(st.ms.hier.cfg().l1.hit_latency, st.ms.hier.stats.l1_hits());
        RunHists {
            gate_wait: eng.gate_wait,
            wake_fanout: eng.wake_fanout,
            version_walk: st.omgr.hists.version_walk.clone(),
            gc_pause: st.omgr.hists.gc_pause.clone(),
            l1_access,
            l2_access: st.ms.hier.hists.l2_access.clone(),
            coherence_delay: st.ms.hier.hists.coherence_delay.clone(),
            run_quantum: st.hist_run_quantum.clone(),
        }
    }

    /// Runs `tasks` to completion under the static scheduler: task `i` is
    /// assigned to core `i % cores`, tasks on one core run in order, and
    /// task ids continue from previous phases (so versions stay monotonic
    /// across population and measurement phases).
    ///
    /// Returns the phase timing, or a typed [`SimError`]: a deadlock blame
    /// report naming every blocked task's `(va, version)` wait target, an
    /// architectural fault with the issuing task's coordinates, or a
    /// watchdog dump when the configured progress window elapses without
    /// any task retiring work.
    pub fn run_tasks(&mut self, tasks: Vec<TaskFn>) -> Result<PhaseReport, SimError> {
        let first_tid = self.next_tid;
        self.next_tid += tasks.len() as u32;
        let start = self.sim.now();
        runtime::spawn_static(
            &self.sim,
            Rc::clone(&self.state),
            self.cfg.cores,
            first_tid,
            tasks,
        );
        let watchdog_fired: Rc<RefCell<Option<WatchdogReport>>> = Rc::default();
        if let Some(window) = self.cfg.watchdog_cycles {
            let h = self.sim.handle();
            let st = Rc::clone(&self.state);
            let fired = Rc::clone(&watchdog_fired);
            self.sim.spawn(async move {
                let mut last = progress_probe(&st);
                loop {
                    h.sleep(window).await;
                    if h.live_tasks() <= 1 {
                        return; // only the watchdog itself is left
                    }
                    let cur = progress_probe(&st);
                    if cur == last {
                        *fired.borrow_mut() = Some(WatchdogReport {
                            now: h.now(),
                            idle_cycles: window,
                            parked: h.parked_tasks(),
                        });
                        h.request_halt();
                        return;
                    }
                    last = cur;
                }
            });
        }
        match self.sim.run() {
            Ok(end) => {
                // Close out the interval telemetry for this phase.
                self.state.borrow_mut().flush_sample(end);
                Ok(PhaseReport { start, end })
            }
            Err(RunError::Deadlock { now, blocked }) => {
                let mut report = DeadlockReport::build(now, blocked);
                // When dependency capture is armed, name each blamed
                // waiter's missing producer from the captured edges.
                let deps = self.state.borrow().deps.records();
                report.link_producers(&deps);
                Err(SimError::Deadlock(report))
            }
            Err(RunError::Halted { now }) => {
                let fault = self.state.borrow_mut().fault.take();
                match (fault, watchdog_fired.borrow_mut().take()) {
                    (Some(f), _) => Err(SimError::Fault(f)),
                    (None, Some(w)) => Err(SimError::Watchdog(w)),
                    // Halt requested through the raw engine handle: report
                    // it as a watchdog-style dump with what we know.
                    (None, None) => Err(SimError::Watchdog(WatchdogReport {
                        now,
                        idle_cycles: 0,
                        parked: Vec::new(),
                    })),
                }
            }
        }
    }

    /// Enables cross-layer tracing with bounded buffers (records beyond
    /// `capacity` are counted but dropped): per-operation records at the
    /// core ([`crate::trace`]), demand-access and coherence events at the
    /// hierarchy, and free-list/GC events at the version manager.
    pub fn enable_trace(&self, capacity: usize) {
        let mut st = self.state.borrow_mut();
        st.trace = EventLog::with_capacity(capacity);
        st.ms.hier.events = EventLog::with_capacity(capacity);
        st.omgr.events = EventLog::with_capacity(capacity);
        st.ms.pt.enable_walk_events(capacity);
    }

    /// Resets every statistics counter (cpu, memory, manager) — used
    /// between the warm-up and measurement phases of an experiment. Also
    /// clears the capture rings and re-bases the interval sampler, so a
    /// measurement phase starts with an empty causal record.
    pub fn reset_stats(&self) {
        let mut st = self.state.borrow_mut();
        st.cpu.reset();
        st.ms.hier.stats.reset();
        st.ms.hier.hists.reset();
        st.omgr.stats.reset();
        st.omgr.hists.reset();
        st.hist_run_quantum.reset();
        self.sim.reset_hists();
        let dep_cap = self.cfg.capture.dep_edges;
        st.deps = EventLog::with_capacity(dep_cap);
        if st.sampler.every > 0 {
            st.timeseries = EventLog::with_capacity(self.cfg.capture.samples);
            st.sampler.base = SampleBase::default();
        }
    }
}

/// Monotone work counter read by the livelock watchdog: any retired
/// instruction, versioned operation or task completion counts as progress.
/// Blocked retries bump none of these, so a wedged run reads as frozen.
fn progress_probe(st: &Rc<RefCell<MachineState>>) -> u64 {
    let st = st.borrow();
    st.cpu.instructions + st.cpu.versioned_ops + st.cpu.tasks_run
}
