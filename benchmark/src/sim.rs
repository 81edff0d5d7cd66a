//! The three simulator workloads: job plans, the closed measurement
//! loop, and the per-layer ledger over their reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use osim_cpu::MachineCfg;
use osim_mem::CacheCfg;
use osim_metrics::Histogram;
use osim_workloads::harness::{self, DsCfg};
use osim_workloads::levenshtein::{self, LevCfg};
use osim_workloads::matmul::{self, MatmulCfg};
use osim_workloads::{btree, hashtable, linked_list, rbtree, DsResult};

use crate::calib;
use crate::probes::{run_sim_probes, Shape, SimProbes};
use crate::report::{Outcome, Values};
use crate::splitmix64;
use crate::stats::{mean, median, percentile, sorted, tail};
use crate::trace::Tracer;

/// Seed steps whose reports make up the ledger window: per-layer counts
/// cover exactly these steps, so they repeat for a given seed whatever
/// the host speed. Every run completes at least this many steps.
pub const WINDOW_STEPS: u64 = 4;

/// The run is cut into this many epochs, each beginning with a set-up
/// (input build plus one untimed warm-up job) whose median is reported.
/// Spreading the set-ups over the run keeps a host slowdown lasting a few
/// seconds from touching most of them.
const EPOCHS: u64 = 9;

/// The six benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    LinkedList,
    Btree,
    Hashtable,
    Rbtree,
    Matmul,
    Levenshtein,
}

impl Bench {
    pub const ALL: [Bench; 6] = [
        Bench::LinkedList,
        Bench::Btree,
        Bench::Hashtable,
        Bench::Rbtree,
        Bench::Matmul,
        Bench::Levenshtein,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::LinkedList => "linked_list",
            Bench::Btree => "btree",
            Bench::Hashtable => "hashtable",
            Bench::Rbtree => "rbtree",
            Bench::Matmul => "matmul",
            Bench::Levenshtein => "levenshtein",
        }
    }
}

type DsRun = fn(MachineCfg, &DsCfg) -> DsResult;
type MatmulRun = fn(MachineCfg, &MatmulCfg) -> DsResult;
type LevRun = fn(MachineCfg, &LevCfg) -> DsResult;

enum Input {
    Ds(DsRun, DsCfg),
    Matmul(MatmulRun, MatmulCfg),
    Lev(LevRun, LevCfg),
}

/// One simulation the closed-loop client submits.
pub struct Job {
    pub bench: Bench,
    input: Input,
}

impl Job {
    /// Runs the simulation. The workload checks its own output against a
    /// host-side reference and reports the verdict in `DsResult::ok`.
    pub fn run(&self, mcfg: MachineCfg) -> DsResult {
        match &self.input {
            Input::Ds(f, c) => f(mcfg, c),
            Input::Matmul(f, c) => f(mcfg, c),
            Input::Lev(f, c) => f(mcfg, c),
        }
    }

    /// The irregular-structure inputs, whose generation and reference
    /// replay a traced run times on their own.
    pub fn ds_cfg(&self) -> Option<&DsCfg> {
        match &self.input {
            Input::Ds(_, c) => Some(c),
            _ => None,
        }
    }
}

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Irregular,
    Dataflow,
    Unversioned,
}

fn ds_cfg(large: bool, reads_per_write: u32, seed: u64, smoke: bool) -> DsCfg {
    let mut c = if smoke {
        DsCfg {
            initial: 64,
            ops: 16,
            reads_per_write,
            scan_range: 0,
            key_space: 256,
            seed: 0,
            insert_only: false,
        }
    } else if large {
        DsCfg::large(256, reads_per_write)
    } else {
        DsCfg::small(256, reads_per_write)
    };
    c.seed = seed;
    c
}

impl SimKind {
    pub fn machine(self) -> MachineCfg {
        match self {
            SimKind::Irregular | SimKind::Dataflow => MachineCfg::paper(32),
            SimKind::Unversioned => {
                let mut m = MachineCfg::paper(1);
                m.hier.l1 = CacheCfg::l1_sized(8);
                m
            }
        }
    }

    /// The jobs of seed step `step`: the same mix every step, with inputs
    /// drawn from `(seed, step)`.
    pub fn plan(self, seed: u64, step: u64, smoke: bool) -> Vec<Job> {
        let versioned = self != SimKind::Unversioned;
        let mut stream = seed ^ step.wrapping_mul(0xd1b5_4a32_d192_ed03);
        let mut jobs = Vec::new();
        if self != SimKind::Dataflow {
            let ds: [(Bench, DsRun); 4] = if versioned {
                [
                    (Bench::LinkedList, linked_list::run_versioned),
                    (Bench::Btree, btree::run_versioned),
                    (Bench::Hashtable, hashtable::run_versioned),
                    (Bench::Rbtree, rbtree::run_versioned),
                ]
            } else {
                [
                    (Bench::LinkedList, linked_list::run_unversioned),
                    (Bench::Btree, btree::run_unversioned),
                    (Bench::Hashtable, hashtable::run_unversioned),
                    (Bench::Rbtree, rbtree::run_unversioned),
                ]
            };
            for rpw in [4, 1] {
                for (bench, f) in ds {
                    let cfg = ds_cfg(!versioned, rpw, splitmix64(&mut stream), smoke);
                    jobs.push(Job {
                        bench,
                        input: Input::Ds(f, cfg),
                    });
                }
            }
        }
        if self != SimKind::Irregular {
            let (n, len) = match (smoke, versioned) {
                (true, _) => (6, 12),
                (false, true) => (40, 160),
                (false, false) => (64, 160),
            };
            let (fm, fl): (MatmulRun, LevRun) = if versioned {
                (matmul::run_versioned, levenshtein::run_versioned)
            } else {
                (matmul::run_unversioned, levenshtein::run_unversioned)
            };
            let seed = splitmix64(&mut stream) as u32;
            jobs.push(Job {
                bench: Bench::Matmul,
                input: Input::Matmul(fm, MatmulCfg { n, seed }),
            });
            jobs.push(Job {
                bench: Bench::Levenshtein,
                input: Input::Lev(fl, LevCfg { len, seed }),
            });
        }
        jobs
    }
}

/// Runs a job, turning a panic (a deadlock, a fault, a failed internal
/// assertion) into `None` so it counts as a failure instead of ending
/// the run.
fn run_checked(job: &Job, mcfg: &MachineCfg) -> Option<DsResult> {
    catch_unwind(AssertUnwindSafe(|| job.run(mcfg.clone())))
        .ok()
        .filter(|r| r.ok)
}

/// Per-layer counts and host times summed over the ledger window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub jobs: u64,
    pub cycles: u64,
    pub instructions: u64,
    pub versioned_ops: u64,
    pub stall_cycles: u64,
    pub stall_by_cause: [u64; 4],
    pub per_core_instructions: Vec<u64>,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub coherence_actions: u64,
    pub compressed_hits: u64,
    pub compressed_misses: u64,
    pub direct_hits: u64,
    pub full_lookups: u64,
    pub walk_reads: u64,
    pub stores: u64,
    pub blocks_allocated: u64,
    pub blocks_reclaimed: u64,
    pub refill_traps: u64,
    pub events: u64,
    pub stale_events: u64,
    pub gate_wait: Histogram,
    pub wake_fanout: Histogram,
    /// Host time of each benchmark's simulations, in `Bench::ALL` order.
    pub sim_ns: [u64; 6],
    /// Host time of the traced run's own input generation and reference
    /// replay calls (irregular structures only).
    pub gen_ns: u64,
    pub reference_ns: u64,
}

impl Window {
    fn add(&mut self, bench: Bench, r: &DsResult, sim_ns: u64) {
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        self.jobs += 1;
        self.cycles += r.cycles;
        self.instructions += r.cpu.instructions;
        self.versioned_ops += r.cpu.versioned_ops;
        self.stall_cycles += r.cpu.stall_cycles;
        for (acc, c) in self.stall_by_cause.iter_mut().zip(r.cpu.stall_by_cause) {
            *acc += c;
        }
        if self.per_core_instructions.len() < r.cpu.per_core.len() {
            self.per_core_instructions.resize(r.cpu.per_core.len(), 0);
        }
        for (acc, c) in self.per_core_instructions.iter_mut().zip(&r.cpu.per_core) {
            *acc += c.instructions;
        }
        let m = &r.mem;
        self.l1_hits += sum(&m.l1_read_hits) + sum(&m.l1_write_hits);
        self.l1_misses += sum(&m.l1_read_misses) + sum(&m.l1_write_misses);
        self.l2_misses += m.l2_misses;
        self.coherence_actions += m.remote_forwards + m.invalidations + m.upgrades;
        self.compressed_hits += m.compressed_hits;
        self.compressed_misses += m.compressed_misses;
        let o = &r.ostats;
        self.direct_hits += o.direct_hits;
        self.full_lookups += o.full_lookups;
        self.walk_reads += o.walk_reads;
        self.stores += o.stores;
        self.blocks_allocated += o.allocated_blocks;
        self.blocks_reclaimed += o.reclaimed_blocks;
        self.refill_traps += o.refill_traps;
        self.events += r.engine.events_dispatched;
        self.stale_events += r.engine.stale_events;
        self.gate_wait.merge(&r.hists.gate_wait);
        self.wake_fanout.merge(&r.hists.wake_fanout);
        self.sim_ns[bench as usize] += sim_ns;
    }

    /// Mean version-list blocks read per full lookup.
    pub fn walk_reads_per_lookup(&self) -> f64 {
        ratio(self.walk_reads, self.full_lookups)
    }

    /// The per-layer counts: functions of the simulated work only, so
    /// they repeat exactly for a given seed.
    pub fn counts(&self, v: &mut Values) {
        v.set("engine.events", self.events as f64);
        v.set(
            "engine.stale_frac",
            ratio(self.stale_events, self.events + self.stale_events),
        );
        v.set("engine.gate_waits", self.gate_wait.count() as f64);
        v.set(
            "engine.gate_wait_cycles_p50",
            self.gate_wait.quantile(0.5) as f64,
        );
        v.set("engine.wake_fanout_mean", self.wake_fanout.mean());
        v.set("mem.l1_accesses", (self.l1_hits + self.l1_misses) as f64);
        v.set(
            "mem.l1_miss_frac",
            ratio(self.l1_misses, self.l1_hits + self.l1_misses),
        );
        v.set("mem.l2_misses", self.l2_misses as f64);
        v.set("mem.coherence_actions", self.coherence_actions as f64);
        v.set(
            "mem.compressed_hit_frac",
            ratio(
                self.compressed_hits,
                self.compressed_hits + self.compressed_misses,
            ),
        );
        v.set("uarch.versioned_ops", self.versioned_ops as f64);
        v.set(
            "uarch.direct_hit_frac",
            ratio(self.direct_hits, self.direct_hits + self.full_lookups),
        );
        v.set("uarch.walk_reads_per_lookup", self.walk_reads_per_lookup());
        v.set("uarch.blocks_allocated", self.blocks_allocated as f64);
        v.set("uarch.blocks_reclaimed", self.blocks_reclaimed as f64);
        v.set("uarch.refill_traps", self.refill_traps as f64);
        v.set("cpu.cycles", self.cycles as f64);
        v.set("cpu.instructions", self.instructions as f64);
        v.set("cpu.stall_cycles", self.stall_cycles as f64);
        for (cause, cycles) in osim_cpu::StallCause::ALL.iter().zip(self.stall_by_cause) {
            v.set(format!("cpu.stall_{}", cause.name()), cycles as f64);
        }
        let cores = &self.per_core_instructions;
        let total: u64 = cores.iter().sum();
        let max = cores.iter().copied().max().unwrap_or(0);
        v.set("cpu.work_imbalance", ratio(max * cores.len() as u64, total));
        v.set("workloads.jobs", self.jobs as f64);
    }

    /// The host-time ledger: each layer's estimated host time over the
    /// window (count × probe cost), with what the estimates leave
    /// unexplained reported as the core model's residual. Returns
    /// printable ledger lines, which also give each row's share.
    pub fn ledger(&self, p: &SimProbes, v: &mut Values) -> Vec<String> {
        let base: u64 = self.sim_ns.iter().sum();
        let pct = |ns: f64| {
            if base == 0 {
                0.0
            } else {
                100.0 * ns / base as f64
            }
        };
        let gen = self.gen_ns as f64;
        let reference = self.reference_ns as f64;
        let engine =
            self.events as f64 * p.ns_per_event + self.gate_wait.count() as f64 * p.ns_per_gate_op;
        let mem = self.l1_hits as f64 * p.ns_per_hit + self.l1_misses as f64 * p.ns_per_miss;
        let uarch = self.direct_hits as f64 * p.ns_per_direct_load
            + self.walk_reads as f64 * p.ns_per_walk_step
            + self.stores as f64 * p.ns_per_store;
        let residual = base as f64 - gen - reference - engine - mem - uarch;
        let mut rows = vec![
            ("workloads.gen_ms".to_string(), gen),
            ("workloads.reference_ms".to_string(), reference),
            ("engine.est_ms".to_string(), engine),
            ("mem.est_ms".to_string(), mem),
            ("uarch.est_ms".to_string(), uarch),
            ("cpu.residual_ms".to_string(), residual),
        ];
        for (bench, ns) in Bench::ALL.iter().zip(self.sim_ns) {
            rows.push((format!("workloads.job_ms.{}", bench.name()), ns as f64));
        }
        let mut lines = vec![format!(
            "ledger: {} jobs, {:.1} ms simulation host time",
            self.jobs,
            base as f64 / 1e6
        )];
        for (name, ns) in rows {
            lines.push(format!(
                "ledger {name:28} {:10.1} ms {:6.1} %",
                ns / 1e6,
                pct(ns)
            ));
            v.set(name, ns / 1e6);
        }
        lines
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulator-layer values of a workload that does not drive the
/// simulator: zero counts, probe costs and ledger rows.
pub fn idle_values(v: &mut Values) {
    let (window, probes) = (Window::default(), SimProbes::default());
    window.counts(v);
    probe_values(&probes, v);
    window.ledger(&probes, v);
}

/// Writes the probe costs into `v`.
fn probe_values(p: &SimProbes, v: &mut Values) {
    v.set("engine.ns_per_event", p.ns_per_event);
    v.set("engine.ns_per_gate_op", p.ns_per_gate_op);
    v.set("mem.ns_per_hit", p.ns_per_hit);
    v.set("mem.ns_per_miss", p.ns_per_miss);
    v.set("uarch.ns_per_direct_load", p.ns_per_direct_load);
    v.set("uarch.ns_per_walk_step", p.ns_per_walk_step);
    v.set("uarch.ns_per_store", p.ns_per_store);
}

/// The probe shape for a machine and a window.
fn shape(mcfg: &MachineCfg, w: &Window) -> Shape {
    Shape {
        hier: mcfg.hier.clone(),
        walk_depth: (w.walk_reads_per_lookup().round() as u32).max(1),
    }
}

/// Runs the ledger window alone and returns its counts; what the
/// determinism tests compare.
pub fn window_counts(kind: SimKind, seed: u64, smoke: bool) -> Values {
    let mcfg = kind.machine();
    let mut w = Window::default();
    for step in 0..WINDOW_STEPS {
        for job in kind.plan(seed, step, smoke) {
            let r = run_checked(&job, &mcfg).expect("window job validates");
            w.add(job.bench, &r, 0);
        }
    }
    let mut v = Values::default();
    w.counts(&mut v);
    v
}

/// Step index of the warm-up job's inputs, far from any measured step;
/// every set-up repeats the same work.
const WARMUP_STEP: u64 = u64::MAX / 2;

/// Runs the calibration kernel inside a `calibrate` span; returns its
/// duration in nanoseconds.
fn calibrate(tr: &mut Tracer, parent: Option<usize>, id: u64) -> f64 {
    let t0 = Instant::now();
    let ns = calib::kernel_ns();
    tr.record("calibrate", parent, id, t0, Instant::now());
    ns
}

/// Runs one simulator workload: `EPOCHS` times a set-up followed by
/// `seconds / EPOCHS` of measured steps, as one client submitting jobs
/// serially. Every set-up and every job is preceded by the calibration
/// kernel, and its timing is scaled to the reference host (see
/// [`calib`]).
pub fn run(kind: SimKind, seed: u64, seconds: f64, smoke: bool, tr: &mut Tracer) -> Outcome {
    let mcfg = kind.machine();
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut kernel_ns = Vec::new();
    let mut window = Window::default();
    // Simulated instructions and adjusted per-job speed (instructions per
    // reference-host ns) of each job, by position in the plan (its job
    // class), and the plain instructions and host time of all jobs.
    let classes = kind.plan(seed, 0, smoke).len();
    let mut class_instr = vec![Vec::new(); classes];
    let mut class_rate = vec![Vec::new(); classes];
    let (mut total_instr, mut total_ns) = (0.0, 0.0);
    let mut step_us = Vec::new();
    let mut measured = Duration::ZERO;
    let mut step = 0u64;
    for epoch in 0..EPOCHS {
        let k = calibrate(tr, None, epoch);
        let t0 = Instant::now();
        let warm = tr.span("setup", None, epoch, || {
            let _plan = kind.plan(seed, 0, smoke);
            let warm = kind.plan(seed, WARMUP_STEP, smoke);
            run_checked(&warm[0], &mcfg)
        });
        setup_s.push(calib::duration(t0.elapsed().as_secs_f64(), k));
        out.attempted += 1;
        if warm.is_none() {
            out.failed += 1;
        }

        let until = Duration::from_secs_f64(seconds * (epoch + 1) as f64 / EPOCHS as f64);
        let last = epoch + 1 == EPOCHS;
        while measured < until || (last && step < WINDOW_STEPS) {
            let plan = kind.plan(seed, step, smoke);
            let step_start = Instant::now();
            let step_span = tr.open("step", None, step);
            let mut step_ns = 0;
            for (i, job) in plan.iter().enumerate() {
                let id = step * plan.len() as u64 + i as u64;
                let k = calibrate(tr, step_span, id);
                kernel_ns.push(k);
                let job_span = tr.open("job", step_span, id);
                if tr.enabled() && step < WINDOW_STEPS {
                    if let Some(cfg) = job.ds_cfg() {
                        let t0 = Instant::now();
                        let initial = harness::gen_initial(cfg);
                        let ops = harness::gen_ops(cfg);
                        let t1 = Instant::now();
                        std::hint::black_box(harness::replay_reference(&initial, &ops));
                        let t2 = Instant::now();
                        tr.record("workloads.gen", job_span, id, t0, t1);
                        tr.record("workloads.reference", job_span, id, t1, t2);
                        window.gen_ns += (t1 - t0).as_nanos() as u64;
                        window.reference_ns += (t2 - t1).as_nanos() as u64;
                    }
                }
                let t0 = Instant::now();
                let result = run_checked(job, &mcfg);
                let t1 = Instant::now();
                tr.record("sim.run", job_span, id, t0, t1);
                tr.close(job_span);
                out.attempted += 1;
                let ns = (t1 - t0).as_nanos() as u64;
                step_ns += ns;
                match result {
                    Some(r) => {
                        let instr = r.cpu.instructions as f64;
                        class_instr[i].push(instr);
                        class_rate[i].push(calib::speed(instr / ns as f64, k));
                        total_instr += instr;
                        total_ns += ns as f64;
                        if step < WINDOW_STEPS {
                            window.add(job.bench, &r, ns);
                        }
                    }
                    None => out.failed += 1,
                }
            }
            tr.close(step_span);
            measured += step_start.elapsed();
            step_us.push(step_ns as f64 / 1e3);
            step += 1;
        }
    }
    out.values.set("setup_s", median(&setup_s));

    // Each job class runs at its median adjusted speed; a step of jobs of
    // the classes' mean sizes at those speeds gives the throughput.
    let mut step_instr = 0.0;
    let mut step_ns = 0.0;
    for (instr, rate) in class_instr.iter().zip(&class_rate) {
        if !rate.is_empty() {
            let size = mean(instr);
            step_instr += size;
            step_ns += size / median(rate);
        }
    }
    let mops = if step_ns > 0.0 {
        step_instr / step_ns * 1e3
    } else {
        0.0
    };
    let steps = sorted(&step_us);
    let (tq, tv) = tail(&steps);
    out.values.set_noted(
        "mops_per_s",
        mops,
        format!(
            "median adjusted job speeds over {step} steps of {classes} jobs; unadjusted mean {:.4} Mop/s; kernel p50 {:.3} ms; step latency p50 {:.1} ms, p{} {:.1} ms",
            total_instr / total_ns * 1e3,
            median(&kernel_ns) / 1e6,
            percentile(&steps, 0.5) / 1e3,
            tq * 100.0,
            tv / 1e3
        ),
    );
    out.values.set("trace.mops_per_s", mops);

    if tr.enabled() {
        window.counts(&mut out.values);
        let probes = run_sim_probes(&shape(&mcfg, &window), smoke, tr);
        probe_values(&probes, &mut out.values);
        out.ledger = window.ledger(&probes, &mut out.values);
    }
    out
}
