//! Operation-mix generation, the host-side reference model, result
//! validation, and the two drivers every irregular data-structure workload
//! runs under.
//!
//! `run_per_op` is the versioned execution model: each operation is a
//! task, a write's task id names the version the next operation enters at,
//! and every result is checked against a sequential replay.
//! `run_sequential` is the unversioned baseline: the same phases with the
//! measured operations in one task. A data structure supplies only its
//! setup, population, operation and final-contents hooks.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use osim_cpu::{
    task, CpuStats, DepEdge, EngineStats, Machine, MachineCfg, MachineState, RunHists, TaskCtx,
};
use osim_mem::MemStats;
use osim_uarch::{OStats, OracleReport, Version};

use crate::vers;

/// Workload configuration for the irregular data structures.
#[derive(Debug, Clone)]
pub struct DsCfg {
    /// Initial number of elements (paper: 1000 small / 10000 large).
    pub initial: usize,
    /// Measured operations.
    pub ops: usize,
    /// Reads per write (paper: 4 read-intensive, 1 write-intensive).
    pub reads_per_write: u32,
    /// Range of scans; 0 means point lookups (Fig. 8 uses 1, 8, 64).
    pub scan_range: u32,
    /// Key universe; keys are drawn uniformly from `[0, key_space)`.
    pub key_space: u32,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Writes are all inserts (the Fig. 8 mix) instead of alternating
    /// insert/delete. Insert-only mixes have an order-independent final
    /// state, which lets the non-deterministic read-write-lock baseline be
    /// validated too.
    pub insert_only: bool,
}

impl DsCfg {
    /// The paper's *small* configuration: 1000 initial elements.
    pub fn small(ops: usize, reads_per_write: u32) -> Self {
        DsCfg {
            initial: 1000,
            ops,
            reads_per_write,
            scan_range: 0,
            key_space: 4000,
            seed: 0x05_1c_0c_75 ^ 0x5eed,
            insert_only: false,
        }
    }

    /// The paper's *large* configuration: 10000 initial elements.
    pub fn large(ops: usize, reads_per_write: u32) -> Self {
        DsCfg {
            initial: 10_000,
            ops,
            reads_per_write,
            scan_range: 0,
            key_space: 40_000,
            seed: 0x5eed,
            insert_only: false,
        }
    }

    /// Checks that the mix can be generated: `initial` distinct keys must
    /// fit in `[0, key_space)`, and operations need at least one key.
    pub fn check(&self) -> Result<(), String> {
        if self.initial as u64 > u64::from(self.key_space) {
            return Err(format!(
                "initial ({}) exceeds key_space ({}): not enough distinct keys",
                self.initial, self.key_space
            ));
        }
        if self.key_space == 0 && self.ops > 0 {
            return Err(format!(
                "key_space is 0 but ops is {}: no key to draw",
                self.ops
            ));
        }
        Ok(())
    }
}

/// One operation of the measured mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Lookup(u32),
    /// Insert (no-op if the key exists).
    Insert(u32),
    /// Delete (no-op if the key is absent).
    Delete(u32),
    /// Range scan: up to `.1` keys starting at the smallest key ≥ `.0`.
    Scan(u32, u32),
}

/// The observable outcome of one operation — compared against the
/// sequential reference to check the determinism claim of §IV-D.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Lookup outcome.
    Found(bool),
    /// Insert outcome (false = key already present).
    Inserted(bool),
    /// Delete outcome (false = key was absent).
    Deleted(bool),
    /// Keys returned by a scan, in ascending order.
    Scanned(Vec<u32>),
}

/// Generates `cfg.initial` distinct keys (unsorted).
pub fn gen_initial(cfg: &DsCfg) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut set = BTreeSet::new();
    while set.len() < cfg.initial {
        set.insert(rng.gen_range(0..cfg.key_space));
    }
    // Shuffle by re-drawing order from the rng for structure-shape realism.
    let mut keys: Vec<u32> = set.into_iter().collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// Generates the measured operation mix: `reads_per_write` reads per
/// write, writes alternating insert/delete so the footprint stays stable
/// (§IV-D), reads being scans when `scan_range > 0`.
pub fn gen_ops(cfg: &DsCfg) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let mut ops = Vec::with_capacity(cfg.ops);
    let mut insert_next = true;
    let mut since_write = 0;
    while ops.len() < cfg.ops {
        let key = rng.gen_range(0..cfg.key_space);
        if since_write >= cfg.reads_per_write {
            since_write = 0;
            if cfg.insert_only || insert_next {
                ops.push(Op::Insert(key));
            } else {
                ops.push(Op::Delete(key));
            }
            insert_next = !insert_next;
        } else {
            since_write += 1;
            if cfg.scan_range > 0 {
                ops.push(Op::Scan(key, cfg.scan_range));
            } else {
                ops.push(Op::Lookup(key));
            }
        }
    }
    ops
}

/// Replays initial keys + operations on a host [`BTreeSet`], producing the
/// sequential-semantics results and the expected final contents.
pub fn replay_reference(initial: &[u32], ops: &[Op]) -> (Vec<OpResult>, Vec<u32>) {
    let mut set: BTreeSet<u32> = initial.iter().copied().collect();
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        results.push(match *op {
            Op::Lookup(k) => OpResult::Found(set.contains(&k)),
            Op::Insert(k) => OpResult::Inserted(set.insert(k)),
            Op::Delete(k) => OpResult::Deleted(set.remove(&k)),
            Op::Scan(k, n) => OpResult::Scanned(set.range(k..).take(n as usize).copied().collect()),
        });
    }
    (results, set.into_iter().collect())
}

/// Outcome of one simulated workload run.
#[derive(Debug, Clone)]
pub struct DsResult {
    /// Measured cycles (population excluded).
    pub cycles: u64,
    /// Core statistics for the measured phase.
    pub cpu: CpuStats,
    /// Memory statistics for the measured phase.
    pub mem: MemStats,
    /// O-structure manager statistics for the measured phase.
    pub ostats: OStats,
    /// Engine dispatch-loop counters for the whole run (deterministic, so
    /// safe to include in byte-compared reports).
    pub engine: EngineStats,
    /// Latency histograms from every layer, for the measured phase. All
    /// simulated-cycle quantities (deterministic).
    pub hists: RunHists,
    /// True when results and final contents matched the reference.
    pub ok: bool,
    /// Human-readable mismatch description (empty when `ok`).
    pub detail: String,
    /// Captured dependency-flow edges (empty unless capture was armed).
    pub deps: Vec<DepEdge>,
    /// Edges overwritten in the bounded ring.
    pub deps_dropped: u64,
    /// `[start, end]` cycle window the captures cover (end = machine time
    /// at collection; start = end − measured cycles).
    pub window: (u64, u64),
    /// Invariant-oracle report for the whole run (None unless
    /// [`osim_uarch::OManagerCfg::oracles`] armed the checks).
    pub oracle: Option<OracleReport>,
}

impl DsResult {
    /// Panics with the mismatch detail unless the run validated.
    pub fn assert_ok(&self) -> &Self {
        assert!(self.ok, "workload validation failed: {}", self.detail);
        self
    }
}

/// Collects the statistics snapshot of a machine into a [`DsResult`].
pub fn collect(m: &Machine, cycles: u64, ok: bool, detail: String) -> DsResult {
    let st = m.state();
    let st = st.borrow();
    let end = m.now();
    DsResult {
        cycles,
        cpu: st.cpu.clone(),
        mem: st.ms.hier.stats.clone(),
        ostats: st.omgr.stats.clone(),
        engine: m.engine_stats(),
        hists: m.run_hists(),
        ok,
        detail,
        deps: st.deps.records(),
        deps_dropped: st.deps.dropped,
        window: (end.saturating_sub(cycles), end),
        oracle: st.omgr.oracle_report().cloned(),
    }
}

/// Allocates `n` contiguous versioned root cells and returns the first.
pub(crate) fn alloc_roots(m: &Machine, n: u32) -> u32 {
    let st = m.state();
    let mut st = st.borrow_mut();
    let s = &mut *st;
    let first = s
        .alloc
        .alloc_root(&mut s.ms)
        .expect("simulated RAM exhausted");
    for _ in 1..n {
        s.alloc
            .alloc_root(&mut s.ms)
            .expect("simulated RAM exhausted");
    }
    first
}

/// Allocates `bytes` of conventional memory and returns its address.
pub(crate) fn alloc_data(m: &Machine, bytes: u32) -> u32 {
    let st = m.state();
    let mut st = st.borrow_mut();
    let s = &mut *st;
    s.alloc
        .alloc_data(&mut s.ms, bytes)
        .expect("simulated RAM exhausted")
}

/// Reads the conventional word at `va` without touching timing state.
pub(crate) fn peek_word(st: &MachineState, va: u32) -> u32 {
    st.ms
        .phys
        .read_u32(st.ms.pt.translate_conventional(va).expect("mapped"))
}

/// The newest value of the versioned cell at `cell`, if it holds any,
/// without touching timing state.
pub(crate) fn peek_latest(st: &MachineState, cell: u32) -> Option<u32> {
    st.omgr
        .peek_latest(&st.ms, cell, u32::MAX)
        .expect("valid cell")
        .map(|(_, v)| v)
}

/// Runs one irregular workload in the versioned execution model.
///
/// After `setup` allocates the structure's cells and `populate` builds the
/// initial contents in one unmeasured task, every operation runs as its
/// own task, in op order. An operation enters at the pass version of the
/// nearest preceding write (the population task for the first ones), and
/// a write's own pass version becomes the next entry point. `final_keys`
/// reads the final contents, or returns `Err` with the reason they cannot
/// be trusted; the per-op results and the contents are then checked
/// against the sequential replay.
pub(crate) fn run_per_op<S: Clone + 'static>(
    mcfg: MachineCfg,
    cfg: &DsCfg,
    setup: impl FnOnce(&Machine) -> S,
    populate: impl AsyncFnOnce(&TaskCtx, &S, Vec<u32>) + 'static,
    op: impl AsyncFn(&TaskCtx, &S, Version, Op) -> OpResult + Copy + 'static,
    final_keys: impl FnOnce(&MachineState, &S) -> Result<Vec<u32>, String>,
) -> DsResult {
    drive(
        mcfg,
        cfg,
        setup,
        populate,
        final_keys,
        |m, shared, ops, mut entry| {
            let results: Rc<RefCell<Vec<Option<OpResult>>>> =
                Rc::new(RefCell::new(vec![None; ops.len()]));
            let first = m.next_tid();
            let mut tasks = Vec::with_capacity(ops.len());
            for (i, o) in ops.into_iter().enumerate() {
                let e = entry;
                if matches!(o, Op::Insert(_) | Op::Delete(_)) {
                    entry = vers::passv(first + i as u32);
                }
                let results = Rc::clone(&results);
                let sh = shared.clone();
                tasks.push(task(move |ctx| async move {
                    let r = op(&ctx, &sh, e, o).await;
                    results.borrow_mut()[i] = Some(r);
                }));
            }
            let report = m.run_tasks(tasks).expect("measurement deadlocked");
            let got = Rc::try_unwrap(results)
                .expect("tasks done")
                .into_inner()
                .into_iter()
                .map(|r| r.expect("op recorded"))
                .collect();
            (report.cycles(), got)
        },
    )
}

/// Runs one irregular workload as the unversioned sequential baseline:
/// the phases of [`run_per_op`], with the measured operations looping in
/// one task.
pub(crate) fn run_sequential<S: Clone + 'static>(
    mcfg: MachineCfg,
    cfg: &DsCfg,
    setup: impl FnOnce(&Machine) -> S,
    populate: impl AsyncFnOnce(&TaskCtx, &S, Vec<u32>) + 'static,
    op: impl AsyncFn(&TaskCtx, &S, Op) -> OpResult + 'static,
    final_keys: impl FnOnce(&MachineState, &S) -> Result<Vec<u32>, String>,
) -> DsResult {
    drive(
        mcfg,
        cfg,
        setup,
        populate,
        final_keys,
        |m, shared, ops, _| {
            let results = Rc::new(RefCell::new(Vec::with_capacity(ops.len())));
            let (sh, out) = (shared.clone(), Rc::clone(&results));
            let report = m
                .run_tasks(vec![task(move |ctx| async move {
                    for o in ops {
                        let r = op(&ctx, &sh, o).await;
                        out.borrow_mut().push(r);
                    }
                })])
                .expect("measurement");
            (
                report.cycles(),
                Rc::try_unwrap(results).expect("task done").into_inner(),
            )
        },
    )
}

/// The phases both drivers share. `measure` gets the machine, the shared
/// handle, the operations and the population's pass version, and returns
/// the measured cycles with the per-op results.
fn drive<S: Clone + 'static>(
    mcfg: MachineCfg,
    cfg: &DsCfg,
    setup: impl FnOnce(&Machine) -> S,
    populate: impl AsyncFnOnce(&TaskCtx, &S, Vec<u32>) + 'static,
    final_keys: impl FnOnce(&MachineState, &S) -> Result<Vec<u32>, String>,
    measure: impl FnOnce(&mut Machine, &S, Vec<Op>, Version) -> (u64, Vec<OpResult>),
) -> DsResult {
    if let Err(detail) = cfg.check() {
        return collect(&Machine::new(mcfg), 0, false, detail);
    }
    let initial = gen_initial(cfg);
    let ops = gen_ops(cfg);
    let (want_results, want_final) = replay_reference(&initial, &ops);

    let mut m = Machine::new(mcfg);
    let shared = setup(&m);
    let pop_tid = m.next_tid();
    let sh = shared.clone();
    m.run_tasks(vec![task(move |ctx| async move {
        populate(&ctx, &sh, initial).await
    })])
    .expect("population");
    m.reset_stats();

    let (cycles, got) = measure(&mut m, &shared, ops, vers::passv(pop_tid));
    let (ok, detail) = match final_keys(&m.state().borrow(), &shared) {
        Ok(keys) => validate(&got, &keys, &want_results, &want_final),
        Err(detail) => (false, detail),
    };
    collect(&m, cycles, ok, detail)
}

/// Compares simulated per-op results and final keys against the reference.
pub fn validate(
    got_results: &[OpResult],
    got_final: &[u32],
    want_results: &[OpResult],
    want_final: &[u32],
) -> (bool, String) {
    if got_results.len() != want_results.len() {
        return (
            false,
            format!(
                "result count {} != expected {}",
                got_results.len(),
                want_results.len()
            ),
        );
    }
    for (i, (g, w)) in got_results.iter().zip(want_results).enumerate() {
        if g != w {
            return (false, format!("op {i}: got {g:?}, expected {w:?}"));
        }
    }
    if got_final != want_final {
        return (
            false,
            format!(
                "final contents differ: {} keys vs expected {}",
                got_final.len(),
                want_final.len()
            ),
        );
    }
    (true, String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DsCfg {
        DsCfg {
            initial: 50,
            ops: 100,
            reads_per_write: 4,
            scan_range: 0,
            key_space: 200,
            seed: 42,
            insert_only: false,
        }
    }

    #[test]
    fn insert_only_mix_has_no_deletes() {
        let mut c = cfg();
        c.insert_only = true;
        let ops = gen_ops(&c);
        assert!(!ops.iter().any(|o| matches!(o, Op::Delete(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::Insert(_))));
    }

    #[test]
    fn initial_keys_are_distinct_and_deterministic() {
        let a = gen_initial(&cfg());
        let b = gen_initial(&cfg());
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let set: BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn op_mix_matches_ratio() {
        let ops = gen_ops(&cfg());
        assert_eq!(ops.len(), 100);
        let reads = ops.iter().filter(|o| matches!(o, Op::Lookup(_))).count();
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        let deletes = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert_eq!(inserts + deletes + reads, 100);
        // 4 reads per write.
        assert!((78..=82).contains(&reads), "reads {reads}");
        assert!(inserts.abs_diff(deletes) <= 1, "balanced writes");
    }

    #[test]
    fn scan_mode_replaces_lookups() {
        let mut c = cfg();
        c.scan_range = 8;
        let ops = gen_ops(&c);
        assert!(ops.iter().any(|o| matches!(o, Op::Scan(_, 8))));
        assert!(!ops.iter().any(|o| matches!(o, Op::Lookup(_))));
    }

    #[test]
    fn reference_replay_semantics() {
        let initial = vec![5, 1, 9];
        let ops = vec![
            Op::Lookup(5),
            Op::Lookup(2),
            Op::Insert(2),
            Op::Insert(2),
            Op::Delete(9),
            Op::Delete(9),
            Op::Scan(1, 2),
        ];
        let (results, fin) = replay_reference(&initial, &ops);
        assert_eq!(
            results,
            vec![
                OpResult::Found(true),
                OpResult::Found(false),
                OpResult::Inserted(true),
                OpResult::Inserted(false),
                OpResult::Deleted(true),
                OpResult::Deleted(false),
                OpResult::Scanned(vec![1, 2]),
            ]
        );
        assert_eq!(fin, vec![1, 2, 5]);
    }

    #[test]
    fn ungeneratable_configs_fail_without_running() {
        let too_many = DsCfg {
            initial: 10,
            key_space: 5,
            ..cfg()
        };
        let no_keys = DsCfg {
            initial: 0,
            key_space: 0,
            ..cfg()
        };
        for (bad, fields) in [
            (too_many, ["initial", "key_space"]),
            (no_keys, ["key_space", "ops"]),
        ] {
            let detail = bad.check().expect_err("config cannot be generated");
            assert!(fields.iter().all(|f| detail.contains(f)), "{detail}");
            for run in [
                crate::btree::run_versioned,
                crate::btree::run_unversioned,
                crate::btree::run_rwlock,
            ] {
                let r = run(MachineCfg::paper(1), &bad);
                assert!(!r.ok);
                assert_eq!((r.cycles, r.detail.as_str()), (0, detail.as_str()));
            }
        }
        let full = DsCfg {
            initial: 5,
            key_space: 5,
            ..cfg()
        };
        assert_eq!(full.check(), Ok(()));
    }

    #[test]
    fn validate_reports_mismatch_position() {
        let a = vec![OpResult::Found(true)];
        let b = vec![OpResult::Found(false)];
        let (ok, detail) = validate(&a, &[], &b, &[]);
        assert!(!ok);
        assert!(detail.contains("op 0"));
        let (ok, _) = validate(&a, &[1], &a, &[1]);
        assert!(ok);
        let (ok, detail) = validate(&a, &[1], &a, &[2]);
        assert!(!ok);
        assert!(detail.contains("final contents"));
    }
}
