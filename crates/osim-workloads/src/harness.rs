//! Operation-mix generation, the host-side reference model, and result
//! validation for the irregular data-structure workloads.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use osim_cpu::{CpuStats, DepEdge, EngineStats, Machine, RunHists, Sample};
use osim_mem::MemStats;
use osim_uarch::{OStats, OracleReport};

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
    /// Interval-telemetry samples (empty unless the sampler was armed).
    pub timeseries: Vec<Sample>,
    /// Samples overwritten in the bounded ring.
    pub samples_dropped: u64,
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
        timeseries: st.timeseries.records(),
        samples_dropped: st.timeseries.dropped,
        window: (end.saturating_sub(cycles), end),
        oracle: st.omgr.oracle_report().cloned(),
    }
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
