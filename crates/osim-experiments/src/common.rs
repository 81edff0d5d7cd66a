//! Shared experiment plumbing: workload scales, benchmark dispatch, and
//! table formatting.

use osim_cpu::{MachineCfg, ShakePolicy};
use osim_mem::CacheCfg;
use osim_report::{ReportScale, SimReport};
use osim_uarch::FaultPlan;
use osim_workloads::harness::{DsCfg, DsResult};

use crate::runner::SweepRun;
use osim_workloads::levenshtein::LevCfg;
use osim_workloads::matmul::MatmulCfg;
use osim_workloads::{btree, hashtable, levenshtein, linked_list, matmul, rbtree};

/// Workload sizes for one harness invocation.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Initial elements of the "small" irregular configurations.
    pub small: usize,
    /// Initial elements of the "large" irregular configurations.
    pub large: usize,
    /// Measured operations per irregular run.
    pub ops: usize,
    /// Matrix dimension.
    pub mat_n: usize,
    /// Levenshtein string length.
    pub lev_len: usize,
    /// Deterministic fault-injection plan applied to every machine the
    /// invocation builds (`--inject <spec>`); `None` injects nothing.
    pub inject: Option<FaultPlan>,
    /// Same-cycle tie-break perturbation (`--shake-seed <n>`). Off by
    /// default; a seeded shake deterministically permutes same-cycle
    /// dispatch order, so simulated numbers may differ from the committed
    /// references (the point of the stress harness).
    pub shake: ShakePolicy,
    /// Arm the manager's runtime invariant oracles (the `stress`
    /// subcommand turns this on; adds host-side checking cost only).
    pub oracles: bool,
}

/// Hand-rolled so the shake policy and the oracle arm bit stay out of
/// rendered sweep headers, keeping them byte-identical with pre-existing
/// baselines.
/// (Shaken runs may still differ in the *numbers*; the header format is
/// what stays fixed.)
impl std::fmt::Debug for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scale")
            .field("small", &self.small)
            .field("large", &self.large)
            .field("ops", &self.ops)
            .field("mat_n", &self.mat_n)
            .field("lev_len", &self.lev_len)
            .field("inject", &self.inject)
            .finish()
    }
}

impl Scale {
    /// The paper's sizes (Table/figure captions): slow but faithful.
    pub fn paper() -> Self {
        Scale {
            small: 1000,
            large: 10_000,
            ops: 1024,
            mat_n: 100,
            lev_len: 1000,
            inject: None,
            shake: ShakePolicy::Off,
            oracles: false,
        }
    }

    /// Scaled-down sizes preserving every qualitative effect.
    pub fn quick() -> Self {
        Scale {
            small: 200,
            large: 1000,
            ops: 256,
            mat_n: 28,
            lev_len: 96,
            inject: None,
            shake: ShakePolicy::Off,
            oracles: false,
        }
    }

    /// Minimal sizes for integration tests — every experiment still runs
    /// end-to-end (and validates), but in seconds rather than minutes.
    pub fn tiny() -> Self {
        Scale {
            small: 64,
            large: 128,
            ops: 64,
            mat_n: 8,
            lev_len: 24,
            inject: None,
            shake: ShakePolicy::Off,
            oracles: false,
        }
    }

    /// This scale in report form.
    pub fn report(&self) -> ReportScale {
        ReportScale {
            small: self.small as u64,
            large: self.large as u64,
            ops: self.ops as u64,
            mat_n: self.mat_n as u64,
            lev_len: self.lev_len as u64,
        }
    }

    /// A DsCfg for an irregular benchmark.
    pub fn ds(&self, large: bool, reads_per_write: u32) -> DsCfg {
        let initial = if large { self.large } else { self.small };
        DsCfg {
            initial,
            ops: self.ops,
            reads_per_write,
            scan_range: 0,
            key_space: initial as u32 * 4,
            seed: 0x0511,
            insert_only: false,
        }
    }
}

/// The six benchmarks of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    LinkedList,
    BinaryTree,
    HashTable,
    RbTree,
    Levenshtein,
    MatrixMul,
}

impl Bench {
    /// The irregular (data-structure) benchmarks.
    pub const IRREGULAR: [Bench; 4] = [
        Bench::LinkedList,
        Bench::BinaryTree,
        Bench::HashTable,
        Bench::RbTree,
    ];

    /// All six.
    pub const ALL: [Bench; 6] = [
        Bench::LinkedList,
        Bench::BinaryTree,
        Bench::HashTable,
        Bench::RbTree,
        Bench::Levenshtein,
        Bench::MatrixMul,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::LinkedList => "Linked list",
            Bench::BinaryTree => "Binary tree",
            Bench::HashTable => "Hash table",
            Bench::RbTree => "R-B tree",
            Bench::Levenshtein => "Levenshtein",
            Bench::MatrixMul => "Matrix mul.",
        }
    }

    /// Runs the versioned variant.
    pub fn run_versioned(
        &self,
        mcfg: MachineCfg,
        scale: &Scale,
        large: bool,
        rpw: u32,
    ) -> DsResult {
        match self {
            Bench::LinkedList => linked_list::run_versioned(mcfg, &scale.ds(large, rpw)),
            Bench::BinaryTree => btree::run_versioned(mcfg, &scale.ds(large, rpw)),
            Bench::HashTable => hashtable::run_versioned(mcfg, &scale.ds(large, rpw)),
            Bench::RbTree => rbtree::run_versioned(mcfg, &scale.ds(large, rpw)),
            Bench::Levenshtein => levenshtein::run_versioned(
                mcfg,
                &LevCfg {
                    len: scale.lev_len,
                    seed: 2,
                },
            ),
            Bench::MatrixMul => matmul::run_versioned(
                mcfg,
                &MatmulCfg {
                    n: scale.mat_n,
                    seed: 1,
                },
            ),
        }
    }

    /// Runs the unversioned sequential baseline.
    pub fn run_unversioned(
        &self,
        mcfg: MachineCfg,
        scale: &Scale,
        large: bool,
        rpw: u32,
    ) -> DsResult {
        match self {
            Bench::LinkedList => linked_list::run_unversioned(mcfg, &scale.ds(large, rpw)),
            Bench::BinaryTree => btree::run_unversioned(mcfg, &scale.ds(large, rpw)),
            Bench::HashTable => hashtable::run_unversioned(mcfg, &scale.ds(large, rpw)),
            Bench::RbTree => rbtree::run_unversioned(mcfg, &scale.ds(large, rpw)),
            Bench::Levenshtein => levenshtein::run_unversioned(
                mcfg,
                &LevCfg {
                    len: scale.lev_len,
                    seed: 2,
                },
            ),
            Bench::MatrixMul => matmul::run_unversioned(
                mcfg,
                &MatmulCfg {
                    n: scale.mat_n,
                    seed: 1,
                },
            ),
        }
    }
}

/// A machine configuration derived from the paper's, with experiment knobs
/// and the invocation's fault-injection plan applied.
pub fn machine(scale: &Scale, cores: usize, l1_kb: Option<u32>, extra_latency: u64) -> MachineCfg {
    let mut cfg = MachineCfg::paper(cores);
    if let Some(kb) = l1_kb {
        cfg.hier.l1 = CacheCfg::l1_sized(kb);
    }
    cfg.omgr.versioned_extra_latency = extra_latency;
    cfg.omgr.fault_plan = scale.inject;
    cfg.omgr.oracles = scale.oracles;
    cfg.shake = scale.shake;
    cfg
}

/// Prints Table II.
pub fn print_config() {
    println!("## Table II — the experimental platform\n");
    let cfg = MachineCfg::paper(32);
    println!("| Parameter | Value |");
    println!("|---|---|");
    println!(
        "| Processor | {}-way in-order, 2 GHz ({} cores max in these runs) |",
        cfg.issue_width, cfg.cores
    );
    println!(
        "| L1 D-cache | {} KB, {}-way, 64 B lines, {} cycles hit |",
        cfg.hier.l1.size_bytes / 1024,
        cfg.hier.l1.assoc,
        cfg.hier.l1.hit_latency
    );
    println!(
        "| L2 cache | 1.5 MB x cores shared, {}-way, 64 B lines, {} cycles hit |",
        cfg.hier.l2.assoc, cfg.hier.l2.hit_latency
    );
    println!(
        "| Memory | {} cycle latency (60 ns at 2 GHz) |",
        cfg.hier.dram_latency
    );
    println!();
}

/// Builds the [`SimReport`] for one completed sweep run — the job carries
/// the exact machine configuration it was launched with.
pub fn report_run(run: &SweepRun, scale: &Scale) -> SimReport {
    run.report(scale.report())
}

/// Asserts a sweep run validated and returns its result (experiments must
/// never report numbers from an incorrect execution).
pub fn checked_run(run: &SweepRun) -> &DsResult {
    assert!(
        run.result.ok,
        "{}: validation failed: {}",
        run.bench, run.result.detail
    );
    &run.result
}

/// Formats a ratio to two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Percentage formatting.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
