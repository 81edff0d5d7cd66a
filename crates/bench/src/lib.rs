//! Shared configuration for the criterion benches.
//!
//! The figures themselves are regenerated (in simulated cycles, with full
//! validation) and timed by `cargo run -p osim-experiments --release --
//! <figN|perf>`; the benches here isolate single layers and design-choice
//! ablations at a criterion-friendly size.

use osim_workloads::harness::DsCfg;

/// A bench-sized irregular workload (small enough for criterion's
/// repeated sampling).
pub fn bench_cfg(initial: usize, ops: usize, reads_per_write: u32) -> DsCfg {
    DsCfg {
        initial,
        ops,
        reads_per_write,
        scan_range: 0,
        key_space: initial as u32 * 4,
        seed: 0xbe,
        insert_only: false,
    }
}
