//! Shared configuration and timing for the plain-main benches.
//!
//! The figures themselves are regenerated (in simulated cycles, with full
//! validation) and timed by `cargo run -p osim-experiments --release --
//! <figN|perf>`; the benches here isolate single layers and design-choice
//! ablations at a size small enough for repeated sampling.
//!
//! Each bench is a `harness = false` binary: [`group`] prints a heading,
//! and [`bench()`] / [`bench_with_setup`] time a routine [`SAMPLES`] times
//! and print min/median/max wall time — enough to compare runs by hand;
//! there is no statistical analysis or baseline persistence.

use std::hint::black_box;
use std::time::{Duration, Instant};

use osim_workloads::harness::DsCfg;

/// Timed samples per benchmark.
pub const SAMPLES: usize = 10;

/// A bench-sized irregular workload (small enough for repeated sampling).
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

/// Whether `OSIM_BENCH_SMOKE` asks for CI-smoke sizes (exercises the code,
/// proves nothing about performance).
pub fn smoke() -> bool {
    std::env::var_os("OSIM_BENCH_SMOKE").is_some()
}

/// Prints the heading of a group of related benchmarks.
pub fn group(name: &str) {
    println!("\nbench group: {name}");
}

/// Times `routine` [`SAMPLES`] times and prints the spread.
pub fn bench<O>(label: &str, mut routine: impl FnMut() -> O) {
    bench_with_setup(label, || (), |()| routine());
}

/// Runs `setup` untimed before each sample, then times `routine` on its
/// output.
pub fn bench_with_setup<I, O>(
    label: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            start.elapsed()
        })
        .collect();
    samples.sort();
    let (min, med, max) = (samples[0], samples[SAMPLES / 2], samples[SAMPLES - 1]);
    println!("  {label}: min {min:?}  median {med:?}  max {max:?}  ({SAMPLES} samples)");
}
