//! Host-speed calibration.
//!
//! The host this benchmark was sized on is shared, and its speed drifts:
//! jobs slow by up to half in bursts of seconds, and for minutes at a time
//! every run reads 15-45% slow. No statistic taken inside one run removes
//! drift that outlasts the run, so each timed unit of work (a simulator
//! job, a round of store operations, a set-up) is preceded by a fixed
//! calibration kernel, and its timing is scaled by how long the kernel
//! took against [`REFERENCE_NS`]. The scaled figure reads as the time the
//! work would take on a host where the kernel takes exactly that long.
//!
//! The kernel fills arrays with pseudo-random numbers and sorts them. Of
//! the kernels tried against traces of simulator jobs (ordered-map
//! builds, a hash map, a multiply chain, sorts), it slowed most nearly in
//! step with the jobs when the host slowed; see `README.md`. It uses only
//! `std` and this crate, so no change to the code under test moves it,
//! and it does identical work on every call.

use std::hint::black_box;
use std::time::Instant;

use crate::splitmix64;

/// The kernel's duration on the reference host: the scale of every
/// host-speed-adjusted figure. Only ratios between runs matter; this value
/// is near the kernel's duration on the host in `README.md` when calm, so
/// adjusted figures read close to plain ones there.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// Elements per array, and arrays sorted per kernel run.
const KERNEL_LEN: usize = 4096;
const KERNEL_SORTS: usize = 16;

/// Runs the kernel once and returns its duration in nanoseconds.
pub fn kernel_ns() -> f64 {
    let t0 = Instant::now();
    let mut rng = 0x5eed;
    for _ in 0..KERNEL_SORTS {
        let mut v: Vec<u64> = (0..KERNEL_LEN).map(|_| splitmix64(&mut rng)).collect();
        v.sort_unstable();
        black_box(v);
    }
    t0.elapsed().as_nanos() as f64
}

/// A speed measured after a kernel that took `kernel_ns`, scaled to the
/// reference host.
pub fn speed(measured: f64, kernel_ns: f64) -> f64 {
    measured * kernel_ns / REFERENCE_NS
}

/// A duration measured after a kernel that took `kernel_ns`, scaled to the
/// reference host.
pub fn duration(measured: f64, kernel_ns: f64) -> f64 {
    measured * REFERENCE_NS / kernel_ns
}
