//! Determinism of the simulator counts, the quantile helpers, the
//! host-speed calibration, and the store's output checks.

use std::sync::Arc;

use osim_bench::calib;
use osim_bench::sim::{window_counts, SimKind};
use osim_bench::stats::{percentile, quartiles, tail};
use osim_bench::store::{check_final, check_get};
use ostructs_core::OMap;

#[test]
fn same_seed_repeats_counts_and_another_seed_changes_cycles() {
    let a = window_counts(SimKind::Irregular, 11, true);
    let b = window_counts(SimKind::Irregular, 11, true);
    assert_eq!(a, b, "layer counts repeat exactly for one seed");
    let c = window_counts(SimKind::Irregular, 12, true);
    assert_ne!(
        a.get("cpu.cycles"),
        c.get("cpu.cycles"),
        "another seed simulates other inputs"
    );
    for name in [
        "cpu.cycles",
        "engine.events",
        "mem.l1_accesses",
        "uarch.versioned_ops",
    ] {
        assert!(a.get(name).unwrap_or(0.0) > 0.0, "{name} counted nothing");
    }
}

#[test]
fn unversioned_workload_issues_no_versioned_ops() {
    let v = window_counts(SimKind::Unversioned, 5, true);
    assert_eq!(v.get("uarch.versioned_ops"), Some(0.0));
    assert_eq!(v.get("engine.gate_waits"), Some(0.0));
    assert!(v.get("mem.l1_accesses").unwrap_or(0.0) > 0.0);
}

#[test]
fn median_and_supported_tail() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 500.0);
    // p99.9 has only one sample above it; p99 has ten.
    assert_eq!(tail(&v), (0.99, 990.0));
    let small: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&small), (0.9, 90.0));
    let tiny = [3.0, 1.0, 2.0];
    assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 0.5);
    assert_eq!(percentile(&[], 0.5), 0.0);
    // Python: statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&tiny), (1.0, 2.0, 3.0));
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
}

#[test]
fn calibration_scales_to_the_reference_host() {
    // On a host where the kernel takes twice as long, a measured speed is
    // worth twice as much and a measured duration half as much.
    let slow = 2.0 * calib::REFERENCE_NS;
    assert_eq!(calib::speed(3.0, slow), 6.0);
    assert_eq!(calib::duration(3.0, slow), 1.5);
    assert!(calib::kernel_ns() > 0.0);
}

#[test]
fn store_checker_rejects_bad_reads() {
    assert!(check_get(5, 100, Some(5)));
    assert!(check_get(5, 100, Some(100)));
    assert!(!check_get(5, 100, None), "a pinned get must find the key");
    assert!(!check_get(5, 100, Some(101)), "a value newer than the cap");
    assert!(
        !check_get(5, 100, Some(4)),
        "a value older than the preload"
    );
}

#[test]
fn store_final_check_counts_wrong_keys() {
    let map: OMap<u32, u64> = OMap::new();
    for k in 0..4u32 {
        map.insert(k, u64::from(k) + 1, u64::from(k) + 1)
            .expect("insert");
    }
    map.insert(2, 9, 9).expect("insert");
    assert_eq!(check_final(&map, &[1, 2, 9, 4]), 0);
    // An injected bad write: key 3's latest value is not its version.
    map.insert_arc(3, 10, Arc::new(7)).expect("insert");
    assert_eq!(check_final(&map, &[1, 2, 9, 10]), 1);
}
