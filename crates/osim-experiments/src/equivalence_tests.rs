//! In-process equivalence properties for the parallel sweep runner.
//!
//! The pool contract is that worker count is invisible: `run_jobs(plan, n)`
//! returns the same results in the same order for every `n`, so the
//! rendered tables and `SimReport` JSON are byte-identical. These
//! properties drive that with randomized worker counts and fault-injection
//! specs; the CLI-level byte comparison lives in
//! `tests/jobs_byte_identical.rs`.

use proptest::prelude::*;

use osim_uarch::FaultPlan;

use crate::common::{report_run, Scale};
use crate::runner::{batch_lock, run_jobs, SweepJob};
use crate::{fig6, fig8, gc};

/// Serializes completed runs exactly as `--json` would: the pretty-printed
/// `SimReport` array, in plan order.
fn report_json(scale: &Scale, runs: &[crate::runner::SweepRun]) -> String {
    runs.iter()
        .map(|r| report_run(r, scale).to_json().to_pretty())
        .collect::<Vec<_>>()
        .join(",\n")
}

fn tiny_scale(inject: Option<&str>) -> Scale {
    let mut scale = Scale::tiny();
    scale.inject = inject.map(|spec| FaultPlan::parse(spec).expect("valid spec"));
    scale
}

fn plan_for(which: usize, scale: &Scale) -> Vec<SweepJob> {
    match which {
        0 => fig6::plan(scale),
        1 => fig8::plan(scale),
        _ => gc::plan(scale),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The worker count never leaks into the results: any `--jobs n`
    /// produces the serial run's SimReport JSON, byte for byte, under any
    /// fault-injection spec.
    #[test]
    fn parallel_sweep_json_matches_serial(
        jobs in 2usize..=8,
        which in 0usize..3,
        inject in prop_oneof![
            Just(None),
            Just(Some("pool-pressure")),
            Just(Some("latency-jitter")),
            Just(Some("chaos")),
        ],
    ) {
        let _g = batch_lock();
        let scale = tiny_scale(inject);
        let serial = run_jobs(plan_for(which, &scale), 1);
        let parallel = run_jobs(plan_for(which, &scale), jobs);
        prop_assert_eq!(serial.len(), parallel.len());
        prop_assert_eq!(
            report_json(&scale, &serial),
            report_json(&scale, &parallel),
            "jobs={} plan={} inject={:?}", jobs, which, inject
        );
    }
}
