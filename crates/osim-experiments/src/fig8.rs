//! Figure 8: snapshot isolation — versioned binary tree vs an unversioned
//! tree protected by a read-write lock.
//!
//! Paper setup: initial tree of 10000, scans and inserts 3:1, scan ranges
//! 1/8/64, 4–32 cores. Expected shape: the versioned tree loses at low
//! core counts (fixed versioning overhead) and wins as cores grow because
//! scans overlap inserts; the paper reports average self-speedups of 12.2
//! (versioned) vs 7.9 (rwlock) and an average versioned advantage of 16%.

use osim_report::SimReport;
use osim_workloads::btree;
use osim_workloads::harness::DsCfg;

use crate::common::{checked_run, f2, machine, report_run, Scale};
use crate::runner::{SweepJob, SweepRun};

const CORE_COUNTS: [usize; 4] = [4, 8, 16, 32];
const SCAN_RANGES: [u32; 3] = [1, 8, 64];

fn cfg(scale: &Scale, scan_range: u32) -> DsCfg {
    DsCfg {
        initial: scale.large,
        ops: scale.ops,
        reads_per_write: 3, // 3 scans per insert
        scan_range,
        key_space: scale.large as u32 * 4,
        seed: 0x0f18,
        insert_only: true,
    }
}

/// The sweep in [`render`] order: per scan range, the single-core
/// (versioned, rwlock) pair, then the same pair at each core count.
pub fn plan(scale: &Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for range in SCAN_RANGES {
        let c = cfg(scale, range);
        let cv = c.clone();
        jobs.push(SweepJob::new(
            "fig8",
            "Binary tree",
            format!("versioned-r{range}-1c"),
            machine(scale, 1, None, 0),
            move |m| btree::run_versioned(m, &cv),
        ));
        let cr = c.clone();
        jobs.push(SweepJob::new(
            "fig8",
            "Binary tree",
            format!("rwlock-r{range}-1c"),
            machine(scale, 1, None, 0),
            move |m| btree::run_rwlock(m, &cr),
        ));
        for cores in CORE_COUNTS {
            let cv = c.clone();
            jobs.push(SweepJob::new(
                "fig8",
                "Binary tree",
                format!("versioned-r{range}-{cores}c"),
                machine(scale, cores, None, 0),
                move |m| btree::run_versioned(m, &cv),
            ));
            let cr = c.clone();
            jobs.push(SweepJob::new(
                "fig8",
                "Binary tree",
                format!("rwlock-r{range}-{cores}c"),
                machine(scale, cores, None, 0),
                move |m| btree::run_rwlock(m, &cr),
            ));
        }
    }
    jobs
}

/// Prints the snapshot-isolation table from completed runs (in [`plan`]
/// order).
pub fn render(scale: &Scale, runs: &[SweepRun], out: &mut Vec<SimReport>) {
    println!(
        "## Figure 8 — versioned BST vs read-write-lock BST (ratio > 1 means versioned faster)\n"
    );
    println!(
        "scale: {scale:?}; mix: 3 scans : 1 insert, initial {} elements\n",
        scale.large
    );
    println!(
        "| Scan range | 4 | 8 | 16 | 32 | versioned self-speedup @32 | rwlock self-speedup @32 |"
    );
    println!("|---|---|---|---|---|---|---|");

    let mut next = runs.iter();
    let mut take = || {
        let run = next.next().expect("plan and render agree on job count");
        checked_run(run);
        out.push(report_run(run, scale));
        run
    };

    for range in SCAN_RANGES {
        let vseq = take();
        let rseq = take();
        let mut cells = Vec::new();
        let mut self_v = 0.0;
        let mut self_r = 0.0;
        for cores in CORE_COUNTS {
            let v = take();
            let r = take();
            cells.push(f2(r.result.cycles as f64 / v.result.cycles as f64));
            if cores == 32 {
                self_v = vseq.result.cycles as f64 / v.result.cycles as f64;
                self_r = rseq.result.cycles as f64 / r.result.cycles as f64;
            }
        }
        println!(
            "| {range} | {} | {} | {} | {} | {} | {} |",
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            f2(self_v),
            f2(self_r)
        );
    }
    println!();
}

pub fn run(scale: &Scale, jobs: usize, out: &mut Vec<SimReport>) {
    let runs = crate::runner::run_jobs(plan(scale), jobs);
    render(scale, &runs, out);
}
