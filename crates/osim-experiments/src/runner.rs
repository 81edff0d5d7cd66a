//! Sweep execution on the shared `osim-jobq` queue.
//!
//! The worker pool that used to live here (as `pool.rs`) is now the
//! generic [`osim_jobq`] crate; this module keeps the sweep-specific
//! surface: [`SweepJob`]s carry the figure/benchmark/tag labels and the
//! exact [`MachineCfg`] the renderer needs, and — new with the run cache —
//! a [`CacheKey`] derived from the fully-rendered job configuration (see
//! [`crate::runcache`]). When an invocation arms a cache directory via
//! `--cache`, [`run_jobs`] probes it before simulating: hits decode the
//! stored schema-v5 entry back into a [`DsResult`] that is
//! indistinguishable from a fresh run, so every rendered table and
//! `--json` byte stays identical; misses simulate and store.
//!
//! Ordering, determinism and telemetry semantics are unchanged from the
//! PR-3/PR-6 pool: results return in submission order whatever the worker
//! count, and `--progress`/`--sweep-json` observe wall-clock only on
//! stderr/side files.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use osim_cpu::MachineCfg;
use osim_jobq::{CacheKey, Job, ResultCache, RunCfg, TextStore};
use osim_workloads::harness::DsResult;

use crate::common::Scale;
use crate::runcache::{self, BatchCache, JobCtx};

pub use osim_jobq::{drain_telemetry, set_progress};

/// One simulator run of a sweep: the closure that performs it plus the
/// labels and machine configuration the renderer needs to report it.
pub struct SweepJob {
    /// Experiment the job belongs to (`"fig6"`, `"gc"`, …).
    pub fig: &'static str,
    /// Benchmark display name (the paper's figure labels).
    pub bench: &'static str,
    /// Variant tag, exactly as it appears in the emitted [`SimReport`]s.
    pub tag: String,
    /// The machine configuration the run is launched with.
    pub cfg: MachineCfg,
    /// Content hash of the fully-rendered job configuration.
    pub key: CacheKey,
    /// Report-form scale, needed to rebuild the embedded report on store.
    rscale: osim_report::ReportScale,
    /// Performs the run. Builds its machine from a clone of `cfg`.
    pub run: Box<dyn FnOnce() -> DsResult + Send>,
}

impl SweepJob {
    /// A job running `f` on (a clone of) `cfg`, cacheable under the key of
    /// its fully-rendered configuration.
    pub fn new(
        fig: &'static str,
        bench: &'static str,
        tag: String,
        scale: &Scale,
        cfg: MachineCfg,
        f: impl FnOnce(MachineCfg) -> DsResult + Send + 'static,
    ) -> Self {
        let job_cfg = cfg.clone();
        let key = runcache::job_key(fig, bench, &tag, &cfg, scale);
        SweepJob {
            fig,
            bench,
            tag,
            cfg,
            key,
            rscale: scale.report(),
            run: Box::new(move || f(job_cfg)),
        }
    }

    fn label(&self) -> String {
        format!("{}/{}/{}", self.fig, self.bench, self.tag)
    }
}

/// A completed [`SweepJob`]: its labels and configuration plus the result.
pub struct SweepRun {
    /// Experiment the job belonged to.
    pub fig: &'static str,
    /// Benchmark display name.
    pub bench: &'static str,
    /// Variant tag.
    pub tag: String,
    /// The machine configuration the run was launched with.
    pub cfg: MachineCfg,
    /// The workload's result.
    pub result: DsResult,
}

fn cache_slot() -> &'static Mutex<Option<Arc<TextStore>>> {
    static C: OnceLock<Mutex<Option<Arc<TextStore>>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(None))
}

/// Arms (or disarms, with `None`) the invocation-wide run cache used by
/// subsequent [`run_jobs`] batches.
pub fn set_cache(store: Option<Arc<TextStore>>) {
    *cache_slot().lock().expect("cache slot poisoned") = store;
}

/// The currently armed run-cache store, if any.
pub fn cache_store() -> Option<Arc<TextStore>> {
    cache_slot().lock().expect("cache slot poisoned").clone()
}

/// Deterministic engine counters surfaced in `--sweep-json`.
fn engine_counters(r: &DsResult) -> (u64, u64) {
    (r.engine.events_dispatched, r.engine.stale_events)
}

/// Runs `jobs` on up to `threads` workers, returning results in submission
/// order; see [`osim_jobq::run_jobs`] for the ordering contract and
/// [`crate::runcache`] for what a cache hit means.
pub fn run_jobs(jobs: Vec<SweepJob>, threads: usize) -> Vec<SweepRun> {
    let store = cache_store();
    let mut metas: Vec<(&'static str, &'static str, String, MachineCfg)> =
        Vec::with_capacity(jobs.len());
    let mut queue_jobs: Vec<Job<DsResult>> = Vec::with_capacity(jobs.len());
    let mut ctx: HashMap<CacheKey, JobCtx> = HashMap::new();
    for job in jobs {
        let label = job.label();
        let SweepJob {
            fig,
            bench,
            tag,
            cfg,
            key,
            rscale,
            run,
        } = job;
        let key = store.is_some().then_some(key);
        if let Some(k) = key {
            ctx.insert(
                k,
                JobCtx {
                    fig,
                    bench,
                    tag: tag.clone(),
                    cfg: cfg.clone(),
                    rscale,
                },
            );
        }
        metas.push((fig, bench, tag, cfg));
        queue_jobs.push(Job { label, key, run });
    }
    let cache: Option<Arc<dyn ResultCache<DsResult>>> =
        store.map(|s| Arc::new(BatchCache::new(s, ctx)) as Arc<dyn ResultCache<DsResult>>);
    let outcomes = osim_jobq::run_jobs(
        queue_jobs,
        RunCfg {
            threads,
            cache,
            counters: engine_counters,
        },
    );
    metas
        .into_iter()
        .zip(outcomes)
        .map(|((fig, bench, tag, cfg), o)| SweepRun {
            fig,
            bench,
            tag,
            cfg,
            result: o.result,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osim_cpu::MachineCfg;
    use osim_workloads::harness::DsCfg;
    use osim_workloads::linked_list;

    fn tiny_jobs(n: usize) -> Vec<SweepJob> {
        let scale = Scale::tiny();
        (0..n)
            .map(|i| {
                let cfg = MachineCfg::paper(1 + i % 2);
                let ds = DsCfg {
                    initial: 8,
                    ops: 8,
                    reads_per_write: 1,
                    scan_range: 0,
                    key_space: 32,
                    seed: 7 + i as u64,
                    insert_only: false,
                };
                SweepJob::new(
                    "test",
                    "Linked list",
                    format!("job{i}"),
                    &scale,
                    cfg,
                    move |m| linked_list::run_versioned(m, &ds),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_results_match_serial_in_order_and_value() {
        let serial = run_jobs(tiny_jobs(5), 1);
        let parallel = run_jobs(tiny_jobs(5), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.tag, p.tag);
            assert_eq!(s.result.cycles, p.result.cycles, "{}", s.tag);
            assert_eq!(s.result.ok, p.result.ok);
        }
    }

    #[test]
    fn zero_and_one_thread_run_inline() {
        assert_eq!(run_jobs(tiny_jobs(2), 0).len(), 2);
        assert_eq!(run_jobs(Vec::new(), 8).len(), 0);
    }

    #[test]
    fn telemetry_records_every_job() {
        let n = 4;
        let runs = run_jobs(tiny_jobs(n), 2);
        assert_eq!(runs.len(), n);
        // The accumulator is process-global and other tests run
        // concurrently in this binary, so assert on lower bounds and on
        // this test's own labels rather than exact totals.
        let t = drain_telemetry();
        assert!(t.batches >= 1);
        assert!(t.wall_ms >= 0.0);
        let mine: Vec<&osim_jobq::JobTiming> = t
            .jobs
            .iter()
            .filter(|j| j.label.starts_with("test/Linked list/job"))
            .collect();
        assert!(mine.len() >= n, "{} timed jobs", mine.len());
        for j in mine {
            assert!(j.run_ms >= 0.0 && j.queue_ms >= 0.0, "{}", j.label);
            assert!(j.events_dispatched > 0, "{}", j.label);
        }
        assert!(!t.utilization().is_empty());
        assert!((0.0..=1.0).contains(&t.stale_rate()));
    }
}
