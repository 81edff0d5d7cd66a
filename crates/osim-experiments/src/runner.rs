//! Sweep execution: ordered fan-out of [`SweepJob`]s over worker threads,
//! the run-cache probe, and one host-side record per job.
//!
//! Callers first *plan* their work — a flat, ordered list of
//! [`SweepJob`]s carrying the figure/benchmark/tag labels, the exact
//! [`MachineCfg`] the renderer needs, and the [`CacheKey`] of the job's
//! fully-rendered configuration (see [`crate::runcache`]) — and only then
//! consume the results. [`run_jobs`]'s workers share one iterator over
//! the plan: each pops the next job, runs it, and writes the result to
//! the slot of its submission index. One worker runs the loop inline on
//! the calling thread (the serial reference behaviour); more run it under
//! [`std::thread::scope`]. Consuming the slots in order makes everything
//! rendered from them byte-identical whatever the worker count.
//!
//! When an invocation arms a cache directory via `--cache`, each worker
//! probes it before simulating: a hit decodes the stored schema-v5 entry
//! back into a [`DsResult`] indistinguishable from a fresh run, so every
//! rendered table and `--json` byte stays identical; a miss simulates and
//! stores. A hit completes instantly: it adds no worker busy time and is
//! left out of the progress line's ETA.
//!
//! Every finished job pushes one [`JobTiming`] into a process-wide record
//! under one lock. The host-side views are functions over that record
//! plus the in-flight batches' counts: [`sweep_doc`] (`--sweep-json`),
//! [`fill_registry`] (the `osim_jobq_*` families of `/metrics`), and the
//! `--progress` line on stderr. All of them are wall-clock observations
//! that never reach stdout or `--json`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use osim_cpu::MachineCfg;
use osim_metrics::trace::{host_trace_armed, host_trace_span};
use osim_metrics::Registry;
use osim_report::json::{obj, Json};
use osim_report::{ReportScale, SimReport};
use osim_workloads::harness::DsResult;

use crate::common::Scale;
use crate::key::CacheKey;
use crate::runcache::{self, RunCache};

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
    rscale: ReportScale,
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

    /// `fig/bench/tag`: the job's display label.
    pub fn label(&self) -> String {
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

impl SweepRun {
    /// The run's schema-v5 report at report-form scale `rscale`.
    pub fn report(&self, rscale: ReportScale) -> SimReport {
        let r = &self.result;
        SimReport::new(
            self.fig,
            self.bench,
            &self.tag,
            &self.cfg,
            rscale,
            r.cycles,
            r.cpu.clone(),
            r.mem.clone(),
            r.ostats.clone(),
            r.engine,
            r.hists.clone(),
        )
    }
}

fn cache_slot() -> MutexGuard<'static, Option<Arc<RunCache>>> {
    static C: Mutex<Option<Arc<RunCache>>> = Mutex::new(None);
    C.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms (or disarms, with `None`) the invocation-wide run cache used by
/// subsequent [`run_jobs`] batches.
pub fn set_cache(cache: Option<Arc<RunCache>>) {
    *cache_slot() = cache;
}

/// The currently armed run cache, if any.
pub fn cache() -> Option<Arc<RunCache>> {
    cache_slot().clone()
}

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the live stderr progress line for subsequent batches.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// How a job met the run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// No cache was armed.
    Off,
    /// Served from the cache; nothing ran.
    Hit,
    /// Not in the cache: the job ran and its entry was stored.
    Miss,
}

/// Host-side record of one job. Everything in here is wall-clock and
/// therefore nondeterministic — it must never leak into byte-compared
/// output.
struct JobTiming {
    /// The job's display label.
    label: String,
    /// Milliseconds between batch submission and the job starting.
    queue_ms: f64,
    /// Milliseconds the job ran for (cache-probe time for hits).
    run_ms: f64,
    /// Worker index (0 for the inline path).
    worker: usize,
    /// Whether the result came from the cache.
    probe: Probe,
    /// Engine events the run dispatched.
    events_dispatched: u64,
    /// Stale wakeups the run skipped.
    stale_events: u64,
}

/// Everything the process has run, plus the batches still running.
struct Record {
    /// Batches completed.
    batches: u64,
    /// Sum of completed batch wall times, in milliseconds.
    wall_ms: f64,
    /// One entry per finished job, in completion order.
    jobs: Vec<JobTiming>,
    /// In-flight batches, for the queue-depth and running gauges.
    inflight: Vec<Arc<Batch>>,
}

impl Record {
    fn executed(&self) -> impl Iterator<Item = &JobTiming> {
        self.jobs.iter().filter(|j| j.probe != Probe::Hit)
    }

    /// Per-worker busy time (ms), indexed by worker. Hits ran nothing.
    fn busy_ms(&self) -> Vec<f64> {
        let mut busy = Vec::new();
        for j in self.executed() {
            if busy.len() <= j.worker {
                busy.resize(j.worker + 1, 0.0);
            }
            busy[j.worker] += j.run_ms;
        }
        busy
    }

    fn count(&self, probe: Probe) -> u64 {
        self.jobs.iter().filter(|j| j.probe == probe).count() as u64
    }
}

fn record() -> MutexGuard<'static, Record> {
    static R: Mutex<Record> = Mutex::new(Record {
        batches: 0,
        wall_ms: 0.0,
        jobs: Vec::new(),
        inflight: Vec::new(),
    });
    R.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `--sweep-json` document (`osim-sweep-telemetry-v1`) over every job
/// the process has run so far.
pub fn sweep_doc(jobs_flag: usize) -> Json {
    let rec = record();
    let workers = rec
        .busy_ms()
        .into_iter()
        .enumerate()
        .map(|(i, busy)| {
            let util = if rec.wall_ms > 0.0 {
                busy / rec.wall_ms
            } else {
                0.0
            };
            obj(vec![
                ("worker", Json::from_u64(i as u64)),
                ("busy_ms", Json::Num(busy)),
                ("utilization", Json::Num(util)),
            ])
        })
        .collect();
    let rows = rec
        .jobs
        .iter()
        .map(|j| {
            obj(vec![
                ("label", Json::Str(j.label.clone())),
                ("queue_ms", Json::Num(j.queue_ms)),
                ("run_ms", Json::Num(j.run_ms)),
                ("worker", Json::from_u64(j.worker as u64)),
                ("cache_hit", Json::Bool(j.probe == Probe::Hit)),
                ("events_dispatched", Json::from_u64(j.events_dispatched)),
                ("stale_events", Json::from_u64(j.stale_events)),
            ])
        })
        .collect();
    let dispatched: u64 = rec.jobs.iter().map(|j| j.events_dispatched).sum();
    let stale: u64 = rec.jobs.iter().map(|j| j.stale_events).sum();
    let stale_rate = if dispatched == 0 {
        0.0
    } else {
        stale as f64 / dispatched as f64
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("schema", Json::Str("osim-sweep-telemetry-v1".to_string())),
        ("host_cpus", Json::from_u64(host_cpus as u64)),
        ("jobs_flag", Json::from_u64(jobs_flag as u64)),
        ("batches", Json::from_u64(rec.batches)),
        ("wall_ms", Json::Num(rec.wall_ms)),
        ("job_count", Json::from_u64(rec.jobs.len() as u64)),
        ("cache_hits", Json::from_u64(rec.count(Probe::Hit))),
        ("cache_misses", Json::from_u64(rec.count(Probe::Miss))),
        ("stale_event_rate", Json::Num(stale_rate)),
        ("workers", Json::Arr(workers)),
        ("jobs", Json::Arr(rows)),
    ])
}

/// Renders the sweep's `osim_jobq_*` families into `reg`. Counters are
/// monotone over the process, so scrapers diff snapshots to get rates.
pub fn fill_registry(reg: &mut Registry) {
    let rec = record();
    reg.counter_add("osim_jobq_jobs_total", &[], rec.jobs.len() as u64);
    reg.counter_add("osim_jobq_cache_hits_total", &[], rec.count(Probe::Hit));
    let (mut queued, mut running) = (0, 0);
    for b in &rec.inflight {
        let busy = b.running();
        running += busy;
        queued += b
            .total
            .saturating_sub(b.done.load(Ordering::Relaxed) + busy);
    }
    reg.gauge_set("osim_jobq_queue_depth", &[], queued as f64);
    reg.gauge_set("osim_jobq_running", &[], running as f64);
    let latency = reg.hist_mut("osim_jobq_job_latency_us", &[]);
    for j in rec.executed() {
        latency.record((j.run_ms * 1e3) as u64);
    }
    for (i, busy) in rec.busy_ms().into_iter().enumerate() {
        let us = (busy * 1e3) as u64;
        if us > 0 {
            reg.counter_add(
                "osim_jobq_worker_busy_us_total",
                &[("worker", &i.to_string())],
                us,
            );
        }
    }
}

/// One in-flight batch: the counts `--progress` paints and the `/metrics`
/// gauges read.
struct Batch {
    started: Instant,
    total: usize,
    done: AtomicUsize,
    hits: AtomicUsize,
    /// What each worker is on (`None` = idle).
    current: Vec<Mutex<Option<String>>>,
}

impl Batch {
    fn slot(&self, worker: usize) -> MutexGuard<'_, Option<String>> {
        self.current[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Workers with a job in hand.
    fn running(&self) -> usize {
        (0..self.current.len())
            .filter(|&w| self.slot(w).is_some())
            .count()
    }

    fn begin(&self, worker: usize, label: &str) {
        *self.slot(worker) = Some(label.to_string());
        self.render();
    }

    /// A hit is shown once under a `hit:` label, so the line reflects
    /// that no simulation ran.
    fn end(&self, worker: usize, hit: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(label) = self.slot(worker).as_mut() {
                label.insert_str(0, "hit:");
            }
            self.render();
        }
        *self.slot(worker) = None;
        if !hit {
            self.render();
        }
    }

    fn render(&self) {
        if !PROGRESS.load(Ordering::Relaxed) {
            return;
        }
        let total = self.total;
        let done = self.done.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let mut running = 0usize;
        let mut states = String::new();
        for w in 0..self.current.len() {
            match self.slot(w).as_deref() {
                Some(label) => {
                    running += 1;
                    states.push_str(&format!(" w{w}:{label}"));
                }
                None => states.push_str(&format!(" w{w}:idle")),
            }
        }
        let queued = total.saturating_sub(done + running);
        let elapsed = self.started.elapsed().as_secs_f64();
        // ETA extrapolates from *executed* jobs only: cache hits are
        // effectively free, and folding them into the throughput estimate
        // would make the remaining (possibly uncached) work look faster
        // than it is.
        let executed = done - hits;
        let remaining = total - done;
        let eta = if remaining == 0 {
            "0.0s".to_string()
        } else if executed > 0 {
            format!("{:.1}s", elapsed / executed as f64 * remaining as f64)
        } else if hits > 0 {
            // Everything so far was a hit; assume the rest will be too.
            "~0s".to_string()
        } else {
            "?".to_string()
        };
        let hit_note = if hits > 0 {
            format!(" ({hits} hit)")
        } else {
            String::new()
        };
        // \r keeps it a single live line; \x1b[K clears the tail of a
        // longer previous render.
        eprint!(
            "\r[sweep] {done}/{total} done{hit_note}, {running} running, {queued} queued, eta {eta} |{states}\x1b[K"
        );
    }

    /// Terminates the live line and prints the batch's final summary.
    fn close(&self) {
        if PROGRESS.load(Ordering::Relaxed) {
            let done = self.done.load(Ordering::Relaxed);
            let hits = self.hits.load(Ordering::Relaxed);
            let elapsed = self.started.elapsed().as_secs_f64();
            eprintln!();
            eprintln!(
                "[sweep] done: {done} jobs in {elapsed:.1}s ({hits} cache hits, {} misses)",
                done - hits
            );
        }
    }
}

/// Runs (or cache-serves) one job and records it.
fn exec(job: SweepJob, worker: usize, batch: &Batch, cache: Option<&RunCache>) -> SweepRun {
    let queue_ms = batch.started.elapsed().as_secs_f64() * 1e3;
    let label = job.label();
    batch.begin(worker, &label);
    let started = Instant::now();
    let hit = cache.and_then(|c| c.lookup(&job));
    if cache.is_some() && host_trace_armed() {
        let outcome = if hit.is_some() { "hit" } else { "miss" };
        host_trace_span(
            "cache",
            &format!("probe:{outcome} {label}"),
            worker as u64,
            started,
        );
    }
    let SweepJob {
        fig,
        bench,
        tag,
        cfg,
        key,
        rscale,
        run,
    } = job;
    let (result, probe, run_started) = match hit {
        Some(result) => (result, Probe::Hit, started),
        None => {
            let run_started = Instant::now();
            let result = run();
            host_trace_span("job", &label, worker as u64, run_started);
            let probe = if cache.is_some() {
                Probe::Miss
            } else {
                Probe::Off
            };
            (result, probe, run_started)
        }
    };
    let run_ms = run_started.elapsed().as_secs_f64() * 1e3;
    let out = SweepRun {
        fig,
        bench,
        tag,
        cfg,
        result,
    };
    if let (Probe::Miss, Some(c)) = (probe, cache) {
        c.store(&key, rscale, &out);
    }
    let timing = JobTiming {
        label,
        queue_ms,
        run_ms,
        worker,
        probe,
        events_dispatched: out.result.engine.events_dispatched,
        stale_events: out.result.engine.stale_events,
    };
    record().jobs.push(timing);
    batch.end(worker, probe == Probe::Hit);
    out
}

/// Runs a whole plan on up to `threads` workers, returning results in
/// submission order. Workers pop jobs from one shared iterator and write
/// each result to its slot; one worker (or a single job) runs on the
/// calling thread — the serial reference behaviour. Either way the
/// returned order, and therefore everything rendered from it, is
/// identical.
pub fn run_jobs(jobs: Vec<SweepJob>, threads: usize) -> Vec<SweepRun> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    let batch = Arc::new(Batch {
        started: Instant::now(),
        total: n,
        done: AtomicUsize::new(0),
        hits: AtomicUsize::new(0),
        current: (0..workers).map(|_| Mutex::new(None)).collect(),
    });
    record().inflight.push(Arc::clone(&batch));
    let cache = cache();
    let pending = Mutex::new(jobs.into_iter().enumerate());
    let slots: Mutex<Vec<Option<SweepRun>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |worker: usize| loop {
        let next = pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next();
        let Some((idx, job)) = next else {
            return;
        };
        let out = exec(job, worker, &batch, cache.as_deref());
        slots.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(out);
    };
    if workers == 1 {
        work(0);
    } else {
        let work = &work;
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || work(w));
            }
        });
    }
    batch.close();
    let mut rec = record();
    rec.batches += 1;
    rec.wall_ms += batch.started.elapsed().as_secs_f64() * 1e3;
    rec.inflight.retain(|b| !Arc::ptr_eq(b, &batch));
    drop(rec);
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|o| o.expect("a worker filled every slot"))
        .collect()
}

/// Serializes the tests that run batches: the record and the
/// `osim_jobq_*` counters are process-global, and the harness runs tests
/// concurrently, so exact deltas need the process to themselves.
#[cfg(test)]
pub(crate) fn batch_lock() -> MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osim_workloads::harness::DsCfg;
    use osim_workloads::linked_list;
    use std::sync::Barrier;

    /// `n` tiny linked-list jobs labelled `fig/Linked list/job<i>`; each
    /// runs `before` first.
    fn tiny_jobs(
        fig: &'static str,
        n: usize,
        before: impl Fn() + Clone + Send + 'static,
    ) -> Vec<SweepJob> {
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
                let before = before.clone();
                SweepJob::new(
                    fig,
                    "Linked list",
                    format!("job{i}"),
                    &scale,
                    cfg,
                    move |m| {
                        before();
                        linked_list::run_versioned(m, &ds)
                    },
                )
            })
            .collect()
    }

    fn jobs_total() -> u64 {
        let mut reg = Registry::new();
        fill_registry(&mut reg);
        reg.counter("osim_jobq_jobs_total", &[])
    }

    #[test]
    fn parallel_results_match_serial_in_order_and_value() {
        let _g = batch_lock();
        let serial = run_jobs(tiny_jobs("test", 5, || ()), 1);
        let parallel = run_jobs(tiny_jobs("test", 5, || ()), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.tag, p.tag);
            assert_eq!(s.result.cycles, p.result.cycles, "{}", s.tag);
            assert_eq!(s.result.ok, p.result.ok);
        }
    }

    #[test]
    fn zero_and_one_thread_run_inline() {
        let _g = batch_lock();
        assert_eq!(run_jobs(tiny_jobs("test", 2, || ()), 0).len(), 2);
        assert_eq!(run_jobs(Vec::new(), 8).len(), 0);
    }

    /// A warm batch is served from the cache: every job is a hit, and
    /// hits add nothing to worker busy time.
    #[test]
    fn cache_hits_skip_execution_and_are_counted() {
        let _g = batch_lock();
        let dir = std::env::temp_dir().join(format!("osim-runner-hits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(RunCache::at_dir(&dir));
        set_cache(Some(Arc::clone(&cache)));
        let busy_before = record().busy_ms().iter().sum::<f64>();
        let cold = run_jobs(tiny_jobs("cached", 4, || ()), 2);
        let busy_cold = record().busy_ms().iter().sum::<f64>();
        let warm = run_jobs(tiny_jobs("cached", 4, || ()), 2);
        let busy_warm = record().busy_ms().iter().sum::<f64>();
        set_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.result.cycles, w.result.cycles, "{}", c.tag);
        }
        let probes: Vec<Probe> = record()
            .jobs
            .iter()
            .filter(|j| j.label.starts_with("cached/"))
            .map(|j| j.probe)
            .collect();
        assert_eq!(probes, [[Probe::Miss; 4], [Probe::Hit; 4]].concat());
        let c = cache.counts();
        assert_eq!((c.hits, c.misses, c.stores), (4, 4, 4));
        assert!(busy_cold > busy_before);
        assert_eq!(busy_warm, busy_cold, "hits ran nothing");
    }

    /// `/metrics`, the record, `--sweep-json` and the host trace all count
    /// the same jobs: each is a view over the one record per job.
    #[test]
    fn the_views_agree_on_one_batch() {
        let _g = batch_lock();
        let n = 6;
        let mine = |label: &str| label.starts_with("views/");
        let before = jobs_total();
        osim_metrics::host_trace_arm(true);
        let runs = run_jobs(tiny_jobs("views", n, || ()), 3);
        osim_metrics::host_trace_arm(false);
        assert_eq!(runs.len(), n);
        let metric = jobs_total() - before;
        let recorded = record().jobs.iter().filter(|j| mine(&j.label)).count();
        let doc = sweep_doc(3);
        let rows = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .expect("jobs array")
            .iter()
            .filter(|r| r.get("label").and_then(Json::as_str).is_some_and(mine))
            .count();
        let spans = osim_metrics::host_trace_drain()
            .into_iter()
            .filter(|s| s.cat == "job" && mine(&s.name))
            .count();
        assert_eq!(
            (metric, recorded, rows, spans),
            (n as u64, n, n, n),
            "(jobs_total delta, record, sweep rows, job spans)"
        );
        // The batch is over: nothing is left queued or running.
        let mut reg = Registry::new();
        fill_registry(&mut reg);
        assert_eq!(reg.gauge("osim_jobq_queue_depth", &[]), Some(0.0));
        assert_eq!(reg.gauge("osim_jobq_running", &[]), Some(0.0));
        assert!(reg.hist("osim_jobq_job_latency_us", &[]).is_some());
    }

    /// Every job is labelled with its true worker index, however many
    /// workers a batch has.
    #[test]
    fn workers_beyond_64_get_their_own_busy_series() {
        let _g = batch_lock();
        let n = 70;
        // Each job holds its worker until all `n` are claimed, so every
        // worker runs exactly one.
        let barrier = Arc::new(Barrier::new(n));
        let runs = run_jobs(
            tiny_jobs("wide", n, move || {
                barrier.wait();
            }),
            n,
        );
        assert_eq!(runs.len(), n);
        let mut reg = Registry::new();
        fill_registry(&mut reg);
        for w in [0, 64, 69] {
            let busy = reg.counter(
                "osim_jobq_worker_busy_us_total",
                &[("worker", &w.to_string())],
            );
            assert!(busy > 0, "worker {w} has no busy series");
        }
        let wide: Vec<usize> = record()
            .jobs
            .iter()
            .filter(|j| j.label.starts_with("wide/"))
            .map(|j| j.worker)
            .collect();
        assert_eq!(wide.len(), n);
        assert_eq!(wide.iter().max(), Some(&(n - 1)));
    }
}
