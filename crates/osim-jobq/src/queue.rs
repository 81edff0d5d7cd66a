//! Deterministic parallel execution of generic jobs.
//!
//! Callers first *plan* their work — a flat, ordered list of [`Job`]s —
//! and only then consume the results. The split lets the runs execute on
//! a worker pool: each job is built, run and torn down entirely inside
//! one worker thread, while results land in slots indexed by submission
//! order. Consuming the slots in that order makes everything rendered
//! from them byte-identical to a serial run regardless of worker count or
//! completion order.
//!
//! [`run_jobs`] takes a whole plan and returns the results in submission
//! order. Its workers share one iterator over the plan: each pops the
//! next `(index, job)`, runs it and writes the outcome to that index's
//! slot. One worker runs the loop inline on the calling thread (the
//! serial reference behaviour); more run it under [`std::thread::scope`].
//!
//! Jobs carrying a [`CacheKey`] are probed against the batch's
//! [`ResultCache`] before execution: a hit skips the run entirely and is
//! reported as an instantly-completed job — it contributes no worker busy
//! time and is excluded from the ETA's throughput estimate, but shows up
//! in the progress line and telemetry under a distinct `hit` label.
//!
//! The queue is additionally *instrumented*: every batch records per-job
//! queue wait and run wall time, the worker that executed it, cache-hit
//! status, and caller-defined engine counters into a process-wide
//! [`Telemetry`] accumulator (drained by `drain_telemetry`). With
//! [`set_progress`] armed a live status line — jobs queued/running/done,
//! cache hits, ETA, per-worker state — is maintained on **stderr**, so
//! stdout and any machine-readable output stay byte-identical whatever
//! the host timing does.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use osim_metrics::trace::{host_trace_armed, host_trace_span};
use osim_metrics::{Histogram, Registry};

use crate::key::CacheKey;

/// Worker tracks beyond this index fold into the last busy counter; 64
/// matches the `OMap` shard count and far exceeds any realistic `--jobs`.
const MAX_TRACKED_WORKERS: usize = 64;

/// Monotone live counters for the scrape plane.
///
/// Unlike [`Telemetry`] (drained once per invocation into `--sweep-json`),
/// these never reset: scrapers diff consecutive snapshots to recover
/// rates. The recording side is raw atomics plus a pre-allocated
/// histogram — no allocation, so recording cannot fail the
/// counting-allocator guard.
struct LiveMetrics {
    jobs_total: AtomicU64,
    cache_hits_total: AtomicU64,
    /// Jobs planned in a running batch, not yet claimed by a worker.
    queued: AtomicU64,
    /// Jobs currently executing (or probing the cache).
    running: AtomicU64,
    job_latency_us: Mutex<Histogram>,
    worker_busy_us: [AtomicU64; MAX_TRACKED_WORKERS],
}

fn live() -> &'static LiveMetrics {
    static LIVE: OnceLock<LiveMetrics> = OnceLock::new();
    LIVE.get_or_init(|| LiveMetrics {
        jobs_total: AtomicU64::new(0),
        cache_hits_total: AtomicU64::new(0),
        queued: AtomicU64::new(0),
        running: AtomicU64::new(0),
        job_latency_us: Mutex::new(Histogram::default()),
        worker_busy_us: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

/// Snapshots the queue's live metrics into `reg` under the
/// `osim_jobq_*` family names. Called by the scrape plane's collector.
pub fn fill_live_registry(reg: &mut Registry) {
    let m = live();
    reg.counter_add(
        "osim_jobq_jobs_total",
        &[],
        m.jobs_total.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "osim_jobq_cache_hits_total",
        &[],
        m.cache_hits_total.load(Ordering::Relaxed),
    );
    reg.gauge_set(
        "osim_jobq_queue_depth",
        &[],
        m.queued.load(Ordering::Relaxed) as f64,
    );
    reg.gauge_set(
        "osim_jobq_running",
        &[],
        m.running.load(Ordering::Relaxed) as f64,
    );
    {
        let h = m.job_latency_us.lock().unwrap_or_else(|e| e.into_inner());
        reg.hist_mut("osim_jobq_job_latency_us", &[]).merge(&h);
    }
    for (i, busy) in m.worker_busy_us.iter().enumerate() {
        let us = busy.load(Ordering::Relaxed);
        if us > 0 {
            reg.counter_add(
                "osim_jobq_worker_busy_us_total",
                &[("worker", &i.to_string())],
                us,
            );
        }
    }
}

/// One unit of work: an opaque closure plus the label and optional cache
/// key the queue needs to report and deduplicate it.
pub struct Job<R> {
    /// Display label (`fig/bench/tag` in the sweep runner).
    pub label: String,
    /// Content hash of everything that determines the result. `None`
    /// bypasses the cache even when one is armed.
    pub key: Option<CacheKey>,
    /// Performs the run.
    pub run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Job<R> {
    /// An uncached job running `f`.
    pub fn new(label: impl Into<String>, f: impl FnOnce() -> R + Send + 'static) -> Self {
        Job {
            label: label.into(),
            key: None,
            run: Box::new(f),
        }
    }

    /// A cacheable job: `key` must cover every input that affects `f`'s
    /// result.
    pub fn keyed(
        label: impl Into<String>,
        key: CacheKey,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            key: Some(key),
            run: Box::new(f),
        }
    }
}

/// A completed [`Job`]: its identity plus the result and how it was
/// obtained.
pub struct Outcome<R> {
    /// The job's display label.
    pub label: String,
    /// The job's cache key, if it had one.
    pub key: Option<CacheKey>,
    /// `true` when the result came from the cache instead of running.
    pub cache_hit: bool,
    /// The job's result.
    pub result: R,
}

/// A result cache consulted before running keyed jobs.
///
/// `lookup` returning `Some` must yield a value indistinguishable from
/// re-running the job — the queue trusts it blindly. Implementations are
/// expected to treat corrupt or unreadable entries as misses, never
/// errors.
pub trait ResultCache<R>: Send + Sync {
    /// Fetch a previously stored result, or `None` to run the job.
    fn lookup(&self, key: &CacheKey, label: &str) -> Option<R>;
    /// Persist a freshly computed result.
    fn store(&self, key: &CacheKey, label: &str, result: &R);
}

/// Extracts `(events_dispatched, stale_events)`-style deterministic
/// counters from a result for telemetry. Use [`no_counters`] when the
/// result type has none.
pub type CountersFn<R> = fn(&R) -> (u64, u64);

/// A [`CountersFn`] reporting zeros.
pub fn no_counters<R>(_: &R) -> (u64, u64) {
    (0, 0)
}

/// Host-side timing of one executed job. Everything in here is wall-clock
/// and therefore nondeterministic — it must never leak into byte-compared
/// output; it is only surfaced through telemetry sinks like `--sweep-json`.
#[derive(Debug, Clone)]
pub struct JobTiming {
    /// The job's display label.
    pub label: String,
    /// Milliseconds between batch submission and the job starting.
    pub queue_ms: f64,
    /// Milliseconds the job ran for (cache-probe time for hits).
    pub run_ms: f64,
    /// Worker index (0 for the inline path).
    pub worker: usize,
    /// `true` when the result was served from the cache.
    pub cache_hit: bool,
    /// First caller-defined counter (engine events dispatched, in osim).
    pub events_dispatched: u64,
    /// Second caller-defined counter (stale wakeups skipped, in osim).
    pub stale_events: u64,
}

/// Accumulated queue telemetry for the whole process: one entry per job
/// across every batch the invocation executed.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Batches executed.
    pub batches: u64,
    /// Sum of batch wall times, in milliseconds.
    pub wall_ms: f64,
    /// Per-worker busy time (ms), indexed by worker id. Cache hits
    /// contribute nothing here — no simulation ran.
    pub busy_ms: Vec<f64>,
    /// Jobs served from the result cache.
    pub cache_hits: u64,
    /// Keyed jobs that missed and had to run (unkeyed jobs count too
    /// when a cache was armed for their batch).
    pub cache_misses: u64,
    /// Per-job host-side timings, in completion-recording order.
    pub jobs: Vec<JobTiming>,
}

impl Telemetry {
    /// Total stale-event rate across every job (0 when nothing dispatched).
    pub fn stale_rate(&self) -> f64 {
        let dispatched: u64 = self.jobs.iter().map(|j| j.events_dispatched).sum();
        let stale: u64 = self.jobs.iter().map(|j| j.stale_events).sum();
        if dispatched == 0 {
            0.0
        } else {
            stale as f64 / dispatched as f64
        }
    }

    /// Per-worker utilization: busy time over accumulated batch wall time.
    pub fn utilization(&self) -> Vec<f64> {
        self.busy_ms
            .iter()
            .map(|&b| {
                if self.wall_ms > 0.0 {
                    b / self.wall_ms
                } else {
                    0.0
                }
            })
            .collect()
    }
}

static PROGRESS: AtomicBool = AtomicBool::new(false);

fn telemetry() -> &'static Mutex<Telemetry> {
    static T: OnceLock<Mutex<Telemetry>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(Telemetry::default()))
}

/// Arms (or disarms) the live stderr progress line for subsequent batches.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Takes the telemetry accumulated so far, leaving the accumulator empty.
pub fn drain_telemetry() -> Telemetry {
    std::mem::take(&mut *telemetry().lock().expect("telemetry mutex poisoned"))
}

/// Shared progress state of one in-flight batch.
struct Progress {
    started: Instant,
    total: AtomicUsize,
    done: AtomicUsize,
    hits: AtomicUsize,
    /// What each worker is currently running (`None` = idle).
    current: Vec<Mutex<Option<String>>>,
}

impl Progress {
    fn new(workers: usize) -> Self {
        Progress {
            started: Instant::now(),
            total: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            current: (0..workers).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn add_total(&self, n: usize) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    fn begin(&self, worker: usize, label: &str) {
        *self.current[worker]
            .lock()
            .expect("progress mutex poisoned") = Some(label.to_string());
        self.render();
    }

    fn finish(&self, worker: usize) {
        self.done.fetch_add(1, Ordering::Relaxed);
        *self.current[worker]
            .lock()
            .expect("progress mutex poisoned") = None;
        self.render();
    }

    /// A cache hit completes instantly: it never occupies the worker slot,
    /// is counted separately, and is shown with a distinct `hit:` label so
    /// the line reflects that no simulation ran.
    fn hit(&self, worker: usize, label: &str) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if PROGRESS.load(Ordering::Relaxed) {
            *self.current[worker]
                .lock()
                .expect("progress mutex poisoned") = Some(format!("hit:{label}"));
            self.render();
            *self.current[worker]
                .lock()
                .expect("progress mutex poisoned") = None;
        }
    }

    fn render(&self) {
        if !PROGRESS.load(Ordering::Relaxed) {
            return;
        }
        let total = self.total.load(Ordering::Relaxed);
        let done = self.done.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let mut running = 0usize;
        let mut states = String::new();
        for (i, slot) in self.current.iter().enumerate() {
            let cur = slot.lock().expect("progress mutex poisoned");
            match cur.as_deref() {
                Some(label) => {
                    running += 1;
                    states.push_str(&format!(" w{i}:{label}"));
                }
                None => states.push_str(&format!(" w{i}:idle")),
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

    /// Terminates the live line and prints the batch's final summary,
    /// including the cache hit/miss split that `--sweep-json` carries but
    /// the stderr surface previously omitted.
    fn close(&self) {
        if PROGRESS.load(Ordering::Relaxed) {
            let done = self.done.load(Ordering::Relaxed);
            let hits = self.hits.load(Ordering::Relaxed);
            let misses = done.saturating_sub(hits);
            let elapsed = self.started.elapsed().as_secs_f64();
            eprintln!();
            eprintln!(
                "[sweep] done: {done} jobs in {elapsed:.1}s ({hits} cache hits, {misses} misses)"
            );
        }
    }
}

/// Runs (or cache-serves) one job under the batch's progress/telemetry
/// instrumentation.
fn exec_timed<R>(
    job: Job<R>,
    worker: usize,
    batch_start: Instant,
    progress: &Progress,
    cache: Option<&dyn ResultCache<R>>,
    counters: CountersFn<R>,
) -> Outcome<R> {
    let Job { label, key, run } = job;
    let queue_ms = batch_start.elapsed().as_secs_f64() * 1e3;
    let m = live();
    m.running.fetch_add(1, Ordering::Relaxed);
    if let (Some(k), Some(c)) = (key.as_ref(), cache) {
        let probe_started = Instant::now();
        let hit = c.lookup(k, &label);
        if host_trace_armed() {
            let outcome = if hit.is_some() { "hit" } else { "miss" };
            host_trace_span(
                "cache",
                &format!("probe:{outcome} {label}"),
                worker as u64,
                probe_started,
            );
        }
        if let Some(result) = hit {
            let probe_ms = probe_started.elapsed().as_secs_f64() * 1e3;
            m.jobs_total.fetch_add(1, Ordering::Relaxed);
            m.cache_hits_total.fetch_add(1, Ordering::Relaxed);
            m.running.fetch_sub(1, Ordering::Relaxed);
            progress.hit(worker, &label);
            let (events_dispatched, stale_events) = counters(&result);
            let mut t = telemetry().lock().expect("telemetry mutex poisoned");
            t.cache_hits += 1;
            t.jobs.push(JobTiming {
                label: label.clone(),
                queue_ms,
                run_ms: probe_ms,
                worker,
                cache_hit: true,
                events_dispatched,
                stale_events,
            });
            return Outcome {
                label,
                key,
                cache_hit: true,
                result,
            };
        }
    }
    progress.begin(worker, &label);
    let started = Instant::now();
    let result = run();
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    if host_trace_armed() {
        host_trace_span("job", &label, worker as u64, started);
    }
    let run_us = (run_ms * 1e3) as u64;
    m.jobs_total.fetch_add(1, Ordering::Relaxed);
    m.job_latency_us
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record(run_us);
    m.worker_busy_us[worker.min(MAX_TRACKED_WORKERS - 1)].fetch_add(run_us, Ordering::Relaxed);
    m.running.fetch_sub(1, Ordering::Relaxed);
    if let (Some(k), Some(c)) = (key.as_ref(), cache) {
        c.store(k, &label, &result);
    }
    progress.finish(worker);
    let (events_dispatched, stale_events) = counters(&result);
    let mut t = telemetry().lock().expect("telemetry mutex poisoned");
    if t.busy_ms.len() <= worker {
        t.busy_ms.resize(worker + 1, 0.0);
    }
    t.busy_ms[worker] += run_ms;
    if cache.is_some() {
        t.cache_misses += 1;
    }
    t.jobs.push(JobTiming {
        label: label.clone(),
        queue_ms,
        run_ms,
        worker,
        cache_hit: false,
        events_dispatched,
        stale_events,
    });
    Outcome {
        label,
        key,
        cache_hit: false,
        result,
    }
}

/// How a batch executes: worker count, optional result cache, and the
/// telemetry counters extractor.
pub struct RunCfg<R> {
    /// Worker threads. `<= 1` runs inline on the calling thread.
    pub threads: usize,
    /// Result cache consulted for keyed jobs.
    pub cache: Option<Arc<dyn ResultCache<R>>>,
    /// Extracts deterministic counters from each result for telemetry.
    pub counters: CountersFn<R>,
}

impl<R> RunCfg<R> {
    /// Serial, uncached, counter-less execution.
    pub fn serial() -> Self {
        RunCfg {
            threads: 1,
            cache: None,
            counters: no_counters,
        }
    }

    /// Uncached execution on `threads` workers.
    pub fn threads(threads: usize) -> Self {
        RunCfg {
            threads,
            cache: None,
            counters: no_counters,
        }
    }
}

/// Runs a whole plan, returning results in submission order. Workers pop
/// `(index, job)` pairs from one shared iterator and write each outcome
/// to its slot; one worker (or a single job) runs on the calling thread —
/// the serial reference behaviour. Either way the returned order, and
/// therefore everything rendered from it, is identical.
pub fn run_jobs<R: Send + 'static>(jobs: Vec<Job<R>>, cfg: RunCfg<R>) -> Vec<Outcome<R>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let batch_start = Instant::now();
    let workers = cfg.threads.clamp(1, n);
    let progress = Progress::new(workers);
    progress.add_total(n);
    live().queued.fetch_add(n as u64, Ordering::Relaxed);
    let pending = Mutex::new(jobs.into_iter().enumerate());
    let slots: Mutex<Vec<Option<Outcome<R>>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |worker: usize| loop {
        let next = pending.lock().expect("job queue mutex poisoned").next();
        let Some((idx, job)) = next else {
            return;
        };
        live().queued.fetch_sub(1, Ordering::Relaxed);
        let outcome = exec_timed(
            job,
            worker,
            batch_start,
            &progress,
            cfg.cache.as_deref(),
            cfg.counters,
        );
        slots.lock().expect("job slots mutex poisoned")[idx] = Some(outcome);
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
    progress.close();
    let mut t = telemetry().lock().expect("telemetry mutex poisoned");
    t.batches += 1;
    t.wall_ms += batch_start.elapsed().as_secs_f64() * 1e3;
    slots
        .into_inner()
        .expect("job slots mutex poisoned")
        .into_iter()
        .map(|o| o.expect("a worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::MutexGuard;

    use crate::key::KeyBuilder;

    /// The telemetry accumulator is process-global and the test harness
    /// runs tests concurrently, so every test that executes jobs holds
    /// this lock to keep exact assertions meaningful.
    fn guard() -> MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        L.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn job(i: u64) -> Job<u64> {
        Job::new(format!("job{i}"), move || i * 10)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let _g = guard();
        // 32 workers is more than there are jobs.
        for threads in [1, 2, 4, 32] {
            let jobs: Vec<Job<u64>> = (0..16).map(job).collect();
            let outs = run_jobs(jobs, RunCfg::threads(threads));
            assert_eq!(outs.len(), 16, "threads={threads}");
            for (i, o) in outs.iter().enumerate() {
                assert_eq!(o.label, format!("job{i}"), "threads={threads}");
                assert_eq!(o.result, i as u64 * 10, "threads={threads}");
                assert!(!o.cache_hit, "threads={threads}");
            }
        }
    }

    #[test]
    fn inline_and_empty_paths() {
        let _g = guard();
        assert_eq!(
            run_jobs((0..2).map(job).collect(), RunCfg::serial()).len(),
            2
        );
        assert_eq!(
            run_jobs(Vec::<Job<u64>>::new(), RunCfg::threads(8)).len(),
            0
        );
    }

    struct MapCache {
        entries: Mutex<HashMap<CacheKey, u64>>,
        lookups: AtomicU64,
        stores: AtomicU64,
    }

    impl MapCache {
        fn new() -> Self {
            MapCache {
                entries: Mutex::new(HashMap::new()),
                lookups: AtomicU64::new(0),
                stores: AtomicU64::new(0),
            }
        }
    }

    impl ResultCache<u64> for MapCache {
        fn lookup(&self, key: &CacheKey, _label: &str) -> Option<u64> {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().expect("lock").get(key).copied()
        }
        fn store(&self, key: &CacheKey, _label: &str, result: &u64) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().expect("lock").insert(*key, *result);
        }
    }

    fn keyed_jobs(n: u64) -> Vec<Job<u64>> {
        (0..n)
            .map(|i| {
                let key = KeyBuilder::new("test", 1).u64_field("i", i).finish();
                Job::keyed(format!("job{i}"), key, move || i * 10)
            })
            .collect()
    }

    #[test]
    fn cache_hits_skip_execution_and_are_counted() {
        let _g = guard();
        drain_telemetry();
        let cache = Arc::new(MapCache::new());
        let cfg = |c: &Arc<MapCache>| RunCfg {
            threads: 2,
            cache: Some(Arc::clone(c) as Arc<dyn ResultCache<u64>>),
            counters: no_counters,
        };
        let cold = run_jobs(keyed_jobs(6), cfg(&cache));
        assert!(cold.iter().all(|o| !o.cache_hit));
        assert_eq!(cache.stores.load(Ordering::Relaxed), 6);
        let warm = run_jobs(keyed_jobs(6), cfg(&cache));
        assert!(warm.iter().all(|o| o.cache_hit));
        assert_eq!(
            cache.stores.load(Ordering::Relaxed),
            6,
            "hits must not re-store"
        );
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.result, w.result);
            assert_eq!(c.label, w.label);
        }
        let t = drain_telemetry();
        assert_eq!(t.cache_hits, 6);
        assert_eq!(t.cache_misses, 6);
        let hits: Vec<&JobTiming> = t.jobs.iter().filter(|j| j.cache_hit).collect();
        assert_eq!(hits.len(), 6);
        // Satellite: hits are not folded into worker busy time. Six tiny
        // closures can't account for less than the probe-only total, so
        // just assert busy time only came from the cold batch.
        let busy: f64 = t.busy_ms.iter().sum();
        let cold_run: f64 = t
            .jobs
            .iter()
            .filter(|j| !j.cache_hit)
            .map(|j| j.run_ms)
            .sum();
        assert!(
            (busy - cold_run).abs() < 1e-6,
            "busy {busy} vs cold runs {cold_run}"
        );
    }

    #[test]
    fn unkeyed_jobs_bypass_an_armed_cache() {
        let _g = guard();
        let cache = Arc::new(MapCache::new());
        let outs = run_jobs(
            (0..3).map(job).collect(),
            RunCfg {
                threads: 1,
                cache: Some(Arc::clone(&cache) as Arc<dyn ResultCache<u64>>),
                counters: no_counters,
            },
        );
        assert!(outs.iter().all(|o| !o.cache_hit));
        assert_eq!(cache.lookups.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stores.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn live_registry_reflects_executed_jobs() {
        let _g = guard();
        let before = {
            let mut reg = Registry::new();
            fill_live_registry(&mut reg);
            reg.counter("osim_jobq_jobs_total", &[])
        };
        let outs = run_jobs((0..5).map(job).collect(), RunCfg::threads(2));
        assert_eq!(outs.len(), 5);
        let mut reg = Registry::new();
        fill_live_registry(&mut reg);
        let after = reg.counter("osim_jobq_jobs_total", &[]);
        assert!(
            after >= before + 5,
            "jobs_total {after} should advance by at least 5 over {before}"
        );
        // All five jobs completed, so nothing is left queued or running.
        assert!(reg.hist("osim_jobq_job_latency_us", &[]).is_some());
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE osim_jobq_jobs_total counter"));
        assert!(text.contains("osim_jobq_queue_depth 0"));
        assert!(text.contains("osim_jobq_running 0"));
    }

    #[test]
    fn telemetry_records_every_job() {
        let _g = guard();
        drain_telemetry();
        let outs = run_jobs((0..4).map(job).collect(), RunCfg::threads(2));
        assert_eq!(outs.len(), 4);
        let t = drain_telemetry();
        assert!(t.batches >= 1);
        let mine: Vec<&JobTiming> = t
            .jobs
            .iter()
            .filter(|j| j.label.starts_with("job"))
            .collect();
        assert!(mine.len() >= 4);
        for j in mine {
            assert!(j.run_ms >= 0.0 && j.queue_ms >= 0.0, "{}", j.label);
        }
        assert!(!t.utilization().is_empty());
        assert!((0.0..=1.0).contains(&t.stale_rate()));
    }
}
