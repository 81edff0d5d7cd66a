//! Sweep execution: ordered fan-out of [`SweepJob`]s over worker threads
//! and one host-side record per job.
//!
//! Callers first *plan* their work — a flat, ordered list of
//! [`SweepJob`]s carrying the figure/benchmark/tag labels and the exact
//! [`MachineCfg`] the renderer needs — and only then consume the
//! results. [`run_jobs`]'s workers share one iterator over
//! the plan: each pops the next job, runs it, and writes the result to
//! the slot of its submission index. One worker runs the loop inline on
//! the calling thread (the serial reference behaviour); more run it under
//! [`std::thread::scope`]. Consuming the slots in order makes everything
//! rendered from them byte-identical whatever the worker count.
//!
//! Every finished job pushes one [`JobTiming`] into a process-wide record
//! under one lock, and [`sweep_doc`] (`--sweep-json`) is the one
//! document over that record; the `--progress` line on stderr paints the
//! running batch's counts. Both are wall-clock observations that never
//! reach stdout or `--json`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use osim_cpu::MachineCfg;
use osim_metrics::json::{obj, Json};
use osim_report::{ReportScale, SimReport};
use osim_workloads::harness::DsResult;

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
    /// Performs the run. Builds its machine from a clone of `cfg`.
    pub run: Box<dyn FnOnce() -> DsResult + Send>,
}

impl SweepJob {
    /// A job running `f` on (a clone of) `cfg`.
    pub fn new(
        fig: &'static str,
        bench: &'static str,
        tag: String,
        cfg: MachineCfg,
        f: impl FnOnce(MachineCfg) -> DsResult + Send + 'static,
    ) -> Self {
        let job_cfg = cfg.clone();
        SweepJob {
            fig,
            bench,
            tag,
            cfg,
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

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the live stderr progress line for subsequent batches.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Host-side record of one job. Everything in here is wall-clock and
/// therefore nondeterministic — it must never leak into byte-compared
/// output.
struct JobTiming {
    /// The job's display label.
    label: String,
    /// Milliseconds between batch submission and the job starting.
    queue_ms: f64,
    /// Milliseconds the job ran for.
    run_ms: f64,
    /// Worker index (0 for the inline path).
    worker: usize,
    /// Engine events the run dispatched.
    events_dispatched: u64,
    /// Stale wakeups the run skipped.
    stale_events: u64,
}

/// Everything the process has run.
struct Record {
    /// Batches completed.
    batches: u64,
    /// Sum of completed batch wall times, in milliseconds.
    wall_ms: f64,
    /// One entry per finished job, in completion order.
    jobs: Vec<JobTiming>,
}

impl Record {
    /// Per-worker busy time (ms), indexed by worker.
    fn busy_ms(&self) -> Vec<f64> {
        let mut busy = Vec::new();
        for j in &self.jobs {
            if busy.len() <= j.worker {
                busy.resize(j.worker + 1, 0.0);
            }
            busy[j.worker] += j.run_ms;
        }
        busy
    }
}

fn record() -> MutexGuard<'static, Record> {
    static R: Mutex<Record> = Mutex::new(Record {
        batches: 0,
        wall_ms: 0.0,
        jobs: Vec::new(),
    });
    R.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `--sweep-json` document (`osim-sweep-telemetry-v2`) over every job
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
        ("schema", Json::Str("osim-sweep-telemetry-v2".to_string())),
        ("host_cpus", Json::from_u64(host_cpus as u64)),
        ("jobs_flag", Json::from_u64(jobs_flag as u64)),
        ("batches", Json::from_u64(rec.batches)),
        ("wall_ms", Json::Num(rec.wall_ms)),
        ("job_count", Json::from_u64(rec.jobs.len() as u64)),
        ("stale_event_rate", Json::Num(stale_rate)),
        ("workers", Json::Arr(workers)),
        ("jobs", Json::Arr(rows)),
    ])
}

/// One in-flight batch: the counts `--progress` paints.
struct Batch {
    started: Instant,
    total: usize,
    done: AtomicUsize,
    /// What each worker is on (`None` = idle).
    current: Vec<Mutex<Option<String>>>,
}

impl Batch {
    fn slot(&self, worker: usize) -> MutexGuard<'_, Option<String>> {
        self.current[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn begin(&self, worker: usize, label: &str) {
        *self.slot(worker) = Some(label.to_string());
        self.render();
    }

    fn end(&self, worker: usize) {
        self.done.fetch_add(1, Ordering::Relaxed);
        *self.slot(worker) = None;
        self.render();
    }

    fn render(&self) {
        if !PROGRESS.load(Ordering::Relaxed) {
            return;
        }
        let total = self.total;
        let done = self.done.load(Ordering::Relaxed);
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
        let remaining = total - done;
        let eta = if remaining == 0 {
            "0.0s".to_string()
        } else if done > 0 {
            format!("{:.1}s", elapsed / done as f64 * remaining as f64)
        } else {
            "?".to_string()
        };
        // \r keeps it a single live line; \x1b[K clears the tail of a
        // longer previous render.
        eprint!(
            "\r[sweep] {done}/{total} done, {running} running, {queued} queued, eta {eta} |{states}\x1b[K"
        );
    }

    /// Terminates the live line and prints the batch's final summary.
    fn close(&self) {
        if PROGRESS.load(Ordering::Relaxed) {
            let done = self.done.load(Ordering::Relaxed);
            let elapsed = self.started.elapsed().as_secs_f64();
            eprintln!();
            eprintln!("[sweep] done: {done} jobs in {elapsed:.1}s");
        }
    }
}

/// Runs one job, times it and records it.
fn exec(job: SweepJob, worker: usize, batch: &Batch) -> SweepRun {
    let queue_ms = batch.started.elapsed().as_secs_f64() * 1e3;
    let label = job.label();
    batch.begin(worker, &label);
    let started = Instant::now();
    let result = (job.run)();
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    record().jobs.push(JobTiming {
        label,
        queue_ms,
        run_ms,
        worker,
        events_dispatched: result.engine.events_dispatched,
        stale_events: result.engine.stale_events,
    });
    batch.end(worker);
    SweepRun {
        fig: job.fig,
        bench: job.bench,
        tag: job.tag,
        cfg: job.cfg,
        result,
    }
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
    let batch = Batch {
        started: Instant::now(),
        total: n,
        done: AtomicUsize::new(0),
        current: (0..workers).map(|_| Mutex::new(None)).collect(),
    };
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
        let out = exec(job, worker, &batch);
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
    drop(rec);
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|o| o.expect("a worker filled every slot"))
        .collect()
}

/// Serializes the tests that run batches: the record is process-global,
/// and the harness runs tests concurrently, so exact deltas need the
/// process to themselves.
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
    use std::sync::{Arc, Barrier};

    /// `n` tiny linked-list jobs labelled `fig/Linked list/job<i>`; each
    /// runs `before` first.
    fn tiny_jobs(
        fig: &'static str,
        n: usize,
        before: impl Fn() + Clone + Send + 'static,
    ) -> Vec<SweepJob> {
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
                SweepJob::new(fig, "Linked list", format!("job{i}"), cfg, move |m| {
                    before();
                    linked_list::run_versioned(m, &ds)
                })
            })
            .collect()
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

    /// The record and `--sweep-json` count the same jobs: the document is
    /// a view over the one record per job.
    #[test]
    fn the_views_agree_on_one_batch() {
        let _g = batch_lock();
        let n = 6;
        let mine = |label: &str| label.starts_with("views/");
        let runs = run_jobs(tiny_jobs("views", n, || ()), 3);
        assert_eq!(runs.len(), n);
        let recorded = record().jobs.iter().filter(|j| mine(&j.label)).count();
        let doc = sweep_doc(3);
        let rows = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .expect("jobs array")
            .iter()
            .filter(|r| r.get("label").and_then(Json::as_str).is_some_and(mine))
            .count();
        assert_eq!((recorded, rows), (n, n), "(record, sweep rows)");
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
        let doc = sweep_doc(n);
        let workers = doc.get("workers").and_then(Json::as_arr).expect("workers");
        for w in [0, 64, 69] {
            let row = &workers[w];
            assert_eq!(row.get("worker").and_then(Json::as_u64), Some(w as u64));
            let busy = row.get("busy_ms").and_then(Json::as_f64).expect("busy_ms");
            assert!(busy > 0.0, "worker {w} has no busy time");
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
