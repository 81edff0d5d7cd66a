//! The `store-mixed` workload over `ostructs-core` and its output checks.
//!
//! One client thread runs the closed loop while a second thread drives
//! the vacuum, so reads and writes meet on the same cells and background
//! passes contend with them. Two client threads were tried on the 2-vCPU
//! host this was sized on: each run settled into one of two regimes for
//! its whole length (sampled-op p50 near 0.6 µs or near 1.5 µs, and
//! 1.26-1.55 Mop/s against 2.06 Mop/s for one client), so no per-run
//! statistic could hold still from one run to the next.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use osim_metrics::Registry;
use ostructs_core::{fill_store_registry, OMap, ReaderRegistry, Vacuum, VacuumCfg};

use crate::calib;
use crate::report::{Outcome, Values};
use crate::splitmix64;
use crate::stats::{median, percentile, percentile_supported, sorted, tail};
use crate::trace::{self, Tracer};

/// Keys in the map (smoke scale: 256).
const KEYS: usize = 4096;
/// One operation in this many is timed.
const SAMPLE_EVERY: u64 = 512;
/// Timed operations kept: a uniform sample of all of them, so the memory
/// they take does not grow with the number of operations a run completes,
/// which follows host speed. Every run times more than this.
const RESERVOIR: usize = 16_384;
/// Operations in one timed round (smoke scale: 1024); each round is
/// preceded by the calibration kernel.
const ROUND_OPS: u64 = 65_536;
/// Vacuum pass cadence and watermark-lag poll interval.
const VACUUM_EVERY: Duration = Duration::from_millis(5);
const LAG_POLL: Duration = Duration::from_millis(100);
/// Untimed warm-up operations per set-up (smoke scale: 512).
const WARMUP_OPS: u64 = 100_000;
/// The run is cut into this many epochs, each setting up a fresh map and
/// measuring it for an equal share of the run; the median set-up is
/// reported. Spreading the set-ups over the run keeps a host slowdown
/// lasting a few seconds from touching most of them.
const EPOCHS: u64 = 9;
/// Spans the client keeps in a traced run.
const CLIENT_SPANS: usize = 150_000;

/// A zipf(s = 1) sampler over ranks `0..n` via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let u = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Whether a pinned read is acceptable: present, no newer than the
/// reader's cap, and no older than the key's preloaded version. Values
/// equal the version that wrote them, so this bounds the version read.
pub fn check_get(preload: u64, cap: u64, got: Option<u64>) -> bool {
    matches!(got, Some(v) if v >= preload && v <= cap)
}

/// Counts keys whose latest value is not `want[key]`, the highest
/// version written to it.
pub fn check_final(map: &OMap<u32, u64>, want: &[u64]) -> u64 {
    want.iter()
        .enumerate()
        .filter(|&(k, &w)| map.get_arc(&(k as u32), u64::MAX).map(|v| *v) != Some(w))
        .count() as u64
}

/// The map, its registry and vacuum, and the generated inputs.
struct State {
    reg: ReaderRegistry,
    map: OMap<u32, u64>,
    /// Version (= value) each key was preloaded at.
    preload: Vec<u64>,
    /// Zipf rank → key: a seeded permutation, so the hot keys (and their
    /// shards) differ between seeds.
    by_rank: Vec<u32>,
    zipf: Zipf,
    vacuum: Vacuum,
}

impl State {
    fn build(seed: u64, keys: usize) -> State {
        let reg = ReaderRegistry::new();
        // Passes are driven by the benchmark (see `run`), so each pause is
        // timed at nanosecond resolution; the vacuum's own cadence would
        // record only a log2 microsecond histogram.
        let vacuum = Vacuum::start(
            reg.clone(),
            VacuumCfg {
                interval: Duration::from_secs(24 * 3600),
            },
        );
        let map: OMap<u32, u64> = OMap::new();
        vacuum.track(&map);
        let preload = (0..keys as u32)
            .map(|k| {
                let v = reg.next_version();
                map.insert(k, v, v).expect("fresh versions never collide");
                v
            })
            .collect();
        let mut rng = seed;
        let mut by_rank: Vec<u32> = (0..keys as u32).collect();
        for i in (1..keys).rev() {
            by_rank.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
        }
        State {
            reg,
            map,
            preload,
            by_rank,
            zipf: Zipf::new(keys),
            vacuum,
        }
    }

    /// Times one vacuum pass: `(pause ns, versions reclaimed, start, end)`.
    fn timed_pass(&self) -> (f64, u64, Instant, Instant) {
        let t0 = Instant::now();
        let reclaimed = self.vacuum.run_pass();
        let t1 = Instant::now();
        ((t1 - t0).as_nanos() as f64, reclaimed, t0, t1)
    }
}

/// One timed operation. For a get, `a` is pin plus unpin and `b` the
/// lookup alone; for a put, `a` is the insert alone.
#[derive(Debug, Clone, Copy)]
struct OpSample {
    put: bool,
    total_ns: u32,
    a_ns: u32,
    b_ns: u32,
}

/// The closed-loop client and what it did.
struct Client {
    rng: u64,
    ops: u64,
    gets: u64,
    puts: u64,
    failed: u64,
    /// At most `reservoir` timed operations, a uniform sample of the
    /// `timed` ones; `pick` draws the places.
    samples: Vec<OpSample>,
    reservoir: usize,
    timed: u64,
    pick: u64,
    /// Highest version written to each key.
    written: Vec<u64>,
    tracer: Tracer,
}

fn ns(a: Instant, b: Instant) -> u32 {
    (b - a).as_nanos().min(u128::from(u32::MAX)) as u32
}

impl Client {
    /// A client whose op stream is drawn from `(seed, stream)`.
    /// It keeps at most `reservoir` timed operations.
    fn new(seed: u64, stream: u64, keys: usize, tracer: Tracer, reservoir: usize) -> Self {
        let mut rng = seed ^ (stream + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        splitmix64(&mut rng);
        Client {
            rng,
            ops: 0,
            gets: 0,
            puts: 0,
            failed: 0,
            samples: Vec::with_capacity(reservoir),
            reservoir,
            timed: 0,
            pick: !rng,
            written: vec![0; keys],
            tracer,
        }
    }

    /// The closed loop for `n` operations: 90% pinned gets, 10% inserts,
    /// zipf key choice.
    fn run(&mut self, st: &State, n: u64) {
        for _ in 0..n {
            self.op(st);
        }
    }

    /// Offers a timed operation to the reservoir (Algorithm R): every
    /// operation timed so far has had the same chance of being kept.
    fn keep(&mut self, s: OpSample) {
        self.timed += 1;
        if self.samples.len() < self.reservoir {
            self.samples.push(s);
        } else {
            let j = (splitmix64(&mut self.pick) % self.timed) as usize;
            if j < self.reservoir {
                self.samples[j] = s;
            }
        }
    }

    fn op(&mut self, st: &State) {
        let key = st.by_rank[st.zipf.sample(&mut self.rng)];
        let put = splitmix64(&mut self.rng).is_multiple_of(10);
        let sampled = self.ops.is_multiple_of(SAMPLE_EVERY);
        let id = self.ops;
        self.ops += 1;
        let k = key as usize;
        if put {
            self.puts += 1;
            let t0 = sampled.then(Instant::now);
            let v = st.reg.next_version();
            let t1 = sampled.then(Instant::now);
            let r = st.map.insert(key, v, v);
            if let (Some(t0), Some(t1)) = (t0, t1) {
                let t2 = Instant::now();
                self.keep(OpSample {
                    put: true,
                    total_ns: ns(t0, t2),
                    a_ns: ns(t1, t2),
                    b_ns: 0,
                });
                self.tracer.record("store.put", None, id, t0, t2);
            }
            match r {
                Ok(()) => self.written[k] = self.written[k].max(v),
                Err(_) => self.failed += 1,
            }
        } else {
            self.gets += 1;
            let t0 = sampled.then(Instant::now);
            let pin = st.reg.pin();
            let t1 = sampled.then(Instant::now);
            let got = st.map.get_arc(&key, pin.cap()).map(|v| *v);
            let t2 = sampled.then(Instant::now);
            let cap = pin.cap();
            drop(pin);
            if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                let t3 = Instant::now();
                self.keep(OpSample {
                    put: false,
                    total_ns: ns(t0, t3),
                    a_ns: ns(t0, t1) + ns(t2, t3),
                    b_ns: ns(t1, t2),
                });
                let parent = self.tracer.record("store.get", None, id, t0, t3);
                if parent.is_some() {
                    self.tracer.record("store.pin", parent, id, t0, t1);
                    self.tracer.record("store.unpin", parent, id, t2, t3);
                }
            }
            if !check_get(st.preload[k], cap, got) {
                self.failed += 1;
            }
        }
    }

    /// Folds this client's writes into `want`, the highest version written
    /// to each key.
    fn merge_written(&self, want: &mut [u64]) {
        for (w, &x) in want.iter_mut().zip(&self.written) {
            *w = (*w).max(x);
        }
    }
}

/// Everything the store layers did during a run.
#[derive(Default)]
struct StoreRun {
    ops: u64,
    gets: u64,
    puts: u64,
    failed: u64,
    /// Timed operations kept, out of `timed`.
    samples: Vec<OpSample>,
    timed: u64,
    pauses_ns: Vec<f64>,
    reclaimed: u64,
    lag_max: u64,
    contention: u64,
    publishes: u64,
}

impl StoreRun {
    fn absorb(&mut self, c: &mut Client) {
        self.ops += c.ops;
        self.gets += c.gets;
        self.puts += c.puts;
        self.failed += c.failed;
        self.samples.append(&mut c.samples);
        self.timed += c.timed;
    }

    /// The per-layer store and vacuum values.
    fn values(&self, v: &mut Values) {
        let series = |f: &dyn Fn(&OpSample) -> Option<u32>| {
            sorted(
                &self
                    .samples
                    .iter()
                    .filter_map(f)
                    .map(f64::from)
                    .collect::<Vec<_>>(),
            )
        };
        let gets = series(&|s| (!s.put).then_some(s.total_ns));
        let puts = series(&|s| s.put.then_some(s.total_ns));
        let pins = series(&|s| (!s.put).then_some(s.a_ns));
        let get_only = series(&|s| (!s.put).then_some(s.b_ns));
        let inserts = series(&|s| s.put.then_some(s.a_ns));
        let pauses_us: Vec<f64> = self.pauses_ns.iter().map(|p| p / 1e3).collect();
        let pauses_us = sorted(&pauses_us);
        v.set("store.gets", self.gets as f64);
        v.set("store.puts", self.puts as f64);
        for (name, data) in [
            ("store.pin_ns_p50", &pins),
            ("store.get_only_ns_p50", &get_only),
            ("store.insert_ns_p50", &inserts),
        ] {
            v.set_noted(name, percentile(data, 0.5), format!("n={}", data.len()));
        }
        for (name, data) in [
            ("store.get_ns", &gets),
            ("store.put_ns", &puts),
            ("vacuum.pause_us", &pauses_us),
        ] {
            let n = format!("n={}", data.len());
            v.set_noted(format!("{name}_p50"), percentile(data, 0.5), n.clone());
            let (q, value) = percentile_supported(data, 0.99);
            let note = if q < 0.99 {
                format!("{n}; too few samples for p99, reporting p{}", q * 100.0)
            } else {
                n
            };
            v.set_noted(format!("{name}_p99"), value, note);
        }
        v.set(
            "store.shard_contention_frac",
            if self.ops == 0 {
                0.0
            } else {
                self.contention as f64 / self.ops as f64
            },
        );
        v.set("store.snapshot_publishes", self.publishes as f64);
        v.set("vacuum.passes", self.pauses_ns.len() as f64);
        v.set("vacuum.reclaimed", self.reclaimed as f64);
        v.set("vacuum.watermark_lag_max", self.lag_max as f64);
    }
}

/// The process-global store counters `(contention, publishes)`.
fn global_counters() -> (u64, u64) {
    let mut reg = Registry::new();
    fill_store_registry(&mut reg);
    (
        reg.counter("osim_store_lock_contention_total", &[]),
        reg.counter("osim_store_snapshot_publish_total", &[]),
    )
}

/// Runs the calibration kernel inside a `calibrate` span; returns its
/// duration in nanoseconds.
fn calibrate(tr: &mut Tracer, id: u64) -> f64 {
    let t0 = Instant::now();
    let ns = calib::kernel_ns();
    tr.record("calibrate", None, id, t0, Instant::now());
    ns
}

/// Runs `store-mixed`: `EPOCHS` times a fresh set-up followed by
/// `seconds / EPOCHS` of measured closed loop, in rounds of `ROUND_OPS`.
/// Every set-up and every round is preceded by the calibration kernel, and
/// its timing is scaled to the reference host (see [`calib`]).
pub fn run(seed: u64, seconds: f64, smoke: bool, traced: bool, epoch0: Instant) -> Outcome {
    let keys = if smoke { 256 } else { KEYS };
    let warmup_ops = if smoke { 512 } else { WARMUP_OPS };
    let round_ops = if smoke { 1024 } else { ROUND_OPS };
    let epochs = if smoke { 1 } else { EPOCHS };
    let per_epoch = Duration::from_secs_f64(seconds / epochs as f64);
    let mut out = Outcome::default();
    let mut setup_tr = Tracer::new(traced, epoch0, 0, usize::MAX);
    let mut vac_tr = Tracer::new(traced, epoch0, 2, usize::MAX);
    let tracer = Tracer::new(traced, epoch0, 1, CLIENT_SPANS);
    let mut client = Client::new(seed, 0, keys, tracer, RESERVOIR);
    let mut setup_s = Vec::new();
    let mut warm_run = StoreRun::default();
    let mut run = StoreRun::default();
    // Adjusted throughput of each round (ops per reference-host ns), the
    // kernel's durations, and the plain time of all rounds.
    let mut rounds = Vec::new();
    let mut kernel_ns = Vec::new();
    let mut elapsed = 0.0;
    let mut final_bad = 0;

    for epoch in 0..epochs {
        let k = calibrate(&mut setup_tr, epoch);
        let t0 = Instant::now();
        let span = setup_tr.open("setup", None, epoch);
        let st = State::build(seed, keys);
        // Every set-up repeats the same work: the same map, then the same
        // warm-up op stream.
        let mut warm = Client::new(seed, 1, keys, Tracer::new(false, epoch0, 0, 0), 0);
        warm.run(&st, warmup_ops);
        setup_tr.close(span);
        setup_s.push(calib::duration(t0.elapsed().as_secs_f64(), k));

        // Warm-up ops are checked like the measured ones but not timed.
        let mut want = st.preload.clone();
        warm_run.absorb(&mut warm);
        warm.merge_written(&mut want);

        let (contention0, publishes0) = global_counters();
        let stop_vacuum = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (st, stop, vac_tr) = (&st, &stop_vacuum, &mut vac_tr);
            let first = run.pauses_ns.len();
            let vacuum = s.spawn(move || {
                let mut pauses = Vec::new();
                let (mut reclaimed, mut lag_max) = (0, 0);
                let mut polled = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(VACUUM_EVERY);
                    let (p, r, t0, t1) = st.timed_pass();
                    let id = (first + pauses.len()) as u64;
                    vac_tr.record("vacuum.pass", None, id, t0, t1);
                    pauses.push(p);
                    reclaimed += r;
                    if polled.elapsed() >= LAG_POLL {
                        lag_max = lag_max.max(st.reg.watermark_lag());
                        polled = Instant::now();
                    }
                }
                (pauses, reclaimed, lag_max)
            });
            client.written.fill(0);
            let until = Instant::now() + per_epoch;
            loop {
                let k = calibrate(&mut client.tracer, rounds.len() as u64);
                let t0 = Instant::now();
                client.run(st, round_ops);
                let t1 = Instant::now();
                let ns = (t1 - t0).as_nanos() as f64;
                elapsed += ns / 1e9;
                kernel_ns.push(k);
                rounds.push(calib::speed(round_ops as f64 / ns, k));
                if t1 >= until {
                    break;
                }
            }
            stop_vacuum.store(true, Ordering::Release);
            let (pauses, reclaimed, lag_max) = vacuum.join().expect("vacuum thread panicked");
            run.pauses_ns.extend(pauses);
            run.reclaimed += reclaimed;
            run.lag_max = run.lag_max.max(lag_max);
        });
        let (contention1, publishes1) = global_counters();
        run.contention += contention1 - contention0;
        run.publishes += publishes1 - publishes0;
        client.merge_written(&mut want);
        final_bad += check_final(&st.map, &want);
    }
    out.values.set("setup_s", median(&setup_s));
    run.absorb(&mut client);
    out.attempted = warm_run.ops + run.ops;
    out.failed = warm_run.failed + run.failed + final_bad;

    let mops = median(&rounds) * 1e3;
    let all = sorted(
        &run.samples
            .iter()
            .map(|s| f64::from(s.total_ns) / 1e3)
            .collect::<Vec<_>>(),
    );
    let (tq, tv) = tail(&all);
    out.values.set_noted(
        "mops_per_s",
        mops,
        format!(
            "median adjusted speed of {} rounds of {round_ops} ops; unadjusted mean {:.4} Mop/s; kernel p50 {:.3} ms; {} of {} timed ops: p50 {:.3} us, p{} {:.3} us",
            rounds.len(),
            run.ops as f64 / elapsed / 1e6,
            median(&kernel_ns) / 1e6,
            all.len(),
            run.timed,
            percentile(&all, 0.5),
            tq * 100.0,
            tv
        ),
    );
    out.values.set("trace.mops_per_s", mops);
    if traced {
        run.values(&mut out.values);
        out.ledger.push(format!(
            "store: {} ops in {elapsed:.3} s over {epochs} epochs, {final_bad} final-state mismatches, {} spans not kept",
            run.ops, client.tracer.dropped
        ));
    }
    out.spans = trace::merge(vec![
        setup_tr.into_spans(),
        client.tracer.into_spans(),
        vac_tr.into_spans(),
    ]);
    out
}

/// The store and vacuum values of a workload that does not drive the
/// store: all zero.
pub fn idle_values(v: &mut Values) {
    StoreRun::default().values(v);
}
