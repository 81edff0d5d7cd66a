//! Content-addressed run cache: key derivation, the entry codec, and the
//! cache directory.
//!
//! Every sweep job is a pure function of its *fully-rendered*
//! configuration — the figure/benchmark/tag triple (which fixes the
//! workload program and its `DsCfg`), the exact [`MachineCfg`] it launches
//! with, and the invocation [`Scale`] — because the simulator is
//! byte-deterministic across `--jobs` worker counts. That makes results
//! perfectly cacheable: [`job_key`] hashes exactly the semantic inputs
//! (the fingerprint tests below check each one moves the key; the
//! host-only worker count and progress have no parameter to arrive
//! through), and [`RunCache::lookup`] maps hits back into [`DsResult`]s
//! that are indistinguishable from a fresh run.
//!
//! Entries are single JSON documents (`osim-cache-entry-v1`): the run's
//! schema-v5 [`SimReport`] — reusing `osim-report`'s serialization, whose
//! `to_json` recomputes every derived float from counters so a decode →
//! re-render round trip is byte-exact — plus the few result fields a
//! report does not carry (validation ok/detail, capture window, dep
//! edges, drop counts, oracle findings) — and a trailing whole-body
//! checksum. Decoding verifies the checksum, then goes through the
//! PR-7-hardened JSON parser and `SimReport::validate`; any failure
//! invalidates the entry and counts as a miss, never an error.
//!
//! The cache is its directory: one file per entry, named
//! `<32-hex-key>.json`. Writes go through a temp file + atomic rename, so
//! readers — including concurrent sweeps sharing the directory — only
//! ever observe complete entries. A torn write can at worst leave a stray
//! temp file, never a half-entry under the final name. Every I/O anomaly
//! is a miss, never an error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use osim_cpu::{DepEdge, MachineCfg, ShakePolicy, StallCause};
use osim_metrics::{Histogram, Registry};
use osim_report::json::{self, obj, Json};
use osim_report::{ReportScale, SimReport};
use osim_uarch::OracleReport;
use osim_workloads::harness::DsResult;

use crate::common::Scale;
use crate::key::{CacheKey, KeyBuilder};
use crate::runner::{SweepJob, SweepRun};

/// Engine-semantics version: bump this whenever a change can alter
/// *simulated* timing or results, so stale cache entries can never be
/// served. The constant participates in every [`job_key`], so bumping it
/// invalidates the whole cache by construction (old entries keep their
/// old keys and are simply never looked up again).
///
/// Bump-when checklist — any of these invalidates every cached run:
/// - [ ] timing/latency model changes in `osim-engine`, `osim-mem`,
///   `osim-uarch`, or `osim-cpu` (cycle accounting, cache geometry
///   defaults, trap costs, wakeup/coherence modeling)
/// - [ ] workload program changes in `osim-workloads` (op generation,
///   reference replay, per-benchmark task bodies) — the programs are
///   compiled into this binary, so this constant stands in for hashing
///   their bytes
/// - [ ] report semantics: `SCHEMA_VERSION` bumps, counter meaning
///   changes, new fields derived from simulation
/// - [ ] key derivation or entry codec changes in this module
///
/// Host-only changes (`--jobs`, progress rendering, telemetry sinks) must
/// NOT bump it: they are excluded from the key precisely because they
/// cannot affect simulated output.
pub const ENGINE_SEMANTICS_VERSION: u64 = 1;

/// Entry document schema tag.
pub const ENTRY_SCHEMA: &str = "osim-cache-entry-v1";

const KEY_DOMAIN: &str = "osim-run-v1";

/// The cache key of one sweep job: a stable hash over everything that
/// determines its simulated output, and nothing that doesn't.
pub fn job_key(fig: &str, bench: &str, tag: &str, cfg: &MachineCfg, scale: &Scale) -> CacheKey {
    let mut kb = KeyBuilder::new(KEY_DOMAIN, ENGINE_SEMANTICS_VERSION)
        // Identity: fixes the workload program and its data-structure
        // config (each plan derives those deterministically from
        // fig/tag/scale).
        .str_field("fig", fig)
        .str_field("bench", bench)
        .str_field("tag", tag)
        // Workload sizes.
        .u64_field("scale.small", scale.small as u64)
        .u64_field("scale.large", scale.large as u64)
        .u64_field("scale.ops", scale.ops as u64)
        .u64_field("scale.mat_n", scale.mat_n as u64)
        .u64_field("scale.lev_len", scale.lev_len as u64)
        // Machine geometry and latencies.
        .u64_field("cfg.cores", cfg.cores as u64)
        .u64_field("hier.l1.size_bytes", cfg.hier.l1.size_bytes as u64)
        .u64_field("hier.l1.assoc", cfg.hier.l1.assoc as u64)
        .u64_field("hier.l1.hit_latency", cfg.hier.l1.hit_latency)
        .u64_field("hier.l2.size_bytes", cfg.hier.l2.size_bytes as u64)
        .u64_field("hier.l2.assoc", cfg.hier.l2.assoc as u64)
        .u64_field("hier.l2.hit_latency", cfg.hier.l2.hit_latency)
        .u64_field("hier.dram_latency", cfg.hier.dram_latency)
        .u64_field("cfg.ram_bytes", cfg.ram_bytes)
        .u64_field("cfg.issue_width", cfg.issue_width)
        .u64_field("cfg.malloc_instrs", cfg.malloc_instrs)
        .opt_u64_field("cfg.watchdog_cycles", cfg.watchdog_cycles)
        // Same-cycle tie-break perturbation: a seeded shake changes
        // simulated interleavings, so it is semantic.
        .opt_u64_field(
            "cfg.shake_seed",
            match cfg.shake {
                ShakePolicy::Off => None,
                ShakePolicy::Seeded(s) => Some(s),
            },
        )
        // Capture arms extra observation output (dep edges, samples)
        // that lands in reports, so it is part of the rendered config.
        .u64_field("capture.dep_edges", cfg.capture.dep_edges as u64)
        .u64_field("capture.sample_every", cfg.capture.sample_every)
        .u64_field("capture.samples", cfg.capture.samples as u64)
        // O-structure manager.
        .u64_field(
            "omgr.initial_free_blocks",
            cfg.omgr.initial_free_blocks as u64,
        )
        .u64_field("omgr.refill_blocks", cfg.omgr.refill_blocks as u64)
        .u64_field("omgr.trap_latency", cfg.omgr.trap_latency)
        .u64_field(
            "omgr.versioned_extra_latency",
            cfg.omgr.versioned_extra_latency,
        )
        .bool_field("omgr.sorted_insertion", cfg.omgr.sorted_insertion)
        .u64_field("omgr.gc_watermark", cfg.omgr.gc.watermark as u64)
        .u64_field(
            "omgr.refill_retry_limit",
            cfg.omgr.refill_retry_limit as u64,
        )
        .bool_field("omgr.oracles", cfg.omgr.oracles);
    // Fault injection, via its canonical round-tripping spec string.
    let spec = cfg.omgr.fault_plan.map(|p| p.to_spec());
    kb = kb.opt_str_field("omgr.inject", spec.as_deref());
    // Deliberately excluded — host-only: the --jobs worker count and the
    // --progress/--sweep-json sinks (none of them reaches this function).
    kb.finish()
}

/// Serializes one run into an `osim-cache-entry-v1` document.
pub fn encode_entry(key: &CacheKey, rscale: ReportScale, run: &SweepRun) -> String {
    let r = &run.result;
    let mut rep = run.report(rscale);
    rep.timeseries = r.timeseries.clone();
    let deps: Vec<Json> = r
        .deps
        .iter()
        .map(|d| {
            Json::Arr(vec![
                Json::from_u64(d.va as u64),
                Json::from_u64(d.awaited as u64),
                Json::from_u64(d.resolved as u64),
                Json::from_u64(d.cause.index() as u64),
                Json::from_u64(d.consumer_tid as u64),
                Json::from_u64(d.consumer_core as u64),
                Json::from_u64(d.producer_tid as u64),
                Json::from_u64(d.producer_core as u64),
                Json::from_u64(d.produced_at),
                Json::from_u64(d.blocked_at),
                Json::from_u64(d.woken_at),
                Json::from_u64(d.waited),
            ])
        })
        .collect();
    let oracle = match &r.oracle {
        None => Json::Null,
        Some(o) => obj(vec![
            ("lock_checks", Json::from_u64(o.lock_checks)),
            ("order_checks", Json::from_u64(o.order_checks)),
            ("gc_checks", Json::from_u64(o.gc_checks)),
            ("violations", Json::from_u64(o.violations)),
            (
                "details",
                Json::Arr(o.details.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ]),
    };
    let doc = obj(vec![
        ("schema", Json::Str(ENTRY_SCHEMA.to_string())),
        ("key", Json::Str(key.hex())),
        ("semantics", Json::from_u64(ENGINE_SEMANTICS_VERSION)),
        (
            "label",
            Json::Str(format!("{}/{}/{}", run.fig, run.bench, run.tag)),
        ),
        ("ok", Json::Bool(r.ok)),
        ("detail", Json::Str(r.detail.clone())),
        (
            "window",
            Json::Arr(vec![Json::from_u64(r.window.0), Json::from_u64(r.window.1)]),
        ),
        ("deps_dropped", Json::from_u64(r.deps_dropped)),
        ("samples_dropped", Json::from_u64(r.samples_dropped)),
        ("oracle", oracle),
        ("deps", Json::Arr(deps)),
        ("report", rep.to_json()),
    ]);
    // Whole-body checksum, appended last so decode can pop it off and
    // re-render the exact hashed text. `validate()` alone cannot catch a
    // flipped digit that still yields a *consistent* report; the checksum
    // catches any byte of rot anywhere in the entry.
    let body = doc.to_pretty();
    let sum = body_checksum(&body);
    let Json::Obj(mut fields) = doc else {
        unreachable!("entry document is an object")
    };
    fields.push(("checksum".to_string(), Json::Str(sum)));
    Json::Obj(fields).to_pretty()
}

/// Content checksum over the rendered entry body (the document minus its
/// trailing `checksum` field), reusing the cache's stable hash.
fn body_checksum(body: &str) -> String {
    KeyBuilder::new("osim-entry-body", ENGINE_SEMANTICS_VERSION)
        .str_field("body", body)
        .finish()
        .hex()
}

/// A decoded entry: the key and label it was stored under plus the
/// reconstructed result.
pub struct DecodedEntry {
    /// The key recorded *inside* the entry — `cache verify` checks it
    /// against the file name, catching renamed/cross-copied entries.
    pub key_hex: String,
    pub label: String,
    pub result: DsResult,
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn dep_from_json(row: &Json) -> Result<DepEdge, String> {
    let arr = row.as_arr().ok_or("dep row is not an array")?;
    if arr.len() != 12 {
        return Err(format!("dep row has {} fields, want 12", arr.len()));
    }
    let n = |i: usize| -> Result<u64, String> {
        arr[i]
            .as_u64()
            .ok_or_else(|| format!("dep field {i} is not an integer"))
    };
    let cause_idx = n(3)? as usize;
    let cause = *StallCause::ALL
        .get(cause_idx)
        .ok_or_else(|| format!("dep cause index {cause_idx} out of range"))?;
    Ok(DepEdge {
        va: n(0)? as u32,
        awaited: n(1)? as u32,
        resolved: n(2)? as u32,
        cause,
        consumer_tid: n(4)? as u32,
        consumer_core: n(5)? as u32,
        producer_tid: n(6)? as u32,
        producer_core: n(7)? as u32,
        produced_at: n(8)?,
        blocked_at: n(9)?,
        woken_at: n(10)?,
        waited: n(11)?,
    })
}

/// Decodes and validates an `osim-cache-entry-v1` document. Every failure
/// mode — truncation, bit rot, schema drift, invariant violations — comes
/// back as `Err` with a reason; callers treat that as a cache miss (or,
/// in `cache verify`, as per-entry blame).
pub fn decode_entry(text: &str) -> Result<DecodedEntry, String> {
    let mut v = json::parse(text).map_err(|e| format!("parse: {e:?}"))?;
    // Pop the trailing checksum and verify it against the re-rendered
    // remainder before trusting any field.
    let stored_sum = {
        let Json::Obj(fields) = &mut v else {
            return Err("entry is not an object".to_string());
        };
        match fields.last() {
            Some((name, Json::Str(s))) if name == "checksum" => {
                let s = s.clone();
                fields.pop();
                s
            }
            _ => return Err("missing trailing `checksum`".to_string()),
        }
    };
    if body_checksum(&v.to_pretty()) != stored_sum {
        return Err("checksum mismatch (bit rot?)".to_string());
    }
    let schema = v
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != ENTRY_SCHEMA {
        return Err(format!("schema {schema:?}, want {ENTRY_SCHEMA:?}"));
    }
    let semantics = get_u64(&v, "semantics")?;
    if semantics != ENGINE_SEMANTICS_VERSION {
        // Unreachable through lookups (the version is part of the key),
        // but `cache verify` walks entry files directly.
        return Err(format!(
            "engine semantics {semantics}, current {ENGINE_SEMANTICS_VERSION}"
        ));
    }
    let key_hex = v
        .get("key")
        .and_then(Json::as_str)
        .ok_or("missing `key`")?
        .to_string();
    let label = v
        .get("label")
        .and_then(Json::as_str)
        .ok_or("missing `label`")?
        .to_string();
    let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing `ok`")?;
    let detail = v
        .get("detail")
        .and_then(Json::as_str)
        .ok_or("missing `detail`")?
        .to_string();
    let window = {
        let arr = v
            .get("window")
            .and_then(Json::as_arr)
            .ok_or("missing `window`")?;
        if arr.len() != 2 {
            return Err("`window` is not a 2-array".to_string());
        }
        let lo = arr[0].as_u64().ok_or("window[0] not an integer")?;
        let hi = arr[1].as_u64().ok_or("window[1] not an integer")?;
        (lo, hi)
    };
    let deps_dropped = get_u64(&v, "deps_dropped")?;
    let samples_dropped = get_u64(&v, "samples_dropped")?;
    let oracle = match v.get("oracle") {
        None | Some(Json::Null) => None,
        Some(o) => {
            let details = o
                .get("details")
                .and_then(Json::as_arr)
                .ok_or("oracle missing `details`")?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "oracle detail is not a string".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?;
            Some(OracleReport {
                lock_checks: get_u64(o, "lock_checks")?,
                order_checks: get_u64(o, "order_checks")?,
                gc_checks: get_u64(o, "gc_checks")?,
                violations: get_u64(o, "violations")?,
                details,
            })
        }
    };
    let deps = v
        .get("deps")
        .and_then(Json::as_arr)
        .ok_or("missing `deps`")?
        .iter()
        .map(dep_from_json)
        .collect::<Result<Vec<DepEdge>, String>>()?;
    let rep_json = v.get("report").ok_or("missing `report`")?;
    let rep = SimReport::from_json(rep_json).map_err(|e| format!("report: {e}"))?;
    rep.validate()
        .map_err(|e| format!("report invariants: {e}"))?;
    Ok(DecodedEntry {
        key_hex,
        label,
        result: DsResult {
            cycles: rep.cycles,
            cpu: rep.cpu,
            mem: rep.mem,
            ostats: rep.ostats,
            engine: rep.engine,
            hists: rep.hists,
            ok,
            detail,
            deps,
            deps_dropped,
            timeseries: rep.timeseries,
            samples_dropped,
            window,
            oracle,
        },
    })
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounts {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups that found nothing (corrupt entries included).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries that failed to decode (each was dropped and became a miss).
    pub corrupt: u64,
    /// Entry writes that failed.
    pub write_errors: u64,
}

/// The run cache: a directory of entry files plus its counters and the
/// entry-read latency histogram, exported as `osim_cache_*`.
pub struct RunCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    write_errors: AtomicU64,
    /// Wall time of successful entry reads, nanoseconds.
    read_ns: Mutex<Histogram>,
}

impl RunCache {
    /// A cache persisting entries under `dir` (created on first write).
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_ns: Mutex::new(Histogram::new()),
        }
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Reads an entry's text, timing the read. Any read failure — missing
    /// file, unreadable bytes — is `None`, counted by the caller.
    pub fn read(&self, key: &CacheKey) -> Option<String> {
        let started = Instant::now();
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        self.read_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(started.elapsed().as_nanos() as u64);
        Some(text)
    }

    /// Fetches and decodes `job`'s entry. Corrupt or stale entries are
    /// dropped and reported as misses — a cache must never fail a sweep.
    pub fn lookup(&self, job: &SweepJob) -> Option<DsResult> {
        let decoded = self.read(&job.key).map(|text| decode_entry(&text));
        match decoded {
            Some(Ok(entry)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.result);
            }
            Some(Err(reason)) => {
                // Stderr only: stdout and --json stay byte-identical.
                eprintln!("[cache] dropping bad entry for {}: {reason}", job.label());
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(self.path_of(&job.key));
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly computed run under `key`. Write failures are
    /// counted, not raised: the run already has its result, and a
    /// read-only or full disk must never fail a sweep.
    pub fn store(&self, key: &CacheKey, rscale: ReportScale, run: &SweepRun) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        if self
            .write_atomic(&self.path_of(key), &encode_entry(key, rscale, run))
            .is_err()
        {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_atomic(&self, path: &Path, text: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            ".{}.{}.tmp",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("entry"),
            std::process::id()
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Paths of the entry files, sorted by name. Temp files and foreign
    /// files are excluded.
    pub fn entries(&self) -> Vec<PathBuf> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<PathBuf> = rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().and_then(|e| e.to_str()) == Some("json")
                    && p.file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(CacheKey::from_hex)
                        .is_some()
            })
            .collect();
        out.sort();
        out
    }

    /// Removes every entry file, returning how many were deleted.
    pub fn clear(&self) -> usize {
        self.entries()
            .iter()
            .filter(|p| std::fs::remove_file(p).is_ok())
            .count()
    }

    /// Current counter values.
    pub fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the entry-read latency histogram (nanoseconds).
    pub fn read_hist(&self) -> Histogram {
        self.read_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Exports the counters and read-latency histogram under
    /// `osim_cache_*`.
    pub fn fill_registry(&self, reg: &mut Registry) {
        let c = self.counts();
        reg.counter_add("osim_cache_hits_total", &[], c.hits);
        reg.counter_add("osim_cache_misses_total", &[], c.misses);
        reg.counter_add("osim_cache_stores_total", &[], c.stores);
        reg.counter_add("osim_cache_corrupt_total", &[], c.corrupt);
        reg.counter_add("osim_cache_write_errors_total", &[], c.write_errors);
        reg.hist_mut("osim_cache_read_ns", &[])
            .merge(&self.read_hist());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::common::{machine, Scale};

    fn base_key(scale: &Scale) -> CacheKey {
        let cfg = machine(scale, 4, None, 0);
        job_key("fig6", "Linked list", "versioned", &cfg, scale)
    }

    /// Fingerprint soundness, output-affecting side: every semantic knob
    /// flips the key.
    #[test]
    fn semantic_knobs_flip_the_key() {
        let scale = Scale::tiny();
        let k0 = base_key(&scale);
        // Identity fields.
        let cfg = machine(&scale, 4, None, 0);
        assert_ne!(
            k0,
            job_key("fig7", "Linked list", "versioned", &cfg, &scale)
        );
        assert_ne!(
            k0,
            job_key("fig6", "Binary tree", "versioned", &cfg, &scale)
        );
        assert_ne!(
            k0,
            job_key("fig6", "Linked list", "versioned-1c", &cfg, &scale)
        );
        // Scale fields.
        for f in [
            |s: &mut Scale| s.small += 1,
            |s: &mut Scale| s.large += 1,
            |s: &mut Scale| s.ops += 1,
            |s: &mut Scale| s.mat_n += 1,
            |s: &mut Scale| s.lev_len += 1,
        ] {
            let mut s2 = scale;
            f(&mut s2);
            assert_ne!(k0, base_key(&s2), "scale knob must flip the key");
        }
        // Inject spec (parsed plan lands in cfg.omgr.fault_plan).
        let mut s2 = scale;
        s2.inject = Some(osim_uarch::FaultPlan::parse("latency-jitter").expect("preset"));
        assert_ne!(k0, base_key(&s2), "--inject must flip the key");
        // Two different specs differ from each other too.
        let mut s3 = scale;
        s3.inject = Some(osim_uarch::FaultPlan::parse("chaos").expect("preset"));
        assert_ne!(base_key(&s2), base_key(&s3));
        // Shake seed.
        let mut s4 = scale;
        s4.shake = ShakePolicy::Seeded(7);
        assert_ne!(k0, base_key(&s4), "--shake-seed must flip the key");
        let mut s5 = scale;
        s5.shake = ShakePolicy::Seeded(8);
        assert_ne!(base_key(&s4), base_key(&s5), "distinct seeds must differ");
        // Oracle arming (stress) changes what a run reports.
        let mut s6 = scale;
        s6.oracles = true;
        assert_ne!(k0, base_key(&s6));
        // Machine knobs the plans vary: cores, L1 size, extra latency.
        assert_ne!(
            k0,
            job_key(
                "fig6",
                "Linked list",
                "versioned",
                &machine(&scale, 8, None, 0),
                &scale
            )
        );
        assert_ne!(
            k0,
            job_key(
                "fig6",
                "Linked list",
                "versioned",
                &machine(&scale, 4, Some(8), 0),
                &scale
            )
        );
        assert_ne!(
            k0,
            job_key(
                "fig6",
                "Linked list",
                "versioned",
                &machine(&scale, 4, None, 6),
                &scale
            )
        );
        // Capture / sampling config (analyze).
        let mut cfg2 = machine(&scale, 4, None, 0);
        cfg2.capture = osim_cpu::CaptureCfg::armed(1 << 10, 512, 1 << 8);
        let kc = job_key("fig6", "Linked list", "versioned", &cfg2, &scale);
        assert_ne!(k0, kc);
        let mut cfg3 = cfg2.clone();
        cfg3.capture.sample_every = 1024;
        assert_ne!(
            kc,
            job_key("fig6", "Linked list", "versioned", &cfg3, &scale),
            "--sample-every must flip the key"
        );
        // Manager knobs the gc experiment tweaks.
        let mut cfg4 = machine(&scale, 4, None, 0);
        cfg4.omgr.initial_free_blocks = 10;
        assert_ne!(
            k0,
            job_key("fig6", "Linked list", "versioned", &cfg4, &scale)
        );
        let mut cfg5 = machine(&scale, 4, None, 0);
        cfg5.omgr.sorted_insertion = !cfg5.omgr.sorted_insertion;
        assert_ne!(
            k0,
            job_key("fig6", "Linked list", "versioned", &cfg5, &scale)
        );
        let mut cfg6 = machine(&scale, 4, None, 0);
        cfg6.omgr.gc.watermark += 1;
        assert_ne!(
            k0,
            job_key("fig6", "Linked list", "versioned", &cfg6, &scale)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Randomized fingerprint check: whatever semantic configuration a
        /// job has, bumping any scale/seed knob always moves its key.
        #[test]
        fn fingerprint_soundness_randomized(
            ops in 1usize..4096,
            cores in 1usize..64,
            extra in 0u64..16,
            seed in proptest::option::of(0u64..1_000_000),
            l1 in proptest::option::of(prop_oneof![Just(8u32), Just(32), Just(128)]),
        ) {
            let mut scale = Scale::tiny();
            scale.ops = ops;
            scale.shake = match seed {
                None => ShakePolicy::Off,
                Some(s) => ShakePolicy::Seeded(s),
            };
            let cfg = machine(&scale, cores, l1, extra);
            let k = job_key("fig6", "Linked list", "versioned", &cfg, &scale);
            // Semantic: ops bump flips the key.
            let mut bumped = scale;
            bumped.ops += 1;
            let cfg_b = machine(&bumped, cores, l1, extra);
            prop_assert_ne!(k, job_key("fig6", "Linked list", "versioned", &cfg_b, &bumped));
            // Semantic: shake-seed bump flips the key.
            let mut shaken = scale;
            shaken.shake = match seed {
                None => ShakePolicy::Seeded(0),
                Some(s) => ShakePolicy::Seeded(s + 1),
            };
            let cfg_s = machine(&shaken, cores, l1, extra);
            prop_assert_ne!(k, job_key("fig6", "Linked list", "versioned", &cfg_s, &shaken));
        }
    }

    fn sample_run(scale: &Scale, cfg: MachineCfg, tag: &str) -> SweepRun {
        let ds = scale.ds(false, 4);
        SweepRun {
            fig: "fig6",
            bench: "Linked list",
            tag: tag.to_string(),
            result: osim_workloads::linked_list::run_versioned(cfg.clone(), &ds),
            cfg,
        }
    }

    /// The codec round-trips a real run exactly: decode(encode(r)) == r in
    /// every field a report or renderer can observe.
    #[test]
    fn entry_codec_round_trips_a_real_run() {
        let scale = Scale::tiny();
        let mut cfg = machine(&scale, 2, None, 0);
        cfg.capture = osim_cpu::CaptureCfg::armed(1 << 8, 256, 1 << 6);
        let run = sample_run(&scale, cfg.clone(), "versioned");
        let r = &run.result;
        let key = job_key(run.fig, run.bench, &run.tag, &cfg, &scale);
        let text = encode_entry(&key, scale.report(), &run);
        let decoded = decode_entry(&text).expect("decode");
        assert_eq!(decoded.label, "fig6/Linked list/versioned");
        let d = &decoded.result;
        assert_eq!(d.cycles, r.cycles);
        assert_eq!(d.ok, r.ok);
        assert_eq!(d.detail, r.detail);
        assert_eq!(d.window, r.window);
        assert_eq!(d.deps_dropped, r.deps_dropped);
        assert_eq!(d.samples_dropped, r.samples_dropped);
        assert_eq!(d.deps.len(), r.deps.len());
        for (a, b) in d.deps.iter().zip(&r.deps) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(d.timeseries.len(), r.timeseries.len());
        assert_eq!(d.oracle, r.oracle);
        // The rendered report — what tables and --json are built from —
        // must be byte-identical.
        let cached = SweepRun {
            result: decoded.result,
            ..sample_run(&scale, cfg, "versioned")
        };
        assert_eq!(
            run.report(scale.report()).to_json().to_pretty(),
            cached.report(scale.report()).to_json().to_pretty()
        );
    }

    /// Truncation and byte-flips are detected and reported as misses.
    #[test]
    fn corrupt_entries_fail_to_decode() {
        let scale = Scale::tiny();
        let run = sample_run(&scale, machine(&scale, 1, None, 0), "versioned");
        let text = encode_entry(&CacheKey(1), scale.report(), &run);
        assert!(decode_entry(&text).is_ok());
        // Truncation at any prefix fails (never panics).
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(decode_entry(&text[..cut]).is_err(), "cut at {cut}");
        }
        // Schema / semantics tampering fails.
        assert!(decode_entry(&text.replace(ENTRY_SCHEMA, "osim-cache-entry-v0")).is_err());
        assert!(decode_entry("{}").is_err());
        assert!(decode_entry("not json at all").is_err());
        // A byte flip inside a key name fails (missing field).
        let tampered = text.replacen("\"cycles\":", "\"cyc1es\":", 1);
        assert!(decode_entry(&tampered).is_err());
        // A byte flip inside a *value* can still yield a consistent
        // document; the whole-body checksum catches it anyway.
        let pos = text.find("\"cycles\": ").expect("cycles field") + "\"cycles\": ".len();
        let mut flipped = text.as_bytes().to_vec();
        flipped[pos] = if flipped[pos] == b'9' { b'8' } else { b'9' };
        let flipped = String::from_utf8(flipped).expect("still utf-8");
        assert_ne!(flipped, text);
        assert!(
            decode_entry(&flipped)
                .err()
                .expect("value flip must fail decode")
                .contains("checksum"),
            "value flip must be caught by the checksum"
        );
        // Tampering with the checksum itself fails too.
        let retagged = text.replacen("\"checksum\": \"", "\"checksum\": \"0", 1);
        assert!(decode_entry(&retagged).is_err());
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("osim-runcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tiny_job(scale: &Scale, tag: &str) -> SweepJob {
        let cfg = machine(scale, 1, None, 0);
        let ds = scale.ds(false, 4);
        SweepJob::new(
            "fig6",
            "Linked list",
            tag.to_string(),
            scale,
            cfg,
            move |m| osim_workloads::linked_list::run_versioned(m, &ds),
        )
    }

    /// A stored run hits from a fresh cache on the same directory, the
    /// way a warm rerun in a new process does.
    #[test]
    fn entries_persist_across_cache_instances() {
        let dir = tmp_dir("persist");
        let scale = Scale::tiny();
        let job = tiny_job(&scale, "t");
        assert!(RunCache::at_dir(&dir).lookup(&job).is_none());
        let run = sample_run(&scale, job.cfg.clone(), "t");
        RunCache::at_dir(&dir).store(&job.key, scale.report(), &run);
        let warm = RunCache::at_dir(&dir);
        let hit = warm.lookup(&job).expect("hit");
        assert_eq!(hit.cycles, run.result.cycles);
        let c = warm.counts();
        assert_eq!((c.hits, c.misses, c.stores), (1, 0, 0));
        assert_eq!(warm.read_hist().count(), 1);
        assert_eq!(warm.entries().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupt stored entries surface as misses and are deleted, then
    /// re-stored on the next run.
    #[test]
    fn corrupt_entry_is_a_miss_and_is_dropped() {
        let dir = tmp_dir("corrupt");
        let scale = Scale::tiny();
        let job = tiny_job(&scale, "t");
        let cache = RunCache::at_dir(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        std::fs::write(cache.path_of(&job.key), "garbage {{{").expect("plant entry");
        assert!(cache.lookup(&job).is_none());
        let c = cache.counts();
        assert_eq!((c.corrupt, c.misses, c.hits), (1, 1, 0));
        assert!(cache.entries().is_empty());
        let run = sample_run(&scale, job.cfg.clone(), "t");
        cache.store(&job.key, scale.report(), &run);
        assert_eq!(cache.lookup(&job).expect("hit").cycles, run.result.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_entries_but_not_foreign_files() {
        let dir = tmp_dir("clear");
        let scale = Scale::tiny();
        let cache = RunCache::at_dir(&dir);
        for tag in ["a", "b"] {
            let job = tiny_job(&scale, tag);
            let run = sample_run(&scale, job.cfg.clone(), tag);
            cache.store(&job.key, scale.report(), &run);
        }
        std::fs::write(dir.join("README.txt"), "keep me").expect("write foreign file");
        assert_eq!(cache.entries().len(), 2);
        assert_eq!(cache.clear(), 2);
        assert!(cache.entries().is_empty());
        assert!(dir.join("README.txt").exists());
        assert!(cache.lookup(&tiny_job(&scale, "a")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_export_names_the_counters() {
        let cache = RunCache::at_dir(tmp_dir("registry"));
        let _ = cache.lookup(&tiny_job(&Scale::tiny(), "t"));
        let mut reg = Registry::new();
        cache.fill_registry(&mut reg);
        let prom = reg.to_prometheus();
        for name in [
            "osim_cache_hits_total",
            "osim_cache_misses_total",
            "osim_cache_stores_total",
            "osim_cache_corrupt_total",
            "osim_cache_write_errors_total",
            "osim_cache_read_ns",
        ] {
            assert!(prom.contains(name), "{name} missing:\n{prom}");
        }
    }
}
