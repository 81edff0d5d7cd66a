//! The unified run report: one simulation's configuration, workload
//! scale, and the statistics snapshot of every layer, as one JSON value.

use osim_cpu::{CoreStats, CpuStats, EngineStats, MachineCfg, RunHists, Sample, StallCause};
use osim_mem::MemStats;
use osim_uarch::OStats;

use crate::critpath::CritPath;
use crate::json::{obj, Json};

/// Schema version stamped into every report (bump on breaking layout
/// changes so downstream consumers can dispatch).
///
/// v2: `config.inject` (canonical fault-injection spec, `null` when no
/// faults were injected) and seven resilience counters under `mvm`
/// (`refill_retries`, `recovered_allocations`, `injected_carve_failures`,
/// `injected_jitter_cycles`, `injected_coherence_delay_cycles`,
/// `forced_gc_attempts`, `pool_shrink_events`).
///
/// v3: `engine` object (`events_dispatched`, `stale_events`) — the
/// engine's dispatch-loop counters. These follow from the deterministic
/// dispatch order alone, so they are safe to include in byte-compared
/// reports.
///
/// v4: causal observability. `timeseries` — interval-telemetry samples
/// (`[]` when the sampler was off): per-epoch instruction/stall deltas by
/// cause, L1/L2 hit counters, and the MVM free-block gauge. `critpath` —
/// the dependency critical-path analysis (`null` when edge capture was
/// off): the longest producer→consumer chain as an exact compute/wait
/// segment tiling, top contended structures, and per-core serialization.
/// `trace` grows six counters for the new capture rings (`pt_walks`/
/// `pt_dropped`, `dep_edges`/`dep_dropped`, `samples`/`samples_dropped`).
///
/// v5: fleet telemetry. `hist` — eight log-bucketed latency histograms
/// spanning every layer (`gate_wait`, `wake_fanout`, `version_walk`,
/// `gc_pause`, `l1_access`, `l2_access`, `coherence_delay`,
/// `run_quantum`), each serialized sparsely as
/// `{count, sum, min, max, buckets: [[index, n], ...]}`. All record
/// simulated-cycle quantities, so the section is deterministic. The reader is forward-compatible: v4 documents
/// still parse, with `hist` defaulting to empty.
pub const SCHEMA_VERSION: u64 = 5;

/// Oldest schema version [`SimReport::from_json`] still accepts. v4
/// reports predate the `hist` section; everything else is unchanged.
pub const MIN_SCHEMA_VERSION: u64 = 4;

/// Workload sizes of the run (mirrors the experiment harness's scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportScale {
    /// Initial elements of the "small" irregular configurations.
    pub small: u64,
    /// Initial elements of the "large" irregular configurations.
    pub large: u64,
    /// Measured operations per irregular run.
    pub ops: u64,
    /// Matrix dimension.
    pub mat_n: u64,
    /// Levenshtein string length.
    pub lev_len: u64,
}

/// Capture-buffer occupancy for a traced run (absent when tracing was
/// off — the counters would all read zero and be indistinguishable from
/// "nothing happened").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounts {
    /// Per-operation records retained.
    pub records: u64,
    /// Per-operation records overwritten (ring-buffer wrap).
    pub dropped: u64,
    /// Memory-hierarchy events retained.
    pub mem_events: u64,
    /// Memory-hierarchy events overwritten.
    pub mem_dropped: u64,
    /// Version-manager events retained.
    pub mvm_events: u64,
    /// Version-manager events overwritten.
    pub mvm_dropped: u64,
    /// Page-table walk events retained.
    pub pt_walks: u64,
    /// Page-table walk events overwritten.
    pub pt_dropped: u64,
    /// Dependency-flow edges retained.
    pub dep_edges: u64,
    /// Dependency-flow edges overwritten.
    pub dep_dropped: u64,
    /// Interval-telemetry samples retained.
    pub samples: u64,
    /// Interval-telemetry samples overwritten.
    pub samples_dropped: u64,
}

/// One simulation run, serializable to/from JSON.
///
/// Aggregates [`CpuStats`], [`MemStats`], and [`OStats`] with the machine
/// configuration and workload scale that produced them, so a single file
/// regenerates every number a figure row quotes.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Which experiment produced this run (e.g. `fig6`).
    pub experiment: String,
    /// Benchmark name (e.g. `Linked list`).
    pub benchmark: String,
    /// Variant within the experiment (e.g. `versioned`, `unversioned`).
    pub variant: String,
    /// Cores simulated.
    pub cores: u64,
    /// L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// Shared L2 size in bytes.
    pub l2_bytes: u64,
    /// DRAM latency in cycles.
    pub dram_latency: u64,
    /// OS free-list refill trap cost in cycles.
    pub trap_latency: u64,
    /// GC watermark in blocks (0 = collector disabled).
    pub gc_watermark: u64,
    /// Extra latency injected into every versioned op (Figure 10 knob).
    pub versioned_extra_latency: u64,
    /// Whether version lists keep sorted insertion (§IV-F ablation).
    pub sorted_insertion: bool,
    /// Canonical fault-injection spec the run was configured with
    /// ([`osim_uarch::FaultPlan::to_spec`]); `None` when no faults were
    /// injected.
    pub inject: Option<String>,
    /// Workload scale.
    pub scale: ReportScale,
    /// Measured cycles of the run.
    pub cycles: u64,
    /// Core-side statistics.
    pub cpu: CpuStats,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// O-structure manager statistics.
    pub ostats: OStats,
    /// Engine dispatch-loop counters (deterministic).
    pub engine: EngineStats,
    /// Latency histograms from every layer (empty on reports parsed from
    /// pre-v5 documents).
    pub hists: RunHists,
    /// Trace-buffer occupancy, when tracing was enabled.
    pub trace: Option<TraceCounts>,
    /// Interval-telemetry samples (empty when the sampler was off).
    pub timeseries: Vec<Sample>,
    /// Dependency critical-path analysis, when edge capture was armed.
    pub critpath: Option<CritPath>,
}

impl SimReport {
    /// Builds a report from a run's outcome and the machine configuration
    /// that produced it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        experiment: &str,
        benchmark: &str,
        variant: &str,
        cfg: &MachineCfg,
        scale: ReportScale,
        cycles: u64,
        cpu: CpuStats,
        mem: MemStats,
        ostats: OStats,
        engine: EngineStats,
        hists: RunHists,
    ) -> Self {
        SimReport {
            experiment: experiment.to_string(),
            benchmark: benchmark.to_string(),
            variant: variant.to_string(),
            cores: cfg.cores as u64,
            l1_bytes: cfg.hier.l1.size_bytes as u64,
            l2_bytes: cfg.hier.l2.size_bytes as u64,
            dram_latency: cfg.hier.dram_latency,
            trap_latency: cfg.omgr.trap_latency,
            gc_watermark: cfg.omgr.gc.watermark as u64,
            versioned_extra_latency: cfg.omgr.versioned_extra_latency,
            sorted_insertion: cfg.omgr.sorted_insertion,
            inject: cfg.omgr.fault_plan.map(|p| p.to_spec()),
            scale,
            cycles,
            cpu,
            mem,
            ostats,
            engine,
            hists,
            trace: None,
            timeseries: Vec::new(),
            critpath: None,
        }
    }

    /// Checks the report's internal invariants — most importantly that the
    /// per-cause stall split sums to the aggregate exactly.
    pub fn validate(&self) -> Result<(), String> {
        let by_cause: u64 = self.cpu.stall_by_cause.iter().sum();
        if by_cause != self.cpu.stall_cycles {
            return Err(format!(
                "stall_by_cause sums to {by_cause}, stall_cycles is {}",
                self.cpu.stall_cycles
            ));
        }
        if self.cpu.versioned_loads_stalled > self.cpu.versioned_loads {
            return Err("more stalled versioned loads than versioned loads".into());
        }
        if !self.cpu.per_core.is_empty() {
            let per_core: u64 = self.cpu.per_core.iter().map(|c| c.stall_cycles).sum();
            if per_core != self.cpu.stall_cycles {
                return Err(format!(
                    "per-core stall cycles sum to {per_core}, aggregate is {}",
                    self.cpu.stall_cycles
                ));
            }
        }
        Ok(())
    }

    /// Serializes the report to a JSON value.
    pub fn to_json(&self) -> Json {
        let cause_members: Vec<(&str, Json)> = StallCause::ALL
            .iter()
            .map(|c| (c.name(), Json::from_u64(self.cpu.stall_by_cause[c.index()])))
            .collect();
        let per_core: Vec<Json> = self
            .cpu
            .per_core
            .iter()
            .map(|c| {
                obj(vec![
                    ("instructions", Json::from_u64(c.instructions)),
                    ("versioned_ops", Json::from_u64(c.versioned_ops)),
                    ("stall_cycles", Json::from_u64(c.stall_cycles)),
                    ("tasks_run", Json::from_u64(c.tasks_run)),
                ])
            })
            .collect();
        let cpu = obj(vec![
            ("instructions", Json::from_u64(self.cpu.instructions)),
            ("loads", Json::from_u64(self.cpu.loads)),
            ("stores", Json::from_u64(self.cpu.stores)),
            ("cas_ops", Json::from_u64(self.cpu.cas_ops)),
            ("versioned_ops", Json::from_u64(self.cpu.versioned_ops)),
            ("versioned_loads", Json::from_u64(self.cpu.versioned_loads)),
            (
                "versioned_loads_stalled",
                Json::from_u64(self.cpu.versioned_loads_stalled),
            ),
            ("root_loads", Json::from_u64(self.cpu.root_loads)),
            (
                "root_loads_stalled",
                Json::from_u64(self.cpu.root_loads_stalled),
            ),
            ("stall_cycles", Json::from_u64(self.cpu.stall_cycles)),
            ("stall_by_cause", obj(cause_members)),
            ("tasks_run", Json::from_u64(self.cpu.tasks_run)),
            ("per_core", Json::Arr(per_core)),
            ("stall_imbalance", Json::Num(self.cpu.stall_imbalance())),
            ("work_imbalance", Json::Num(self.cpu.work_imbalance())),
        ]);
        let mem = obj(vec![
            ("l1_read_hits", u64_arr(&self.mem.l1_read_hits)),
            ("l1_read_misses", u64_arr(&self.mem.l1_read_misses)),
            ("l1_write_hits", u64_arr(&self.mem.l1_write_hits)),
            ("l1_write_misses", u64_arr(&self.mem.l1_write_misses)),
            ("l2_hits", Json::from_u64(self.mem.l2_hits)),
            ("l2_misses", Json::from_u64(self.mem.l2_misses)),
            ("remote_forwards", Json::from_u64(self.mem.remote_forwards)),
            ("invalidations", Json::from_u64(self.mem.invalidations)),
            ("upgrades", Json::from_u64(self.mem.upgrades)),
            (
                "back_invalidations",
                Json::from_u64(self.mem.back_invalidations),
            ),
            ("compressed_hits", Json::from_u64(self.mem.compressed_hits)),
            (
                "compressed_misses",
                Json::from_u64(self.mem.compressed_misses),
            ),
            (
                "compressed_coherence_drops",
                Json::from_u64(self.mem.compressed_coherence_drops),
            ),
            ("l1_read_hit_rate", Json::Num(self.mem.l1_read_hit_rate())),
            ("l1_hit_rate", Json::Num(self.mem.l1_hit_rate())),
        ]);
        let mvm = obj(vec![
            ("direct_hits", Json::from_u64(self.ostats.direct_hits)),
            ("full_lookups", Json::from_u64(self.ostats.full_lookups)),
            ("walk_reads", Json::from_u64(self.ostats.walk_reads)),
            ("stores", Json::from_u64(self.ostats.stores)),
            (
                "allocated_blocks",
                Json::from_u64(self.ostats.allocated_blocks),
            ),
            (
                "reclaimed_blocks",
                Json::from_u64(self.ostats.reclaimed_blocks),
            ),
            ("gc_phases", Json::from_u64(self.ostats.gc_phases)),
            ("refill_traps", Json::from_u64(self.ostats.refill_traps)),
            ("refill_retries", Json::from_u64(self.ostats.refill_retries)),
            (
                "recovered_allocations",
                Json::from_u64(self.ostats.recovered_allocations),
            ),
            (
                "injected_carve_failures",
                Json::from_u64(self.ostats.injected_carve_failures),
            ),
            (
                "injected_jitter_cycles",
                Json::from_u64(self.ostats.injected_jitter_cycles),
            ),
            (
                "injected_coherence_delay_cycles",
                Json::from_u64(self.ostats.injected_coherence_delay_cycles),
            ),
            (
                "forced_gc_attempts",
                Json::from_u64(self.ostats.forced_gc_attempts),
            ),
            (
                "pool_shrink_events",
                Json::from_u64(self.ostats.pool_shrink_events),
            ),
        ]);
        let engine = obj(vec![
            (
                "events_dispatched",
                Json::from_u64(self.engine.events_dispatched),
            ),
            ("stale_events", Json::from_u64(self.engine.stale_events)),
        ]);
        let hist = Json::Obj(
            self.hists
                .named()
                .iter()
                .map(|(name, h)| (name.to_string(), h.to_json()))
                .collect(),
        );
        let trace = match &self.trace {
            None => Json::Null,
            Some(t) => obj(vec![
                ("records", Json::from_u64(t.records)),
                ("dropped", Json::from_u64(t.dropped)),
                ("mem_events", Json::from_u64(t.mem_events)),
                ("mem_dropped", Json::from_u64(t.mem_dropped)),
                ("mvm_events", Json::from_u64(t.mvm_events)),
                ("mvm_dropped", Json::from_u64(t.mvm_dropped)),
                ("pt_walks", Json::from_u64(t.pt_walks)),
                ("pt_dropped", Json::from_u64(t.pt_dropped)),
                ("dep_edges", Json::from_u64(t.dep_edges)),
                ("dep_dropped", Json::from_u64(t.dep_dropped)),
                ("samples", Json::from_u64(t.samples)),
                ("samples_dropped", Json::from_u64(t.samples_dropped)),
            ]),
        };
        let timeseries: Vec<Json> = self
            .timeseries
            .iter()
            .map(|s| {
                let stalls: Vec<(&str, Json)> = StallCause::ALL
                    .iter()
                    .map(|c| (c.name(), Json::from_u64(s.stalls[c.index()])))
                    .collect();
                obj(vec![
                    ("at", Json::from_u64(s.at)),
                    ("instructions", Json::from_u64(s.instructions)),
                    ("stalls", obj(stalls)),
                    ("free_blocks", Json::from_u64(s.free_blocks)),
                    ("l1_hits", Json::from_u64(s.l1_hits)),
                    ("l1_misses", Json::from_u64(s.l1_misses)),
                    ("l2_hits", Json::from_u64(s.l2_hits)),
                    ("l2_misses", Json::from_u64(s.l2_misses)),
                ])
            })
            .collect();
        let critpath = match &self.critpath {
            None => Json::Null,
            Some(p) => p.to_json(),
        };
        obj(vec![
            ("schema", Json::from_u64(SCHEMA_VERSION)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("variant", Json::Str(self.variant.clone())),
            (
                "config",
                obj(vec![
                    ("cores", Json::from_u64(self.cores)),
                    ("l1_bytes", Json::from_u64(self.l1_bytes)),
                    ("l2_bytes", Json::from_u64(self.l2_bytes)),
                    ("dram_latency", Json::from_u64(self.dram_latency)),
                    ("trap_latency", Json::from_u64(self.trap_latency)),
                    ("gc_watermark", Json::from_u64(self.gc_watermark)),
                    (
                        "versioned_extra_latency",
                        Json::from_u64(self.versioned_extra_latency),
                    ),
                    ("sorted_insertion", Json::Bool(self.sorted_insertion)),
                    (
                        "inject",
                        match &self.inject {
                            Some(spec) => Json::Str(spec.clone()),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "scale",
                obj(vec![
                    ("small", Json::from_u64(self.scale.small)),
                    ("large", Json::from_u64(self.scale.large)),
                    ("ops", Json::from_u64(self.scale.ops)),
                    ("mat_n", Json::from_u64(self.scale.mat_n)),
                    ("lev_len", Json::from_u64(self.scale.lev_len)),
                ]),
            ),
            ("cycles", Json::from_u64(self.cycles)),
            ("cpu", cpu),
            ("mem", mem),
            ("mvm", mvm),
            ("engine", engine),
            ("hist", hist),
            ("trace", trace),
            ("timeseries", Json::Arr(timeseries)),
            ("critpath", critpath),
        ])
    }

    /// Parses a report back from its JSON form, verifying the schema.
    pub fn from_json(v: &Json) -> Result<SimReport, String> {
        let schema = req_u64(v, "schema")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(format!("unsupported schema version {schema}"));
        }
        let config = v.get("config").ok_or("missing config")?;
        let scale_v = v.get("scale").ok_or("missing scale")?;
        let cpu_v = v.get("cpu").ok_or("missing cpu")?;
        let mem_v = v.get("mem").ok_or("missing mem")?;
        let mvm_v = v.get("mvm").ok_or("missing mvm")?;
        let engine_v = v.get("engine").ok_or("missing engine")?;

        let mut stall_by_cause = [0u64; 4];
        let causes = cpu_v
            .get("stall_by_cause")
            .ok_or("missing stall_by_cause")?;
        for cause in StallCause::ALL {
            stall_by_cause[cause.index()] = req_u64(causes, cause.name())?;
        }
        let per_core = match cpu_v.get("per_core").and_then(Json::as_arr) {
            Some(rows) => rows
                .iter()
                .map(|r| {
                    Ok(CoreStats {
                        instructions: req_u64(r, "instructions")?,
                        versioned_ops: req_u64(r, "versioned_ops")?,
                        stall_cycles: req_u64(r, "stall_cycles")?,
                        tasks_run: req_u64(r, "tasks_run")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        let cpu = CpuStats {
            instructions: req_u64(cpu_v, "instructions")?,
            loads: req_u64(cpu_v, "loads")?,
            stores: req_u64(cpu_v, "stores")?,
            cas_ops: req_u64(cpu_v, "cas_ops")?,
            versioned_ops: req_u64(cpu_v, "versioned_ops")?,
            versioned_loads: req_u64(cpu_v, "versioned_loads")?,
            versioned_loads_stalled: req_u64(cpu_v, "versioned_loads_stalled")?,
            root_loads: req_u64(cpu_v, "root_loads")?,
            root_loads_stalled: req_u64(cpu_v, "root_loads_stalled")?,
            stall_cycles: req_u64(cpu_v, "stall_cycles")?,
            stall_by_cause,
            tasks_run: req_u64(cpu_v, "tasks_run")?,
            per_core,
        };
        let mem = MemStats {
            l1_read_hits: req_u64_arr(mem_v, "l1_read_hits")?,
            l1_read_misses: req_u64_arr(mem_v, "l1_read_misses")?,
            l1_write_hits: req_u64_arr(mem_v, "l1_write_hits")?,
            l1_write_misses: req_u64_arr(mem_v, "l1_write_misses")?,
            l2_hits: req_u64(mem_v, "l2_hits")?,
            l2_misses: req_u64(mem_v, "l2_misses")?,
            remote_forwards: req_u64(mem_v, "remote_forwards")?,
            invalidations: req_u64(mem_v, "invalidations")?,
            upgrades: req_u64(mem_v, "upgrades")?,
            back_invalidations: req_u64(mem_v, "back_invalidations")?,
            compressed_hits: req_u64(mem_v, "compressed_hits")?,
            compressed_misses: req_u64(mem_v, "compressed_misses")?,
            compressed_coherence_drops: req_u64(mem_v, "compressed_coherence_drops")?,
        };
        let ostats = OStats {
            direct_hits: req_u64(mvm_v, "direct_hits")?,
            full_lookups: req_u64(mvm_v, "full_lookups")?,
            walk_reads: req_u64(mvm_v, "walk_reads")?,
            stores: req_u64(mvm_v, "stores")?,
            allocated_blocks: req_u64(mvm_v, "allocated_blocks")?,
            reclaimed_blocks: req_u64(mvm_v, "reclaimed_blocks")?,
            gc_phases: req_u64(mvm_v, "gc_phases")?,
            refill_traps: req_u64(mvm_v, "refill_traps")?,
            refill_retries: req_u64(mvm_v, "refill_retries")?,
            recovered_allocations: req_u64(mvm_v, "recovered_allocations")?,
            injected_carve_failures: req_u64(mvm_v, "injected_carve_failures")?,
            injected_jitter_cycles: req_u64(mvm_v, "injected_jitter_cycles")?,
            injected_coherence_delay_cycles: req_u64(mvm_v, "injected_coherence_delay_cycles")?,
            forced_gc_attempts: req_u64(mvm_v, "forced_gc_attempts")?,
            pool_shrink_events: req_u64(mvm_v, "pool_shrink_events")?,
        };
        let engine = EngineStats {
            events_dispatched: req_u64(engine_v, "events_dispatched")?,
            stale_events: req_u64(engine_v, "stale_events")?,
        };
        let mut hists = RunHists::default();
        // v4 documents have no `hist` section; leave the default (empty).
        if let Some(Json::Obj(members)) = v.get("hist") {
            for (name, hv) in members {
                let slot = hists
                    .by_name_mut(name)
                    .ok_or_else(|| format!("unknown histogram {name:?}"))?;
                *slot = osim_metrics::Histogram::from_json(hv)
                    .map_err(|e| format!("histogram {name:?}: {e}"))?;
            }
        } else if schema >= 5 {
            return Err("missing hist".into());
        }
        let trace = match v.get("trace") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TraceCounts {
                records: req_u64(t, "records")?,
                dropped: req_u64(t, "dropped")?,
                mem_events: req_u64(t, "mem_events")?,
                mem_dropped: req_u64(t, "mem_dropped")?,
                mvm_events: req_u64(t, "mvm_events")?,
                mvm_dropped: req_u64(t, "mvm_dropped")?,
                pt_walks: req_u64(t, "pt_walks")?,
                pt_dropped: req_u64(t, "pt_dropped")?,
                dep_edges: req_u64(t, "dep_edges")?,
                dep_dropped: req_u64(t, "dep_dropped")?,
                samples: req_u64(t, "samples")?,
                samples_dropped: req_u64(t, "samples_dropped")?,
            }),
        };
        let timeseries = match v.get("timeseries").and_then(Json::as_arr) {
            None => Vec::new(),
            Some(rows) => rows
                .iter()
                .map(|s| {
                    let stalls_v = s.get("stalls").ok_or("missing sample stalls")?;
                    let mut stalls = [0u64; 4];
                    for cause in StallCause::ALL {
                        stalls[cause.index()] = req_u64(stalls_v, cause.name())?;
                    }
                    Ok(Sample {
                        at: req_u64(s, "at")?,
                        instructions: req_u64(s, "instructions")?,
                        stalls,
                        free_blocks: req_u64(s, "free_blocks")?,
                        l1_hits: req_u64(s, "l1_hits")?,
                        l1_misses: req_u64(s, "l1_misses")?,
                        l2_hits: req_u64(s, "l2_hits")?,
                        l2_misses: req_u64(s, "l2_misses")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        let critpath = match v.get("critpath") {
            None | Some(Json::Null) => None,
            Some(p) => Some(CritPath::from_json(p)?),
        };
        Ok(SimReport {
            experiment: req_str(v, "experiment")?,
            benchmark: req_str(v, "benchmark")?,
            variant: req_str(v, "variant")?,
            cores: req_u64(config, "cores")?,
            l1_bytes: req_u64(config, "l1_bytes")?,
            l2_bytes: req_u64(config, "l2_bytes")?,
            dram_latency: req_u64(config, "dram_latency")?,
            trap_latency: req_u64(config, "trap_latency")?,
            gc_watermark: req_u64(config, "gc_watermark")?,
            versioned_extra_latency: req_u64(config, "versioned_extra_latency")?,
            sorted_insertion: config
                .get("sorted_insertion")
                .and_then(Json::as_bool)
                .ok_or("missing sorted_insertion")?,
            inject: match config.get("inject") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.as_str().ok_or("non-string field \"inject\"")?.to_string()),
            },
            scale: ReportScale {
                small: req_u64(scale_v, "small")?,
                large: req_u64(scale_v, "large")?,
                ops: req_u64(scale_v, "ops")?,
                mat_n: req_u64(scale_v, "mat_n")?,
                lev_len: req_u64(scale_v, "lev_len")?,
            },
            cycles: req_u64(v, "cycles")?,
            cpu,
            mem,
            ostats,
            engine,
            hists,
            trace,
            timeseries,
            critpath,
        })
    }
}

/// Parses every report in a `--json` document: a single [`SimReport`]
/// object or the array form the experiments binary writes.
///
/// Total on any input: truncated files, corrupt JSON, hostile nesting and
/// well-formed-but-not-a-report documents all come back as a typed message
/// naming the offending element — never a panic. Both the `compare`
/// subcommand and external tooling load report files through this.
pub fn load_reports(text: &str) -> Result<Vec<SimReport>, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let elems: Vec<&Json> = match &doc {
        Json::Arr(items) => items.iter().collect(),
        other => vec![other],
    };
    elems
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            SimReport::from_json(v).map_err(|e| format!("element {i}: not a report: {e}"))
        })
        .collect()
}

fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from_u64(v)).collect())
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn req_u64_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))?;
    arr.iter()
        .map(|e| {
            e.as_u64()
                .ok_or_else(|| format!("non-integer element in {key:?}"))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// A fully-populated report for serialization and diff tests.
    pub(crate) fn sample_report() -> SimReport {
        let mut cpu = CpuStats::for_cores(2);
        cpu.instructions = 1000;
        cpu.versioned_ops = 64;
        cpu.versioned_loads = 40;
        cpu.versioned_loads_stalled = 8;
        cpu.charge_stall(0, StallCause::MissingVersion, 120);
        cpu.charge_stall(1, StallCause::FreeListGc, 500);
        let mem = MemStats {
            l1_read_hits: vec![10, 20],
            l1_read_misses: vec![1, 2],
            l1_write_hits: vec![3, 4],
            l1_write_misses: vec![0, 0],
            l2_hits: 3,
            ..MemStats::default()
        };
        let ostats = OStats {
            stores: 12,
            gc_phases: 1,
            ..OStats::default()
        };
        let mut hists = RunHists::default();
        hists.gate_wait.record(120);
        hists.gate_wait.record(500);
        hists.wake_fanout.record(0);
        hists.version_walk.record(48);
        hists.l1_access.record(1);
        hists.run_quantum.record(4096);
        let mut r = SimReport::new(
            "fig6",
            "Linked list",
            "versioned",
            &MachineCfg::paper(2),
            ReportScale {
                small: 200,
                large: 1000,
                ops: 256,
                mat_n: 28,
                lev_len: 96,
            },
            123_456,
            cpu,
            mem,
            ostats,
            EngineStats {
                events_dispatched: 4096,
                stale_events: 3,
            },
            hists,
        );
        r.trace = Some(TraceCounts {
            records: 99,
            dropped: 5,
            mem_events: 50,
            mem_dropped: 0,
            mvm_events: 7,
            mvm_dropped: 0,
            pt_walks: 31,
            pt_dropped: 2,
            dep_edges: 12,
            dep_dropped: 1,
            samples: 4,
            samples_dropped: 0,
        });
        r.timeseries = vec![
            Sample {
                at: 1000,
                instructions: 480,
                stalls: [120, 0, 0, 0],
                free_blocks: 200,
                l1_hits: 300,
                l1_misses: 12,
                l2_hits: 8,
                l2_misses: 4,
            },
            Sample {
                at: 2000,
                instructions: 520,
                stalls: [0, 0, 0, 500],
                free_blocks: 150,
                l1_hits: 310,
                l1_misses: 9,
                l2_hits: 6,
                l2_misses: 3,
            },
        ];
        r.critpath = Some(CritPath::build(
            &[osim_cpu::DepEdge {
                va: 0x8000,
                awaited: 3,
                resolved: 3,
                cause: StallCause::MissingVersion,
                consumer_tid: 2,
                consumer_core: 1,
                producer_tid: 1,
                producer_core: 0,
                produced_at: 400,
                blocked_at: 100,
                woken_at: 420,
                waited: 320,
            }],
            (0, 123_456),
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> SimReport {
        tests_support::sample_report()
    }

    #[test]
    fn round_trips_through_json_text() {
        let r = sample();
        r.validate().unwrap();
        let text = r.to_json().to_pretty();
        let back = SimReport::from_json(&parse(&text).unwrap()).unwrap();
        back.validate().unwrap();
        assert_eq!(back.experiment, "fig6");
        assert_eq!(back.benchmark, "Linked list");
        assert_eq!(back.cores, 2);
        assert_eq!(back.cycles, 123_456);
        assert_eq!(back.cpu.stall_cycles, r.cpu.stall_cycles);
        assert_eq!(back.cpu.stall_by_cause, r.cpu.stall_by_cause);
        assert_eq!(back.cpu.per_core.len(), 2);
        assert_eq!(back.cpu.per_core[1].stall_cycles, 500);
        assert_eq!(back.mem.l1_read_hits, vec![10, 20]);
        assert_eq!(back.ostats.stores, 12);
        assert_eq!(back.engine.events_dispatched, 4096);
        assert_eq!(back.engine.stale_events, 3);
        assert_eq!(back.hists, r.hists);
        assert_eq!(back.hists.gate_wait.count(), 2);
        assert_eq!(back.trace, r.trace);
        assert_eq!(back.timeseries, r.timeseries);
        assert_eq!(back.critpath, r.critpath);
    }

    #[test]
    fn absent_trace_serializes_as_null() {
        let mut r = sample();
        r.trace = None;
        let v = r.to_json();
        assert_eq!(v.get("trace"), Some(&Json::Null));
        let back = SimReport::from_json(&v).unwrap();
        assert_eq!(back.trace, None);
    }

    #[test]
    fn validate_rejects_broken_stall_split() {
        let mut r = sample();
        r.cpu.stall_by_cause[0] += 1;
        assert!(r.validate().unwrap_err().contains("stall_by_cause"));
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let r = sample();
        let mut v = r.to_json();
        if let Json::Obj(members) = &mut v {
            members[0].1 = Json::from_u64(99);
        }
        assert!(SimReport::from_json(&v)
            .unwrap_err()
            .contains("schema version"));
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let v = parse("{\"schema\": 4}").unwrap();
        assert!(SimReport::from_json(&v).is_err());
    }

    #[test]
    fn parses_v4_fixture_without_hist_section() {
        // A schema-4 document produced by the pre-v5 binary: must still
        // load, with the histograms defaulting to empty.
        let text = include_str!("../tests/fixtures/report_v4.json");
        let back = SimReport::from_json(&parse(text).unwrap()).unwrap();
        back.validate().unwrap();
        assert_eq!(back.experiment, "fig7");
        assert_eq!(back.hists, RunHists::default());
        assert!(back.hists.gate_wait.is_empty());
        // Re-serializing stamps the current schema and an empty hist
        // section, which must round-trip.
        let v = back.to_json();
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let again = SimReport::from_json(&v).unwrap();
        assert_eq!(again.hists, back.hists);
    }

    #[test]
    fn v5_document_missing_hist_is_rejected() {
        let r = sample();
        let mut v = r.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "hist");
        }
        assert!(SimReport::from_json(&v).unwrap_err().contains("hist"));
    }

    #[test]
    fn absent_capture_serializes_as_empty_and_null() {
        let mut r = sample();
        r.timeseries.clear();
        r.critpath = None;
        let v = r.to_json();
        assert_eq!(
            v.get("timeseries").and_then(Json::as_arr).map(<[_]>::len),
            Some(0)
        );
        assert_eq!(v.get("critpath"), Some(&Json::Null));
        let back = SimReport::from_json(&v).unwrap();
        assert!(back.timeseries.is_empty());
        assert_eq!(back.critpath, None);
    }
}
