//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] describes *what* to break and a seed describes *when*:
//! the same plan over the same workload replays the identical injected
//! schedule, because every random decision is drawn from a private
//! splitmix64 stream whose consumption order is fixed by the (already
//! deterministic) simulation. Consumers (the `osim-uarch` manager, the
//! experiment harness) hold an [`Injector`] built from the plan.
//!
//! Injectable faults:
//!
//! * **pool shrink** — drop the version-block free list to a given size at
//!   the Nth allocation, modeling mid-run storage pressure;
//! * **carve failure** — make the OS refill trap's carve attempt fail
//!   transiently (with a bounded consecutive-failure count) or cap the
//!   total number of successful refills (a hard storage budget);
//! * **latency jitter** — perturb every versioned operation by a seeded
//!   0..=N extra cycles;
//! * **coherence delay** — deliver compressed-line invalidation losses
//!   late, charging the victim extra cycles before its retry.

/// Shrink the free list once, mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolShrink {
    /// Trigger before the Nth version-block allocation (1-based).
    pub at_alloc: u64,
    /// Free-list blocks to keep; the rest are dropped.
    pub keep_blocks: u32,
}

/// A deterministic fault-injection plan. `FaultPlan::default()` injects
/// nothing; presets and `key=value` overrides come from [`FaultPlan::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the private decision stream.
    pub seed: u64,
    /// One-shot mid-run free-list shrink.
    pub pool_shrink: Option<PoolShrink>,
    /// Probability (percent) that a refill-trap carve fails transiently.
    pub carve_fail_pct: u8,
    /// Upper bound on *consecutive* injected carve failures, so bounded
    /// retry always converges unless the refill budget is exhausted.
    pub max_carve_failures: u32,
    /// Total successful OS refills allowed (`None` = unlimited). `Some(0)`
    /// models a machine that can never grow the pool.
    pub refill_budget: Option<u32>,
    /// Extra 0..=N cycles added to every versioned operation.
    pub latency_jitter: u64,
    /// Extra cycles charged when a stall follows a coherence invalidation
    /// (a delayed/reordered invalidation delivery).
    pub coherence_delay: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x05eed,
            pool_shrink: None,
            carve_fail_pct: 0,
            max_carve_failures: 0,
            refill_budget: None,
            latency_jitter: 0,
            coherence_delay: 0,
        }
    }
}

/// Why an `--inject` spec did not parse. Every malformed input — including
/// arbitrary bytes — maps to one of these; the parser never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A bare word (no `=`) that names no known preset.
    UnknownPreset(String),
    /// A preset name appearing after the first comma-separated part, where
    /// it would silently clobber the overrides before it.
    MisplacedPreset(String),
    /// A `key=value` pair with an unrecognized key.
    UnknownKey(String),
    /// A recognized key whose value did not parse or was out of range.
    BadValue {
        /// The key the value was given for.
        key: String,
        /// The offending value text.
        value: String,
        /// What the key accepts.
        expected: &'static str,
    },
    /// The same key given twice. Last-wins would silently mask a typo in a
    /// long spec, so duplicates are a hard error.
    DuplicateKey(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownPreset(p) => write!(f, "unknown fault-injection preset {p:?}"),
            SpecError::MisplacedPreset(p) => {
                write!(f, "preset {p:?} must come first in the spec")
            }
            SpecError::UnknownKey(k) => write!(f, "unknown fault-injection key {k:?}"),
            SpecError::BadValue {
                key,
                value,
                expected,
            } => write!(
                f,
                "bad value {value:?} for key {key:?} (expected {expected})"
            ),
            SpecError::DuplicateKey(k) => {
                write!(
                    f,
                    "key {k:?} given more than once (duplicates are an error)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl FaultPlan {
    /// Parses an `--inject` spec: a preset name, `key=value` pairs, or a
    /// preset followed by overrides, comma-separated.
    ///
    /// Presets: `pool-pressure`, `pool-exhaustion`, `latency-jitter`,
    /// `coherence-delay`, `chaos`. Keys: `seed`, `shrink-at`,
    /// `shrink-keep`, `carve-fail-pct`, `max-carve-failures`,
    /// `refill-budget`, `jitter`, `coherence-delay`.
    ///
    /// Total on every input: arbitrary bytes yield a typed [`SpecError`],
    /// never a panic, and a repeated key is rejected rather than silently
    /// taking the last occurrence.
    pub fn parse(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut plan = FaultPlan::default();
        let mut seen: Vec<String> = Vec::new();
        for (i, part) in spec.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                None => {
                    if i != 0 {
                        return Err(SpecError::MisplacedPreset(part.to_string()));
                    }
                    plan = Self::preset(part)
                        .ok_or_else(|| SpecError::UnknownPreset(part.to_string()))?;
                }
                Some((key, value)) => {
                    let key = key.trim();
                    if seen.iter().any(|k| k == key) {
                        return Err(SpecError::DuplicateKey(key.to_string()));
                    }
                    plan.set(key, value.trim())?;
                    seen.push(key.to_string());
                }
            }
        }
        Ok(plan)
    }

    fn preset(name: &str) -> Option<FaultPlan> {
        let base = FaultPlan::default();
        Some(match name {
            // Mid-run pool loss plus transient refill failures: the run
            // must recover through bounded retry (nonzero retries and
            // recovered allocations, but no error).
            "pool-pressure" => FaultPlan {
                pool_shrink: Some(PoolShrink {
                    at_alloc: 48,
                    keep_blocks: 0,
                }),
                carve_fail_pct: 100,
                max_carve_failures: 2,
                ..base
            },
            // Pool loss with no refills allowed at all: allocation
            // eventually surfaces `OutOfVersionBlocks` as a typed error.
            "pool-exhaustion" => FaultPlan {
                pool_shrink: Some(PoolShrink {
                    at_alloc: 48,
                    keep_blocks: 0,
                }),
                refill_budget: Some(0),
                ..base
            },
            "latency-jitter" => FaultPlan {
                latency_jitter: 6,
                ..base
            },
            "coherence-delay" => FaultPlan {
                coherence_delay: 40,
                ..base
            },
            "chaos" => FaultPlan {
                pool_shrink: Some(PoolShrink {
                    at_alloc: 96,
                    keep_blocks: 8,
                }),
                carve_fail_pct: 50,
                max_carve_failures: 2,
                latency_jitter: 4,
                coherence_delay: 24,
                ..base
            },
            _ => return None,
        })
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        fn num<T: std::str::FromStr>(
            key: &str,
            value: &str,
            expected: &'static str,
        ) -> Result<T, SpecError> {
            value.parse().map_err(|_| SpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                expected,
            })
        }
        match key {
            "seed" => self.seed = num(key, value, "an unsigned integer")?,
            "shrink-at" => {
                let at: u64 = num(key, value, "an allocation count")?;
                let keep = self.pool_shrink.map(|s| s.keep_blocks).unwrap_or(0);
                self.pool_shrink = Some(PoolShrink {
                    at_alloc: at,
                    keep_blocks: keep,
                });
            }
            "shrink-keep" => {
                let keep: u32 = num(key, value, "a block count")?;
                let at = self.pool_shrink.map(|s| s.at_alloc).unwrap_or(1);
                self.pool_shrink = Some(PoolShrink {
                    at_alloc: at,
                    keep_blocks: keep,
                });
            }
            "carve-fail-pct" => {
                let pct: u8 = num(key, value, "a percentage 0..=100")?;
                if pct > 100 {
                    return Err(SpecError::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                        expected: "a percentage 0..=100",
                    });
                }
                self.carve_fail_pct = pct;
            }
            "max-carve-failures" => self.max_carve_failures = num(key, value, "a failure count")?,
            "refill-budget" => self.refill_budget = Some(num(key, value, "a refill count")?),
            "jitter" => self.latency_jitter = num(key, value, "a cycle count")?,
            "coherence-delay" => self.coherence_delay = num(key, value, "a cycle count")?,
            _ => return Err(SpecError::UnknownKey(key.to_string())),
        }
        Ok(())
    }

    /// Canonical `key=value` spec of this plan (parse/format round-trips),
    /// used to stamp the plan into run reports.
    pub fn to_spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if let Some(s) = self.pool_shrink {
            parts.push(format!("shrink-at={}", s.at_alloc));
            parts.push(format!("shrink-keep={}", s.keep_blocks));
        }
        if self.carve_fail_pct > 0 {
            parts.push(format!("carve-fail-pct={}", self.carve_fail_pct));
            parts.push(format!("max-carve-failures={}", self.max_carve_failures));
        }
        if let Some(b) = self.refill_budget {
            parts.push(format!("refill-budget={b}"));
        }
        if self.latency_jitter > 0 {
            parts.push(format!("jitter={}", self.latency_jitter));
        }
        if self.coherence_delay > 0 {
            parts.push(format!("coherence-delay={}", self.coherence_delay));
        }
        parts.join(",")
    }
}

/// Runtime state of one plan: the decision stream plus the counters that
/// make the bounded-failure and budget rules stateful.
#[derive(Debug, Clone, Copy)]
pub struct Injector {
    plan: FaultPlan,
    rng: u64,
    allocs_seen: u64,
    shrink_done: bool,
    consecutive_carve_failures: u32,
    refills_done: u32,
}

impl Injector {
    /// Builds the runtime state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            rng: plan.seed,
            allocs_seen: 0,
            shrink_done: false,
            consecutive_carve_failures: 0,
            refills_done: 0,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn next(&mut self) -> u64 {
        // splitmix64, inlined: osim-mem does not depend on osim-engine.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Called once per version-block allocation; returns `Some(keep)` when
    /// the one-shot pool shrink triggers on this allocation.
    pub fn shrink_due(&mut self) -> Option<u32> {
        self.allocs_seen += 1;
        let s = self.plan.pool_shrink?;
        if self.shrink_done || self.allocs_seen < s.at_alloc {
            return None;
        }
        self.shrink_done = true;
        Some(s.keep_blocks)
    }

    /// Whether another successful OS refill is permitted by the budget.
    pub fn refill_allowed(&self) -> bool {
        match self.plan.refill_budget {
            Some(budget) => self.refills_done < budget,
            None => true,
        }
    }

    /// Decides whether this refill-trap carve attempt fails transiently.
    /// At most [`FaultPlan::max_carve_failures`] consecutive failures are
    /// injected, so retry loops bounded above that always converge.
    pub fn transient_carve_failure(&mut self) -> bool {
        if self.plan.carve_fail_pct == 0
            || self.consecutive_carve_failures >= self.plan.max_carve_failures
        {
            self.consecutive_carve_failures = 0;
            return false;
        }
        let fail = self.next() % 100 < self.plan.carve_fail_pct as u64;
        if fail {
            self.consecutive_carve_failures += 1;
        } else {
            self.consecutive_carve_failures = 0;
        }
        fail
    }

    /// Records a successful refill carve (consumes budget).
    pub fn note_refill(&mut self) {
        self.refills_done += 1;
        self.consecutive_carve_failures = 0;
    }

    /// Seeded per-operation latency perturbation, 0..=`latency_jitter`.
    pub fn jitter(&mut self) -> u64 {
        if self.plan.latency_jitter == 0 {
            return 0;
        }
        self.next() % (self.plan.latency_jitter + 1)
    }

    /// Extra cycles charged to a coherence-invalidation-caused stall.
    pub fn coherence_delay(&self) -> u64 {
        self.plan.coherence_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let mut inj = Injector::new(FaultPlan::default());
        assert_eq!(inj.shrink_due(), None);
        assert!(inj.refill_allowed());
        assert!(!inj.transient_carve_failure());
        assert_eq!(inj.jitter(), 0);
        assert_eq!(inj.coherence_delay(), 0);
    }

    #[test]
    fn presets_parse() {
        let p = FaultPlan::parse("pool-pressure").unwrap();
        assert_eq!(p.carve_fail_pct, 100);
        assert_eq!(p.max_carve_failures, 2);
        assert!(p.pool_shrink.is_some());
        let p = FaultPlan::parse("pool-exhaustion").unwrap();
        assert_eq!(p.refill_budget, Some(0));
        assert!(FaultPlan::parse("latency-jitter").unwrap().latency_jitter > 0);
        assert!(FaultPlan::parse("coherence-delay").unwrap().coherence_delay > 0);
        assert!(FaultPlan::parse("chaos").unwrap().pool_shrink.is_some());
        assert!(FaultPlan::parse("bogus").is_err());
    }

    #[test]
    fn overrides_and_round_trip() {
        let p = FaultPlan::parse("pool-pressure,seed=7,jitter=3,shrink-at=10").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.latency_jitter, 3);
        assert_eq!(p.pool_shrink.unwrap().at_alloc, 10);
        assert_eq!(p.pool_shrink.unwrap().keep_blocks, 0);
        let back = FaultPlan::parse(&p.to_spec()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn key_value_only_spec() {
        let p = FaultPlan::parse("refill-budget=2,coherence-delay=9").unwrap();
        assert_eq!(p.refill_budget, Some(2));
        assert_eq!(p.coherence_delay, 9);
        assert!(FaultPlan::parse("jitter=x").is_err());
        assert!(FaultPlan::parse("carve-fail-pct=101").is_err());
        assert!(FaultPlan::parse("seed=1,pool-pressure").is_err());
    }

    #[test]
    fn consecutive_carve_failures_are_bounded() {
        let plan = FaultPlan {
            carve_fail_pct: 100,
            max_carve_failures: 2,
            ..FaultPlan::default()
        };
        let mut inj = Injector::new(plan);
        assert!(inj.transient_carve_failure());
        assert!(inj.transient_carve_failure());
        assert!(!inj.transient_carve_failure(), "third attempt must pass");
        assert!(inj.transient_carve_failure(), "counter reset after success");
    }

    #[test]
    fn refill_budget_counts_down() {
        let plan = FaultPlan {
            refill_budget: Some(1),
            ..FaultPlan::default()
        };
        let mut inj = Injector::new(plan);
        assert!(inj.refill_allowed());
        inj.note_refill();
        assert!(!inj.refill_allowed());
    }

    #[test]
    fn decision_stream_is_seed_deterministic() {
        let plan = FaultPlan {
            latency_jitter: 13,
            ..FaultPlan::default()
        };
        let a: Vec<u64> = {
            let mut inj = Injector::new(plan);
            (0..64).map(|_| inj.jitter()).collect()
        };
        let b: Vec<u64> = {
            let mut inj = Injector::new(plan);
            (0..64).map(|_| inj.jitter()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|&j| j > 0));
        assert!(a.iter().all(|&j| j <= 13));
        let other = Injector::new(FaultPlan { seed: 99, ..plan });
        let c: Vec<u64> = {
            let mut inj = other;
            (0..64).map(|_| inj.jitter()).collect()
        };
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn shrink_triggers_once_at_threshold() {
        let plan = FaultPlan {
            pool_shrink: Some(PoolShrink {
                at_alloc: 3,
                keep_blocks: 5,
            }),
            ..FaultPlan::default()
        };
        let mut inj = Injector::new(plan);
        assert_eq!(inj.shrink_due(), None);
        assert_eq!(inj.shrink_due(), None);
        assert_eq!(inj.shrink_due(), Some(5));
        assert_eq!(inj.shrink_due(), None, "one-shot");
    }
}
