//! Runtime invariant oracles for the O-structure manager.
//!
//! When [`crate::OManagerCfg::oracles`] is set, the manager checks the
//! paper's semantic invariants *at runtime* on every relevant operation and
//! records violations instead of (only) tripping debug assertions:
//!
//! * **Lock exclusion** — a version lock is only ever granted on an
//!   unlocked block (§II-C single-writer rule).
//! * **Version monotonicity** — sorted version lists stay strictly
//!   descending around every insertion (§III-A).
//! * **GC liveness** — the collector only frees blocks that are shadowed,
//!   unlocked, not the list head, and superseded by a strictly newer
//!   version (§III-B: no live version is ever reclaimed).
//!
//! The checks are cheap (a handful of integer compares next to work that
//! already touched the same state) but not free, so they default to off and
//! are armed by the `stress` harness, which runs every quick figure under
//! many shaken schedules and fails the run if any oracle records a
//! violation. Recording rather than asserting means a violation surfaces as
//! a reproducible report line (`--fig … --shake-seed …`) in release builds
//! too, instead of only aborting debug ones.

/// Violation details kept verbatim; later violations only bump the counter
/// so a pathological run cannot grow the report without bound.
const MAX_DETAILS: usize = 8;

/// What the invariant oracles observed during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Lock-exclusion checks performed (one per lock grant / unlock).
    pub lock_checks: u64,
    /// Version-order checks performed (one per sorted-list insertion).
    pub order_checks: u64,
    /// GC-liveness checks performed (one per block the collector frees).
    pub gc_checks: u64,
    /// Total violations across all oracles.
    pub violations: u64,
    /// First `MAX_DETAILS` (8) violation messages, in discovery order.
    pub details: Vec<String>,
}

impl OracleReport {
    /// True when no oracle recorded a violation.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    /// Total checks performed across all oracles.
    pub fn checks(&self) -> u64 {
        self.lock_checks + self.order_checks + self.gc_checks
    }

    /// Records one violation, keeping the first few messages.
    pub(crate) fn violation(&mut self, detail: String) {
        self.violations += 1;
        if self.details.len() < MAX_DETAILS {
            self.details.push(detail);
        }
    }

    /// One-line summary (`"3 checks, ok"` / `"… 2 violation(s)"`).
    pub fn summary(&self) -> String {
        if self.ok() {
            format!("{} oracle check(s), all passed", self.checks())
        } else {
            format!(
                "{} oracle check(s), {} violation(s); first: {}",
                self.checks(),
                self.violations,
                self.details.first().map_or("<none>", |s| s.as_str())
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_caps_details() {
        let mut r = OracleReport::default();
        assert!(r.ok());
        for i in 0..20 {
            r.violation(format!("v{i}"));
        }
        assert!(!r.ok());
        assert_eq!(r.violations, 20);
        assert_eq!(r.details.len(), MAX_DETAILS);
        assert_eq!(r.details[0], "v0");
        assert!(r.summary().contains("20 violation(s)"));
        assert!(r.summary().contains("v0"));
    }

    #[test]
    fn summary_reports_clean_runs() {
        let r = OracleReport {
            lock_checks: 2,
            gc_checks: 1,
            ..OracleReport::default()
        };
        assert_eq!(r.checks(), 3);
        assert!(r.summary().contains("all passed"));
    }
}
