//! The invocation's host-side observability files, written once at exit.
//!
//! `--metrics-out <path>` writes the Prometheus text of one collector
//! that folds every instrumented layer into a point-in-time
//! [`Registry`]: the sweep runner (`osim_jobq_*`) and the concurrent
//! store's process-global hot-path counters (`osim_store_*`).
//! `--host-chrome <path>` writes the host wall-clock spans (jobs, vacuum
//! passes) as a Chrome trace document.
//!
//! The collector reports only the work the invocation does. The figure
//! workloads run on the *simulated* machine and never touch
//! `ostructs-core`, so the store family is written only by an invocation
//! that drives the store (`perf --ostructs`).
//!
//! [`SideFiles::flush`] writes both files at the end of `main`, which a
//! failing `stress` also reaches, and in `compare` before it exits. With
//! neither flag given nothing is collected and no byte of output changes.

use osim_metrics::Registry;

/// Everything the `--metrics-out` file reports; `store` when the
/// invocation drives the store.
fn collect(store: bool) -> Registry {
    let mut reg = Registry::new();
    crate::runner::fill_registry(&mut reg);
    if store {
        ostructs_core::fill_store_registry(&mut reg);
    }
    reg
}

/// The armed `--host-chrome` and `--metrics-out` paths.
pub struct SideFiles {
    host_chrome: Option<String>,
    metrics_out: Option<String>,
    /// Whether the invocation drives the store (`perf --ostructs`).
    store: bool,
}

impl SideFiles {
    /// Arms host-span collection when `--host-chrome` is given.
    pub fn arm(host_chrome: Option<String>, metrics_out: Option<String>, store: bool) -> SideFiles {
        if host_chrome.is_some() {
            osim_metrics::host_trace_arm(true);
        }
        SideFiles {
            host_chrome,
            metrics_out,
            store,
        }
    }

    /// Writes each armed file; exits 1 when one cannot be written.
    pub fn flush(self) {
        if let Some(path) = self.host_chrome {
            osim_metrics::host_trace_arm(false);
            let spans = osim_metrics::host_trace_drain();
            let doc = osim_report::host_trace_doc(&spans);
            write("--host-chrome", &path, doc.to_pretty());
            eprintln!("wrote host trace ({} span(s)) to {path}", spans.len());
        }
        if let Some(path) = self.metrics_out {
            write("--metrics-out", &path, collect(self.store).to_prometheus());
            eprintln!("wrote metrics to {path}");
        }
    }
}

fn write(flag: &str, path: &str, body: String) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {flag} output {path}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_fills_the_process_global_families() {
        let sweep = collect(false).to_prometheus();
        assert!(
            sweep.contains("osim_jobq_"),
            "missing osim_jobq_ in:\n{sweep}"
        );
        assert!(!sweep.contains("osim_store_"), "store family in:\n{sweep}");
        let store = collect(true).to_prometheus();
        for family in ["osim_jobq_", "osim_store_"] {
            assert!(store.contains(family), "missing {family} in:\n{store}");
        }
    }
}
