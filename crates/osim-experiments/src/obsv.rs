//! The invocation's live observability plane.
//!
//! `--metrics-addr <host:port>` starts a [`MetricsServer`] — the std-only
//! scrape endpoint serving `GET /metrics` — over a **shared collector**
//! that folds every instrumented layer into one point-in-time
//! [`Registry`]: the sweep runner (`osim_jobq_*`), the concurrent store's
//! process-global hot-path counters (`osim_store_*`), the vacuum roll-up
//! (`osim_vacuum_*`), and the armed `--cache` store (`osim_cache_*`,
//! present only when `--cache` is given).
//!
//! The collector reports only the work the invocation does. The figure
//! workloads run on the *simulated* machine and never touch
//! `ostructs-core`, so during a sweep the store and vacuum families stay
//! at zero; they move when an invocation drives the store (`perf
//! --ostructs`).
//!
//! The server is never torn down: `compare` and a failing `stress` leave
//! via `std::process::exit`, and the accept thread must stay scrape-able
//! until the very end. With the flag absent (`off`) nothing is
//! constructed, no thread starts, and no byte of output changes.

use std::sync::{Arc, Mutex};

use osim_metrics::Registry;
use osim_serve::{Collector, MetricsServer};

/// The collector every scrape renders.
fn collector() -> Collector {
    Arc::new(|reg: &mut Registry| {
        crate::runner::fill_registry(reg);
        ostructs_core::fill_store_registry(reg);
        ostructs_core::fill_vacuum_registry(reg);
        if let Some(cache) = crate::runner::cache() {
            cache.fill_registry(reg);
        }
    })
}

/// Starts the scrape endpoint on `spec` (a `host:port`; port 0 binds
/// ephemeral). Announces the bound address on stderr — stdout stays
/// byte-identical. Exits with code 2 when the address cannot be bound: a
/// user who asked for a scrape endpoint must not silently run without
/// one.
pub fn arm(spec: &str) {
    let server = match MetricsServer::start(spec, collector()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--metrics-addr {spec}: cannot bind: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("metrics: listening on http://{}/metrics", server.addr());
    // The server must outlive `main` (compare and a failing stress exit
    // the process directly); forgetting it disables its Drop-stop.
    std::mem::forget(server);
}

/// Where `--host-chrome` output goes, once armed.
fn host_chrome_slot() -> &'static Mutex<Option<String>> {
    static PATH: Mutex<Option<String>> = Mutex::new(None);
    &PATH
}

/// Arms host-thread span collection, to be written to `path` by
/// [`host_chrome_flush`].
pub fn host_chrome_arm(path: String) {
    *host_chrome_slot().lock().unwrap_or_else(|e| e.into_inner()) = Some(path);
    osim_metrics::host_trace_arm(true);
}

/// Drains collected host spans into the armed `--host-chrome` file. No-op
/// when the flag is absent. Called at the end of `main`, and by `compare`
/// before it exits.
pub fn host_chrome_flush() {
    let path = host_chrome_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    let Some(path) = path else {
        return;
    };
    osim_metrics::host_trace_arm(false);
    let spans = osim_metrics::host_trace_drain();
    let doc = osim_report::host_trace_doc(&spans);
    if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("cannot write --host-chrome output {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote host trace ({} span(s)) to {path}", spans.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_is_shareable_and_fills_the_process_global_families() {
        let collect = collector();
        let mut reg = Registry::new();
        collect(&mut reg);
        let text = reg.to_prometheus();
        for family in ["osim_jobq_", "osim_store_", "osim_vacuum_"] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
