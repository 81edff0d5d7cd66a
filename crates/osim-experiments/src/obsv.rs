//! The invocation's live observability plane.
//!
//! `--metrics-addr <host:port>` arms three cooperating pieces for the
//! duration of the process:
//!
//! * a **shared collector** that folds every instrumented layer into one
//!   point-in-time [`Registry`]: the jobq pool (`osim_jobq_*`), the
//!   concurrent store's process-global hot-path counters (`osim_store_*`),
//!   the vacuum roll-up (`osim_vacuum_*`), and the armed `--cache` store
//!   (`osim_cache_*`, present only when `--cache` is given);
//! * a [`FlightRecorder`] sampling that collector on a fixed cadence into
//!   a bounded ring of per-window deltas (served as `/window`);
//! * a [`MetricsServer`] — the std-only scrape endpoint (`/metrics`,
//!   `/metrics.json`, `/window`).
//!
//! The collector reports only the work the invocation does. The figure
//! workloads run on the *simulated* machine and never touch
//! `ostructs-core`, so during a sweep the store and vacuum families stay
//! at zero; they move when an invocation drives the store (`perf
//! --ostructs`).
//!
//! Everything here lives in a process-wide [`OnceLock`] and is never torn
//! down: `stress` and `compare` leave via `std::process::exit`, and the
//! sampler/accept threads must stay scrape-able until the very end. With
//! the flag absent (`off`) nothing is constructed, no thread starts, and
//! no byte of output changes.

use std::sync::{Arc, Mutex, OnceLock};

use osim_metrics::flight::Collector;
use osim_metrics::{FlightCfg, FlightRecorder, Registry};
use osim_serve::{MetricsServer, WindowSource};

/// The armed plane; held (never dropped) in a process-wide static. The
/// recorder handle is retained purely to keep the sampler alive — and
/// joinable by anyone who later grows a shutdown path.
struct Plane {
    _recorder: Arc<FlightRecorder>,
}

fn plane_slot() -> &'static OnceLock<Plane> {
    static PLANE: OnceLock<Plane> = OnceLock::new();
    &PLANE
}

/// The one collector every consumer (sampler, scrape routes) shares.
fn collector() -> Collector {
    Arc::new(|reg: &mut Registry| {
        osim_jobq::fill_live_registry(reg);
        ostructs_core::fill_store_registry(reg);
        ostructs_core::fill_vacuum_registry(reg);
        if let Some(store) = crate::runner::cache_store() {
            store.fill_registry(reg);
        }
    })
}

/// Arms the plane on `spec` (a `host:port`; port 0 binds ephemeral).
/// Announces the bound address on stderr — stdout stays byte-identical.
/// Exits with code 2 when the address cannot be bound: a user who asked
/// for a scrape endpoint must not silently run without one.
pub fn arm(spec: &str) {
    let collect = collector();
    let recorder = match FlightRecorder::start(FlightCfg::default(), Arc::clone(&collect)) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("--metrics-addr: cannot start flight recorder: {e}");
            std::process::exit(2);
        }
    };
    let window: WindowSource = {
        let recorder = Arc::clone(&recorder);
        Arc::new(move || recorder.window_json())
    };
    let server = match MetricsServer::start(spec, collect, window) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--metrics-addr {spec}: cannot bind: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("metrics: listening on http://{}/metrics", server.addr());
    // The server must outlive `main` (stress/compare exit the process
    // directly); parking it in the static disables its Drop-stop.
    std::mem::forget(server);
    let _ = plane_slot().set(Plane {
        _recorder: recorder,
    });
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
/// when the flag is absent. Called at the end of `main` and before every
/// `std::process::exit` a subcommand performs, whichever comes first.
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
