//! End-to-end smoke of the live observability plane: launch a real
//! long-running invocation with `--metrics-addr 127.0.0.1:0`, parse the
//! bound address off stderr, scrape `/metrics` over a plain
//! `std::net::TcpStream` (no curl), and assert the exposition is valid
//! Prometheus text whose job-queue and run-cache families — the layers a
//! cached sweep actually drives — are live. A second test pins the
//! non-perturbation contract: stdout with the plane armed is
//! byte-identical to stdout without it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_osim-experiments");

/// Reads the child's stderr until the plane announces its bound address.
fn bound_addr(child: &mut Child) -> String {
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "no listening line within 60s");
        let line = lines
            .next()
            .expect("stderr closed before the listening line")
            .expect("stderr readable");
        if let Some(rest) = line.strip_prefix("metrics: listening on http://") {
            // Drain the rest of stderr on a background thread so the
            // child can never block on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            return rest
                .strip_suffix("/metrics")
                .expect("address line shape")
                .to_string();
        }
    }
}

/// One `GET /metrics` scrape; asserts the HTTP envelope and returns the
/// body.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "prometheus content type: {head}"
    );
    body.to_string()
}

/// Every non-comment line must be `series[{labels}] value`: the value
/// parses as a finite float and label blocks are brace-balanced.
fn assert_valid_exposition(body: &str) {
    assert!(body.contains("# TYPE "), "no TYPE comments:\n{body}");
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        assert!(v.is_finite(), "non-finite value in {line:?}");
        assert_eq!(
            series.contains('{'),
            series.ends_with('}'),
            "unbalanced label block in {line:?}"
        );
    }
}

/// Sum of all samples of one family prefix (folds labeled series).
fn family_total(body: &str, prefix: &str) -> f64 {
    body.lines()
        .filter(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// Value of one exact (unlabeled) series.
fn series_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|l| l.split([' ', '{']).next() == Some(name))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("series {name} absent"))
}

#[test]
fn stress_serves_live_jobq_and_cache_metrics() {
    let cache = std::env::temp_dir().join(format!("osim-metrics-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let mut child = Command::new(BIN)
        .args(["stress", "--scale", "tiny", "--cache"])
        .arg(&cache)
        .args(["--metrics-addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stress");
    let addr = bound_addr(&mut child);

    // The plane is armed before the first sweep batch starts, so this
    // scrape sees the job count at (or near) its starting point.
    let first = scrape(&addr);
    let jobs_first = series_value(&first, "osim_jobq_jobs_total");
    // Poll until the sweep has completed more jobs than the first scrape
    // saw, and the cache has been probed.
    let deadline = Instant::now() + Duration::from_secs(60);
    let second = loop {
        let body = scrape(&addr);
        if series_value(&body, "osim_jobq_jobs_total") > jobs_first
            && family_total(&body, "osim_cache_") > 0.0
        {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "osim_jobq_jobs_total did not increase within 60s:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // The child has served its purpose; reap it before asserting so a
    // failure can't leak a running stress process.
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&cache);

    for body in [&first, &second] {
        assert_valid_exposition(body);
    }
    for family in ["osim_jobq_", "osim_cache_"] {
        assert!(
            family_total(&second, family) > 0.0,
            "family {family} not live:\n{second}"
        );
    }
    // The store and vacuum layers are not driven by a sweep: their
    // families are exported (valid, checked above) but may stay at zero.
    for family in ["osim_store_", "osim_vacuum_"] {
        assert!(
            second.contains(family),
            "family {family} missing:\n{second}"
        );
    }
}

#[test]
fn armed_plane_leaves_stdout_byte_identical() {
    let run = |extra: &[&str]| -> Vec<u8> {
        let mut args = vec!["fig6", "--stats", "--scale", "tiny", "--jobs", "1"];
        args.extend_from_slice(extra);
        let out = Command::new(BIN).args(&args).output().expect("run fig6");
        assert!(out.status.success(), "fig6 failed: {:?}", out.status);
        out.stdout
    };
    let plain = run(&[]);
    let armed = run(&["--metrics-addr", "127.0.0.1:0"]);
    assert_eq!(
        plain, armed,
        "stdout must not change when the metrics endpoint is armed"
    );
}
