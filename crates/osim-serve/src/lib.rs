//! The live scrape endpoint for long-running invocations.
//!
//! A std-only (no dependencies beyond `osim-metrics`) HTTP/1.1 server
//! over [`std::net::TcpListener`] with one route: `GET /metrics`, the
//! Prometheus text exposition of a freshly collected
//! [`osim_metrics::Registry`]. Every other path answers 404.
//!
//! The server never touches stdout (byte-compared output stays clean);
//! the bound address is announced on stderr so `--metrics-addr
//! 127.0.0.1:0` with an ephemeral port is scriptable. Requests are served
//! serially on one accept thread — a scrape every few seconds from one
//! Prometheus instance is the design load, not a public web server.

use osim_metrics::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::Duration;

/// Builds the point-in-time registry one scrape renders.
pub type Collector = Arc<dyn Fn(&mut Registry) + Send + Sync>;

/// A running metrics endpoint. Dropping it stops the accept thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `spec` (a `host:port` string; port 0 picks an ephemeral
    /// port) and starts serving. `collect` builds the point-in-time
    /// registry each `/metrics` scrape renders.
    pub fn start(spec: &str, collect: Collector) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_worker = Arc::clone(&stop);
        let thread = Builder::new()
            .name("osim-serve".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_worker.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A misbehaving client must not wedge the
                        // endpoint; errors just drop the connection.
                        let _ = serve_one(stream, &collect);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(mut stream: TcpStream, collect: &Collector) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()),
    };
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => {
            let mut reg = Registry::new();
            collect(&mut reg);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                reg.to_prometheus(),
            )
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics\n".to_string(),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads the request head and returns the path of a `GET` request
/// (query strings stripped), or `None` for anything unparseable.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = match head.lines().next() {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(target)) => {
            let path = target.split('?').next().unwrap_or(target);
            Ok(Some(path.to_string()))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn test_server() -> (MetricsServer, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        let hits_src = Arc::clone(&hits);
        let collect: Collector = Arc::new(move |reg: &mut Registry| {
            reg.counter_add(
                "osim_test_scrapes_total",
                &[],
                hits_src.fetch_add(1, Ordering::Relaxed) + 1,
            );
            reg.gauge_set("osim_test_depth", &[], 3.0);
            reg.hist_record("osim_test_lat_us", &[("fig", "f\"1\"")], 17);
        });
        let server = MetricsServer::start("127.0.0.1:0", collect).expect("bind ephemeral port");
        (server, hits)
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let (server, _) = test_server();
        let (head, body) = http_get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE osim_test_scrapes_total counter"));
        assert!(body.contains("osim_test_depth 3"));
        // Label escaping survives the wire.
        assert!(body.contains("fig=\"f\\\"1\\\"\""));
    }

    #[test]
    fn scrapes_observe_fresh_collector_state() {
        let (server, _) = test_server();
        let (_, first) = http_get(server.addr(), "/metrics");
        let (_, second) = http_get(server.addr(), "/metrics");
        let value = |body: &str| -> u64 {
            body.lines()
                .find(|l| l.starts_with("osim_test_scrapes_total "))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("counter sample")
        };
        assert!(value(&second) > value(&first));
    }

    #[test]
    fn unknown_route_is_404_and_server_survives() {
        let (server, _) = test_server();
        for path in ["/nope", "/metrics.json", "/window"] {
            let (head, body) = http_get(server.addr(), path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert_eq!(body, "routes: /metrics\n", "{path}");
            let (head, _) = http_get(server.addr(), "/metrics");
            assert!(head.starts_with("HTTP/1.1 200"), "after {path}: {head}");
        }
    }

    #[test]
    fn stop_is_idempotent() {
        let (mut server, _) = test_server();
        server.stop();
        server.stop();
    }
}
