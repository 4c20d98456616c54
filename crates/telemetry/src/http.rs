//! Zero-dependency live metrics endpoint.
//!
//! A tiny HTTP/1.0 server on `std::net` — no framework, no async — that
//! exposes the running volume's observables while it serves I/O:
//!
//! - `GET /metrics`  → Prometheus text exposition (scrapeable);
//! - `GET /snapshot` → the full JSON [`TelemetrySnapshot`];
//! - `GET /trace?export=NAME&n=K` → Chrome `trace_event` JSON of the
//!   newest `K` spans of export `NAME`'s span ring (all buffered spans
//!   when `n` is omitted), loadable in `about:tracing` or Perfetto. The
//!   ring is resolved per request, so exports attached later are traced
//!   too; whether `export` may be omitted is up to the [`TraceFn`].
//!
//! Each connection is served inline on the accept thread: requests are
//! one-line GETs and responses are small, so a scraper or a browser tab
//! cannot stall the data plane (the only shared state touched is the
//! snapshot closure and the span ring, both lock-cheap).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::snapshot::TelemetrySnapshot;
use crate::span::SpanRing;

/// Produces a fresh telemetry snapshot per scrape; `None` when the
/// volume is gone (shutting down), which the server reports as a 503.
pub type SnapshotFn = Box<dyn Fn() -> Option<TelemetrySnapshot> + Send + Sync>;

/// Resolves `/trace`'s span ring per request from its `export=` value
/// (`""` when absent). `Err` carries the HTTP status and the body that
/// explains the miss.
pub type TraceFn = Box<dyn Fn(&str) -> Result<Arc<SpanRing>, (u16, String)> + Send + Sync>;

/// The live metrics endpoint. Stops (and joins its accept thread) on
/// [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and starts serving `/metrics`, `/snapshot` and
    /// `/trace` from the given sources.
    pub fn start(
        addr: impl ToSocketAddrs,
        snapshot: SnapshotFn,
        trace: TraceFn,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("lsvd-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = serve_one(stream, &snapshot, &trace);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads the request line, routes it, writes one HTTP/1.0 response.
fn serve_one(mut stream: TcpStream, snapshot: &SnapshotFn, trace: &TraceFn) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    // Read until the end of the request head (or 4 KiB, whichever comes
    // first) — only the request line matters.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 256];
    loop {
        let n = match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&byte[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 4096 {
            break;
        }
    }
    let line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => match snapshot() {
            Some(snap) => respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &snap.to_prometheus(),
            ),
            None => respond(&mut stream, 503, "text/plain", "volume closed\n"),
        },
        "/snapshot" => match snapshot() {
            Some(snap) => respond(
                &mut stream,
                200,
                "application/json",
                &snap.to_json().render(),
            ),
            None => respond(&mut stream, 503, "text/plain", "volume closed\n"),
        },
        "/trace" => {
            let param = |key: &str| query.split('&').find_map(|kv| kv.strip_prefix(key));
            let n = param("n=")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            match trace(param("export=").unwrap_or("")) {
                Ok(spans) => respond(
                    &mut stream,
                    200,
                    "application/json",
                    &spans.to_chrome_trace(n),
                ),
                Err((code, body)) => respond(&mut stream, code, "text/plain", &body),
            }
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {target} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let code = buf
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = buf.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        (code, body.to_string())
    }

    #[test]
    fn serves_all_three_endpoints_and_404s_the_rest() {
        // `/trace` reads the ring its `export=` names; without a name the
        // trace source here answers 400, as a multi-export node does.
        let spans = Arc::new(SpanRing::new(64, 2));
        spans.set_enabled(true);
        let req = spans.mint_request();
        let open = spans.begin(req, 0, Stage::Read).unwrap();
        spans.finish(open, 0, 4096);
        let snap: SnapshotFn = Box::new(|| Some(TelemetrySnapshot::default()));
        let trace: TraceFn = Box::new(move |export| match export {
            "a" => Ok(spans.clone()),
            "" => Err((400, "name one: a b\n".to_string())),
            _ => Err((404, "no such export\n".to_string())),
        });
        let mut srv = MetricsServer::start("127.0.0.1:0", snap, trace).unwrap();
        let addr = srv.addr();

        let (code, body) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE"), "{body}");

        let (code, body) = http_get(addr, "/snapshot");
        assert_eq!(code, 200);
        let parsed = crate::json::Json::parse(&body).expect("snapshot json");
        assert!(parsed.get("schema").is_some());

        let (code, body) = http_get(addr, "/trace?n=10");
        assert_eq!((code, body.as_str()), (400, "name one: a b\n"));
        assert_eq!(http_get(addr, "/trace?export=b").0, 404);
        let (code, body) = http_get(addr, "/trace?n=10&export=a");
        assert_eq!(code, 200);
        let parsed = crate::json::Json::parse(&body).expect("trace json");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")),
            "trace carries the recorded span"
        );

        let (code, _) = http_get(addr, "/nope");
        assert_eq!(code, 404);
        srv.stop();
    }

    #[test]
    fn reports_503_when_the_volume_is_gone() {
        let spans = Arc::new(SpanRing::new(8, 1));
        let snap: SnapshotFn = Box::new(|| None);
        let trace: TraceFn = Box::new(move |_| Ok(spans.clone()));
        let mut srv = MetricsServer::start("127.0.0.1:0", snap, trace).unwrap();
        let (code, _) = http_get(srv.addr(), "/metrics");
        assert_eq!(code, 503);
        srv.stop();
    }
}
