//! Exposition of a [`MetricsSnapshot`]: Prometheus-style text, a
//! stable-schema JSON document, and a zero-dependency TCP stats listener.
//!
//! The text format follows the Prometheus exposition conventions —
//! `# HELP` / `# TYPE` comment lines, `name value` samples, histograms as
//! cumulative `_bucket{le="…"}` series plus `_sum`/`_count`, and
//! pre-computed quantile gauges (`…_p50`/`…_p90`/`…_p99`) so a bare
//! `curl /metrics | grep p99` answers the latency question without a query
//! engine. The JSON layout is versioned like the run-trace schema: the
//! authoritative schema lives in `metrics.schema.json` at the repository
//! root; any breaking change bumps [`METRICS_SCHEMA_VERSION`].
//!
//! [`StatsListener`] is the first brick of the roadmap's network
//! front-end: an std-only HTTP/1.0 responder on a background thread,
//! serving `GET /metrics` (text), `GET /metrics.json`, and `GET /healthz`
//! from whatever [`StatsSource`] it wraps. It is scrape-oriented by
//! design — one request per connection, no keep-alive, no framework — and
//! shuts down with its owner ([`StatsListener::stop`], also on drop).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::{MetricData, MetricsSnapshot};
use crate::trace::escape_json;

/// Version of the JSON metrics layout emitted by [`render_json`].
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Quantiles pre-computed for every histogram in both renderings.
pub(crate) const EXPOSED_QUANTILES: [(f64, &str); 3] = [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")];

/// Format a sample value the way Prometheus text exposition expects:
/// integers bare, floats with enough digits to round-trip.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.9}")
    }
}

/// Render a snapshot as Prometheus-style text exposition.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for m in &snap.metrics {
        if !m.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
        }
        match &m.value {
            MetricData::Counter(v) => {
                out.push_str(&format!("# TYPE {} counter\n{} {v}\n", m.name, m.name));
            }
            MetricData::Gauge(v) => {
                out.push_str(&format!("# TYPE {} gauge\n{} {}\n", m.name, m.name, fmt_value(*v)));
            }
            MetricData::Histogram(h) => {
                out.push_str(&format!("# TYPE {} histogram\n", m.name));
                let bounds = crate::dist_bucket_bounds_secs();
                let mut cum = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    cum += c;
                    // Elide empty leading/inner buckets only when nothing
                    // has landed yet; cumulative counts stay correct.
                    if c == 0 && cum == 0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "{}_bucket{{le=\"{:.9}\"}} {cum}\n",
                        m.name, bounds[i]
                    ));
                }
                out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", m.name, h.count));
                out.push_str(&format!("{}_sum {:.9}\n", m.name, h.sum_secs));
                out.push_str(&format!("{}_count {}\n", m.name, h.count));
                for (q, suffix) in EXPOSED_QUANTILES {
                    out.push_str(&format!(
                        "# TYPE {}_{suffix} gauge\n{}_{suffix} {:.9}\n",
                        m.name,
                        m.name,
                        h.quantile(q)
                    ));
                }
            }
        }
    }
    out
}

/// Render a snapshot as the stable JSON layout (`metrics.schema.json`).
pub fn render_json(snap: &MetricsSnapshot) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"));
    s.push_str("  \"generator\": \"autofeat-obs\",\n");
    s.push_str("  \"metrics\": {");
    for (i, m) in snap.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\": ", escape_json(&m.name)));
        match &m.value {
            MetricData::Counter(v) => {
                s.push_str(&format!("{{\"type\": \"counter\", \"value\": {v}}}"));
            }
            MetricData::Gauge(v) => {
                s.push_str(&format!("{{\"type\": \"gauge\", \"value\": {v:.9}}}"));
            }
            MetricData::Histogram(h) => {
                s.push_str(&format!(
                    "{{\"type\": \"histogram\", \"count\": {}, \"sum_secs\": {:.9}",
                    h.count, h.sum_secs
                ));
                for (q, suffix) in EXPOSED_QUANTILES {
                    s.push_str(&format!(", \"{suffix}_secs\": {:.9}", h.quantile(q)));
                }
                s.push_str(", \"buckets\": [");
                let bounds = crate::dist_bucket_bounds_secs();
                let mut first = true;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        s.push_str(", ");
                    }
                    first = false;
                    s.push_str(&format!("{{\"le_secs\": {:.9}, \"count\": {c}}}", bounds[i]));
                }
                s.push_str("]}");
            }
        }
    }
    s.push_str(if snap.metrics.is_empty() { "}\n" } else { "\n  }\n" });
    s.push_str("}\n");
    s
}

/// What a [`StatsListener`] serves. Implementations render fresh state per
/// request — the listener itself caches nothing.
pub trait StatsSource: Send + Sync + 'static {
    /// Body for `GET /metrics` (Prometheus-style text).
    fn metrics_text(&self) -> String;
    /// Body for `GET /metrics.json` (stable-schema JSON).
    fn metrics_json(&self) -> String;
    /// Health for `GET /healthz`: `true` = 200 `ok`, `false` = 503
    /// `shutting down`.
    fn healthy(&self) -> bool;
}

/// A minimal HTTP/1.0 stats endpoint on a background thread.
///
/// Routes: `GET /metrics`, `GET /metrics.json`, `GET /healthz`; everything
/// else is 404. One request per connection; responses close the stream.
#[derive(Debug)]
pub struct StatsListener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatsListener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `source` from a background thread.
    pub fn serve(addr: impl ToSocketAddrs, source: Arc<dyn StatsSource>) -> std::io::Result<StatsListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + short sleep: lets the accept loop poll the
        // shutdown flag without platform-specific wakeup machinery.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("autofeat-stats".to_string())
            .spawn(move || accept_loop(&listener, &flag, source.as_ref()))?;
        Ok(StatsListener { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the background thread. Idempotent; also runs
    /// on drop.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatsListener {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shutdown: &AtomicBool, source: &dyn StatsSource) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare (seconds apart) and small,
                // so one connection at a time keeps the listener trivial.
                let _ = serve_connection(stream, source);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Read the request head (bounded), route it, write the response.
fn serve_connection(mut stream: TcpStream, source: &dyn StatsSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 16 * 1024 {
            break;
        }
    }
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", "text/plain; version=0.0.4", source.metrics_text()),
        ("GET", "/metrics.json") => ("200 OK", "application/json", source.metrics_json()),
        ("GET", "/healthz") => {
            if source.healthy() {
                ("200 OK", "text/plain", "ok\n".to_string())
            } else {
                ("503 Service Unavailable", "text/plain", "shutting down\n".to_string())
            }
        }
        ("GET", _) => ("404 Not Found", "text/plain", "not found\n".to_string()),
        _ => ("405 Method Not Allowed", "text/plain", "method not allowed\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricValue};

    fn sample_snapshot() -> MetricsSnapshot {
        let h = Histogram::default();
        for _ in 0..9 {
            h.observe_secs(0.002);
        }
        h.observe_secs(0.5);
        let metric = |name: &str, help: &str, value| MetricValue {
            name: name.into(),
            help: help.into(),
            value,
        };
        MetricsSnapshot {
            metrics: vec![
                metric("svc_in_flight", "currently executing", MetricData::Gauge(2.0)),
                metric("svc_latency_seconds", "request latency", MetricData::Histogram(h.snapshot())),
                metric("svc_requests_ok_total", "requests that completed", MetricData::Counter(7)),
            ],
        }
    }

    /// Every non-comment exposition line must be `name[{labels}] value`
    /// with a float-parseable value — the "parseable Prometheus text"
    /// acceptance gate, asserted the same way the bench asserts it.
    fn assert_parseable(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!name.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
        }
    }

    #[test]
    fn prometheus_rendering_is_parseable_and_complete() {
        let text = render_prometheus(&sample_snapshot());
        assert_parseable(&text);
        assert!(text.contains("# TYPE svc_requests_ok_total counter"));
        assert!(text.contains("svc_requests_ok_total 7"));
        assert!(text.contains("svc_in_flight 2"));
        assert!(text.contains("svc_latency_seconds_bucket{le=\"+Inf\"} 10"));
        assert!(text.contains("svc_latency_seconds_count 10"));
        assert!(text.contains("svc_latency_seconds_p50"));
        assert!(text.contains("svc_latency_seconds_p99"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render_prometheus(&sample_snapshot());
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("svc_latency_seconds_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "non-decreasing: {cums:?}");
        assert_eq!(*cums.last().unwrap(), 10, "+Inf bucket equals count");
    }

    #[test]
    fn json_rendering_has_stable_fields() {
        let json = render_json(&sample_snapshot());
        for field in ["\"schema_version\"", "\"generator\"", "\"metrics\""] {
            assert!(json.contains(field), "missing {field}");
        }
        assert!(json.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")));
        assert!(json.contains("\"type\": \"counter\", \"value\": 7"));
        assert!(json.contains("\"type\": \"histogram\", \"count\": 10"));
        assert!(json.contains("\"p99_secs\""));
        assert!(render_json(&MetricsSnapshot::default()).contains("\"metrics\": {}"));
    }

    struct FixedSource(std::sync::atomic::AtomicBool);
    impl StatsSource for FixedSource {
        fn metrics_text(&self) -> String {
            render_prometheus(&sample_snapshot())
        }
        fn metrics_json(&self) -> String {
            render_json(&sample_snapshot())
        }
        fn healthy(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn listener_serves_metrics_health_and_404() {
        let source = Arc::new(FixedSource(std::sync::atomic::AtomicBool::new(true)));
        let mut listener =
            StatsListener::serve("127.0.0.1:0", Arc::clone(&source) as Arc<dyn StatsSource>)
                .expect("bind ephemeral port");
        let addr = listener.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_parseable(&body);
        assert!(body.contains("svc_latency_seconds_p50"));

        let (head, body) = http_get(addr, "/metrics.json");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("\"schema_version\""));

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");

        source.0.store(false, Ordering::SeqCst);
        let (head, _) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 503"), "unhealthy: {head}");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        listener.stop();
        listener.stop(); // idempotent
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close on some platforms;
                // what matters is the thread has exited (stop() joined it).
                true
            }
        );
    }
}
