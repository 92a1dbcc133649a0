//! Operator's view of a resident service: a [`DiscoveryService`] under
//! synthetic concurrent load with the TCP stats listener enabled, scraped
//! live the way a monitoring agent would.
//!
//! ```text
//! cargo run --release --example serve_metrics
//! ```
//!
//! Demonstrates the whole telemetry surface (DESIGN.md §3k): the always-on
//! service metrics (latency quantiles, outcome counters, cache gauges) in
//! the `GET /metrics` Prometheus-style exposition, `/healthz`, and the
//! structured request log — dumped to stderr at shutdown because this
//! example sets `AUTOFEAT_REQUEST_LOG=-`.

use std::io::{Read, Write};
use std::thread;
use std::time::Duration;

use autofeat::prelude::*;

/// base(k, target) plus a few satellites — small enough that a request
/// takes milliseconds, so the example finishes in a couple of seconds.
fn synthetic_lake(n: usize, n_sat: usize) -> SearchContext {
    let base = Table::new(
        "base",
        vec![
            ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
            (
                "target",
                Column::from_ints((0..n as i64).map(|i| Some((i * 7) % 2)).collect::<Vec<_>>()),
            ),
        ],
    )
    .unwrap();
    let mut tables = vec![base];
    let mut kfk: Vec<(String, String, String, String)> = Vec::new();
    for j in 0..n_sat {
        let name = format!("sat{j}");
        tables.push(
            Table::new(
                name.clone(),
                vec![
                    ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                    (
                        "f",
                        Column::from_floats(
                            (0..n).map(|i| Some(((i * (3 + j)) % 17) as f64)).collect::<Vec<_>>(),
                        ),
                    ),
                ],
            )
            .unwrap(),
        );
        kfk.push(("base".into(), "k".into(), name, "k".into()));
    }
    SearchContext::from_kfk(tables, &kfk, "base", "target").unwrap()
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to stats listener");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: example\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response.split_once("\r\n\r\n").map(|(_, body)| body.to_string()).unwrap_or(response)
}

fn main() {
    // Dump the structured request log to stderr when the service shuts
    // down (an operator would usually point this at a file path).
    std::env::set_var("AUTOFEAT_REQUEST_LOG", "-");

    // ---- 1. A resident service with its stats listener. ----
    let service = DiscoveryService::new(synthetic_lake(300, 6), AutoFeatConfig::default());
    let mut listener = service.serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr();
    println!("stats listener on http://{addr}  (GET /metrics, /metrics.json, /healthz)");

    // ---- 2. Synthetic load: concurrent clients with mixed outcomes. ----
    thread::scope(|s| {
        for c in 0..3 {
            let service = &service;
            s.spawn(move || {
                for i in 0..4 {
                    let req = if (c + i) % 4 == 3 {
                        // Every fourth request is deadline-starved, so the
                        // truncated outcome counter moves too.
                        DiscoveryRequest::new().with_config(
                            AutoFeatConfig::default().with_time_budget(Duration::ZERO),
                        )
                    } else {
                        DiscoveryRequest::new()
                    };
                    service.submit(&req).expect("request serves");
                }
            });
        }
        // ---- 3. Scrape live, mid-load, like a monitoring agent. ----
        thread::sleep(Duration::from_millis(30));
        println!("\n--- live /healthz ---\n{}", http_get(addr, "/healthz").trim_end());
    });

    // ---- 4. The full exposition, once the load has drained. ----
    let scrape = http_get(addr, "/metrics");
    println!("\n--- /metrics (filtered to the headline series) ---");
    for line in scrape.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("autofeat_request")
                || l.starts_with("autofeat_cache_hit")
                || l.starts_with("autofeat_cache_resident")
                || l.starts_with("autofeat_in_flight")
                || l.starts_with("autofeat_peak_in_flight"))
    }) {
        println!("  {line}");
    }

    let log = service.request_log();
    println!("request log holds {} records; latest: {}", log.len(), log.last().unwrap().render_line());

    // ---- 5. Shutdown: healthz flips to 503, the request log dumps. ----
    service.shutdown();
    println!("\n--- /healthz after shutdown ---\n{}", http_get(addr, "/healthz").trim_end());
    listener.stop();
}
