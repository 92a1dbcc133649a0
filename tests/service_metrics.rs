//! Concurrent consistency of the service telemetry layer (DESIGN.md §3k):
//! N clients producing mixed outcomes must leave the metrics snapshot, the
//! shared cache's counters and the structured request log in exact
//! agreement; snapshots taken *during* load must never tear (a histogram
//! count always equals its own bucket sum, counters only move forward); the
//! exposition's names, kinds and help lines are pinned; and the TCP stats
//! listener must serve parseable Prometheus text under load.

mod common;

use std::thread;
use std::time::Duration;

use autofeat::prelude::*;

use common::lake_ctx;

/// Every client plays the same hand: one ok request, one deadline-starved
/// request, one cancelled-before-run request, and one rejected request.
const PER_CLIENT: (u64, u64, u64, u64) = (1, 1, 1, 1); // (ok, truncated, cancelled, rejected)

fn play_mixed_hand(service: &DiscoveryService) {
    service.submit(&DiscoveryRequest::new()).expect("ok request");
    let starved = service
        .submit(&DiscoveryRequest::new().with_config(
            AutoFeatConfig::default().with_time_budget(Duration::ZERO),
        ))
        .expect("starved request still returns a partial");
    assert!(starved.truncation.is_some());
    let prepared = service.prepare(&DiscoveryRequest::new()).expect("prepare");
    prepared.control().cancel();
    prepared.run().expect("cancelled request still returns a partial");
    assert!(service.submit(&DiscoveryRequest::new().with_base("ghost")).is_err());
}

#[test]
fn concurrent_mixed_outcomes_reconcile_exactly() {
    let n_clients = 4u64;
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    thread::scope(|s| {
        for _ in 0..n_clients {
            s.spawn(|| play_mixed_hand(&service));
        }
    });

    let (ok, truncated, cancelled, rejected) = PER_CLIENT;
    let served = n_clients * (ok + truncated + cancelled);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("autofeat_requests_ok_total"), Some(n_clients * ok));
    assert_eq!(snap.counter("autofeat_requests_truncated_total"), Some(n_clients * truncated));
    assert_eq!(snap.counter("autofeat_requests_cancelled_total"), Some(n_clients * cancelled));
    assert_eq!(snap.counter("autofeat_requests_error_total"), Some(0));
    assert_eq!(snap.counter("autofeat_requests_rejected_total"), Some(n_clients * rejected));
    assert_eq!(snap.gauge("autofeat_in_flight"), Some(0.0));
    let peak = snap.gauge("autofeat_peak_in_flight").expect("peak in flight");
    assert!(peak >= 1.0 && peak <= n_clients as f64, "{peak}");
    let latency = snap.histogram("autofeat_request_latency_seconds").expect("latency histogram");
    assert_eq!(latency.count, served, "one observation per completion");
    assert_eq!(latency.count, latency.buckets.iter().sum::<u64>());

    // The request log holds every completion (cap not reached), and its
    // per-outcome tallies sum exactly to the snapshot's counters.
    let log = service.request_log();
    assert_eq!(log.len() as u64, served);
    assert_eq!(snap.counter("autofeat_request_log_dropped_total"), Some(0));
    let count = |o: RequestOutcome| log.iter().filter(|r| r.outcome == o).count() as u64;
    assert_eq!(count(RequestOutcome::Ok), n_clients * ok);
    assert_eq!(count(RequestOutcome::Truncated), n_clients * truncated);
    assert_eq!(count(RequestOutcome::Cancelled), n_clients * cancelled);
    let mut ids: Vec<u64> = log.iter().map(|r| r.id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "log ids ascend in completion order");
    ids.dedup();
    assert_eq!(ids.len() as u64, served, "ids are unique");

    // Per-request cache attribution survives the telemetry layer: the log
    // records' cache deltas sum exactly to the shared cache's global
    // counters, and to the scrape's, because this service's requests are
    // the cache's only users.
    let cache = service.context().lake_cache().stats();
    let hit_sum: u64 = log.iter().map(|r| r.cache_hits).sum();
    let miss_sum: u64 = log.iter().map(|r| r.cache_misses).sum();
    assert_eq!(hit_sum, cache.hits, "log cache hits sum to the global counter");
    assert_eq!(miss_sum, cache.misses, "log cache misses sum to the global counter");
    assert_eq!(snap.counter("autofeat_cache_hits_total"), Some(hit_sum), "scraped hits");
    assert_eq!(snap.counter("autofeat_cache_misses_total"), Some(miss_sum), "scraped misses");

    // The lake's key metadata is exported beside the cache's: a dictionary
    // per index the requests built, nothing before the first request.
    let (bytes, dictionaries) = service.context().lake_key_meta();
    assert_eq!((dictionaries as u64, bytes > 0), (cache.entries, true));
    assert_eq!(snap.gauge("autofeat_lake_dictionaries"), Some(dictionaries as f64));
    assert_eq!(snap.gauge("autofeat_lake_key_meta_bytes"), Some(bytes as f64));
    let idle = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default()).metrics_snapshot();
    assert_eq!(idle.gauge("autofeat_lake_dictionaries"), Some(0.0));
    assert_eq!(idle.gauge("autofeat_lake_key_meta_bytes"), Some(0.0));
    // The cells themselves are there from the start and do not grow with
    // requests: every column of `lake_ctx` is a null-free int or float.
    let payload = service.context().lake_payload_bytes();
    assert!(payload > 0 && payload.is_multiple_of(8), "{payload}");
    assert_eq!(snap.gauge("autofeat_lake_payload_bytes"), Some(payload as f64));
    assert_eq!(idle.gauge("autofeat_lake_payload_bytes"), Some(payload as f64));
}

/// The exposition, pinned: every series a scrape of a fresh service emits
/// after one request, by name (sorted), kind and help line.
const EXPOSITION: [(&str, &str, &str); 32] = [
    ("autofeat_cache_budget_bytes", "gauge", "Byte budget in force (0 = unbounded)."),
    ("autofeat_cache_build_panics_total", "counter", "Index builds that panicked (isolated)."),
    ("autofeat_cache_build_seconds_total", "gauge", "Total wall time spent building indexes."),
    ("autofeat_cache_entries", "gauge", "Number of resident (table, column) indexes."),
    ("autofeat_cache_evictions_total", "counter", "Indexes evicted by the byte budget."),
    ("autofeat_cache_hit_ratio", "gauge", "hits / (hits + misses) since process start."),
    ("autofeat_cache_hits_total", "counter", "Joins served from an already-built index."),
    (
        "autofeat_cache_lock_recoveries_total",
        "counter",
        "Operations that found the governor lock poisoned and degraded.",
    ),
    ("autofeat_cache_misses_total", "counter", "Joins that had to build the index first."),
    (
        "autofeat_cache_peak_resident_bytes",
        "gauge",
        "High-water mark of resident bytes in the current budget epoch.",
    ),
    ("autofeat_cache_rejections_total", "counter", "Builds denied retention by the budget."),
    ("autofeat_cache_resident_bytes", "gauge", "Heap footprint of retained indexes."),
    ("autofeat_degradations_total", "counter", "Degradation-ladder rungs engaged across all requests."),
    ("autofeat_in_flight", "gauge", "Requests currently executing."),
    (
        "autofeat_lake_dictionaries",
        "gauge",
        "Key dictionaries built so far, one per joined-on column.",
    ),
    (
        "autofeat_lake_key_meta_bytes",
        "gauge",
        "Heap footprint of the key dictionaries and row fingerprints built so far.",
    ),
    (
        "autofeat_lake_payload_bytes",
        "gauge",
        "Heap footprint of the cells the lake's tables hold resident.",
    ),
    ("autofeat_peak_in_flight", "gauge", "High-water mark of in-flight requests."),
    (
        "autofeat_pool_busy_workers",
        "gauge",
        "Helper threads currently executing a job; request threads are not counted.",
    ),
    (
        "autofeat_pool_queue_depth",
        "gauge",
        "Helper jobs queued but not yet picked up, including those whose fan-out has ended.",
    ),
    (
        "autofeat_pool_size",
        "gauge",
        "Helper threads in the shared fan-out pool; a request's own thread works beside them.",
    ),
    (
        "autofeat_request_latency_seconds",
        "histogram",
        "Per-request wall time (submit to result), all outcomes.",
    ),
    (
        "autofeat_request_log_dropped_total",
        "counter",
        "Request-log records evicted after the ring filled.",
    ),
    ("autofeat_requests_cancelled_total", "counter", "Requests interrupted by a cancel (valid partial returned)."),
    ("autofeat_requests_error_total", "counter", "Requests that returned an error after starting to run."),
    ("autofeat_requests_ok_total", "counter", "Requests completed untruncated."),
    ("autofeat_requests_rejected_total", "counter", "Requests rejected at validation, before running."),
    (
        "autofeat_requests_truncated_total",
        "counter",
        "Requests stopped early by a budget gate (valid partial returned).",
    ),
    (
        "autofeat_tables_added_total",
        "counter",
        "Tables added to the live lake (incremental DRG splice).",
    ),
    (
        "autofeat_tables_removed_total",
        "counter",
        "Tables removed from the live lake (incremental DRG splice).",
    ),
    ("autofeat_uptime_seconds", "gauge", "Seconds since the service was created."),
    ("autofeat_worker_panics_total", "counter", "Worker panics caught and isolated across all requests."),
];

#[test]
fn exposition_names_kinds_and_help_are_pinned() {
    use autofeat::obs::MetricData;

    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    service.submit(&DiscoveryRequest::new()).expect("ok request");

    let snap = service.metrics_snapshot();
    let listed: Vec<(&str, &str, &str)> = snap
        .metrics
        .iter()
        .map(|m| {
            let kind = match m.value {
                MetricData::Counter(_) => "counter",
                MetricData::Gauge(_) => "gauge",
                MetricData::Histogram(_) => "histogram",
            };
            (m.name.as_str(), kind, m.help.as_str())
        })
        .collect();
    assert_eq!(listed, EXPOSITION);

    let mut expected = Vec::new();
    for (name, kind, help) in EXPOSITION {
        expected.push(format!("# HELP {name} {help}"));
        expected.push(format!("# TYPE {name} {kind}"));
        if kind == "histogram" {
            expected.extend(["p50", "p90", "p99"].map(|q| format!("# TYPE {name}_{q} gauge")));
        }
    }
    let text = service.metrics_text();
    let comments: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
    assert_eq!(comments, expected);
}

#[test]
fn snapshot_during_load_never_tears() {
    let n_clients = 3;
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let outcome_sum = |snap: &autofeat::obs::MetricsSnapshot| -> u64 {
        ["ok", "truncated", "cancelled", "error"]
            .iter()
            .filter_map(|o| snap.counter(&format!("autofeat_requests_{o}_total")))
            .sum()
    };
    thread::scope(|s| {
        let clients: Vec<_> = (0..n_clients)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..3 {
                        play_mixed_hand(&service);
                    }
                })
            })
            .collect();
        let mut prev_latency = 0u64;
        let mut prev_outcomes = 0u64;
        while !clients.iter().all(|c| c.is_finished()) {
            let snap = service.metrics_snapshot();
            if let Some(h) = snap.histogram("autofeat_request_latency_seconds") {
                // Tear-freedom by construction: a histogram's count IS its
                // bucket sum, even mid-observation.
                assert_eq!(h.count, h.buckets.iter().sum::<u64>());
                assert!(h.count >= prev_latency, "histogram only grows");
                prev_latency = h.count;
                let outcomes = outcome_sum(&snap);
                assert!(outcomes >= prev_outcomes, "counters only grow");
                prev_outcomes = outcomes;
                // A snapshot reads the latency histogram before the outcome
                // counters, and every request observes
                // latency before bumping its counter — so the counters may
                // run ahead of the histogram by however many requests
                // complete during the snapshot itself, but the histogram can
                // never outrun the counters past the requests in flight.
                assert!(
                    h.count <= outcomes + n_clients as u64,
                    "latency count {} outran outcome sum {} past the client count",
                    h.count,
                    outcomes
                );
            }
        }
    });
    // Quiescent: exact agreement.
    let snap = service.metrics_snapshot();
    let h = snap.histogram("autofeat_request_latency_seconds").expect("latency");
    assert_eq!(h.count, outcome_sum(&snap));
    assert_eq!(h.count, service.request_log().len() as u64, "one log record per completion");
}

#[test]
fn stats_listener_serves_parseable_metrics_under_load() {
    use std::io::{Read, Write};

    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let mut listener = service.serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr();
    let http_get = |path: &str| -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    };

    thread::scope(|s| {
        let workers: Vec<_> =
            (0..2).map(|_| s.spawn(|| play_mixed_hand(&service))).collect();
        // Scrape while requests are in flight.
        while !workers.iter().all(|w| w.is_finished()) {
            let (head, body) = http_get("/metrics");
            assert!(head.starts_with("HTTP/1.0 200"), "{head}");
            for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
                let (_, value) = line.rsplit_once(' ').expect("name value");
                assert!(value.parse::<f64>().is_ok(), "unparseable: {line}");
            }
        }
    });

    let (_, body) = http_get("/metrics");
    for series in [
        "autofeat_request_latency_seconds_p50",
        "autofeat_request_latency_seconds_p99",
        "autofeat_requests_ok_total",
        "autofeat_requests_truncated_total",
        "autofeat_cache_resident_bytes",
        "autofeat_cache_hit_ratio",
        "autofeat_in_flight",
    ] {
        assert!(body.contains(series), "scrape missing {series}:\n{body}");
    }
    let (head, json) = http_get("/metrics.json");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("autofeat_request_latency_seconds"));

    let (head, _) = http_get("/healthz");
    assert!(head.starts_with("HTTP/1.0 200"), "healthy while serving: {head}");
    service.shutdown();
    let (head, _) = http_get("/healthz");
    assert!(head.starts_with("HTTP/1.0 503"), "unhealthy after shutdown: {head}");
    listener.stop();
}

#[test]
fn request_log_ring_caps_and_counts_drops() {
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let extra = 10u64;
    // Deadline-starved requests complete almost immediately, so overflowing
    // the ring stays cheap.
    for _ in 0..(REQUEST_LOG_CAP as u64 + extra) {
        service
            .submit(&DiscoveryRequest::new().with_config(
                AutoFeatConfig::default().with_time_budget(Duration::ZERO),
            ))
            .expect("starved request returns a partial");
    }
    let log = service.request_log();
    assert_eq!(log.len(), REQUEST_LOG_CAP, "ring never exceeds its cap");
    assert_eq!(log.first().expect("non-empty").id, extra + 1, "oldest records evicted first");
    assert_eq!(log.last().expect("non-empty").id, REQUEST_LOG_CAP as u64 + extra);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("autofeat_request_log_dropped_total"), Some(extra));
    assert_eq!(
        snap.counter("autofeat_requests_truncated_total"),
        Some(REQUEST_LOG_CAP as u64 + extra),
        "drops lose log records, never counter increments"
    );
}
