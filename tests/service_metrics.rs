//! Concurrent consistency of the service telemetry layer (DESIGN.md §3k):
//! N clients producing mixed outcomes must leave `ServiceStats`, the
//! metrics registry, and the structured request log in exact agreement;
//! snapshots taken *during* load must never tear (a histogram count always
//! equals its own bucket sum, counters only move forward); and the TCP
//! stats listener must serve parseable Prometheus text under load.

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
    let stats = service.stats();
    assert_eq!(stats.requests_ok, n_clients * ok);
    assert_eq!(stats.requests_truncated, n_clients * truncated);
    assert_eq!(stats.requests_cancelled, n_clients * cancelled);
    assert_eq!(stats.requests_error, 0);
    assert_eq!(stats.requests_rejected, n_clients * rejected);
    assert_eq!(stats.requests_served, n_clients * (ok + truncated + cancelled));
    assert_eq!(stats.in_flight, 0);
    assert!(stats.peak_in_flight >= 1 && stats.peak_in_flight <= n_clients);

    // The registry tells the same story, number for number.
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("autofeat_requests_ok_total"), Some(stats.requests_ok));
    assert_eq!(snap.counter("autofeat_requests_truncated_total"), Some(stats.requests_truncated));
    assert_eq!(snap.counter("autofeat_requests_cancelled_total"), Some(stats.requests_cancelled));
    assert_eq!(snap.counter("autofeat_requests_error_total"), Some(0));
    assert_eq!(snap.counter("autofeat_requests_rejected_total"), Some(stats.requests_rejected));
    let latency = snap.histogram("autofeat_request_latency_seconds").expect("latency histogram");
    assert_eq!(latency.count, stats.requests_served, "one observation per completion");
    assert_eq!(latency.count, latency.buckets.iter().sum::<u64>());

    // The request log holds every completion (cap not reached), and its
    // per-outcome tallies sum exactly to the registry totals.
    let log = service.request_log();
    assert_eq!(log.len() as u64, stats.requests_served);
    assert_eq!(service.request_log_dropped(), 0);
    let count = |o: RequestOutcome| log.iter().filter(|r| r.outcome == o).count() as u64;
    assert_eq!(count(RequestOutcome::Ok), stats.requests_ok);
    assert_eq!(count(RequestOutcome::Truncated), stats.requests_truncated);
    assert_eq!(count(RequestOutcome::Cancelled), stats.requests_cancelled);
    let mut ids: Vec<u64> = log.iter().map(|r| r.id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "log ids ascend in completion order");
    ids.dedup();
    assert_eq!(ids.len() as u64, stats.requests_served, "ids are unique");

    // Per-request cache attribution (PR 7) survives the telemetry layer:
    // the log records' cache deltas sum exactly to the shared cache's
    // global counters, because this service's requests are its only users.
    let hit_sum: u64 = log.iter().map(|r| r.cache_hits).sum();
    let miss_sum: u64 = log.iter().map(|r| r.cache_misses).sum();
    assert_eq!(hit_sum, stats.cache.hits, "log cache hits sum to the global counter");
    assert_eq!(miss_sum, stats.cache.misses, "log cache misses sum to the global counter");

    // The lake's key metadata is exported beside the cache's: a dictionary
    // per index the requests built, nothing before the first request.
    let (bytes, dictionaries) = service.context().lake_key_meta();
    assert_eq!((dictionaries as u64, bytes > 0), (stats.cache.entries, true));
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
                // counters (registration order), and every request observes
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
    assert_eq!(h.count, service.stats().requests_served);
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
    assert_eq!(service.request_log_dropped(), extra);
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
