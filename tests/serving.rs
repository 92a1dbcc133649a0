//! Concurrent serving: many client threads against one [`DiscoveryService`].
//!
//! The serving contract (DESIGN.md §3i): the per-request governance
//! counters sum exactly to the shared cache's global counters,
//! request-scoped traces never absorb a sibling's increments, fault domains
//! isolate services that happen to share table names, and shutdown under
//! load degrades gracefully, and a request served among others is
//! bit-identical to the equivalence sweep's reference (`common::sweep`).

mod common;

use std::thread;
use std::time::Duration;

use autofeat::data::faults::TableFaults;
use autofeat::prelude::*;

use common::sweep::{lake, sweep};
use common::{assert_bit_identical, lake_ctx};

/// The mixed request workload: configurations that change the search
/// (kappa, top-k, seed) and the execution strategy (threads), but never the
/// result's determinism. Deadlines are deliberately absent — they are wall
/// clock dependent and belong to the lifecycle tests, not identity tests.
fn mixed_specs() -> Vec<(&'static str, AutoFeatConfig)> {
    let narrow = AutoFeatConfig { top_k: 1, ..Default::default() };
    vec![
        ("default", AutoFeatConfig::default()),
        ("paper-serial", AutoFeatConfig::paper().with_threads(1).with_seed(7)),
        ("kappa1", AutoFeatConfig::default().with_kappa(1).with_seed(99)),
        ("wide-fanout", AutoFeatConfig::paper().with_threads(4)),
        ("top1", narrow),
    ]
}

fn request(cfg: &AutoFeatConfig) -> DiscoveryRequest {
    DiscoveryRequest::new().with_config(cfg.clone())
}

/// The sweep's served points: four client threads submit every (seed,
/// config) to one service for three rounds, so the shared cache is cold in
/// the first round and warm after; every result must equal the reference.
#[test]
fn concurrent_mixed_requests_are_bit_identical_to_solo() {
    sweep(&lake(), |p| p.served);
}

/// Per-request cache counters are attributed, not snapshotted: across any
/// concurrent interleaving, the hit/miss/build counters on each result sum
/// *exactly* to the shared cache's global totals — nothing double-counted,
/// nothing dropped, nothing leaked from a sibling.
#[test]
fn per_request_cache_counters_sum_to_shared_cache_totals() {
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let before = service.context().lake_cache().stats();
    assert_eq!((before.hits, before.misses), (0, 0), "fresh cache");

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 2;
    let results: Vec<DiscoveryResult> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    (0..ROUNDS)
                        .map(|r| {
                            let cfg = AutoFeatConfig::default().with_seed((t * ROUNDS + r) as u64);
                            service.submit(&request(&cfg)).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let per_request: Vec<&CacheStats> =
        results.iter().map(|r| &r.cache).collect();
    let global = service.context().lake_cache().stats();
    let sum = |f: fn(&CacheStats) -> u64| per_request.iter().map(|c| f(c)).sum::<u64>();
    assert_eq!(sum(|c| c.hits), global.hits, "hits attribute exactly");
    assert_eq!(sum(|c| c.misses), global.misses, "misses attribute exactly");
    assert_eq!(sum(|c| c.rejections), global.rejections, "no budget: zero, but exact");
    assert_eq!(sum(|c| c.evictions), global.evictions, "no budget: zero, but exact");
    assert_eq!(
        per_request.iter().map(|c| c.build_time).sum::<Duration>(),
        global.build_time,
        "build time attributes exactly"
    );
    assert!(global.hits > 0, "a warm shared cache must serve hits");
    assert!(global.misses > 0, "the cold start must register misses");
    let snap = service.metrics_snapshot();
    assert_eq!(
        snap.histogram("autofeat_request_latency_seconds").map(|h| h.count),
        Some((CLIENTS * ROUNDS) as u64),
        "every submit completed and was counted"
    );
    assert_eq!(snap.gauge("autofeat_in_flight"), Some(0.0));
    // Occupancy is a property of the shared cache, reported as-is.
    for c in &per_request {
        assert_eq!(c.entries, global.entries, "occupancy is global, not attributed");
    }
}

/// Tracing under concurrency: each request's trace must account for exactly
/// its own activity. If a scope bled between threads, some request's
/// counters would absorb a sibling's increments and these per-request
/// identities (trace counter == the result's own field) could not all hold.
#[test]
fn concurrent_traces_attribute_only_their_own_request() {
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let specs = mixed_specs();
    let solo: Vec<DiscoveryResult> = specs
        .iter()
        .map(|(_, cfg)| service.submit(&request(&cfg.clone().with_trace(true))).unwrap())
        .collect();

    const CLIENTS: usize = 6;
    let results: Vec<(usize, DiscoveryResult)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (service, specs) = (&service, &specs);
                s.spawn(move || {
                    let i = t % specs.len();
                    let cfg = specs[i].1.clone().with_trace(true);
                    (i, service.submit(&request(&cfg)).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, r) in &results {
        let what = specs[*i].0;
        let trace = r.trace.as_ref().expect("traced request");
        let cache = &r.cache;
        assert_eq!(
            trace.counter("discover.joins_evaluated").unwrap_or(0),
            r.n_joins_evaluated as u64,
            "{what}: trace counts its own joins"
        );
        assert_eq!(
            trace.counter("cache.hits").unwrap_or(0),
            cache.hits,
            "{what}: trace cache hits match the request's attribution"
        );
        assert_eq!(
            trace.counter("cache.misses").unwrap_or(0),
            cache.misses,
            "{what}: trace cache misses match the request's attribution"
        );
        // The search itself is deterministic, so the search-side counters
        // must also equal the solo run's (cache hit/miss splits may differ
        // between warm and cold runs; the search counters may not).
        assert_bit_identical(&solo[*i], r, what);
        assert_eq!(
            trace.counter("discover.joins_evaluated"),
            solo[*i].trace.as_ref().unwrap().counter("discover.joins_evaluated"),
            "{what}: deterministic trace counters match solo"
        );
    }
}

/// Two services over lakes with identical table names: a fault armed on one
/// service's domain fires only there. The sibling service — running
/// concurrently, joining a table of the same name — never sees it.
#[test]
fn fault_domains_isolate_services_with_identical_table_names() {
    let poisoned = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let healthy = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    let reference = healthy.submit(&DiscoveryRequest::new()).unwrap();

    poisoned
        .context()
        .fault_domain()
        .arm("s1", TableFaults { panic_on_row: Some(0), slow_join_ms: None });

    let (sick, fine) = thread::scope(|s| {
        let a = s.spawn(|| poisoned.submit(&DiscoveryRequest::new()).unwrap());
        let b = s.spawn(|| healthy.submit(&DiscoveryRequest::new()).unwrap());
        (a.join().unwrap(), b.join().unwrap())
    });

    assert!(
        sick.failures.iter().any(|f| f.error.contains("panic"))
            || sick.resilience.worker_panics >= 1,
        "the armed domain fires in its own service: {sick:?}"
    );
    assert!(fine.failures.is_empty(), "sibling service untouched: {:?}", fine.failures);
    assert_bit_identical(&reference, &fine, "healthy service beside a poisoned one");

    // Disarming (here: via the domain handle) heals the poisoned service.
    poisoned.context().fault_domain().disarm("s1");
    let healed = poisoned.submit(&DiscoveryRequest::new()).unwrap();
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
}

/// Shutdown under load: in-flight requests wind down to valid (possibly
/// truncated) results, later submits return immediately as cancelled, and
/// nothing errors or hangs.
#[test]
fn shutdown_under_concurrent_load_degrades_gracefully() {
    let service = DiscoveryService::new(lake_ctx(24), AutoFeatConfig::default());
    const CLIENTS: usize = 4;
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            let service = &service;
            s.spawn(move || {
                // Every result is Ok: completed runs have no truncation,
                // interrupted ones carry the cancelled reason — never Err.
                let r = service.submit(&DiscoveryRequest::new()).unwrap();
                assert!(
                    r.truncation.is_none() || r.truncation == Some(TruncationReason::Cancelled),
                    "unexpected truncation under shutdown: {:?}",
                    r.truncation
                );
            });
        }
        service.shutdown();
    });
    let late = service.submit(&DiscoveryRequest::new()).unwrap();
    assert_eq!(late.truncation, Some(TruncationReason::Cancelled), "post-shutdown submit");
    assert_eq!(service.metrics_snapshot().gauge("autofeat_in_flight"), Some(0.0));
}
