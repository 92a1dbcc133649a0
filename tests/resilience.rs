//! Anytime semantics of the request lifecycle: deadlines and cancellation
//! truncate a run into a valid, ranked partial result — never an `Err`,
//! never a process abort — the truncation reason is visible in the health
//! report, cancellation latency is bounded, and injected worker panics stay
//! isolated per path at every thread count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autofeat::core::discovery_health_report;
use autofeat::data::faults::TableFaults;
use autofeat::prelude::*;

mod common;
use common::{assert_bit_identical, lake_ctx, wide_uniform_ctx};

/// Whatever survived truncation must still be a well-formed ranking:
/// NaN-safe non-increasing scores and non-empty join paths. (Empty feature
/// sets are legal — a gateway join can rank without contributing features.)
fn assert_valid_ranking(r: &DiscoveryResult, what: &str) {
    for w in r.ranked.windows(2) {
        assert!(
            w[0].score >= w[1].score || w[0].score.is_nan() || w[1].score.is_nan(),
            "{what}: ranking out of order: {} then {}",
            w[0].score,
            w[1].score
        );
        assert!(
            !w[0].score.is_nan() || w[1].score.is_nan(),
            "{what}: NaN-scored path ranked above a finite one"
        );
    }
    for p in &r.ranked {
        assert!(!p.path.is_empty(), "{what}: ranked path with no hops");
    }
}

/// base(k, target) — sat(k, signal): a tiny lake with one satellite to arm
/// runtime faults against.
fn single_sat_ctx(n: usize) -> SearchContext {
    let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
    let base = Table::new(
        "base",
        vec![
            ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
            ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let sat = Table::new(
        "sat",
        vec![
            ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
            (
                "signal",
                Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
            ),
        ],
    )
    .unwrap();
    SearchContext::from_kfk(
        vec![base, sat],
        &[("base".into(), "k".into(), "sat".into(), "k".into())],
        "base",
        "target",
    )
    .unwrap()
}

#[test]
fn every_deadline_yields_a_valid_possibly_truncated_ranking() {
    let ctx = lake_ctx(150);
    // ∞ (no budget): the reference — and repeatable bit-identically.
    let unbounded =
        AutoFeat::new(AutoFeatConfig::default().with_seed(7)).discover(&ctx).unwrap();
    assert!(!unbounded.ranked.is_empty());
    assert_eq!(unbounded.truncation, None);
    assert_eq!(unbounded.resilience, ResilienceStats::default());
    let again = AutoFeat::new(AutoFeatConfig::default().with_seed(7)).discover(&ctx).unwrap();
    assert_bit_identical(&unbounded, &again, "no deadline, repeated");

    for ms in [0u64, 5, 50] {
        let cfg = AutoFeatConfig::default()
            .with_seed(7)
            .with_time_budget(Duration::from_millis(ms));
        let started = Instant::now();
        let r = AutoFeat::new(cfg).discover(&ctx).unwrap();
        let overrun = started.elapsed().saturating_sub(Duration::from_millis(ms));
        assert!(overrun <= Duration::from_millis(250), "budget {ms}ms overran by {overrun:?}");
        assert_valid_ranking(&r, &format!("budget {ms}ms"));
        if ms == 0 {
            assert!(
                matches!(r.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
                "zero budget must truncate: {:?}",
                r.truncation
            );
            assert!(r.ranked.is_empty(), "nothing can be evaluated in 0ms");
        }
        if r.truncation.is_some() {
            let health = discovery_health_report(&r);
            assert!(
                health.contains("truncated: time budget exhausted during"),
                "truncation reason missing from health report:\n{health}"
            );
        }
    }
}

/// A cancelled run reports its cancel latency on the result and, traced, as
/// the `resilience.cancel_latency_secs` distribution — both under the bound.
fn assert_cancel_latency_bounded(r: &DiscoveryResult, what: &str) {
    const BOUND: Duration = Duration::from_millis(250);
    assert_eq!(r.truncation, Some(TruncationReason::Cancelled), "{what}");
    let latency = r.resilience.cancel_latency.expect("cancel was observed mid-run");
    assert!(latency < BOUND, "{what}: cancel latency {latency:?}");
    let trace = r.trace.as_ref().expect("traced run");
    let (_, dist) = trace
        .dists
        .iter()
        .find(|(name, _)| name == "resilience.cancel_latency_secs")
        .unwrap_or_else(|| panic!("{what}: trace carries no cancel latency"));
    assert!(dist.count >= 1, "{what}");
    assert!(dist.max_secs <= BOUND.as_secs_f64(), "{what}: traced max {}s", dist.max_secs);
}

#[test]
fn cancel_from_another_thread_is_bounded_and_reported() {
    let ctx = single_sat_ctx(200);
    // A join that would take ~10s: the run can only finish via the cancel.
    ctx.fault_domain().arm("sat", TableFaults { slow_join_ms: Some(10_000), ..Default::default() });
    let ctrl = Arc::clone(ctx.control());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        ctrl.cancel();
    });
    let r = AutoFeat::new(AutoFeatConfig::default().with_trace(true)).discover(&ctx).unwrap();
    canceller.join().unwrap();
    ctx.fault_domain().disarm("sat");

    assert_cancel_latency_bounded(&r, "cancel inside a slow join");
    let health = discovery_health_report(&r);
    assert!(health.contains("truncated: cancelled"), "{health}");
    assert!(health.contains("cancel latency"), "{health}");

    // Anytime, not terminal: a view of the same lake with a fresh control
    // runs to a healthy completion, bit-identical to a never-cancelled lake.
    let fresh = ctx.clone().with_request_control(Arc::new(RunControl::new()));
    let healed = AutoFeat::new(AutoFeatConfig::default()).discover(&fresh).unwrap();
    assert_eq!(healed.truncation, None);
    assert!(!healed.ranked.is_empty());
    let never_cancelled = AutoFeat::new(AutoFeatConfig::default()).discover(&single_sat_ctx(200));
    assert_bit_identical(&healed, &never_cancelled.unwrap(), "healed vs never cancelled");

    // The same bound when the cancel lands in real work — joins and scoring,
    // no sleep to interrupt. The canceller fires 40% into a run as long as
    // the quickest of three; a run that finishes first is drawn again.
    let ctx = wide_uniform_ctx(24, 2_000, 3);
    for threads in [1usize, 4] {
        let cfg = || AutoFeatConfig::default().with_seed(42).with_threads(threads).with_trace(true);
        let reference = (0..3)
            .map(|_| {
                let t = Instant::now();
                let r = AutoFeat::new(cfg()).discover(&ctx).unwrap();
                assert_eq!(r.truncation, None);
                t.elapsed()
            })
            .min()
            .expect("three runs");
        let landed = (0..20).find_map(|_| {
            let attempt = ctx.clone().with_request_control(Arc::new(RunControl::new()));
            let ctrl = Arc::clone(attempt.control());
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(reference.mul_f64(0.4));
                ctrl.cancel();
            });
            let r = AutoFeat::new(cfg()).discover(&attempt).unwrap();
            canceller.join().unwrap();
            r.truncation.is_some().then_some(r)
        });
        let r = landed.unwrap_or_else(|| {
            panic!("{threads} worker(s): no cancel landed 40% into a {reference:?} run in 20 tries")
        });
        let what = format!("cancel in real work, {threads} worker(s)");
        assert_cancel_latency_bounded(&r, &what);
        assert_valid_ranking(&r, &what);
    }
}

#[test]
fn injected_panic_never_aborts_at_any_thread_count() {
    for threads in [1usize, 4] {
        let discover = |ctx: &SearchContext| {
            AutoFeat::new(AutoFeatConfig::default().with_threads(threads)).discover(ctx).unwrap()
        };
        let ctx = single_sat_ctx(150);
        ctx.fault_domain().arm("sat", TableFaults { panic_on_row: Some(0), ..Default::default() });
        let r = discover(&ctx);
        ctx.fault_domain().disarm("sat");
        assert!(
            r.failures.iter().any(|f| f.error.contains("panic"))
                || r.resilience.worker_panics >= 1,
            "panic must be isolated and accounted ({threads} threads): {r:?}"
        );
        assert_eq!(r.truncation, None, "a panic is a path failure, not a truncation");
        let health = discovery_health_report(&r);
        assert!(health.contains("hop failure(s) isolated"), "{health}");
        // Healed, the lake answers as one that was never faulted.
        let healed = discover(&ctx);
        assert!(!healed.ranked.is_empty());
        assert_bit_identical(&discover(&single_sat_ctx(150)), &healed, "healed run");
    }
}

#[test]
fn deadline_truncation_is_deterministic_under_a_pinned_clock_free_path() {
    // The degradation ladder's first rung is decided by configuration alone
    // (total budget < 1s), so two runs with the same tight budget make the
    // same sample-shrink decision even if their wall clocks drift.
    let ctx = lake_ctx(400);
    let cfg = || {
        AutoFeatConfig::default().with_seed(3).with_time_budget(Duration::from_millis(900))
    };
    let a = AutoFeat::new(cfg()).discover(&ctx).unwrap();
    let b = AutoFeat::new(cfg()).discover(&ctx).unwrap();
    assert!(
        a.resilience.degradations.contains(&"shrunk sample"),
        "sub-second budget must engage rung 1: {:?}",
        a.resilience.degradations
    );
    assert_eq!(
        a.resilience.degradations.contains(&"shrunk sample"),
        b.resilience.degradations.contains(&"shrunk sample"),
        "rung 1 is config-driven, not clock-driven"
    );
}
