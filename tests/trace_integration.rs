//! End-to-end acceptance tests for structured run tracing: the level's
//! stages are spans, trace counters agree with the result and the health
//! report, phase self-times telescope to the run's wall clock, and the JSON
//! layout matches the checked-in `trace.schema.json`, and, at the
//! equivalence sweep's traced points (`common::sweep`), tracing never
//! perturbs a result and a trace's shape does not move with the worker
//! count.

mod common;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use autofeat::prelude::*;
use common::sweep::{lake, sweep};
use common::{assert_bit_identical, lake_ctx, lopsided_ctx, wide_uniform_ctx};

/// Tracing resolution reads process-global environment variables
/// (`AUTOFEAT_TRACE`, `AUTOFEAT_THREADS`), so every test in this binary
/// that runs discovery serializes on this lock — otherwise an env-mutating
/// test could silently turn tracing on for a concurrently running
/// "untraced" run.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn discover(threads: usize, traced: bool) -> DiscoveryResult {
    // Fresh context per run: the lake-wide join-index cache is per-context,
    // so a fresh one makes cache hit/miss counters deterministic.
    let ctx = lake_ctx(60);
    AutoFeat::new(
        AutoFeatConfig::paper()
            .with_seed(42)
            .with_threads(threads)
            .with_trace(traced),
    )
    .discover(&ctx)
    .expect("discovery runs")
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("autofeat_trace_{}_{tag}.json", std::process::id()))
}

/// Each traced point's result equals the untraced reference, and carries a
/// trace only because it asked for one.
#[test]
fn traced_and_untraced_runs_are_bit_identical() {
    let _g = lock();
    sweep(&lake(), |p| p.traced);
}

/// At each traced solo point of several workers, span paths, counter
/// totals, the event log and distribution counts equal one worker's.
#[test]
fn counter_totals_invariant_across_thread_counts() {
    let _g = lock();
    sweep(&lake(), |p| p.traced && !p.served && p.workers != 1);
}

/// The level's fan-out merges hop `i` while later hops are still being
/// evaluated; each stage is a span, and the merge's wait for the next hop is
/// a distribution with one reading a level — zero at one worker, which
/// never waits. (That the trace's shape does not move with the worker count
/// is `tests/equivalence.rs`' business.)
#[test]
fn level_stages_are_spans_and_one_worker_never_waits_to_merge() {
    let _g = lock();
    let cfg = AutoFeatConfig::default().with_seed(11).with_threads(1).with_trace(true);
    let r = AutoFeat::new(cfg).discover(&lopsided_ctx(240)).unwrap();
    let trace = r.trace.as_ref().expect("traced");
    for stage in ["eval.join", "eval.relevance", "merge.redundancy"] {
        let path = format!("discover.level.{stage}");
        assert!(trace.phase(&path).is_some(), "{path} missing");
    }
    let (_, waited) = trace.dists.iter().find(|(n, _)| n == "discover.merge_wait_secs").unwrap();
    assert_eq!((waited.count, waited.sum_secs), (3, 0.0), "one reading a level, none waited");
}

#[test]
fn trace_counters_match_result_and_health_report() {
    let _g = lock();
    let r = discover(2, true);
    let trace = r.trace.as_ref().expect("traced run");
    let c = |name: &str| trace.counter(name).unwrap_or(0) as usize;

    assert_eq!(c("discover.joins_evaluated"), r.n_joins_evaluated);
    assert_eq!(c("discover.pruned_unjoinable"), r.n_pruned_unjoinable);
    assert_eq!(c("discover.pruned_quality"), r.n_pruned_quality);
    assert_eq!(c("discover.pruned_similarity"), r.n_pruned_similarity);
    assert_eq!(c("discover.pruned_budget"), r.n_pruned_budget);
    assert_eq!(c("discover.paths_ranked"), r.ranked.len());
    assert_eq!(c("discover.features_selected"), r.selected_features.len());
    assert_eq!(c("discover.hop_failures"), r.failures.len());
    assert!(c("discover.joins_evaluated") > 0, "fixture evaluates joins");

    // Cache counters equal the result's CacheStats (fresh context: the
    // delta the result carries is the cache's lifetime totals).
    let cache = &r.cache;
    assert_eq!(trace.counter("cache.hits").unwrap_or(0), cache.hits);
    assert_eq!(trace.counter("cache.misses").unwrap_or(0), cache.misses);
    // Per-entry build-time histogram: one observation per cache miss.
    let (_, builds) = trace
        .dists
        .iter()
        .find(|(n, _)| n == "cache.index_build_secs")
        .expect("index build-time distribution recorded");
    assert_eq!(builds.count, cache.misses);

    // The health report prints the same numbers it always did — the trace
    // agrees with it by construction (same source variables).
    let report = discovery_health_report(&r);
    assert!(
        report.contains(&format!("{} join(s) evaluated", c("discover.joins_evaluated"))),
        "{report}"
    );
    assert!(
        report.contains(&format!(
            "join-index cache: {} hit(s), {} miss(es)",
            cache.hits, cache.misses
        )),
        "{report}"
    );
    assert!(report.contains("phase timings:"), "{report}");
}

#[test]
fn first_use_builds_are_counted_under_the_request_that_made_them() {
    let _g = lock();
    let ctx = lake_ctx(60);
    let run = || {
        AutoFeat::new(AutoFeatConfig::paper().with_seed(42).with_threads(2).with_trace(true))
            .discover(&ctx)
            .expect("discovery runs")
    };
    const SPAN: &str = "discover.level.eval.index_build.key_dict_build";
    let first = run();
    let trace = first.trace.as_ref().expect("traced run");
    // One dictionary per index (every index is keyed on a column of its
    // own); fingerprints for `s1` and `sib`, whose keys repeat.
    let builds = first.cache.misses;
    assert_eq!(builds, 4);
    assert_eq!(trace.counter("keymeta.dicts_built"), Some(builds));
    assert_eq!(trace.counter("keymeta.rows_coded"), Some(180 + 60 + 180 + 60));
    assert_eq!(trace.counter("keymeta.fingerprint_rows"), Some(180 + 180));
    assert_eq!(trace.phase(SPAN).expect("dictionary builds are a span").count, builds);
    // The second request over the same lake builds nothing.
    let second = run();
    let trace = second.trace.as_ref().expect("traced run");
    for counter in ["keymeta.dicts_built", "keymeta.rows_coded", "keymeta.fingerprint_rows"] {
        assert_eq!(trace.counter(counter), None, "{counter}");
    }
    assert!(trace.phase(SPAN).is_none());
    assert_bit_identical(&first, &second, "first vs second request");
}

#[test]
fn governance_trace_counters_match_cache_stats() {
    let _g = lock();
    let ctx = lake_ctx(60);
    let budgeted = |budget: u64| {
        AutoFeat::new(
            AutoFeatConfig::paper()
                .with_seed(42)
                .with_threads(2)
                .with_trace(true)
                .with_cache_budget_bytes(budget),
        )
        .discover(&ctx)
        .expect("discovery runs")
    };
    // Determine the working set, then re-run budgeted below it. The first
    // run is unbounded (budget far above any residency this lake needs).
    let full = budgeted(u64::MAX);
    let full_stats = &full.cache;
    let trace = full.trace.as_ref().expect("traced");
    assert_eq!(trace.counter("cache.evictions").unwrap_or(0), 0);
    assert_eq!(trace.counter("cache.admission_rejected").unwrap_or(0), 0);

    // Shrinking the budget on the populated cache: the eviction burst and
    // every admission denial must appear in both the trace counters and
    // the run's CacheStats delta, with identical totals.
    let r = budgeted(full_stats.resident_bytes / 2);
    let stats = &r.cache;
    let trace = r.trace.as_ref().expect("traced");
    assert!(stats.evictions > 0, "budget shrink must evict");
    assert!(stats.rejections > 0, "sub-working-set budget must deny");
    assert_eq!(trace.counter("cache.evictions").unwrap_or(0), stats.evictions);
    assert_eq!(
        trace.counter("cache.evicted_bytes").unwrap_or(0),
        stats.evicted_bytes
    );
    assert_eq!(
        trace.counter("cache.admission_rejected").unwrap_or(0),
        stats.rejections
    );
    // Build-per-miss contract survives governance: denied entries rebuild,
    // and each rebuild is one miss and one build-time observation.
    let (_, builds) = trace
        .dists
        .iter()
        .find(|(n, _)| n == "cache.index_build_secs")
        .expect("index build-time distribution recorded");
    assert_eq!(builds.count, stats.misses);
    // The health report surfaces the same governance numbers.
    let report = discovery_health_report(&r);
    assert!(
        report.contains(&format!(
            "{} eviction(s) ({} bytes), {} admission rejection(s)",
            stats.evictions, stats.evicted_bytes, stats.rejections
        )),
        "{report}"
    );
}

#[test]
fn phase_self_times_telescope_to_elapsed() {
    let _g = lock();
    // Wide enough that a request takes well over 20 ms here, so the bound
    // that binds is the 10%, not the absolute slack under it.
    let run = |threads: usize| {
        let ctx = wide_uniform_ctx(24, 4000, 3);
        let cfg = AutoFeatConfig::paper().with_seed(42).with_threads(threads).with_trace(true);
        AutoFeat::new(cfg).discover(&ctx).expect("discovery runs")
    };
    // Acceptance bound: self-times sum to within 10% of the measured
    // elapsed time (plus a small absolute slack for sub-millisecond runs,
    // where 10% of the total is below timer granularity).
    let bound = |r: &DiscoveryResult| std::cmp::max(r.elapsed / 10, Duration::from_millis(2));

    let r = run(1);
    let trace = r.trace.as_ref().expect("traced run");
    assert_eq!(trace.phase("discover").expect("root discover phase").count, 1);
    let sum = trace.self_time_total();
    let diff = r.elapsed.abs_diff(sum);
    assert!(
        diff <= bound(&r),
        "self-time sum {sum:?} vs elapsed {:?} (diff {diff:?} > bound {:?})",
        r.elapsed,
        bound(&r)
    );

    // At two workers `merge` on the caller runs beside `eval` on the pool
    // thread and each is reported at its own wall, so the sum exceeds
    // `elapsed` by what overlapped — which is less than the shorter of the
    // two took. Inside that the bound is the same: nothing of `elapsed`
    // goes missing from the sum, and nothing is counted twice.
    let r = run(2);
    let trace = r.trace.as_ref().expect("traced run");
    let sum = trace.self_time_total();
    let wall_of = |path: &str| trace.phase(path).expect(path).wall;
    let overlap = wall_of("discover.level.eval").min(wall_of("discover.level.merge"));
    assert!(
        sum + bound(&r) >= r.elapsed && sum <= r.elapsed + overlap + bound(&r),
        "self-time sum {sum:?} vs elapsed {:?} (may overlap {overlap:?}, bound {:?})",
        r.elapsed,
        bound(&r)
    );
    // `level` is charged what its busiest thread spent in its children, not
    // both children's walls, and so keeps the rest of its own.
    let level = trace.phase("discover.level").expect("level phase");
    assert!(level.self_time > Duration::ZERO, "{level:?}");
}

#[test]
fn trace_path_writes_json_matching_checked_in_schema() {
    let _g = lock();
    let ctx = lake_ctx(60);
    let r = AutoFeat::new(AutoFeatConfig::paper().with_seed(42).with_threads(2).with_trace(true))
        .discover(&ctx)
        .expect("discovery runs");
    // The JSON a trace file holds (`AUTOFEAT_TRACE`, covered below) is this
    // serialization of the result's trace.
    let json = r.trace.as_ref().expect("with_trace(true) traces").to_json();
    assert!(json.contains(&format!("\"schema_version\": {}", autofeat::obs::TRACE_SCHEMA_VERSION)));

    // Schema-stability check: every top-level property the checked-in
    // schema declares must be present in the emitted JSON, and the schema
    // must not have drifted to declare fields the emitter doesn't produce.
    let schema = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace.schema.json"),
    )
    .expect("trace.schema.json at the repository root");
    for field in [
        "schema_version",
        "generator",
        "wall_secs",
        "phases",
        "counters",
        "distributions",
        "events",
        "events_dropped",
    ] {
        let quoted = format!("\"{field}\"");
        assert!(json.contains(&quoted), "emitted JSON missing {quoted}");
        assert!(schema.contains(&quoted), "trace.schema.json missing {quoted}");
    }
    // Phase-object layout is part of the stable schema too.
    for field in ["name", "path", "count", "wall_secs", "cpu_secs", "self_secs", "children"] {
        assert!(
            schema.contains(&format!("\"{field}\"")),
            "trace.schema.json missing phase field \"{field}\""
        );
    }
    assert!(json.contains("\"path\": \"discover\""), "root phase serialized");
}

#[test]
fn env_var_enables_tracing_across_thread_counts() {
    let _g = lock();
    let path = tmp_path("env");
    let _ = std::fs::remove_file(&path);
    std::env::set_var("AUTOFEAT_TRACE", &path);

    // Thread counts are explicit here: AUTOFEAT_THREADS resolves once per
    // process (OnceLock), so mid-process set_var cannot steer it — CI's
    // `threads` job covers the env path by running the whole workspace
    // under AUTOFEAT_THREADS=1 and =4.
    let r1 = discover(1, false); // trace from env
    let r4 = discover(4, false);

    std::env::remove_var("AUTOFEAT_TRACE");
    let written = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);

    // Each request appends its document: the file keeps both, in order.
    let written = written.expect("AUTOFEAT_TRACE must produce a trace file");
    assert_eq!(r1.threads_used, 1);
    assert_eq!(r4.threads_used, 4);
    assert!(r1.trace.is_some() && r4.trace.is_some(), "env var enables tracing");
    let (first, last) = (r1.trace.as_ref().unwrap().to_json(), r4.trace.as_ref().unwrap().to_json());
    assert_eq!(written.matches("\"schema_version\": 1,").count(), 2, "one document per request");
    assert!(written.ends_with(&last), "the last document is the last request's trace");
    assert_eq!(written, first + &last, "the first request's document, then the last's");
    assert_bit_identical(&r1, &r4, "env-traced 1 vs 4 threads");
    assert_eq!(
        r1.trace.unwrap().counters,
        r4.trace.unwrap().counters,
        "env-configured runs keep counter invariance"
    );
}

/// Joins return views; `join.cells_materialized` counts every cell copied
/// out of one. Discovery reads joined columns through their row maps and
/// copies none (a zero count is dropped, so the counter is absent), at any
/// thread count and with or without the cache. Replaying a ranked path
/// copies none either; training then copies exactly the cells it reads —
/// each selected joined feature once, through the train/test split.
#[test]
fn discovery_materializes_no_cell_and_training_only_what_it_reads() {
    let _g = lock();
    const COPIED: &str = "join.cells_materialized";
    for ctx in [lake_ctx(60), wide_uniform_ctx(6, 40, 3)] {
        let mut result = None;
        for (threads, cache) in [(1, true), (4, true), (2, false)] {
            let cfg = AutoFeatConfig::paper().with_seed(42).with_threads(threads);
            let r = AutoFeat::new(cfg.with_cache(cache).with_trace(true)).discover(&ctx).unwrap();
            assert!(r.n_joins_evaluated > 0 && !r.ranked.is_empty());
            assert_eq!(r.trace.as_ref().unwrap().counter(COPIED), None, "{threads} threads");
            result = Some(r);
        }
        let best = &result.unwrap().ranked[0];
        let tracer = Tracer::enabled();
        let table = autofeat::obs::with_tracer(&tracer, || {
            autofeat::core::materialize_path(&ctx, ctx.base_table(), &best.path, 42).unwrap()
        });
        assert_eq!(tracer.snapshot().counter(COPIED), None, "replaying a path copies nothing");
        assert!(table.n_cols() > ctx.base_table().n_cols() + best.features.len());
        let mut features: Vec<&str> = best.features.iter().map(String::as_str).collect();
        features.push("b0"); // a dense base column: read, never counted
        autofeat::obs::with_tracer(&tracer, || {
            let models = [ModelKind::Knn];
            autofeat::core::train::evaluate_feature_set(&table, &features, ctx.label(), &models, 42)
                .unwrap()
        });
        assert_eq!(
            tracer.snapshot().counter(COPIED),
            Some((best.features.len() * table.n_rows()) as u64),
            "training copies the joined features it reads, once each"
        );
    }
}

#[test]
fn training_spans_and_counters_sit_under_train_and_repeat_exactly() {
    let _g = lock();
    let ctx = lake_ctx(60);
    let cfg = AutoFeatConfig::paper().with_seed(42).with_threads(1);
    let found = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
    let models = [ModelKind::LightGbm, ModelKind::RandomForest];
    let traced = || {
        let tracer = Tracer::enabled();
        autofeat::obs::with_tracer(&tracer, || train_top_k(&ctx, &found, &models, &cfg).unwrap());
        tracer.snapshot()
    };
    let trace = traced();
    let fits = trace.phase("train.model_eval.model_fit").expect("a fit span under model_eval");
    assert_eq!(Some(fits.count), trace.counter("ml.models_evaluated"));
    assert_eq!(trace.phase("train.model_eval.model_fit.model_bin").map(|p| p.count), Some(fits.count));
    assert_eq!(trace.phase("train.model_eval.model_predict").map(|p| p.count), Some(fits.count));
    // 50 boosting rounds and 30 forest trees per evaluated feature set.
    assert_eq!(trace.counter("ml.trees_grown"), Some(fits.count / 2 * 80));
    let row_updates = trace.counter("ml.hist_row_updates").expect("histogram passes are counted");
    assert!(row_updates > 0);
    let scanned = trace.counter("ml.split_bins_scanned").expect("split-search prefixes are counted");
    assert!(scanned > 0);
    let again = traced();
    assert_eq!(again.counter("ml.trees_grown"), trace.counter("ml.trees_grown"));
    assert_eq!(again.counter("ml.hist_row_updates"), Some(row_updates));
    assert_eq!(again.counter("ml.split_bins_scanned"), Some(scanned));
}
