//! Fault-injection harness: serialize a generated lake, corrupt it in seven
//! known ways, and assert the fail-soft pipeline — lenient ingestion with
//! quarantine, per-path error isolation, NaN-safe ranking — runs discovery
//! to completion with accurate accounting and healthy paths still ranked.

use std::collections::HashMap;

use autofeat::core::{discovery_health_report, load_lake_dir, SearchContext};
use autofeat::data::csv::{write_csv_str, CsvReadOptions};
use autofeat::datagen::{self, FaultInjector, FaultKind, RuntimeFault, RuntimeFaultKind};
use autofeat::prelude::*;

/// Build a snowflake lake, corrupt it, and write it to a temp dir.
///
/// Faults injected (all seven kinds):
/// * `s1` — dangling join keys (its subtree becomes unjoinable);
/// * `s3` — truncated export (file cut mid-row);
/// * `s4` — ragged rows;
/// * `x_empty` — copy of `s2` with every data row dropped;
/// * `x_nan` — copy of `s2` with NaN floats;
/// * `x_allnull` — copy of `s2` with one column blanked;
/// * `x_dup` — copy of `s0` with a duplicated header.
///
/// `base`, `s0`, `s2` stay healthy.
struct CorruptedLake {
    dir: std::path::PathBuf,
    /// KFK edges, including edges wiring the `x_*` copies in like their
    /// originals.
    kfk: Vec<(String, String, String, String)>,
    label: String,
    injector: FaultInjector,
    n_files: usize,
}

fn build_corrupted_lake(tag: &str) -> CorruptedLake {
    let gt = datagen::generator::generate(&datagen::GroundTruthConfig {
        n_rows: 240,
        ..Default::default()
    });
    let sf = datagen::splitter::split(&gt, &datagen::SnowflakeConfig::default());
    let mut texts: HashMap<String, String> = HashMap::new();
    texts.insert("base".into(), write_csv_str(&sf.base));
    for t in &sf.satellites {
        texts.insert(t.name().to_string(), write_csv_str(t));
    }

    let mut inj = FaultInjector::new(7);
    let corrupt =
        |inj: &mut FaultInjector, texts: &HashMap<String, String>, src: &str, out: &str, kind| {
            inj.inject(out, &texts[src], kind)
        };
    let mut files: Vec<(String, String)> = vec![
        ("base".into(), texts["base"].clone()),
        ("s0".into(), texts["s0"].clone()),
        ("s2".into(), texts["s2"].clone()),
        ("s1".into(), corrupt(&mut inj, &texts, "s1", "s1", FaultKind::DanglingKeys)),
        ("s3".into(), corrupt(&mut inj, &texts, "s3", "s3", FaultKind::TruncatedRows)),
        ("s4".into(), corrupt(&mut inj, &texts, "s4", "s4", FaultKind::RaggedRows)),
        ("x_empty".into(), corrupt(&mut inj, &texts, "s2", "x_empty", FaultKind::EmptyTable)),
        ("x_nan".into(), corrupt(&mut inj, &texts, "s2", "x_nan", FaultKind::NanFloats)),
        (
            "x_allnull".into(),
            corrupt(&mut inj, &texts, "s2", "x_allnull", FaultKind::AllNullColumn),
        ),
        ("x_dup".into(), corrupt(&mut inj, &texts, "s0", "x_dup", FaultKind::DuplicateHeader)),
    ];
    files.sort_by(|a, b| a.0.cmp(&b.0));

    let dir = std::env::temp_dir().join(format!("autofeat_fault_lake_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in &files {
        std::fs::write(dir.join(format!("{name}.csv")), text).unwrap();
    }

    // KFK edges: the snowflake's own, plus the x_* copies attached exactly
    // where their source tables attach.
    let mut kfk: Vec<(String, String, String, String)> = sf
        .kfk
        .iter()
        .map(|e| {
            (
                e.parent_table.clone(),
                e.parent_column.clone(),
                e.child_table.clone(),
                e.child_column.clone(),
            )
        })
        .collect();
    let edge_of = |child: &str| {
        sf.kfk
            .iter()
            .find(|e| e.child_table == child)
            .expect("satellite has a parent edge")
            .clone()
    };
    for (copy, src) in [("x_empty", "s2"), ("x_nan", "s2"), ("x_allnull", "s2"), ("x_dup", "s0")] {
        let e = edge_of(src);
        kfk.push((e.parent_table, e.parent_column, copy.to_string(), e.child_column));
    }

    CorruptedLake {
        dir,
        kfk,
        label: sf.label.clone(),
        injector: inj,
        n_files: files.len(),
    }
}

#[test]
fn corrupted_lake_loads_with_accurate_quarantine_accounting() {
    let lake = build_corrupted_lake("load");
    let dir = &lake.dir;
    assert_eq!(lake.injector.manifest.len(), 7, "all seven fault kinds injected");

    let report = load_lake_dir(dir, &CsvReadOptions::lenient()).unwrap();
    // Every file is accounted for: loaded or quarantined, nothing dropped
    // silently.
    assert_eq!(report.tables.len() + report.quarantined.len(), lake.n_files);
    assert!(report.quarantined.iter().all(|q| !q.reason.is_empty()));

    let loaded: Vec<&str> = report.tables.iter().map(|t| t.name()).collect();
    // The healthy core must load, and load *clean*.
    for healthy in ["base", "s0", "s2"] {
        assert!(loaded.contains(&healthy), "{healthy} missing: {loaded:?}");
        assert!(
            !report.diagnostics.iter().any(|(n, _)| n == healthy),
            "{healthy} should need no repairs"
        );
    }
    // Well-formed corruptions (dangling keys, NaN floats, blanked column,
    // empty table) are not *file* defects: they load without quarantine.
    for wellformed in ["s1", "x_nan", "x_allnull", "x_empty"] {
        assert!(loaded.contains(&wellformed), "{wellformed} missing: {loaded:?}");
    }
    let x_empty = report.tables.iter().find(|t| t.name() == "x_empty").unwrap();
    assert_eq!(x_empty.n_rows(), 0);

    // Structural corruptions are caught: the truncated file is repaired (or
    // rejected), the duplicated header renamed.
    let diagnosed: Vec<&str> = report.diagnostics.iter().map(|(n, _)| n.as_str()).collect();
    let quarantined: Vec<&str> =
        report.quarantined.iter().map(|q| q.name.as_str()).collect();
    for structural in ["s3", "s4", "x_dup"] {
        assert!(
            diagnosed.contains(&structural) || quarantined.contains(&structural),
            "{structural} must be diagnosed or quarantined (diagnosed: {diagnosed:?}, \
             quarantined: {quarantined:?})"
        );
    }
    if let Some((_, d)) = report.diagnostics.iter().find(|(n, _)| n == "x_dup") {
        assert!(d.n_renamed_headers >= 1);
    }

    // Strict mode quarantines at least as much as lenient.
    let strict = load_lake_dir(dir, &CsvReadOptions::strict()).unwrap();
    assert!(strict.quarantined.len() >= report.quarantined.len());
    assert!(strict.quarantined.iter().any(|q| q.name == "x_dup"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn discovery_over_corrupted_lake_completes_and_ranks_healthy_paths() {
    let lake = build_corrupted_lake("discover");
    let report = load_lake_dir(&lake.dir, &CsvReadOptions::lenient()).unwrap();

    // Benchmark setting over whatever survived ingestion. KFK edges may
    // reference quarantined tables; discovery must skip those hops, not die.
    let ctx =
        SearchContext::from_kfk(report.tables.clone(), &lake.kfk, "base", &lake.label).unwrap();
    let result = AutoFeat::paper().discover(&ctx).unwrap();

    // Healthy paths are still found and ranked.
    assert!(!result.ranked.is_empty(), "healthy subtree must yield paths");
    assert!(
        result.ranked.iter().any(|p| p.path.last_table() == Some("s0")
            || p.path.last_table() == Some("s2")),
        "a path through the healthy core must be ranked"
    );
    // The dangling-key table was evaluated and pruned as unjoinable — not
    // crashed on, not silently skipped.
    assert!(result.n_pruned_unjoinable >= 1, "{result:?}");
    // No truncation: the faults must not abort exploration.
    assert_eq!(result.truncation, None);
    // Scores of everything ranked are comparable (the NaN-safe ordering put
    // non-finite scores last, if any).
    for w in result.ranked.windows(2) {
        assert!(
            !w[0].score.is_nan() || w[1].score.is_nan(),
            "NaN-scored path ranked above a finite one"
        );
    }

    // The health report renders the whole story without panicking.
    let health = discovery_health_report(&result);
    assert!(health.contains("discovery:"), "{health}");

    // End to end: training on the top paths still works.
    let out = train_top_k(
        &ctx,
        &result,
        &[ModelKind::RandomForest],
        &AutoFeatConfig::paper(),
    )
    .unwrap();
    assert!(out.result.mean_accuracy() > 0.0);

    std::fs::remove_dir_all(&lake.dir).ok();
}

/// A minimal base + single-satellite lake, written to and read back from a
/// `prefix`-named temp directory of its own (tests run concurrently).
fn renamed_single_satellite_ctx(prefix: &str) -> (SearchContext, usize) {
    let gt = datagen::generator::generate(&datagen::GroundTruthConfig {
        n_rows: 120,
        ..Default::default()
    });
    let sf = datagen::splitter::split(
        &gt,
        &datagen::SnowflakeConfig { n_satellites: 1, ..Default::default() },
    );
    let dir = std::env::temp_dir().join(format!("autofeat_fault_{prefix}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{prefix}_base.csv")), write_csv_str(&sf.base)).unwrap();
    std::fs::write(
        dir.join(format!("{prefix}_s0.csv")),
        write_csv_str(&sf.satellites[0]),
    )
    .unwrap();
    let report = load_lake_dir(&dir, &CsvReadOptions::lenient()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let n_rows = sf.satellites[0].n_rows();
    let kfk: Vec<(String, String, String, String)> = sf
        .kfk
        .iter()
        .map(|e| {
            (
                format!("{prefix}_base"),
                e.parent_column.clone(),
                format!("{prefix}_s0"),
                e.child_column.clone(),
            )
        })
        .collect();
    let ctx = SearchContext::from_kfk(
        report.tables.clone(),
        &kfk,
        format!("{prefix}_base"),
        sf.label.clone(),
    )
    .unwrap();
    (ctx, n_rows)
}

#[test]
fn planned_runtime_panic_is_isolated_and_heals_on_disarm() {
    let (ctx, n_rows) = renamed_single_satellite_ctx("rtpanic");
    let mut inj = FaultInjector::new(11);
    let fault = inj.plan_runtime("rtpanic_s0", RuntimeFaultKind::PanicOnRow, n_rows);
    assert!((fault.value as usize) < n_rows);
    fault.arm(ctx.fault_domain());

    // The armed panic fires inside a worker; the run must complete with the
    // failure isolated and accounted, never abort the process.
    let result = AutoFeat::paper().discover(&ctx).unwrap();
    assert!(
        result.failures.iter().any(|f| f.error.contains("panic"))
            || result.resilience.worker_panics >= 1,
        "the injected panic must surface as an isolated failure: {result:?}"
    );
    assert!(result.ranked.is_empty(), "the only path is poisoned");

    ctx.fault_domain().disarm("rtpanic_s0");
    let healed = AutoFeat::paper().discover(&ctx).unwrap();
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
    assert_eq!(healed.resilience.worker_panics, 0);
    assert!(!healed.ranked.is_empty(), "disarming heals the lake");
}

#[test]
fn planned_slow_join_trips_the_deadline_not_an_error() {
    let (ctx, _) = renamed_single_satellite_ctx("rtslow");
    // A join far slower than the budget: the deadline must truncate the run
    // (anytime semantics), not error it, and the slow join's sleep must be
    // interruptible rather than running to completion.
    RuntimeFault { table: "rtslow_s0".into(), kind: RuntimeFaultKind::SlowJoinMs, value: 2_000 }
        .arm(ctx.fault_domain());
    let cfg = AutoFeatConfig::paper().with_time_budget(std::time::Duration::from_millis(40));
    let t0 = std::time::Instant::now();
    let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
    let elapsed = t0.elapsed();
    ctx.fault_domain().disarm("rtslow_s0");
    assert!(
        matches!(result.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
        "expected deadline truncation, got {:?}",
        result.truncation
    );
    assert!(
        elapsed < std::time::Duration::from_millis(1_500),
        "slow join must be interrupted, not slept through: {elapsed:?}"
    );
    let health = discovery_health_report(&result);
    assert!(health.contains("time budget exhausted"), "{health}");
}

/// Both runtime faults at a zero cache budget, where no join builds an
/// index and each groups only the rows its sample needs: the panic fires in
/// that grouping and is isolated and counted like a build panic, disarming
/// heals, and the slow join still yields to the deadline.
#[test]
fn runtime_faults_fire_on_joins_the_budget_denies() {
    let (ctx, n_rows) = renamed_single_satellite_ctx("rtdenied");
    let zero = AutoFeatConfig::paper().with_cache_budget_bytes(0);
    let mut inj = FaultInjector::new(11);
    inj.plan_runtime("rtdenied_s0", RuntimeFaultKind::PanicOnRow, n_rows)
        .arm(ctx.fault_domain());
    let result = AutoFeat::new(zero.clone()).discover(&ctx).unwrap();
    assert!(
        result.failures.iter().any(|f| f.error.contains("panicked")),
        "the injected panic must surface as an isolated failure: {result:?}"
    );
    assert!(result.cache.build_panics >= 1, "{:?}", result.cache);
    assert_eq!(result.cache.entries, 0);
    assert!(result.ranked.is_empty(), "the only path is poisoned");

    ctx.fault_domain().disarm("rtdenied_s0");
    let healed = AutoFeat::new(zero.clone()).discover(&ctx).unwrap();
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
    assert!(!healed.ranked.is_empty(), "disarming heals the lake");
    let cache = healed.cache;
    assert!(cache.misses > 0 && cache.misses == cache.rejections, "{cache:?}");

    RuntimeFault { table: "rtdenied_s0".into(), kind: RuntimeFaultKind::SlowJoinMs, value: 2_000 }
        .arm(ctx.fault_domain());
    let cfg = zero.with_time_budget(std::time::Duration::from_millis(40));
    let t0 = std::time::Instant::now();
    let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
    let elapsed = t0.elapsed();
    ctx.fault_domain().disarm("rtdenied_s0");
    assert!(
        matches!(result.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
        "expected deadline truncation, got {:?}",
        result.truncation
    );
    assert!(
        elapsed < std::time::Duration::from_millis(1_500),
        "slow join must be interrupted, not slept through: {elapsed:?}"
    );
}

#[test]
fn every_fault_kind_alone_never_breaks_discovery() {
    // One fault at a time, applied to the single satellite of a minimal
    // lake: discovery must return Ok for every kind.
    for kind in FaultKind::all() {
        let gt = datagen::generator::generate(&datagen::GroundTruthConfig {
            n_rows: 120,
            ..Default::default()
        });
        let sf = datagen::splitter::split(
            &gt,
            &datagen::SnowflakeConfig { n_satellites: 1, ..Default::default() },
        );
        let mut inj = FaultInjector::new(13);
        let corrupted = inj.inject("s0", &write_csv_str(&sf.satellites[0]), kind);

        let dir = std::env::temp_dir().join(format!("autofeat_fault_single_{kind:?}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("base.csv"), write_csv_str(&sf.base)).unwrap();
        std::fs::write(dir.join("s0.csv"), corrupted).unwrap();

        let report = load_lake_dir(&dir, &CsvReadOptions::lenient()).unwrap();
        assert!(
            report.tables.iter().any(|t| t.name() == "base"),
            "base must survive ({kind:?})"
        );
        let kfk: Vec<(String, String, String, String)> = sf
            .kfk
            .iter()
            .map(|e| {
                (
                    e.parent_table.clone(),
                    e.parent_column.clone(),
                    e.child_table.clone(),
                    e.child_column.clone(),
                )
            })
            .collect();
        let ctx =
            SearchContext::from_kfk(report.tables.clone(), &kfk, "base", &sf.label).unwrap();
        // The point of the harness: no fault kind may panic or hard-error
        // the discovery loop.
        let result = AutoFeat::paper().discover(&ctx).unwrap();
        let _ = discovery_health_report(&result);
        std::fs::remove_dir_all(&dir).ok();
    }
}
