//! Cross-crate integration: the full AutoFeat pipeline on generated
//! datasets from the evaluation registry, in both schema settings.

use autofeat::prelude::*;
use autofeat::{context_from_lake, context_from_snowflake, datagen};

fn credit_spec() -> datagen::DatasetSpec {
    datagen::registry::dataset("credit").expect("credit registered")
}

#[test]
fn benchmark_setting_autofeat_beats_base() {
    let spec = credit_spec();
    let sf = spec.build_snowflake();
    let ctx = context_from_snowflake(&sf).unwrap();
    let models = [ModelKind::RandomForest];

    let base = run_base(&ctx, &models, 7).unwrap();

    let cfg = AutoFeatConfig::paper().with_seed(7);
    let discovery = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
    assert!(!discovery.ranked.is_empty(), "discovery must find paths in a KFK snowflake");
    let out = train_top_k(&ctx, &discovery, &models, &cfg).unwrap();

    assert!(
        out.result.mean_accuracy() > base.mean_accuracy() + 0.1,
        "AutoFeat ({:.3}) must clearly beat BASE ({:.3}) when the signal is planted deep",
        out.result.mean_accuracy(),
        base.mean_accuracy()
    );
}

#[test]
fn benchmark_setting_discovers_deep_features() {
    let spec = credit_spec();
    let sf = spec.build_snowflake();
    let max_depth = sf.max_depth();
    assert!(max_depth >= 2, "credit snowflake should be multi-hop");
    // The strongest informative feature lives at max depth.
    let deep_table = sf.placement.get("inf_0").unwrap().clone();
    assert_eq!(sf.depth[&deep_table], max_depth);

    let ctx = context_from_snowflake(&sf).unwrap();
    let discovery = AutoFeat::paper().discover(&ctx).unwrap();
    // Transitivity: some selected feature must come from a table at depth
    // ≥ 2 (only reachable via multi-hop joins). Note the *specific* deepest
    // informative column may legitimately be dropped when a shallower
    // redundant image of it (a planted `red_*` copy) was selected first —
    // that is the redundancy analysis doing its job.
    let deep_selected = discovery.selected_features.iter().any(|f| {
        f.split('.').next().is_some_and(|t| sf.depth.get(t).copied().unwrap_or(0) >= 2)
    });
    assert!(
        deep_selected,
        "features from depth ≥ 2 should be selected: {:?}",
        discovery.selected_features
    );
    // And the label signal must be captured: either an informative feature
    // or one of its redundant images appears among the selections.
    let signal_selected = discovery
        .selected_features
        .iter()
        .any(|f| f.contains("inf_") || f.contains("red_"));
    assert!(
        signal_selected,
        "no signal-carrying feature selected: {:?}",
        discovery.selected_features
    );
}

#[test]
fn data_lake_setting_runs_and_is_denser() {
    let spec = credit_spec();
    let sf = spec.build_snowflake();
    let kfk_edges = sf.kfk.len();
    let lake = spec.build_lake();
    let ctx = context_from_lake(&lake, &SchemaMatcher::paper_default()).unwrap();
    assert!(
        ctx.drg().n_edges() >= kfk_edges,
        "lake discovery should find at least the true edges: {} vs {kfk_edges}",
        ctx.drg().n_edges()
    );
    let discovery = AutoFeat::paper().discover(&ctx).unwrap();
    assert!(!discovery.ranked.is_empty());
    let out = train_top_k(
        &ctx,
        &discovery,
        &[ModelKind::RandomForest],
        &AutoFeatConfig::paper(),
    )
    .unwrap();
    assert!(out.result.mean_accuracy() > 0.6);
}

#[test]
fn star_schema_school_limits_depth_to_one() {
    let spec = datagen::registry::dataset("school").unwrap();
    let sf = spec.build_snowflake();
    let ctx = context_from_snowflake(&sf).unwrap();
    let discovery = AutoFeat::paper().discover(&ctx).unwrap();
    assert!(
        discovery.ranked.iter().all(|r| r.path.len() == 1),
        "a star schema has only single-hop paths"
    );
}

#[test]
fn ranking_prefers_paths_with_informative_features() {
    let spec = credit_spec();
    let sf = spec.build_snowflake();
    let ctx = context_from_snowflake(&sf).unwrap();
    let discovery = AutoFeat::paper().discover(&ctx).unwrap();
    // The best-ranked path must carry at least one selected feature.
    let best = &discovery.ranked[0];
    assert!(
        !best.features.is_empty(),
        "top-ranked path should contribute features: {}",
        best.path
    );
    // Scores are non-increasing.
    for w in discovery.ranked.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let spec = credit_spec();
    let sf = spec.build_snowflake();
    let ctx = context_from_snowflake(&sf).unwrap();
    let cfg = AutoFeatConfig::paper().with_seed(3);
    let a = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
    let b = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
    assert_eq!(a.ranked.len(), b.ranked.len());
    let ta = train_top_k(&ctx, &a, &[ModelKind::LightGbm], &cfg).unwrap();
    let tb = train_top_k(&ctx, &b, &[ModelKind::LightGbm], &cfg).unwrap();
    assert_eq!(ta.result.accuracy_per_model, tb.result.accuracy_per_model);
}
