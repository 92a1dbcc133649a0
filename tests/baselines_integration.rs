//! Integration: every baseline runs on the same dataset and the paper's
//! qualitative orderings hold on deep-signal data.

use autofeat::prelude::*;
use autofeat::{context_from_snowflake, datagen};

fn ctx() -> SearchContext {
    let spec = datagen::registry::dataset("credit").unwrap();
    context_from_snowflake(&spec.build_snowflake()).unwrap()
}

#[test]
fn all_methods_produce_results() {
    let c = ctx();
    let models = [ModelKind::RandomForest];
    let base = run_base(&c, &models, 1).unwrap();
    let arda = run_arda(&c, &models, 17).unwrap();
    let mab = run_mab(&c, &models, 19).unwrap();
    let ja = run_join_all(&c, &models, false, 29).unwrap();
    let jaf = run_join_all(&c, &models, true, 29).unwrap();
    for r in [&base, &arda, &mab] {
        assert!(r.mean_accuracy() > 0.0, "{} produced zero accuracy", r.method);
    }
    assert!(ja.is_some() && jaf.is_some(), "credit's KFK snowflake is JoinAll-feasible");
}

#[test]
fn autofeat_beats_single_hop_arda_on_deep_signal() {
    let c = ctx();
    let models = [ModelKind::RandomForest];
    let cfg = AutoFeatConfig::paper().with_seed(5);
    let discovery = AutoFeat::new(cfg.clone()).discover(&c).unwrap();
    let af = train_top_k(&c, &discovery, &models, &cfg).unwrap();
    let arda = run_arda(&c, &models, 17).unwrap();
    // The strongest features are ≥ 2 hops deep; ARDA can only reach depth 1.
    assert!(
        af.result.mean_accuracy() >= arda.mean_accuracy(),
        "AutoFeat ({:.3}) should not lose to ARDA ({:.3}) on deep-signal data",
        af.result.mean_accuracy(),
        arda.mean_accuracy()
    );
}

#[test]
fn autofeat_feature_selection_is_faster_than_model_based_baselines() {
    let c = ctx();
    let models = [ModelKind::RandomForest];
    let cfg = AutoFeatConfig::paper();
    let discovery = AutoFeat::new(cfg.clone()).discover(&c).unwrap();
    let arda = run_arda(&c, &models, 17).unwrap();
    let mab = run_mab(&c, &models, 19).unwrap();
    // The headline claim: heuristic ranking beats model-execution-based
    // selection on feature-selection time.
    assert!(
        discovery.elapsed < arda.feature_selection_time,
        "AutoFeat FS ({:?}) should beat ARDA FS ({:?})",
        discovery.elapsed,
        arda.feature_selection_time
    );
    assert!(
        discovery.elapsed < mab.feature_selection_time,
        "AutoFeat FS ({:?}) should beat MAB FS ({:?})",
        discovery.elapsed,
        mab.feature_selection_time
    );
}

#[test]
fn join_all_is_skipped_on_explosive_schemata() {
    // The school dataset is a 16-satellite star: once the joins are not
    // 1:1, the ordering count is 16! ≈ 2·10^13, far over JoinAll's budget
    // of 10^7.
    let spec = datagen::registry::dataset("school").unwrap();
    let c = context_from_snowflake(&spec.build_snowflake()).unwrap();
    let drg = c.drg();
    let base = drg.node("base").unwrap();
    let count = autofeat::graph::traversal::join_all_path_count(drg, base);
    assert!(count > 1e13, "16! expected, got {count}");
    let r = run_join_all(&c, &[ModelKind::RandomForest], false, 29).unwrap();
    assert!(r.is_none(), "JoinAll must be skipped on school");
}

#[test]
fn mab_joins_fewer_tables_than_autofeat_explores() {
    let c = ctx();
    let mab = run_mab(&c, &[ModelKind::RandomForest], 19).unwrap();
    // MAB accepts only reward-improving joins; it never joins everything.
    assert!(mab.n_tables_joined < c.n_tables() - 1);
}
