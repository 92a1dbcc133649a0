//! From ranked paths to trained models (§VI, "From Ranked Paths to Training
//! ML Models"): materialize the top-k paths at full scale, train the
//! requested models on each, and keep the best path by accuracy.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use autofeat_data::encode::to_matrix;
use autofeat_data::sample::train_test_split;
use autofeat_data::{Result, Table};
use autofeat_ml::eval::{accuracy, ModelKind};

use crate::autofeat::{DiscoveryResult, RankedPath};
use crate::config::AutoFeatConfig;
use crate::context::SearchContext;
use crate::executor::materialize_path;
use crate::report::{mean_accuracy, MethodResult};

/// Fraction of rows held out for testing (the paper's 80/20 split).
pub(crate) const TEST_FRAC: f64 = 0.2;

/// Train every model on one table restricted to `features`, returning
/// per-model test accuracies. Shared by AutoFeat and all baselines so the
/// comparison is apples-to-apples.
pub fn evaluate_feature_set(
    table: &Table,
    features: &[&str],
    label: &str,
    models: &[ModelKind],
    seed: u64,
) -> Result<Vec<(ModelKind, f64)>> {
    let _span = autofeat_obs::span("model_eval");
    let mut rng = StdRng::seed_from_u64(seed);
    // Split only what the learners read: a materialized path's columns are
    // views over the lake, and the split is where their cells get copied.
    let mut read: Vec<&str> = Vec::with_capacity(features.len() + 1);
    for name in features.iter().copied().chain([label]) {
        if !read.contains(&name) {
            read.push(name);
        }
    }
    let split = train_test_split(&table.select(&read)?, label, TEST_FRAC, &mut rng)?;
    let train_m = to_matrix(&split.train, features, label)?;
    let test_m = to_matrix(&split.test, features, label)?;
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let mut model = kind.build(seed);
        autofeat_obs::incr("ml.models_evaluated");
        let fitted = {
            let _span = autofeat_obs::span("model_fit");
            model.fit(&train_m)
        };
        let acc = match fitted {
            Ok(()) => {
                let _span = autofeat_obs::span("model_predict");
                accuracy(&model.predict(&test_m), &test_m.labels)
            }
            // A learner that cannot handle the task (e.g. >2 classes for the
            // binary-only ones) scores 0 rather than aborting the sweep.
            Err(_) => 0.0,
        };
        out.push((kind, acc));
    }
    Ok(out)
}

/// Outcome of training the top-k ranked paths.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The winning path (None when no path survived discovery — the result
    /// then reflects the bare base table).
    pub best_path: Option<RankedPath>,
    /// The reportable result row.
    pub result: MethodResult,
    /// Mean accuracy of every evaluated path, in ranking order.
    pub per_path_accuracy: Vec<f64>,
    /// Whether training wound down early at a cooperative interrupt (a
    /// cancel or deadline on the context's control). The outcome then
    /// reflects only the candidates fully evaluated before the stop — a
    /// partial-but-valid result, not an error.
    pub interrupted: bool,
}

/// The features trained on a table that joins `tables` onto the base: the
/// base features, then every globally selected feature living on one of
/// `tables` (not just the ones first selected *via* a given path — the
/// streaming R_sel makes per-path lists order-dependent).
fn features_on<'a>(base: &'a [String], selected: &'a [String], tables: &[&str]) -> Vec<&'a str> {
    let prefixes: Vec<String> = tables.iter().map(|t| format!("{t}.")).collect();
    let on_tables = |f: &&String| prefixes.iter().any(|p| f.starts_with(p.as_str()));
    base.iter().chain(selected.iter().filter(on_tables)).map(String::as_str).collect()
}

/// Materialize and evaluate the top-k ranked paths; pick the best by mean
/// accuracy across the given models.
pub fn train_top_k(
    ctx: &SearchContext,
    discovery: &DiscoveryResult,
    models: &[ModelKind],
    config: &AutoFeatConfig,
) -> Result<TrainOutcome> {
    let _span = autofeat_obs::span("train");
    let t0 = Instant::now();
    // Honour the context's lifecycle control for the whole training phase:
    // materialization joins poll it ambiently between hops, and the
    // candidate loop checks it per path. Interruption is graceful — the
    // best fully evaluated candidate so far still wins.
    let _scope = autofeat_data::RequestScope::with_ctl(ctx.control()).enter();
    let mut stopped_early = false;
    let base_features = ctx.base_features();
    let label = ctx.label();
    let selected = &discovery.selected_features;
    let train_features = |tables: &[&str]| features_on(&base_features, selected, tables);

    let candidates = discovery.top_k(config.top_k);
    // The best evaluation so far: (path, per-model accuracies, tables
    // joined, feature count), and its mean accuracy.
    let mut winner = None;
    let mut best_mean = f64::NEG_INFINITY;
    let mut per_path = Vec::with_capacity(candidates.len());
    for rp in candidates {
        if ctx.control().interrupted().is_some() {
            stopped_early = true;
            break;
        }
        let table = match materialize_path(ctx, ctx.base_table(), &rp.path, config.seed) {
            Ok(t) => t,
            Err(e) if e.interrupt().is_some() => {
                stopped_early = true;
                break;
            }
            Err(e) => return Err(e),
        };
        let mut tables = rp.path.tables();
        tables.retain(|t| *t != ctx.base_name());
        let features = train_features(&tables);
        let accs = evaluate_feature_set(&table, &features, label, models, config.seed)?;
        let mean = mean_accuracy(&accs);
        per_path.push(mean);
        if winner.is_none() || mean > best_mean {
            winner = Some((rp, accs, tables.len(), features.len()));
            best_mean = mean;
        }
    }

    // Also evaluate the **join tree** spanned by the top-k paths together
    // (the paper's output artifact, Fig. 2): on star schemata a single
    // chain can join only one table, while the tree augments with all k.
    // It wins over the best chain only when strictly better.
    if candidates.len() > 1 && !stopped_early {
        let paths: Vec<&autofeat_graph::JoinPath> =
            candidates.iter().map(|rp| &rp.path).collect();
        match crate::executor::materialize_tree(ctx, ctx.base_table(), &paths, config.seed) {
            Ok((table, joined)) if joined.len() > 1 => {
                let tables: Vec<&str> = joined.iter().map(String::as_str).collect();
                let features = train_features(&tables);
                let accs = evaluate_feature_set(&table, &features, label, models, config.seed)?;
                if mean_accuracy(&accs) > best_mean {
                    winner = Some((&candidates[0], accs, joined.len(), features.len()));
                }
            }
            Ok(_) => {}
            // A cooperative stop skips the tree; the best chain evaluated so
            // far still wins.
            Err(e) if e.interrupt().is_some() => stopped_early = true,
            Err(e) => return Err(e),
        }
    }

    let (best_path, accuracy_per_model, n_tables_joined, n_features) = match winner {
        Some((rp, accs, n_tables, n_features)) => (Some(rp.clone()), accs, n_tables, n_features),
        None => {
            // No surviving path: fall back to the bare base table.
            let features = train_features(&[]);
            let accs =
                evaluate_feature_set(ctx.base_table(), &features, label, models, config.seed)?;
            (None, accs, 0, features.len())
        }
    };
    Ok(TrainOutcome {
        best_path,
        result: MethodResult {
            method: "AutoFeat".into(),
            accuracy_per_model,
            feature_selection_time: discovery.elapsed,
            total_time: discovery.elapsed + t0.elapsed(),
            n_tables_joined,
            n_features,
        },
        per_path_accuracy: per_path,
        interrupted: stopped_early,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofeat::AutoFeat;
    use autofeat_data::{Column, RunControl};
    use std::sync::Arc;

    fn ctx(n: usize) -> SearchContext {
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
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
            vec![base, s1],
            &[("base".into(), "k".into(), "s1".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn augmentation_beats_base() {
        let c = ctx(300);
        let discovery = AutoFeat::paper().discover(&c).unwrap();
        let out = train_top_k(
            &c,
            &discovery,
            &[ModelKind::RandomForest],
            &AutoFeatConfig::default(),
        )
        .unwrap();
        assert!(out.best_path.is_some());
        let acc = out.result.mean_accuracy();
        assert!(acc > 0.95, "augmented accuracy should be ~1.0, got {acc}");
        assert_eq!(out.result.n_tables_joined, 1);
    }

    #[test]
    fn base_only_fallback_when_no_paths() {
        let c = ctx(100);
        // Empty discovery result.
        let empty = DiscoveryResult { threads_used: 1, ..Default::default() };
        let out =
            train_top_k(&c, &empty, &[ModelKind::RandomForest], &AutoFeatConfig::default())
                .unwrap();
        assert!(out.best_path.is_none());
        assert_eq!(out.result.n_tables_joined, 0);
    }

    #[test]
    fn cancelled_context_yields_partial_training_outcome() {
        let c = ctx(300);
        let discovery = AutoFeat::paper().discover(&c).unwrap();
        assert!(!discovery.ranked.is_empty());
        c.control().cancel();
        let out = train_top_k(
            &c,
            &discovery,
            &[ModelKind::RandomForest],
            &AutoFeatConfig::default(),
        )
        .unwrap();
        assert!(out.interrupted, "cancel before training = graceful partial outcome");
        assert!(out.best_path.is_none());
        assert_eq!(out.result.n_tables_joined, 0, "falls back to the bare base table");
        let fresh = c.clone().with_request_control(Arc::new(RunControl::new()));
        let healthy = train_top_k(
            &fresh,
            &discovery,
            &[ModelKind::RandomForest],
            &AutoFeatConfig::default(),
        )
        .unwrap();
        assert!(!healthy.interrupted);
        assert!(healthy.best_path.is_some());
    }

    #[test]
    fn evaluate_feature_set_runs_all_models() {
        let c = ctx(200);
        let accs = evaluate_feature_set(
            c.base_table(),
            &["k"],
            "target",
            &ModelKind::tree_models(),
            0,
        )
        .unwrap();
        assert_eq!(accs.len(), 4);
        for (_, a) in accs {
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn per_path_accuracy_reported() {
        let c = ctx(200);
        let discovery = AutoFeat::paper().discover(&c).unwrap();
        let out = train_top_k(
            &c,
            &discovery,
            &[ModelKind::RandomForest],
            &AutoFeatConfig::default(),
        )
        .unwrap();
        assert_eq!(out.per_path_accuracy.len(), discovery.top_k(4).len());
    }
}
