//! From ranked paths to trained models (§VI, "From Ranked Paths to Training
//! ML Models"): materialize the top-k paths at full scale, train the
//! requested models on each, and keep the best path by accuracy.

use std::time::{Duration, Instant};

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
use crate::report::MethodResult;

/// Fraction of rows held out for testing (the paper's 80/20 split).
pub const TEST_FRAC: f64 = 0.2;

/// A candidate evaluation: (rank index, mean accuracy, per-model
/// accuracies, feature count).
type Candidate = (usize, f64, Vec<(ModelKind, f64)>, usize);
/// A join-tree evaluation: (per-model accuracies, mean, tables, features).
type TreeEval = (Vec<(ModelKind, f64)>, f64, usize, usize);

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

    let candidates = discovery.top_k(config.top_k);
    let mut best: Option<Candidate> = None;
    let mut per_path = Vec::with_capacity(candidates.len());
    for (i, rp) in candidates.iter().enumerate() {
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
        // Train on every globally selected feature living on this path's
        // tables (not just the ones first selected *via* this path — the
        // streaming R_sel makes per-path lists order-dependent), plus the
        // base features.
        let path_tables: Vec<String> = rp
            .path
            .tables()
            .into_iter()
            .filter(|t| *t != ctx.base_name())
            .map(|t| format!("{t}."))
            .collect();
        let mut features: Vec<&str> = base_features.iter().map(String::as_str).collect();
        for f in &discovery.selected_features {
            if path_tables.iter().any(|p| f.starts_with(p.as_str())) {
                features.push(f);
            }
        }
        let n_feats = features.len();
        let accs = evaluate_feature_set(&table, &features, label, models, config.seed)?;
        let mean = if accs.is_empty() {
            0.0
        } else {
            accs.iter().map(|(_, a)| a).sum::<f64>() / accs.len() as f64
        };
        per_path.push(mean);
        if best.as_ref().is_none_or(|(_, b, _, _)| mean > *b) {
            best = Some((i, mean, accs, n_feats));
        }
    }

    // Also evaluate the **join tree** spanned by the top-k paths together
    // (the paper's output artifact, Fig. 2): on star schemata a single
    // chain can join only one table, while the tree augments with all k.
    let mut tree_result: Option<TreeEval> = None;
    if candidates.len() > 1 && !stopped_early {
        let paths: Vec<&autofeat_graph::JoinPath> =
            candidates.iter().map(|rp| &rp.path).collect();
        match crate::executor::materialize_tree(ctx, ctx.base_table(), &paths, config.seed) {
            Ok((table, joined)) if joined.len() > 1 => {
                let prefixes: Vec<String> = joined.iter().map(|t| format!("{t}.")).collect();
                let mut features: Vec<&str> =
                    base_features.iter().map(String::as_str).collect();
                for f in &discovery.selected_features {
                    if prefixes.iter().any(|p| f.starts_with(p.as_str())) {
                        features.push(f);
                    }
                }
                let n_feats = features.len();
                let accs = evaluate_feature_set(&table, &features, label, models, config.seed)?;
                let mean = if accs.is_empty() {
                    0.0
                } else {
                    accs.iter().map(|(_, a)| a).sum::<f64>() / accs.len() as f64
                };
                tree_result = Some((accs, mean, joined.len(), n_feats));
            }
            Ok(_) => {}
            // A cooperative stop skips the tree; the best chain evaluated so
            // far still wins.
            Err(e) if e.interrupt().is_some() => stopped_early = true,
            Err(e) => return Err(e),
        }
    }

    let chain_best_mean = best.as_ref().map(|(_, m, _, _)| *m).unwrap_or(f64::NEG_INFINITY);
    if let Some((accs, mean, n_tables, n_features)) = tree_result {
        if mean > chain_best_mean {
            return Ok(TrainOutcome {
                result: MethodResult {
                    method: "AutoFeat".into(),
                    accuracy_per_model: accs,
                    feature_selection_time: discovery.elapsed,
                    total_time: discovery.elapsed + t0.elapsed(),
                    n_tables_joined: n_tables,
                    n_features,
                },
                best_path: Some(candidates[0].clone()),
                per_path_accuracy: per_path,
                interrupted: stopped_early,
            });
        }
    }

    let outcome = match best {
        Some((i, _, accs, n_features)) => {
            let rp = candidates[i].clone();
            let n_tables = rp.path.tables().len().saturating_sub(1);
            TrainOutcome {
                result: MethodResult {
                    method: "AutoFeat".into(),
                    accuracy_per_model: accs,
                    feature_selection_time: discovery.elapsed,
                    total_time: discovery.elapsed + t0.elapsed(),
                    n_tables_joined: n_tables,
                    n_features,
                },
                best_path: Some(rp),
                per_path_accuracy: per_path,
                interrupted: stopped_early,
            }
        }
        None => {
            // No surviving path: fall back to the bare base table.
            let features: Vec<&str> = base_features.iter().map(String::as_str).collect();
            let accs =
                evaluate_feature_set(ctx.base_table(), &features, label, models, config.seed)?;
            TrainOutcome {
                result: MethodResult {
                    method: "AutoFeat".into(),
                    accuracy_per_model: accs,
                    feature_selection_time: discovery.elapsed,
                    total_time: discovery.elapsed + t0.elapsed(),
                    n_tables_joined: 0,
                    n_features: base_features.len(),
                },
                best_path: None,
                per_path_accuracy: per_path,
                interrupted: stopped_early,
            }
        }
    };
    Ok(outcome)
}

/// Convenience: total wall time of a duration pair, used by reporting code.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
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
        c.cancel();
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
