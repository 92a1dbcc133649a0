//! The MAB baseline (Liu et al., "Feature Augmentation with Reinforcement
//! Learning"), re-implemented from the paper's description.
//!
//! A multi-armed bandit treats candidate tables as arms: pulling an arm
//! joins the table and trains a model; the accuracy is the reward. Per the
//! AutoFeat paper's observation, MAB "restricts its joins to tables sharing
//! the same join column name", so arms are discovered by *name equality*
//! between columns of the current augmented table and candidate tables —
//! which is exactly why it under-explores transitive paths whose keys are
//! renamed along the way.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use autofeat_data::encode::to_matrix;
use autofeat_data::sample::train_test_split;
use autofeat_data::stable_hash::mix_u64;
use autofeat_data::{Result, Table};
use autofeat_graph::JoinHop;
use autofeat_ml::eval::{accuracy, Classifier, ModelKind};
use autofeat_ml::tree::{DecisionTree, TreeConfig};

use crate::context::SearchContext;
use crate::report::MethodResult;
use crate::seeding::hop_seed;
use crate::train::evaluate_feature_set;

/// UCB1 exploration constant.
const EXPLORATION: f64 = std::f64::consts::SQRT_2;
/// Pull budget: each pull is one join and one model training.
const PULLS: usize = 12;

/// The unqualified final segment of a possibly `table.`-qualified column.
fn unqualified(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Arms: `(left_column_in_state, candidate_table, right_column)` triples
/// where an unjoined candidate table shares a column *name* with the
/// current state.
fn find_arms<'a>(
    state: &Table,
    ctx: &'a SearchContext,
    joined: &[String],
    label: &str,
) -> Vec<(String, &'a str, String)> {
    let mut arms = Vec::new();
    let mut names: Vec<&str> = ctx.table_names();
    names.sort_unstable();
    for t in names {
        if t == ctx.base_name() || joined.iter().any(|j| j == t) {
            continue;
        }
        let cand = ctx.table(t).expect("listed table exists");
        for sc in state.column_names() {
            if sc == label {
                continue;
            }
            let short = unqualified(sc);
            for cc in cand.column_names() {
                if cc == short {
                    arms.push((sc.to_string(), t, cc.to_string()));
                }
            }
        }
    }
    arms
}

/// Quick reward model: a shallow decision tree's validation accuracy.
fn reward(table: &Table, label: &str, seed: u64) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(table, label, 0.25, &mut rng)?;
    let features: Vec<&str> = table
        .column_names()
        .into_iter()
        .filter(|c| *c != label)
        .collect();
    let train_m = to_matrix(&split.train, &features, label)?;
    let test_m = to_matrix(&split.test, &features, label)?;
    let mut tree = DecisionTree::new(TreeConfig { max_depth: 6, ..Default::default() }, seed);
    Ok(match tree.fit(&train_m) {
        Ok(()) => accuracy(&tree.predict(&test_m), &test_m.labels),
        Err(_) => 0.0,
    })
}

/// Run the MAB baseline.
pub fn run_mab(ctx: &SearchContext, models: &[ModelKind], seed: u64) -> Result<MethodResult> {
    let _span = autofeat_obs::span("baseline_mab");
    let _scope = autofeat_data::RequestScope::with_ctl(ctx.control()).enter();
    let t0 = Instant::now();
    let label = ctx.label().to_string();

    let mut state = ctx.base_table().clone();
    let mut joined: Vec<String> = Vec::new();
    let mut best_reward = reward(&state, &label, seed)?;

    // UCB statistics per arm key "left|table|right".
    let mut pulls: std::collections::HashMap<String, (usize, f64)> =
        std::collections::HashMap::new();
    let mut total_pulls = 0usize;

    for _ in 0..PULLS {
        if ctx.control().interrupted().is_some() {
            break;
        }
        let arms = find_arms(&state, ctx, &joined, &label);
        if arms.is_empty() {
            break;
        }
        // UCB1 choice: unexplored arms first (in order), then max UCB.
        let chosen = arms
            .iter()
            .max_by(|a, b| {
                let key = |arm: &(String, &str, String)| {
                    format!("{}|{}|{}", arm.0, arm.1, arm.2)
                };
                let ucb = |arm: &(String, &str, String)| match pulls.get(&key(arm)) {
                    None => f64::INFINITY,
                    Some(&(n, sum)) => {
                        sum / n as f64
                            + EXPLORATION
                                * ((total_pulls.max(1) as f64).ln() / n as f64).sqrt()
                    }
                };
                ucb(a).partial_cmp(&ucb(b)).expect("finite or inf")
            })
            .expect("non-empty arms")
            .clone();
        let (left_col, table_name, right_col) = chosen;
        let cand = ctx.table(table_name).expect("arm table exists");
        // An arm can be pulled several times (against an evolving state), so
        // the pull counter is mixed into the arm's identity seed — the one
        // join that does not go through `SearchContext::join_hop`.
        let hop = JoinHop {
            from_table: ctx.base_name().to_string(),
            from_column: left_col.clone(),
            to_table: table_name.to_string(),
            to_column: right_col.clone(),
            weight: 0.0,
        };
        let join_seed = mix_u64(hop_seed(seed, &[], &hop), total_pulls as u64);
        let out = match ctx
            .lake_cache()
            .left_join_normalized(&state, cand, &left_col, &right_col, table_name, join_seed)
        {
            Ok(out) => out,
            Err(e) if e.interrupt().is_some() => break,
            Err(e) => return Err(e),
        };
        total_pulls += 1;
        let r = if out.matched == 0 {
            0.0
        } else {
            reward(&out.table, &label, seed ^ total_pulls as u64)?
        };
        let key = format!("{left_col}|{table_name}|{right_col}");
        let e = pulls.entry(key).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += r;
        if r > best_reward {
            best_reward = r;
            state = out.table;
            joined.push(table_name.to_string());
        }
    }
    let fs_time = t0.elapsed();

    // Final evaluation with the requested models on the accepted state.
    let features: Vec<&str> = state
        .column_names()
        .into_iter()
        .filter(|c| *c != label)
        .collect();
    let n_features = features.len();
    let accs = evaluate_feature_set(&state, &features, &label, models, seed)?;
    Ok(MethodResult {
        method: "MAB".into(),
        accuracy_per_model: accs,
        feature_selection_time: fs_time,
        total_time: t0.elapsed(),
        n_tables_joined: joined.len(),
        n_features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::Column;

    /// Same-name keys: base.k = s1.k; s1.k2 = s2.k2 (reachable after
    /// accepting s1). s3 has a renamed key — invisible to MAB.
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
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(400 + i)).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let s3 = Table::new(
            "s3",
            vec![
                // Same values as base.k but a different name ⇒ no arm.
                ("renamed_key", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "hidden",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64 * 3.0)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, s1, s3],
            &[("base".into(), "k".into(), "s1".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn mab_accepts_useful_join() {
        let c = ctx(200);
        let r = run_mab(&c, &[ModelKind::RandomForest], 19).unwrap();
        assert_eq!(r.method, "MAB");
        assert!(r.n_tables_joined >= 1, "should accept s1");
        assert!(r.mean_accuracy() > 0.9);
    }

    #[test]
    fn mab_cannot_see_renamed_keys() {
        let c = ctx(150);
        let state = c.base_table().clone();
        let arms = find_arms(&state, &c, &[], "target");
        assert!(
            arms.iter().all(|(_, t, _)| *t != "s3"),
            "s3's renamed key must be invisible: {arms:?}"
        );
    }

    #[test]
    fn unqualified_strips_prefix() {
        assert_eq!(unqualified("s1.k2"), "k2");
        assert_eq!(unqualified("k"), "k");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ctx(150);
        let a = run_mab(&c, &[ModelKind::RandomForest], 19).unwrap();
        let b = run_mab(&c, &[ModelKind::RandomForest], 19).unwrap();
        assert_eq!(a.n_tables_joined, b.n_tables_joined);
        assert_eq!(a.accuracy_per_model, b.accuracy_per_model);
    }

    #[test]
    fn cancelled_context_skips_all_pulls() {
        let c = ctx(120);
        c.control().cancel();
        let r = run_mab(&c, &[ModelKind::RandomForest], 19).unwrap();
        assert_eq!(r.n_tables_joined, 0, "no pulls after cancellation");
    }
}
