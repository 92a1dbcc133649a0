//! The JoinAll / JoinAll+F baselines: join every reachable table, train on
//! the resulting wide table — with the Eq. 3 feasibility guard.
//!
//! The paper shows that on non-1:1, non-KFK schemata the number of possible
//! JoinAll orderings is `P = Π_d Π_{v∈N(d)} k(v)!` (Eq. 3), which explodes
//! (15! on the school dataset), so JoinAll results are omitted whenever `P`
//! exceeds a budget. We materialize a single canonical (BFS) ordering when
//! feasible, which is exactly what a 1:1 KFK JoinAll degenerates to.

use std::time::Instant;

use autofeat_data::encode::label_encode_column;
use autofeat_data::Result;
use autofeat_graph::traversal::join_all_path_count;
use autofeat_metrics::relevance::RelevanceMethod;
use autofeat_metrics::selection::select_k_best;
use autofeat_ml::eval::ModelKind;

use super::bfs_join;
use crate::context::SearchContext;
use crate::report::MethodResult;
use crate::train::evaluate_feature_set;

/// Feasibility budget on the Eq. 3 ordering count; above it the run is
/// skipped (the paper's "did not finish within the time constraint").
const MAX_ORDERINGS: f64 = 1e7;
/// Features the filter keeps (the paper's κ).
const FILTER_KAPPA: usize = 15;

/// Run JoinAll (or JoinAll+F when `filter`). Returns `None` when the Eq. 3 ordering count exceeds the
/// budget.
pub fn run_join_all(
    ctx: &SearchContext,
    models: &[ModelKind],
    filter: bool,
    seed: u64,
) -> Result<Option<MethodResult>> {
    let _span = autofeat_obs::span("baseline_join_all");
    let _scope = autofeat_data::RequestScope::with_ctl(ctx.control()).enter();
    let t0 = Instant::now();
    let drg = ctx.drg();
    let Some(base_node) = drg.node(ctx.base_name()) else {
        return Ok(None);
    };
    let orderings = join_all_path_count(drg, base_node);
    if orderings > MAX_ORDERINGS {
        return Ok(None);
    }

    let label = ctx.label().to_string();

    // One canonical (BFS) ordering.
    let (table, joined) = bfs_join(ctx, seed, None)?;

    // Optional filter selection (+F): select-κ-best Spearman on the wide
    // table — "less than one second, since it performs feature selection
    // once for a single wide table".
    let all_features: Vec<String> = table
        .column_names()
        .into_iter()
        .filter(|c| *c != label)
        .map(String::from)
        .collect();
    let fs_start = Instant::now();
    let selected: Vec<String> = if filter {
        let labels: Vec<i64> = {
            let col = label_encode_column(table.column(&label)?);
            (0..col.len())
                .map(|i| col.get_f64(i).map_or(-1, |v| v as i64))
                .collect()
        };
        let data: Vec<Vec<f64>> = all_features
            .iter()
            .map(|f| label_encode_column(table.column(f).expect("listed")).to_f64_lossy())
            .collect();
        let picked = select_k_best(&data, &labels, RelevanceMethod::Spearman, FILTER_KAPPA, 0.0);
        picked
            .into_iter()
            .map(|s| all_features[s.index].clone())
            .collect()
    } else {
        all_features.clone()
    };
    let fs_time = fs_start.elapsed();

    let refs: Vec<&str> = selected.iter().map(String::as_str).collect();
    let accs = evaluate_feature_set(&table, &refs, &label, models, seed)?;
    Ok(Some(MethodResult {
        method: if filter { "JoinAll+F".into() } else { "JoinAll".into() },
        accuracy_per_model: accs,
        feature_selection_time: fs_time,
        total_time: t0.elapsed(),
        n_tables_joined: joined.len(),
        n_features: selected.len(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::{Column, Table};

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
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(300 + i)).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        // Sixteen noise columns: more candidates than the filter's κ keeps.
        let k2 = Column::from_ints((0..n as i64).map(|i| Some(300 + i)).collect::<Vec<_>>());
        let mut s2_cols = vec![("k2".to_string(), k2)];
        for j in 0..16 {
            let noise = (0..n).map(|i| Some(((i * (7 + j)) % (13 + j)) as f64));
            s2_cols.push((format!("noise{j:02}"), Column::from_floats(noise.collect::<Vec<_>>())));
        }
        let s2 = Table::new("s2", s2_cols).unwrap();
        SearchContext::from_kfk(
            vec![base, s1, s2],
            &[
                ("base".into(), "k".into(), "s1".into(), "k".into()),
                ("s1".into(), "k2".into(), "s2".into(), "k2".into()),
            ],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn join_all_joins_everything() {
        let c = ctx(200);
        let r = run_join_all(&c, &[ModelKind::RandomForest], false, 29)
            .unwrap()
            .expect("feasible");
        assert_eq!(r.method, "JoinAll");
        assert_eq!(r.n_tables_joined, 2);
        assert!(r.mean_accuracy() > 0.9);
        // No selection: all non-label columns used.
        assert!(r.n_features >= 5);
    }

    #[test]
    fn filter_variant_selects_subset() {
        let c = ctx(200);
        let r = run_join_all(&c, &[ModelKind::RandomForest], true, 29)
            .unwrap()
            .expect("feasible");
        assert_eq!(r.method, "JoinAll+F");
        assert_eq!(r.n_features, 15);
        assert!(r.mean_accuracy() > 0.9, "the signal must survive filtering");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ctx(150);
        let a = run_join_all(&c, &[ModelKind::RandomForest], false, 29)
            .unwrap()
            .unwrap();
        let b = run_join_all(&c, &[ModelKind::RandomForest], false, 29)
            .unwrap()
            .unwrap();
        assert_eq!(a.accuracy_per_model, b.accuracy_per_model);
    }

    #[test]
    fn cancelled_context_stops_bfs_before_joining() {
        let c = ctx(120);
        c.control().cancel();
        let r = run_join_all(&c, &[ModelKind::RandomForest], false, 29)
            .unwrap()
            .expect("feasible");
        assert_eq!(r.n_tables_joined, 0);
    }
}
