//! Degenerate discovery inputs must yield a clean `DiscoveryResult` (or a
//! typed error) — never a panic: empty base table, single-class label,
//! all-null candidate columns, constant features.

use autofeat::prelude::*;

fn kfk_ctx(tables: Vec<Table>) -> SearchContext {
    SearchContext::from_kfk(
        tables,
        &[("base".into(), "k".into(), "ext".into(), "k".into())],
        "base",
        "target",
    )
    .unwrap()
}

fn int_col(vals: Vec<Option<i64>>) -> Column {
    Column::from_ints(vals)
}

#[test]
fn empty_base_table_discovers_cleanly() {
    let base = Table::new(
        "base",
        vec![("k", int_col(vec![])), ("target", int_col(vec![]))],
    )
    .unwrap();
    let ext = Table::new(
        "ext",
        vec![
            ("k", int_col((0..10).map(Some).collect())),
            ("f", Column::from_floats((0..10).map(|i| Some(i as f64)).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    let r = AutoFeat::paper().discover(&ctx).unwrap();
    // A join against zero base rows is *vacuous*, not unjoinable: there is
    // no evidence the keys mismatch (`match_ratio()` is `None`), so it must
    // not be counted as a pruned-unjoinable path. It contributes no
    // features either way.
    assert_eq!(r.n_pruned_unjoinable, 0);
    assert!(r.selected_features.is_empty());
    assert!(r.ranked.iter().all(|p| p.features.is_empty()));
    assert!(r.failures.is_empty());
}

#[test]
fn single_class_label_discovers_cleanly() {
    let n = 60i64;
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            // Every row has the same class.
            ("target", int_col(vec![Some(1); n as usize])),
        ],
    )
    .unwrap();
    let ext = Table::new(
        "ext",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("f", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    // Correlation against a constant label is NaN everywhere; selection must
    // filter, ranking must stay total, and the run must complete.
    let r = AutoFeat::paper().discover(&ctx).unwrap();
    assert_eq!(r.failures.len(), 0);
    for rp in &r.ranked {
        assert!(!rp.score.is_nan() || r.ranked.len() == 1, "NaN-only ranking");
    }
}

#[test]
fn all_null_candidate_column_is_quality_pruned() {
    let n = 80i64;
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("target", int_col((0..n).map(|i| Some(i % 2)).collect())),
        ],
    )
    .unwrap();
    let ext = Table::new(
        "ext",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            // The candidate feature is null in every row.
            ("f", Column::from_floats(vec![None; n as usize])),
        ],
    )
    .unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    let r = AutoFeat::paper().discover(&ctx).unwrap();
    // Completeness of the joined-in columns is far below τ = 0.65.
    assert_eq!(r.n_pruned_quality, 1);
    assert!(r.ranked.is_empty());
    assert!(r.failures.is_empty());
}

#[test]
fn base_with_only_label_column_discovers() {
    let n = 50i64;
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("target", int_col((0..n).map(|i| Some(i % 2)).collect())),
        ],
    )
    .unwrap();
    let ext = Table::new(
        "ext",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            (
                "f",
                Column::from_floats((0..n).map(|i| Some((i % 2) as f64)).collect::<Vec<_>>()),
            ),
        ],
    )
    .unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    let r = AutoFeat::paper().discover(&ctx).unwrap();
    assert_eq!(r.ranked.len(), 1);
    assert!(r.selected_features.iter().any(|f| f == "ext.f"));
}

#[test]
fn disconnected_base_yields_empty_result() {
    let n = 30i64;
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("target", int_col((0..n).map(|i| Some(i % 2)).collect())),
        ],
    )
    .unwrap();
    // No KFK edges at all.
    let ctx = SearchContext::from_kfk(vec![base], &[], "base", "target").unwrap();
    let r = AutoFeat::paper().discover(&ctx).unwrap();
    assert!(r.ranked.is_empty());
    assert_eq!(r.n_joins_evaluated, 0);
    assert_eq!(r.truncation, None);
    assert!(r.failures.is_empty());
}

#[test]
fn regression_like_label_is_a_typed_error() {
    // 300 distinct label values: more classes than a bin code can number.
    // Must surface as an error from `discover`, before any join — not as
    // the panic `Discretized::from_codes` raises beyond `MAX_BINS`.
    let n = 300i64;
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("target", int_col((0..n).map(Some).collect())),
        ],
    )
    .unwrap();
    let ext = Table::new(
        "ext",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("f", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    let err = AutoFeat::paper().discover(&ctx).unwrap_err();
    assert_eq!(
        err,
        autofeat::data::DataError::TooManyClasses {
            column: "target".into(),
            classes: 300,
            max: autofeat::metrics::MAX_BINS as usize,
        }
    );
}

#[test]
fn a_thousand_classes_are_refused_by_the_tree_learners() {
    // `run_base` (like `run_arda`, `run_join_all` and `evaluate_feature_set`)
    // reaches the learners without passing `discover`'s class check. A tree
    // classifier keeps bins × classes counters per feature and node, so a
    // regression-like label is a typed refusal — scored 0 like any learner
    // that cannot take the task — not a table of a thousand counters per bin.
    use autofeat::ml::eval::{Classifier, MlError};
    let n = 3_000i64;
    let labels: Vec<Option<i64>> = (0..n).map(|i| Some(i % 1_000)).collect();
    let x: Vec<Option<f64>> = (0..n).map(|i| Some(((i * 7) % 13) as f64)).collect();
    let base = Table::new(
        "base",
        vec![
            ("k", int_col((0..n).map(Some).collect())),
            ("x", Column::from_floats(x.clone())),
            ("target", int_col(labels.clone())),
        ],
    )
    .unwrap();
    let ext = Table::new("ext", vec![("k", int_col((0..n).map(Some).collect()))]).unwrap();
    let ctx = kfk_ctx(vec![base, ext]);
    let r = run_base(&ctx, &ModelKind::tree_models(), 1).unwrap();
    assert_eq!(r.accuracy_per_model.len(), 4);
    assert!(r.accuracy_per_model.iter().all(|(_, acc)| *acc == 0.0), "{r:?}");

    let m = autofeat::data::encode::Matrix {
        feature_names: vec!["x".into()],
        cols: vec![x.into_iter().flatten().collect()],
        labels: labels.into_iter().flatten().collect(),
        n_rows: n as usize,
    };
    for kind in [ModelKind::RandomForest, ModelKind::ExtraTrees] {
        assert_eq!(kind.build(0).fit(&m), Err(MlError::TooManyClasses { n_classes: 1_000 }));
    }
    let mut tree = autofeat::ml::DecisionTree::new(Default::default(), 0);
    assert_eq!(tree.fit(&m), Err(MlError::TooManyClasses { n_classes: 1_000 }));
}
