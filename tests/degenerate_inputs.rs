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
