//! The histogram tree grower against the exact split finder it replaced
//! (`common::tree_oracle`, the parent commit's code over a plain matrix).
//!
//! Wherever every feature has at most `MAX_BINS` distinct values the two
//! are **the same tree** on the rows it was fitted on: same features, same
//! shape, same leaves, thresholds that divide the fitted rows identically
//! (the reference cuts at the midpoint of the node's neighbouring values,
//! the grower at the lowest global bin edge between them — they part ways
//! only on unseen rows that fall into the gap). Beyond `MAX_BINS` distinct
//! values the cut points are per-fit instead of per-node, no tree equality
//! is claimed, and what is checked is the binning itself.

mod common;

use common::tree_oracle as oracle;

use autofeat::data::encode::Matrix;
use autofeat::ml::bins::{BinnedMatrix, MAX_BINS};
use autofeat::ml::dataset::row_of;
use autofeat::ml::eval::{Classifier, ModelKind};
use autofeat::ml::gbdt::{Gbdt, GbdtConfig};
use autofeat::ml::tree::{
    DecisionTree, Gradients, MaxFeatures, Node, RegressionTree, TreeConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `data` with every missing cell replaced by its column's mean over the
/// present cells (0 for a column with none) — restated here so that the
/// reference is handed a plain matrix.
fn imputed(data: &Matrix) -> Matrix {
    let mut out = data.clone();
    for col in &mut out.cols {
        let present: Vec<f64> = col.iter().copied().filter(|v| v.is_finite()).collect();
        let mean = if present.is_empty() {
            0.0
        } else {
            present.iter().sum::<f64>() / present.len() as f64
        };
        for v in col.iter_mut().filter(|v| !v.is_finite()) {
            *v = mean;
        }
    }
    out
}

/// A matrix whose features each hold at most `MAX_BINS` distinct values:
/// constant, all-missing, few-valued and many-valued columns with missing
/// cells, and `n_classes` labels that follow the first features through
/// noise.
fn few_valued_matrix(rng: &mut StdRng, n_rows: usize, n_features: usize, n_classes: i64) -> Matrix {
    let cols: Vec<Vec<f64>> = (0..n_features)
        .map(|j| {
            let kind = rng.random_range(0..8usize);
            let distinct = match kind {
                0 => 1,
                1..=4 => rng.random_range(2..13usize),
                _ => rng.random_range(13..MAX_BINS),
            };
            let scale = 0.37 * (j + 1) as f64;
            (0..n_rows)
                .map(|_| {
                    let v = rng.random_range(0..distinct) as f64 * scale - 3.0;
                    if kind == 7 || rng.random_bool(0.04) {
                        f64::NAN
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    let labels = (0..n_rows)
        .map(|i| {
            let signal: f64 = cols.iter().take(3).map(|c| if c[i].is_finite() { c[i] } else { 0.0 }).sum();
            ((signal + rng.random_range(-1.0..1.0f64)).abs() * 1.7) as i64 % n_classes
        })
        .collect();
    Matrix {
        feature_names: (0..n_features).map(|j| format!("f{j}")).collect(),
        cols,
        labels,
        n_rows,
    }
}

/// Every row once, or a bootstrap sample with repeats and gaps.
fn row_list(rng: &mut StdRng, n_rows: usize) -> Vec<u32> {
    if rng.random_bool(0.5) {
        (0..n_rows as u32).collect()
    } else {
        (0..n_rows).map(|_| rng.random_range(0..n_rows) as u32).collect()
    }
}

struct Shape {
    max_depth: usize,
    min_samples_split: usize,
    min_samples_leaf: usize,
    sqrt_features: bool,
    random_thresholds: bool,
}

impl Shape {
    fn draw(rng: &mut StdRng) -> Shape {
        Shape {
            max_depth: rng.random_range(0..13usize),
            min_samples_split: [2, 2, 5, 12][rng.random_range(0..4usize)],
            min_samples_leaf: [1, 1, 2, 5][rng.random_range(0..4usize)],
            sqrt_features: rng.random_bool(0.4),
            random_thresholds: rng.random_bool(0.25),
        }
    }

    fn grower(&self) -> TreeConfig {
        TreeConfig {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_features: if self.sqrt_features { MaxFeatures::Sqrt } else { MaxFeatures::All },
            random_thresholds: self.random_thresholds,
        }
    }

    /// The reference with its threshold cap lifted to the code width, so
    /// that it too looks at every midpoint.
    fn reference(&self) -> oracle::Config {
        oracle::Config {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            min_samples_leaf: self.min_samples_leaf,
            max_features: if self.sqrt_features {
                oracle::MaxFeatures::Sqrt
            } else {
                oracle::MaxFeatures::All
            },
            n_thresholds: MAX_BINS,
            random_thresholds: self.random_thresholds,
        }
    }
}

/// Same arena: feature, children and leaf value node by node; thresholds
/// are compared through the rows they divide.
fn assert_same_skeleton(grown: &[Node], reference: &[oracle::Node]) -> Result<(), String> {
    prop_assert_eq!(grown.len(), reference.len());
    for (i, (g, r)) in grown.iter().zip(reference).enumerate() {
        match (g, r) {
            (Node::Leaf { value: a }, oracle::Node::Leaf { value: b }) => {
                prop_assert!(a.to_bits() == b.to_bits(), "leaf {i}: {a} against {b}");
            }
            (
                Node::Split { feature: fa, left: la, right: ra, .. },
                oracle::Node::Split { feature: fb, left: lb, right: rb, .. },
            ) => prop_assert!((fa, la, ra) == (fb, lb, rb), "split {i} differs: {g:?} against {r:?}"),
            _ => prop_assert!(false, "node {i} is a leaf on one side only"),
        }
    }
    Ok(())
}

proptest! {
    /// Classification trees over row lists with repeats, constant and
    /// all-missing features, 2–6 classes, every stopping rule, feature
    /// sampling and random thresholds.
    #[test]
    fn decision_tree_is_the_reference_tree(seed in 1u64..u64::MAX, n_rows in 12usize..160, n_features in 1usize..8, n_classes in 2i64..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = few_valued_matrix(&mut rng, n_rows, n_features, n_classes);
        let rows = row_list(&mut rng, n_rows);
        let shape = Shape::draw(&mut rng);

        let mut tree = DecisionTree::new(shape.grower(), seed);
        tree.fit_rows(&data, &rows).unwrap();
        let plain = imputed(&data);
        let rows_usize: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let reference = oracle::fit_classifier(&plain, &rows_usize, &shape.reference(), seed);

        assert_same_skeleton(tree.nodes(), &reference.nodes)?;
        let predicted = tree.predict(&data);
        for &r in &rows_usize {
            let want = reference.predict_value(&row_of(&plain, r)) as i64;
            prop_assert!(predicted[r] == want, "row {r}: {} against {want}", predicted[r]);
            prop_assert_eq!(predicted[r], tree.predict_row(&row_of(&data, r)));
        }
    }

    /// Regression trees on dyadic-rational gradients and hessians, whose
    /// sums are exact in any order: the same structure and the same leaf
    /// for every fitted row, under first- and second-order statistics.
    #[test]
    fn regression_tree_is_the_reference_tree(seed in 1u64..u64::MAX, n_rows in 12usize..160, n_features in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plain = imputed(&few_valued_matrix(&mut rng, n_rows, n_features, 2));
        let mut rows = row_list(&mut rng, n_rows);
        let shape = Shape { random_thresholds: false, ..Shape::draw(&mut rng) };
        let grad: Vec<f64> = (0..n_rows).map(|_| rng.random_range(-128..129i64) as f64 / 64.0).collect();
        let second_order = rng.random_bool(0.5);
        let hess: Vec<f64> = (0..n_rows)
            .map(|_| if second_order { rng.random_range(1..33i64) as f64 / 16.0 } else { 1.0 })
            .collect();
        let lambda = f64::from(rng.random_range(0..2u32));

        let rows_usize: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let reference = oracle::fit_regressor(
            &plain, &grad, &hess, &shape.reference(), lambda, &rows_usize, &mut StdRng::seed_from_u64(seed),
        );
        let mut leaves = vec![f64::NAN; n_rows];
        let tree = RegressionTree::fit(
            &BinnedMatrix::new(&plain),
            &Gradients { grad: &grad, hess: second_order.then_some(&hess[..]), lambda },
            &shape.grower(),
            &mut rows,
            &mut StdRng::seed_from_u64(seed),
            |leaf_rows, value| leaf_rows.iter().for_each(|&r| leaves[r as usize] = value),
        );

        assert_same_skeleton(tree.nodes(), &reference.nodes)?;
        for &r in &rows_usize {
            let want = reference.predict_value(&row_of(&plain, r));
            let got = tree.predict_row(&row_of(&plain, r));
            prop_assert!(got.to_bits() == want.to_bits(), "row {r}: {got} against {want}");
            // What the leaf callback was told is what predicting returns.
            prop_assert!(leaves[r].to_bits() == want.to_bits(), "row {r}: the leaf callback said {}", leaves[r]);
        }
    }

    /// Past `MAX_BINS` distinct values: codes are monotone in the value,
    /// equal values share a code, every cut lies strictly between the
    /// values on its two sides, and `x ≤ cut(k) ⇔ code ≤ k` on every cell.
    #[test]
    fn binning_keeps_the_edge_rule(seed in 1u64..u64::MAX, n_rows in 300usize..1500, tie_pct in 0u64..90) {
        let mut rng = StdRng::seed_from_u64(seed);
        let heavy = rng.random_range(-50.0..50.0);
        let col: Vec<f64> = (0..n_rows)
            .map(|_| match rng.random_range(0..100u64) {
                p if p < tie_pct => heavy,
                p if p < tie_pct + 3 => f64::NAN,
                _ => (rng.random_range(-50.0..50.0f64) * 64.0).round() / 64.0,
            })
            .collect();
        let data = Matrix { feature_names: vec!["x".into()], cols: vec![col], labels: vec![0; n_rows], n_rows };
        let binned = BinnedMatrix::new(&data);
        let (values, codes, n_bins) = (&imputed(&data).cols[0], binned.codes(0), binned.n_bins(0));
        prop_assert!((1..=MAX_BINS).contains(&n_bins));

        let mut order: Vec<usize> = (0..n_rows).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            prop_assert!(codes[a] <= codes[b], "codes fall as values rise");
            prop_assert!(values[a] != values[b] || codes[a] == codes[b], "a tie straddles a cut");
        }
        prop_assert_eq!(usize::from(codes[order[n_rows - 1]]), n_bins - 1);
        for k in 0..n_bins - 1 {
            let cut = binned.cut(0, k);
            let below = (0..n_rows).filter(|&i| usize::from(codes[i]) <= k).map(|i| values[i]).fold(f64::MIN, f64::max);
            let above = (0..n_rows).filter(|&i| usize::from(codes[i]) > k).map(|i| values[i]).fold(f64::MAX, f64::min);
            prop_assert!(below < cut && cut < above, "cut {} = {} is not inside ({}, {})", k, cut, below, above);
            for i in 0..n_rows {
                prop_assert_eq!(values[i] <= cut, usize::from(codes[i]) <= k);
            }
        }
    }
}

/// 800 rows × 7 twelve-valued features, labels following three of them
/// through noise: few enough values that the parent commit's 32-threshold
/// cap never bit, so its learners are the reference on it.
fn pinned_fixture() -> Matrix {
    let mut rng = StdRng::seed_from_u64(0xA070_FEA7);
    let (n, d) = (800usize, 7usize);
    let raw: Vec<Vec<i64>> =
        (0..d).map(|_| (0..n).map(|_| rng.random_range(0..12i64)).collect()).collect();
    let labels = (0..n)
        .map(|i| {
            let signal = (raw[0][i] + raw[1][i] - raw[2][i]) as f64 + rng.random_range(-3.0..3.0);
            i64::from(signal > 5.5)
        })
        .collect();
    let cols = raw
        .iter()
        .enumerate()
        .map(|(j, col)| col.iter().map(|&v| v as f64 * 0.25 * (j + 1) as f64 - 1.0).collect())
        .collect();
    Matrix { feature_names: (0..d).map(|j| format!("f{j}")).collect(), cols, labels, n_rows: n }
}

/// FNV-1a over the words' little-endian bytes.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// FNV-1a over the predictions' bytes.
fn digest(predictions: &[i64]) -> u64 {
    fnv(predictions.iter().map(|&p| p as u64))
}

/// Training-row predictions of `ModelKind::build(7)` on the pinned fixture,
/// printed by the learners of commit a99bae0 before any of them changed.
const AT_PARENT: [(ModelKind, u64); 4] = [
    (ModelKind::LightGbm, 0xcdb7_bdfc_3ae0_5024),
    (ModelKind::XgBoost, 0x1e6d_678c_b529_0925),
    (ModelKind::RandomForest, 0x1e6d_678c_b529_0925),
    (ModelKind::ExtraTrees, 0xc3dc_7860_a381_8884),
];

/// All four learners predict the fixture's training rows as the parent
/// commit's did. A fit has no state but its seed, so the literal also pins
/// it across runs and — with CI running this suite at `AUTOFEAT_THREADS` 1
/// and 4 — across worker counts.
#[test]
fn learners_predict_the_fixture_as_the_parent_commit_did() {
    let data = pinned_fixture();
    for (kind, want) in AT_PARENT {
        let mut model = kind.build(7);
        model.fit(&data).unwrap();
        let predicted = model.predict(&data);
        assert_eq!(digest(&predicted), want, "{} left the parent's predictions", kind.name());
        let by_row: Vec<i64> = (0..data.n_rows).map(|i| model.predict_row(&row_of(&data, i))).collect();
        assert_eq!(predicted, by_row, "{}: predict and predict_row disagree", kind.name());
        let mut again = kind.build(7);
        again.fit(&data).unwrap();
        assert_eq!(again.predict(&data), predicted, "{}: a second fit differs", kind.name());
    }
}

/// 2 400 rows × 8 continuous features, as a materialized join path hands
/// them to training: four base columns with a few missing cells, then four
/// joined columns that are missing together on the rows whose key found no
/// match. Every feature has far more than `MAX_BINS` distinct values, so
/// the bins are equal-frequency edges and boosting sums float gradients.
fn many_valued_fixture() -> Matrix {
    let mut rng = StdRng::seed_from_u64(0x5A0F_1A4E);
    let (n, d) = (2_400usize, 8usize);
    let unmatched: Vec<bool> = (0..n).map(|_| rng.random_bool(0.15)).collect();
    let raw: Vec<Vec<f64>> = (0..d)
        .map(|j| (0..n).map(|_| rng.random_range(-1.0..1.0f64) * (j + 1) as f64).collect())
        .collect();
    let labels = (0..n)
        .map(|i| {
            let joined = if unmatched[i] { 0.0 } else { raw[5][i] / 6.0 - raw[6][i] / 7.0 };
            let signal = raw[0][i] + raw[1][i] / 2.0 - raw[2][i] / 3.0 + joined;
            i64::from(signal + rng.random_range(-0.8..0.8) > 0.0)
        })
        .collect();
    let cols = raw
        .into_iter()
        .enumerate()
        .map(|(j, col)| {
            col.into_iter()
                .enumerate()
                .map(|(i, v)| {
                    let missing = if j < 4 { rng.random_bool(0.02) } else { unmatched[i] };
                    if missing {
                        f64::NAN
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    Matrix { feature_names: (0..d).map(|j| format!("f{j}")).collect(), cols, labels, n_rows: n }
}

/// On the many-valued fixture, fitted with seed 7 and predicted on its
/// training rows: the class digest of every learner, and for the boosted
/// presets the digest of every row's `predict_proba_row` bits. Printed by
/// the learners of commit a0b8a90 before their inner loops were rewritten.
const MANY_VALUED_AT_PARENT: [(ModelKind, u64, Option<u64>); 4] = [
    (ModelKind::LightGbm, 0x7217_a029_e460_2bc5, Some(0xc643_09df_e883_219d)),
    (ModelKind::XgBoost, 0xd86d_cbc1_c4dd_27a5, Some(0xee7b_ebce_a9dd_1bbc)),
    (ModelKind::RandomForest, 0x1612_d9c8_814d_3c84, None),
    (ModelKind::ExtraTrees, 0x630e_bfc9_0ad2_b8c4, None),
];

/// Past `MAX_BINS` distinct values no tree equals the exact finder's, so
/// the literals are what holds the learners still there: float-gradient
/// boosting to the bit of every probability, the ensembles to every class.
#[test]
fn learners_predict_the_many_valued_fixture_as_the_parent_commit_did() {
    let data = many_valued_fixture();
    for (kind, want, want_proba) in MANY_VALUED_AT_PARENT {
        let mut model = kind.build(7);
        model.fit(&data).unwrap();
        let predicted = model.predict(&data);
        let proba = match kind {
            ModelKind::LightGbm | ModelKind::XgBoost => {
                let config = if kind == ModelKind::LightGbm {
                    GbdtConfig::lightgbm_like()
                } else {
                    GbdtConfig::xgboost_like()
                };
                let mut gbdt = Gbdt::new(config, 7);
                gbdt.fit(&data).unwrap();
                assert_eq!(gbdt.predict(&data), predicted, "{}: the preset is not ModelKind's", kind.name());
                Some(fnv((0..data.n_rows).map(|i| gbdt.predict_proba_row(&row_of(&data, i)).to_bits())))
            }
            _ => None,
        };
        assert_eq!(digest(&predicted), want, "{} left the parent's predictions", kind.name());
        assert_eq!(proba, want_proba, "{} left the parent's probabilities", kind.name());
    }
}

/// The reference boosting loop is the parent's: it reproduces the same two
/// literals, so the oracle the proptests lean on has not drifted from the
/// code it was copied from.
#[test]
fn reference_boosting_reproduces_the_parent_literals() {
    let data = pinned_fixture();
    let tree = |min_samples_leaf| oracle::Config {
        max_depth: 4,
        min_samples_split: 2,
        min_samples_leaf,
        max_features: oracle::MaxFeatures::All,
        n_thresholds: 32,
        random_thresholds: false,
    };
    let lightgbm_like = oracle::Boosting {
        n_rounds: 50,
        learning_rate: 0.1,
        tree: tree(5),
        lambda: 0.0,
        second_order: false,
    };
    let xgboost_like = oracle::Boosting {
        n_rounds: 50,
        learning_rate: 0.3,
        tree: tree(2),
        lambda: 1.0,
        second_order: true,
    };
    for (cfg, (kind, want)) in [lightgbm_like, xgboost_like].iter().zip(AT_PARENT) {
        let predicted = oracle::boosted_training_predictions(&data, cfg, 7);
        assert_eq!(digest(&predicted), want, "the reference {} drifted", kind.name());
    }
}
