//! Gradient-boosted decision trees with logistic loss (binary).
//!
//! Two presets stand in for the paper's boosted learners:
//!
//! * [`GbdtConfig::lightgbm_like`] — first-order gradients (unit hessians),
//!   shallow trees, higher learning rate;
//! * [`GbdtConfig::xgboost_like`] — second-order (Newton) leaf weights with
//!   an L2 regulariser λ on the leaves.
//!
//! A fit bins the training matrix once; every round grows a histogram tree
//! on the same codes and adds each leaf's value to its rows' margins as the
//! leaf is made. Predicting a matrix walks it tree by tree.

use rand::rngs::StdRng;
use rand::SeedableRng;

use autofeat_data::encode::Matrix;

use crate::bins::BinnedMatrix;
use crate::dataset::FeatureMeans;
use crate::eval::{Classifier, MlError};
use crate::tree::{Gradients, MaxFeatures, RegressionTree, TreeConfig};

/// Boosting hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Tree shape per round.
    pub tree_config: TreeConfig,
    /// Leaf L2 regulariser λ.
    pub lambda: f64,
    /// Use true hessians (Newton boosting) instead of unit hessians.
    pub second_order: bool,
}

impl GbdtConfig {
    /// LightGBM-flavoured preset.
    pub fn lightgbm_like() -> Self {
        GbdtConfig {
            n_rounds: 50,
            learning_rate: 0.1,
            tree_config: TreeConfig {
                max_depth: 4,
                min_samples_leaf: 5,
                max_features: MaxFeatures::All,
                ..Default::default()
            },
            lambda: 0.0,
            second_order: false,
        }
    }

    /// XGBoost-flavoured preset (Newton steps, λ-regularised leaves).
    pub fn xgboost_like() -> Self {
        GbdtConfig {
            n_rounds: 50,
            learning_rate: 0.3,
            tree_config: TreeConfig {
                max_depth: 4,
                min_samples_leaf: 2,
                max_features: MaxFeatures::All,
                ..Default::default()
            },
            lambda: 1.0,
            second_order: true,
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// A binary GBDT classifier.
#[derive(Debug, Clone)]
pub struct Gbdt {
    /// Hyper-parameters.
    pub config: GbdtConfig,
    seed: u64,
    base_score: f64,
    trees: Vec<RegressionTree>,
    means: FeatureMeans,
    classes: [i64; 2],
    fitted: bool,
}

impl Gbdt {
    /// Unfitted booster.
    pub fn new(config: GbdtConfig, seed: u64) -> Self {
        Gbdt {
            config,
            seed,
            base_score: 0.0,
            trees: Vec::new(),
            means: FeatureMeans::default(),
            classes: [0, 1],
            fitted: false,
        }
    }

    /// Positive-class probability of a row read feature by feature through
    /// `at`, missing cells filled with the training means.
    fn proba(&self, at: impl Fn(usize) -> f64) -> f64 {
        let at = &|j| self.means.imputed(j, at(j));
        let margin = self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.value_at(at))
                .sum::<f64>();
        sigmoid(margin)
    }

    fn class_of(&self, proba: f64) -> i64 {
        self.classes[usize::from(proba >= 0.5)]
    }

    /// Predicted probability of the positive class.
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        self.proba(|j| row[j])
    }
}

impl Classifier for Gbdt {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        if data.n_rows == 0 || data.cols.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut classes: Vec<i64> = data.labels.clone();
        classes.sort_unstable();
        classes.dedup();
        if classes.len() > 2 {
            return Err(MlError::NotBinary { n_classes: classes.len() });
        }
        self.trees.clear();
        if classes.len() == 1 {
            // Degenerate but legal: constant predictor.
            self.classes = [classes[0], classes[0]];
            self.base_score = 1e6; // always predicts the single class
            self.means = FeatureMeans::fit(data);
            self.fitted = true;
            return Ok(());
        }
        self.classes = [classes[0], classes[1]];
        let binned = BinnedMatrix::new(data);
        let y: Vec<f64> = data
            .labels
            .iter()
            .map(|&l| if l == self.classes[1] { 1.0 } else { 0.0 })
            .collect();

        let pos = y.iter().sum::<f64>() / y.len() as f64;
        self.base_score = (pos.clamp(1e-6, 1.0 - 1e-6) / (1.0 - pos.clamp(1e-6, 1.0 - 1e-6))).ln();

        let n = data.n_rows;
        let lr = self.config.learning_rate;
        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; if self.config.second_order { n } else { 0 }];
        let mut rows: Vec<u32> = Vec::with_capacity(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = p - y[i];
                if self.config.second_order {
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
            }
            // Growing a tree reorders the list; every round starts in row
            // order.
            rows.clear();
            rows.extend(0..n as u32);
            let gradients = Gradients {
                grad: &grad,
                hess: self.config.second_order.then_some(&hess[..]),
                lambda: self.config.lambda,
            };
            // A leaf's rows are exactly the rows the tree would predict its
            // value for, so the margins move without predicting.
            let tree = RegressionTree::fit(
                &binned,
                &gradients,
                &self.config.tree_config,
                &mut rows,
                &mut rng,
                |leaf_rows, value| {
                    for &r in leaf_rows {
                        margins[r as usize] += lr * value;
                    }
                },
            );
            self.trees.push(tree);
        }
        self.means = binned.means().clone();
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        self.class_of(self.predict_proba_row(row))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Tree by tree over imputed columns: each row's terms are added in tree
    /// order from `-0.0`, as `Iterator::sum` adds them in
    /// [`Gbdt::predict_proba_row`], so both give the same margin bits.
    fn predict(&self, data: &Matrix) -> Vec<i64> {
        let cols: Vec<Vec<f64>> = data
            .cols
            .iter()
            .enumerate()
            .map(|(j, col)| col.iter().map(|&x| self.means.imputed(j, x)).collect())
            .collect();
        let mut sums = vec![-0.0; data.n_rows];
        for tree in &self.trees {
            for (i, sum) in sums.iter_mut().enumerate() {
                *sum += self.config.learning_rate * tree.value_at(|j| cols[j][i]);
            }
        }
        sums.into_iter().map(|sum| self.class_of(sigmoid(self.base_score + sum))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::row_of;
    use crate::eval::accuracy;
    use rand::RngExt;

    fn xor_matrix(n: usize) -> Matrix {
        let x0: Vec<f64> = (0..n).map(|i| ((i / 2) % 2) as f64).collect();
        let x1: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| (((i / 2) % 2) ^ (i % 2)) as i64).collect();
        Matrix {
            feature_names: vec!["x0".into(), "x1".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: n,
        }
    }

    #[test]
    fn lightgbm_preset_learns_xor() {
        let m = xor_matrix(120);
        let mut g = Gbdt::new(GbdtConfig::lightgbm_like(), 0);
        g.fit(&m).unwrap();
        assert_eq!(accuracy(&g.predict(&m), &m.labels), 1.0);
    }

    #[test]
    fn xgboost_preset_learns_xor() {
        let m = xor_matrix(120);
        let mut g = Gbdt::new(GbdtConfig::xgboost_like(), 0);
        g.fit(&m).unwrap();
        assert_eq!(accuracy(&g.predict(&m), &m.labels), 1.0);
    }

    #[test]
    fn probabilities_calibrated_directionally() {
        let n = 100;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| i64::from(i >= n / 2)).collect();
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels, n_rows: n };
        let mut g = Gbdt::new(GbdtConfig::lightgbm_like(), 0);
        g.fit(&m).unwrap();
        assert!(g.predict_proba_row(&[5.0]) < 0.2);
        assert!(g.predict_proba_row(&[95.0]) > 0.8);
    }

    #[test]
    fn rejects_multiclass() {
        let m = Matrix {
            feature_names: vec!["x".into()],
            cols: vec![vec![1.0, 2.0, 3.0]],
            labels: vec![0, 1, 2],
            n_rows: 3,
        };
        let mut g = Gbdt::new(GbdtConfig::lightgbm_like(), 0);
        assert!(matches!(g.fit(&m), Err(MlError::NotBinary { n_classes: 3 })));
    }

    #[test]
    fn single_class_predicts_constant() {
        let m = Matrix {
            feature_names: vec!["x".into()],
            cols: vec![vec![1.0, 2.0]],
            labels: vec![7, 7],
            n_rows: 2,
        };
        let mut g = Gbdt::new(GbdtConfig::lightgbm_like(), 0);
        g.fit(&m).unwrap();
        assert_eq!(g.predict(&m), vec![7, 7]);
    }

    #[test]
    fn arbitrary_label_codes_preserved() {
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| if i >= n / 2 { 42 } else { -3 }).collect();
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels: labels.clone(), n_rows: n };
        let mut g = Gbdt::new(GbdtConfig::xgboost_like(), 0);
        g.fit(&m).unwrap();
        let preds = g.predict(&m);
        assert!(preds.iter().all(|&p| p == 42 || p == -3));
        assert!(accuracy(&preds, &labels) > 0.95);
    }

    #[test]
    fn nan_features_handled() {
        let n = 80;
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        x[3] = f64::NAN;
        let labels: Vec<i64> = (0..n).map(|i| i64::from(i >= n / 2)).collect();
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels, n_rows: n };
        let mut g = Gbdt::new(GbdtConfig::lightgbm_like(), 0);
        g.fit(&m).unwrap();
        let acc = accuracy(&g.predict(&m), &m.labels);
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn predict_is_predict_proba_row_thresholded() {
        let n = 300;
        let mut rng = StdRng::seed_from_u64(5);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                (0..n)
                    .map(|_| if rng.random_bool(0.1) { f64::NAN } else { rng.random_range(-1.0..1.0) })
                    .collect()
            })
            .collect();
        let labels = (0..n).map(|i| i64::from(cols[0][i] - cols[1][i] > 0.0) * 5 - 2).collect();
        let m = Matrix { feature_names: vec!["a".into(), "b".into(), "c".into()], cols, labels, n_rows: n };
        for config in [GbdtConfig::lightgbm_like(), GbdtConfig::xgboost_like()] {
            let mut g = Gbdt::new(config, 3);
            g.fit(&m).unwrap();
            let by_row: Vec<i64> = (0..n)
                .map(|i| if g.predict_proba_row(&row_of(&m, i)) >= 0.5 { 3 } else { -2 })
                .collect();
            assert_eq!(g.predict(&m), by_row);
        }
    }

    #[test]
    fn empty_errors() {
        let m = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        assert!(Gbdt::new(GbdtConfig::lightgbm_like(), 0).fit(&m).is_err());
    }
}
