//! Random Forest: bagged CART trees with √d feature subsampling.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::encode::Matrix;

use crate::eval::{Classifier, MlError};
use crate::tree::{DecisionTree, MaxFeatures, TreeConfig};

/// A Random Forest classifier (majority vote over bootstrapped trees).
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree_config: TreeConfig,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Forest with explicit parameters.
    pub fn new(n_trees: usize, tree_config: TreeConfig, seed: u64) -> Self {
        RandomForest { n_trees, tree_config, seed, trees: Vec::new() }
    }

    /// The paper-adequate default: 30 trees, depth 10, √d features.
    pub fn default_seeded(seed: u64) -> Self {
        RandomForest::new(
            30,
            TreeConfig {
                max_depth: 10,
                max_features: MaxFeatures::Sqrt,
                n_thresholds: 16,
                ..Default::default()
            },
            seed,
        )
    }

    /// Mean impurity-based feature importance across trees (used by the
    /// ARDA baseline's random-injection selection).
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        for t in &self.trees {
            for (i, v) in t.feature_importances(n_features).into_iter().enumerate() {
                imp[i] += v;
            }
        }
        if !self.trees.is_empty() {
            for v in &mut imp {
                *v /= self.trees.len() as f64;
            }
        }
        imp
    }
}

fn bootstrap_rows(n: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| rng.random_range(0..n)).collect()
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        if data.n_rows == 0 || data.cols.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        // Trees are independent given per-tree seeds, so they fit in
        // parallel; results are identical to a sequential run because every
        // tree's RNG derives only from (ensemble seed, tree index).
        let fitted = autofeat_data::parallel::build_indexed(self.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let rows = bootstrap_rows(data.n_rows, &mut rng);
            let sample = data.select_rows(&rows);
            let mut tree = DecisionTree::new(
                self.tree_config.clone(),
                self.seed ^ (t as u64).wrapping_mul(0x9e37),
            );
            tree.fit(&sample).map(|()| tree)
        });
        self.trees = fitted.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        majority_vote(self.trees.iter().map(|t| t.predict_row(row)))
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

/// Majority vote with deterministic (smallest-label) tie-break.
pub fn majority_vote(votes: impl Iterator<Item = i64>) -> i64 {
    let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
    for v in votes {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(label, _)| label)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    fn blob_matrix(n: usize) -> Matrix {
        // Two noisy clusters separable on both features.
        let x0: Vec<f64> = (0..n)
            .map(|i| if i < n / 2 { (i % 7) as f64 * 0.1 } else { 5.0 + (i % 7) as f64 * 0.1 })
            .collect();
        let x1: Vec<f64> = (0..n)
            .map(|i| if i < n / 2 { (i % 5) as f64 * 0.1 } else { 3.0 + (i % 5) as f64 * 0.1 })
            .collect();
        let labels: Vec<i64> = (0..n).map(|i| i64::from(i >= n / 2)).collect();
        Matrix {
            feature_names: vec!["x0".into(), "x1".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: n,
        }
    }

    #[test]
    fn separable_data_learned() {
        let m = blob_matrix(100);
        let mut f = RandomForest::default_seeded(0);
        f.fit(&m).unwrap();
        assert_eq!(accuracy(&f.predict(&m), &m.labels), 1.0);
        assert!(f.is_fitted());
    }

    #[test]
    fn deterministic_per_seed() {
        let m = blob_matrix(60);
        let mut a = RandomForest::default_seeded(5);
        let mut b = RandomForest::default_seeded(5);
        a.fit(&m).unwrap();
        b.fit(&m).unwrap();
        assert_eq!(a.predict(&m), b.predict(&m));
    }

    #[test]
    fn empty_errors() {
        let m = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        assert!(RandomForest::default_seeded(0).fit(&m).is_err());
    }

    #[test]
    fn majority_vote_tie_breaks_low() {
        assert_eq!(majority_vote([1, 2].into_iter()), 1);
        assert_eq!(majority_vote([3, 3, 2].into_iter()), 3);
        assert_eq!(majority_vote(std::iter::empty()), 0);
    }

    #[test]
    fn importances_cover_used_features() {
        let m = blob_matrix(100);
        let mut f = RandomForest::default_seeded(0);
        f.fit(&m).unwrap();
        let imp = f.feature_importances(2);
        assert!(imp.iter().sum::<f64>() > 0.0);
        assert_eq!(imp.len(), 2);
    }
}
