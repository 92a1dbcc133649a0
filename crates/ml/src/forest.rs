//! Random Forest: bagged CART trees with √d feature subsampling.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::encode::Matrix;

use crate::eval::{Classifier, MlError};
pub(crate) use crate::tree::majority_vote;
use crate::tree::{ClassTrees, MaxFeatures, TreeConfig};

/// A Random Forest classifier (majority vote over bootstrapped trees).
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree_config: TreeConfig,
    seed: u64,
    fitted: ClassTrees,
}

impl RandomForest {
    /// Forest with explicit parameters.
    pub(crate) fn new(n_trees: usize, tree_config: TreeConfig, seed: u64) -> Self {
        RandomForest { n_trees, tree_config, seed, fitted: ClassTrees::default() }
    }

    /// The paper-adequate default: 30 trees, depth 10, √d features.
    pub fn default_seeded(seed: u64) -> Self {
        RandomForest::new(
            30,
            TreeConfig { max_depth: 10, max_features: MaxFeatures::Sqrt, ..Default::default() },
            seed,
        )
    }

    /// Mean impurity-based feature importance across trees (used by the
    /// ARDA baseline's random-injection selection).
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        self.fitted.feature_importances(n_features)
    }
}

fn bootstrap_rows(n: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..n).map(|_| rng.random_range(0..n) as u32).collect()
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        // Every tree's bootstrap sample and RNG derive only from (ensemble
        // seed, tree index), so the parallel fit equals a sequential one.
        self.fitted = ClassTrees::fit(data, &self.tree_config, self.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            (bootstrap_rows(data.n_rows, &mut rng), self.seed ^ (t as u64).wrapping_mul(0x9e37))
        })?;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        self.fitted.predict_row(row)
    }

    fn is_fitted(&self) -> bool {
        self.fitted.is_fitted()
    }

    fn predict(&self, data: &Matrix) -> Vec<i64> {
        self.fitted.predict(data)
    }
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

    /// One imputation per ensemble: a missing cell is filled with the mean
    /// of the training matrix, not with each tree's own bootstrap mean (or 0
    /// where a sample held no present value).
    #[test]
    fn a_missing_cell_predicts_as_the_training_mean_written_in() {
        // The only feature is present in 3 of 200 rows, and those are the
        // positives. Their mean, 0, is itself a present value.
        let n = 200;
        let mut x = vec![f64::NAN; n];
        (x[17], x[90], x[151]) = (-100.0, 0.0, 100.0);
        let labels: Vec<i64> = x.iter().map(|v| i64::from(v.is_finite())).collect();
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels, n_rows: n };
        // A forest of one tree has no vote to hide a private mean behind.
        let mut models: Vec<Box<dyn Classifier>> = (0..12)
            .map(|seed| Box::new(RandomForest::new(1, TreeConfig::default(), seed)) as _)
            .collect();
        models.push(Box::new(RandomForest::default_seeded(0)));
        models.push(Box::new(crate::extra::ExtraTrees::default_seeded(0)));
        for model in &mut models {
            model.fit(&m).unwrap();
            assert_eq!(model.predict_row(&[f64::NAN]), model.predict_row(&[0.0]));
            // 197 of the 198 training rows at the mean are negatives.
            assert_eq!(model.predict_row(&[f64::NAN]), 0);
        }
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
