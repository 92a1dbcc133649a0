//! Extremely Randomised Trees: no bootstrap, uniform-random split
//! thresholds — faster and higher-variance-per-tree than Random Forest.

use autofeat_data::encode::Matrix;

use crate::eval::{Classifier, MlError};
use crate::tree::{ClassTrees, MaxFeatures, TreeConfig};

/// An Extra-Trees classifier.
#[derive(Debug, Clone)]
pub(crate) struct ExtraTrees {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (random thresholds forced on).
    pub tree_config: TreeConfig,
    seed: u64,
    fitted: ClassTrees,
}

impl ExtraTrees {
    /// Explicit configuration (random thresholds are forced on).
    pub(crate) fn new(n_trees: usize, mut tree_config: TreeConfig, seed: u64) -> Self {
        tree_config.random_thresholds = true;
        ExtraTrees { n_trees, tree_config, seed, fitted: ClassTrees::default() }
    }

    /// Default: 30 trees, depth 12, √d features, random cuts.
    pub(crate) fn default_seeded(seed: u64) -> Self {
        ExtraTrees::new(
            30,
            TreeConfig {
                max_depth: 12,
                max_features: MaxFeatures::Sqrt,
                ..Default::default()
            },
            seed,
        )
    }
}

impl Classifier for ExtraTrees {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        // Whole dataset per tree (no bootstrap) — randomness comes from the
        // random thresholds and feature subsampling.
        self.fitted = ClassTrees::fit(data, &self.tree_config, self.n_trees, |t| {
            ((0..data.n_rows as u32).collect(), self.seed ^ (t as u64).wrapping_mul(0x51_7c_c1))
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

    fn stripes(n: usize) -> Matrix {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| i64::from(i >= n / 2)).collect();
        Matrix { feature_names: vec!["x".into()], cols: vec![x], labels, n_rows: n }
    }

    #[test]
    fn learns_threshold() {
        let m = stripes(200);
        let mut et = ExtraTrees::default_seeded(1);
        et.fit(&m).unwrap();
        let acc = accuracy(&et.predict(&m), &m.labels);
        assert!(acc > 0.97, "acc = {acc}");
    }

    #[test]
    fn random_thresholds_forced_on() {
        let et = ExtraTrees::new(5, TreeConfig { random_thresholds: false, ..Default::default() }, 0);
        assert!(et.tree_config.random_thresholds);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = stripes(80);
        let mut a = ExtraTrees::default_seeded(3);
        let mut b = ExtraTrees::default_seeded(3);
        a.fit(&m).unwrap();
        b.fit(&m).unwrap();
        assert_eq!(a.predict(&m), b.predict(&m));
    }

    #[test]
    fn empty_errors() {
        let m = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        assert!(ExtraTrees::default_seeded(0).fit(&m).is_err());
    }
}
