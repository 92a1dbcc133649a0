//! K-nearest-neighbours classifier on standardized features.

use autofeat_data::encode::Matrix;

use crate::dataset::{row_of, standardize_fit, Standardizer};
use crate::eval::{Classifier, MlError};
use crate::forest::majority_vote;

/// KNN with Euclidean distance over z-scored features.
#[derive(Debug, Clone)]
pub(crate) struct Knn {
    /// Number of neighbours.
    pub k: usize,
    scaler: Standardizer,
    train: Option<Matrix>,
}

impl Knn {
    /// KNN with `k` neighbours.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be >= 1");
        Knn { k, scaler: Standardizer::default(), train: None }
    }
}

impl Classifier for Knn {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        if data.n_rows == 0 || data.cols.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        self.scaler = standardize_fit(data);
        self.train = Some(self.scaler.transform(data));
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        let train = self.train.as_ref().expect("fit before predict");
        // Scale the query like the training data.
        let query_matrix = Matrix {
            feature_names: train.feature_names.clone(),
            cols: row.iter().map(|&v| vec![v]).collect(),
            labels: vec![0],
            n_rows: 1,
        };
        let scaled = self.scaler.transform(&query_matrix);
        let q: Vec<f64> = scaled.cols.iter().map(|c| c[0]).collect();

        let k = self.k.min(train.n_rows);
        // Track the k smallest distances with a simple bounded insertion
        // (k is tiny, so this beats a heap in practice).
        let mut best: Vec<(f64, i64)> = Vec::with_capacity(k + 1);
        for i in 0..train.n_rows {
            let r = row_of(train, i);
            let d: f64 = r.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
            let pos = best.partition_point(|&(bd, _)| bd <= d);
            if pos < k {
                best.insert(pos, (d, train.labels[i]));
                best.truncate(k);
            }
        }
        majority_vote(best.into_iter().map(|(_, l)| l))
    }

    fn is_fitted(&self) -> bool {
        self.train.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    fn clusters() -> Matrix {
        // Two well-separated clusters of 20 points each.
        let mut x0 = Vec::new();
        let mut x1 = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            x0.push((i % 5) as f64 * 0.1);
            x1.push((i % 4) as f64 * 0.1);
            labels.push(0);
        }
        for i in 0..20 {
            x0.push(10.0 + (i % 5) as f64 * 0.1);
            x1.push(10.0 + (i % 4) as f64 * 0.1);
            labels.push(1);
        }
        Matrix {
            feature_names: vec!["x0".into(), "x1".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: 40,
        }
    }

    #[test]
    fn classifies_clusters() {
        let m = clusters();
        let mut knn = Knn::new(3);
        knn.fit(&m).unwrap();
        assert_eq!(accuracy(&knn.predict(&m), &m.labels), 1.0);
    }

    #[test]
    fn new_point_near_cluster_gets_its_label() {
        let m = clusters();
        let mut knn = Knn::new(5);
        knn.fit(&m).unwrap();
        assert_eq!(knn.predict_row(&[0.05, 0.05]), 0);
        assert_eq!(knn.predict_row(&[10.05, 10.05]), 1);
    }

    #[test]
    fn k_larger_than_dataset_clamps() {
        let m = clusters();
        let mut knn = Knn::new(1000);
        knn.fit(&m).unwrap();
        // With all points voting equally, the tie breaks deterministically.
        let p = knn.predict_row(&[5.0, 5.0]);
        assert!(p == 0 || p == 1);
    }

    #[test]
    fn scaling_matters_for_unbalanced_features() {
        // Feature 0 has a huge irrelevant scale; feature 1 carries the
        // signal. Standardization keeps KNN usable.
        let n = 40;
        let x0: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 1e6).collect();
        let x1: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        let labels: Vec<i64> = (0..n).map(|i| i64::from(i >= n / 2)).collect();
        let m = Matrix {
            feature_names: vec!["noise".into(), "signal".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: n,
        };
        let mut knn = Knn::new(3);
        knn.fit(&m).unwrap();
        let acc = accuracy(&knn.predict(&m), &m.labels);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn empty_errors() {
        let m = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        assert!(Knn::new(3).fit(&m).is_err());
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn zero_k_panics() {
        Knn::new(0);
    }
}
