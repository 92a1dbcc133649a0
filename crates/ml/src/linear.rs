//! L1-regularised logistic regression ("LR" in the paper's Figs. 5/7),
//! trained with proximal gradient descent (ISTA) on standardized features.

use autofeat_data::encode::Matrix;

use crate::dataset::{standardize_fit, Standardizer};
use crate::eval::{Classifier, MlError};

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

fn soft_threshold(w: f64, t: f64) -> f64 {
    if w > t {
        w - t
    } else if w < -t {
        w + t
    } else {
        0.0
    }
}

/// Binary logistic regression with L1 penalty.
#[derive(Debug, Clone)]
pub(crate) struct LogisticL1 {
    /// L1 strength.
    pub alpha: f64,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Number of full-batch iterations.
    pub n_iters: usize,
    scaler: Standardizer,
    weights: Vec<f64>,
    bias: f64,
    classes: [i64; 2],
    fitted: bool,
}

impl LogisticL1 {
    /// Custom configuration.
    pub(crate) fn new(alpha: f64, learning_rate: f64, n_iters: usize) -> Self {
        LogisticL1 {
            alpha,
            learning_rate,
            n_iters,
            scaler: Standardizer::default(),
            weights: Vec::new(),
            bias: 0.0,
            classes: [0, 1],
            fitted: false,
        }
    }

    /// Sensible defaults (α=0.01, lr=0.5, 200 iters).
    pub(crate) fn default_config() -> Self {
        LogisticL1::new(0.01, 0.5, 200)
    }

    /// Positive-class probability for a raw (unscaled) row.
    pub(crate) fn predict_proba_row(&self, row: &[f64]) -> f64 {
        let m = Matrix {
            feature_names: (0..row.len()).map(|i| format!("f{i}")).collect(),
            cols: row.iter().map(|&v| vec![v]).collect(),
            labels: vec![0],
            n_rows: 1,
        };
        let scaled = self.scaler.transform(&m);
        let z = self.bias
            + scaled
                .cols
                .iter()
                .zip(&self.weights)
                .map(|(c, w)| c[0] * w)
                .sum::<f64>();
        sigmoid(z)
    }
}

impl Classifier for LogisticL1 {
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
        if classes.len() == 1 {
            self.classes = [classes[0], classes[0]];
            self.weights = vec![0.0; data.cols.len()];
            self.bias = 1e6;
            self.scaler = standardize_fit(data);
            self.fitted = true;
            return Ok(());
        }
        self.classes = [classes[0], classes[1]];
        self.scaler = standardize_fit(data);
        let x = self.scaler.transform(data);
        let y: Vec<f64> = x
            .labels
            .iter()
            .map(|&l| if l == self.classes[1] { 1.0 } else { 0.0 })
            .collect();

        let n = x.n_rows as f64;
        let d = x.cols.len();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        for _ in 0..self.n_iters {
            // Full-batch gradient of the logistic loss.
            let mut probs = vec![self.bias; x.n_rows];
            for (j, col) in x.cols.iter().enumerate() {
                let w = self.weights[j];
                if w != 0.0 {
                    for (p, &v) in probs.iter_mut().zip(col) {
                        *p += w * v;
                    }
                }
            }
            for p in &mut probs {
                *p = sigmoid(*p);
            }
            let errs: Vec<f64> = probs.iter().zip(&y).map(|(p, t)| p - t).collect();
            let grad_bias = errs.iter().sum::<f64>() / n;
            self.bias -= self.learning_rate * grad_bias;
            for (j, col) in x.cols.iter().enumerate() {
                let g: f64 = col.iter().zip(&errs).map(|(v, e)| v * e).sum::<f64>() / n;
                let w = self.weights[j] - self.learning_rate * g;
                self.weights[j] = soft_threshold(w, self.learning_rate * self.alpha);
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        if self.predict_proba_row(row) >= 0.5 {
            self.classes[1]
        } else {
            self.classes[0]
        }
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    fn linear_data(n: usize) -> Matrix {
        let x0: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let x1: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % n) as f64 / n as f64).collect();
        let labels: Vec<i64> = x0.iter().map(|&v| i64::from(v > 0.5)).collect();
        Matrix {
            feature_names: vec!["signal".into(), "noise".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: n,
        }
    }

    #[test]
    fn learns_linear_boundary() {
        let m = linear_data(200);
        let mut lr = LogisticL1::default_config();
        lr.fit(&m).unwrap();
        let acc = accuracy(&lr.predict(&m), &m.labels);
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn l1_zeroes_noise_weight() {
        let m = linear_data(300);
        let mut lr = LogisticL1::new(0.05, 0.5, 400);
        lr.fit(&m).unwrap();
        assert_eq!(lr.weights[1], 0.0, "noise weight should be exactly zero");
        assert!(lr.weights[0].abs() > 0.1);
        assert_eq!(lr.weights.iter().filter(|w| **w == 0.0).count(), 1);
    }

    #[test]
    fn strong_alpha_kills_everything() {
        let m = linear_data(100);
        let mut lr = LogisticL1::new(100.0, 0.5, 100);
        lr.fit(&m).unwrap();
        assert!(lr.weights.iter().all(|w| *w == 0.0));
    }

    #[test]
    fn probabilities_monotone_in_signal() {
        let m = linear_data(200);
        let mut lr = LogisticL1::default_config();
        lr.fit(&m).unwrap();
        assert!(lr.predict_proba_row(&[0.1, 0.5]) < lr.predict_proba_row(&[0.9, 0.5]));
    }

    #[test]
    fn rejects_multiclass_and_empty() {
        let m = Matrix {
            feature_names: vec!["x".into()],
            cols: vec![vec![1.0, 2.0, 3.0]],
            labels: vec![0, 1, 2],
            n_rows: 3,
        };
        assert!(LogisticL1::default_config().fit(&m).is_err());
        let e = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        assert!(LogisticL1::default_config().fit(&e).is_err());
    }

    #[test]
    fn single_class_constant() {
        let m = Matrix {
            feature_names: vec!["x".into()],
            cols: vec![vec![1.0, 2.0]],
            labels: vec![4, 4],
            n_rows: 2,
        };
        let mut lr = LogisticL1::default_config();
        lr.fit(&m).unwrap();
        assert_eq!(lr.predict(&m), vec![4, 4]);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(2.0, 0.5), 1.5);
        assert_eq!(soft_threshold(-2.0, 0.5), -1.5);
        assert_eq!(soft_threshold(0.3, 0.5), 0.0);
    }
}
