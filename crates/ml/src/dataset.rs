//! Dataset utilities shared by the learners: NaN imputation with learned
//! feature means and feature standardization.

use autofeat_data::encode::Matrix;

/// Per-feature means learned at fit time, used to fill `NaN`s at predict
/// time so train and test see a consistent imputation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FeatureMeans {
    means: Vec<f64>,
}

impl FeatureMeans {
    /// Learn means from the training matrix (NaNs excluded; all-NaN
    /// features get 0).
    pub(crate) fn fit(data: &Matrix) -> Self {
        let means = data
            .cols
            .iter()
            .map(|col| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for &v in col {
                    if v.is_finite() {
                        sum += v;
                        n += 1;
                    }
                }
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            })
            .collect();
        FeatureMeans { means }
    }

    /// `value`, or the feature's mean where it is missing.
    pub(crate) fn imputed(&self, feature: usize, value: f64) -> f64 {
        if value.is_finite() {
            value
        } else {
            self.means[feature]
        }
    }

}

/// Z-score standardizer (mean 0, unit variance; constant features map to 0).
#[derive(Debug, Clone, Default)]
pub(crate) struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Fit a standardizer on a matrix (NaNs ignored during fitting).
pub(crate) fn standardize_fit(data: &Matrix) -> Standardizer {
    let mut means = Vec::with_capacity(data.cols.len());
    let mut stds = Vec::with_capacity(data.cols.len());
    for col in &data.cols {
        let present: Vec<f64> = col.iter().copied().filter(|v| v.is_finite()).collect();
        let n = present.len().max(1) as f64;
        let m = present.iter().sum::<f64>() / n;
        let var = present.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n;
        means.push(m);
        stds.push(if var > 0.0 { var.sqrt() } else { 1.0 });
    }
    Standardizer { means, stds }
}

impl Standardizer {
    /// Standardize a matrix; NaNs become 0 (the mean) after scaling.
    pub(crate) fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols.len(), self.means.len(), "feature count mismatch");
        let cols = data
            .cols
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(col, (&m, &s))| {
                col.iter()
                    .map(|&v| if v.is_finite() { (v - m) / s } else { 0.0 })
                    .collect()
            })
            .collect();
        Matrix { feature_names: data.feature_names.clone(), cols, labels: data.labels.clone(), n_rows: data.n_rows }
    }
}

/// Extract row `i` of a column-major matrix.
pub fn row_of(data: &Matrix, i: usize) -> Vec<f64> {
    data.cols.iter().map(|c| c[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(cols: Vec<Vec<f64>>, labels: Vec<i64>) -> Matrix {
        let n_rows = labels.len();
        Matrix {
            feature_names: (0..cols.len()).map(|i| format!("f{i}")).collect(),
            cols,
            labels,
            n_rows,
        }
    }

    #[test]
    fn means_skip_nan() {
        let m = matrix(vec![vec![1.0, f64::NAN, 3.0]], vec![0, 1, 0]);
        let fm = FeatureMeans::fit(&m);
        assert_eq!(fm.means, [2.0]);
        let filled: Vec<f64> = m.cols[0].iter().map(|&x| fm.imputed(0, x)).collect();
        assert_eq!(filled, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn all_nan_feature_gets_zero() {
        let m = matrix(vec![vec![f64::NAN, f64::NAN]], vec![0, 1]);
        let fm = FeatureMeans::fit(&m);
        assert_eq!(fm.means, [0.0]);
    }

    #[test]
    fn imputed_fills_only_missing_cells() {
        let m = matrix(vec![vec![2.0, 4.0]], vec![0, 1]);
        let fm = FeatureMeans::fit(&m);
        assert_eq!(fm.imputed(0, f64::NAN), 3.0);
        assert_eq!(fm.imputed(0, 7.0), 7.0);
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let m = matrix(vec![vec![1.0, 2.0, 3.0, 4.0]], vec![0, 0, 1, 1]);
        let s = standardize_fit(&m);
        let t = s.transform(&m);
        let mean: f64 = t.cols[0].iter().sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = t.cols[0].iter().map(|v| v * v).sum::<f64>() / 4.0;
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let m = matrix(vec![vec![7.0, 7.0]], vec![0, 1]);
        let s = standardize_fit(&m);
        let t = s.transform(&m);
        assert_eq!(t.cols[0], vec![0.0, 0.0]);
    }

    #[test]
    fn row_extraction() {
        let m = matrix(vec![vec![1.0, 2.0], vec![10.0, 20.0]], vec![0, 1]);
        assert_eq!(row_of(&m, 1), vec![2.0, 20.0]);
    }
}
