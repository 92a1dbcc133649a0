//! Per-fit feature binning for the tree learners: every column of the
//! training matrix is imputed with its mean and coded into at most
//! [`MAX_BINS`] ascending `u8` bins, once, before any tree is grown.
//!
//! A bin is a run of the sorted column that never splits equal values.
//! With at most `MAX_BINS` distinct values every value is its own bin;
//! beyond that the bins start at the first value boundary at or after each
//! equal-frequency position. The cut between two bins is the midpoint of
//! the values on either side of it, so `x ≤ cut(k) ⇔ code ≤ k` holds for
//! every binned cell and a stored threshold keeps meaning `x ≤ threshold`
//! at predict time.

use autofeat_data::encode::Matrix;

use crate::dataset::FeatureMeans;

/// Bins per feature: a code fits a `u8`, and it is LightGBM's default
/// `max_bin`.
pub const MAX_BINS: usize = 255;

#[derive(Debug, Clone)]
struct BinnedFeature {
    /// Bin of every row.
    codes: Vec<u8>,
    /// Smallest value of each bin, ascending.
    lo: Vec<f64>,
    /// Largest value of each bin, ascending.
    hi: Vec<f64>,
}

/// A training matrix coded for histogram tree growing.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    features: Vec<BinnedFeature>,
    means: FeatureMeans,
}

impl BinnedMatrix {
    /// Learn the feature means of `data`, impute with them and bin.
    pub fn new(data: &Matrix) -> Self {
        let _span = autofeat_obs::span("model_bin");
        let means = FeatureMeans::fit(data);
        let features = data
            .cols
            .iter()
            .enumerate()
            .map(|(j, col)| bin_feature(col, |x| means.imputed(j, x)))
            .collect();
        BinnedMatrix { features, means }
    }

    /// Features binned.
    pub(crate) fn n_features(&self) -> usize {
        self.features.len()
    }

    /// The means the matrix was imputed with.
    pub(crate) fn means(&self) -> &FeatureMeans {
        &self.means
    }

    /// Bins of one feature: at most [`MAX_BINS`], and none only when the
    /// matrix has no rows.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.features[feature].hi.len()
    }

    /// Bin of every row for one feature.
    pub fn codes(&self, feature: usize) -> &[u8] {
        &self.features[feature].codes
    }

    /// The upper edge of bin `k < n_bins − 1`: `x ≤ cut ⇔ code ≤ k` for
    /// every binned cell `x` of the feature.
    pub fn cut(&self, feature: usize, k: usize) -> f64 {
        let f = &self.features[feature];
        let (below, above) = (f.hi[k], f.lo[k + 1]);
        let mid = (below + above) / 2.0;
        // Between neighbouring floats the midpoint can round onto the upper
        // one, and between huge ones the sum overflows.
        if mid < above {
            mid
        } else {
            below
        }
    }

    /// Smallest and largest training value of bin `k`.
    pub(crate) fn bin_range(&self, feature: usize, k: usize) -> (f64, f64) {
        let f = &self.features[feature];
        (f.lo[k], f.hi[k])
    }

    /// How many bins of the feature lie wholly at or below `x`.
    pub(crate) fn bins_at_or_below(&self, feature: usize, x: f64) -> usize {
        self.features[feature].hi.partition_point(|&h| h <= x)
    }
}

fn bin_feature(col: &[f64], imputed: impl Fn(f64) -> f64) -> BinnedFeature {
    if col.is_empty() {
        return BinnedFeature { codes: Vec::new(), lo: Vec::new(), hi: Vec::new() };
    }
    let mut sorted: Vec<f64> = col.iter().map(|&x| imputed(x)).collect();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    // Positions where the sorted column steps to a larger value.
    let steps: Vec<usize> = (1..n).filter(|&i| sorted[i - 1] < sorted[i]).collect();
    let starts = if steps.len() < MAX_BINS {
        steps
    } else {
        let mut picked = Vec::with_capacity(MAX_BINS - 1);
        for k in 1..MAX_BINS {
            let at = steps.partition_point(|&s| s < k * n / MAX_BINS);
            if let Some(&s) = steps.get(at) {
                if picked.last() != Some(&s) {
                    picked.push(s);
                }
            }
        }
        picked
    };
    let lo = std::iter::once(0).chain(starts.iter().copied()).map(|s| sorted[s]).collect();
    let hi: Vec<f64> = starts.iter().copied().chain([n]).map(|s| sorted[s - 1]).collect();
    let codes = col.iter().map(|&x| hi.partition_point(|&h| h < imputed(x)) as u8).collect();
    BinnedFeature { codes, lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_column(col: Vec<f64>) -> BinnedMatrix {
        let n_rows = col.len();
        BinnedMatrix::new(&Matrix {
            feature_names: vec!["x".into()],
            cols: vec![col],
            labels: vec![0; n_rows],
            n_rows,
        })
    }

    #[test]
    fn few_values_get_a_bin_each_with_midpoint_cuts() {
        let b = one_column(vec![3.0, 1.0, 3.0, 7.0, f64::NAN, 1.0]);
        // The mean of the present cells is 3, so the missing one joins them.
        assert_eq!(b.codes(0), &[1, 0, 1, 2, 1, 0]);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!((b.cut(0, 0), b.cut(0, 1)), (2.0, 5.0));
        assert_eq!(b.bin_range(0, 2), (7.0, 7.0));
        assert_eq!(b.bins_at_or_below(0, 3.5), 2);
    }

    #[test]
    fn many_values_fill_the_code_width_without_splitting_ties() {
        // 1 000 distinct values, then one value repeated 1 000 times.
        let col: Vec<f64> = (0..2_000).map(|i| i.min(1_000) as f64).collect();
        let b = one_column(col.clone());
        assert!(b.n_bins(0) <= MAX_BINS && b.n_bins(0) > MAX_BINS / 2 - 1);
        let codes = b.codes(0);
        assert!(codes[1_000..].iter().all(|&c| c == codes[1_000]));
        for (i, &x) in col.iter().enumerate() {
            for k in 0..b.n_bins(0) - 1 {
                assert_eq!(x <= b.cut(0, k), usize::from(codes[i]) <= k);
            }
        }
    }

    #[test]
    fn constant_columns_are_one_bin_and_empty_ones_none() {
        assert_eq!(one_column(vec![4.0; 5]).n_bins(0), 1);
        assert_eq!(one_column(vec![f64::NAN; 5]).codes(0), &[0; 5]);
        assert_eq!(one_column(Vec::new()).n_bins(0), 0);
    }
}
