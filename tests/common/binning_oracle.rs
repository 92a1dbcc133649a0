//! Equal-frequency binning as `discretize_equal_frequency` did it before
//! bins were read off the Spearman sort (commit 343f4e3): sort the present
//! values, read the quantile boundaries at their positions, then
//! binary-search every row. It orders plain floats and never sees a row
//! order, so it shares nothing with the walk it is the reference for.

/// Largest bin count a code column holds.
const MAX_BINS: u32 = 255;

/// One bin per row (`None` for a non-finite value) and the bins used.
#[derive(Debug, PartialEq)]
pub struct Binned {
    pub codes: Vec<Option<u32>>,
    pub n_bins: u32,
}

pub fn binning_oracle(values: &[f64], n_bins: u32) -> Binned {
    assert!(n_bins >= 1);
    let n_bins = n_bins.min(MAX_BINS) as usize;
    // `-0.0 == 0.0`, under `partial_cmp` as under `dedup`.
    let mut sorted: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut distinct = sorted.clone();
    distinct.dedup();
    let bin_all = |n_used: usize, bin: &dyn Fn(f64) -> usize| Binned {
        codes: values.iter().map(|&x| x.is_finite().then(|| bin(x) as u32)).collect(),
        n_bins: n_used as u32,
    };
    if distinct.len() <= n_bins {
        // Already discrete: every value is its own bin.
        return bin_all(distinct.len(), &|x| distinct.partition_point(|&d| d < x));
    }
    let n = sorted.len();
    let mut boundaries: Vec<f64> = (1..n_bins)
        .map(|b| sorted[((b as f64 / n_bins as f64 * n as f64) as usize).clamp(1, n - 1)])
        .collect();
    boundaries.dedup();
    let bin = |x: f64| boundaries.partition_point(|&bound| bound <= x);
    // The largest value lands in the highest bin used.
    bin_all(bin(sorted[n - 1]) + 1, &bin)
}
