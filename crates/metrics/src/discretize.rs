//! Discretization of continuous features for entropy estimation.
//!
//! Mutual-information estimators operate on discrete codes. Continuous
//! features are binned with equal-frequency binning (robust to skew).
//! Missing values
//! (`NaN`) get the column's own extra bin `n_bins`, which the estimators fill
//! like any other and leave out when they read the table (pairwise deletion).
//! Every feature also carries its rows per bin, missing bin last: a table
//! between two whole features takes its marginals from them, less the
//! table's own missing column or row, instead of summing its cells.

use crate::ranks::{sort_key, sorted_order};

/// Stored width of one bin code.
pub(crate) type Code = u8;

/// Largest bin count a [`Discretized`] can hold: codes `0..n_bins` plus the
/// missing bin `n_bins` must all fit a one-byte code.
pub const MAX_BINS: u32 = Code::MAX as u32;

/// A discretized feature: one dense code per row, the rows of each code and
/// the number of bins actually used. Present rows hold `0..n_bins`, missing
/// rows hold `n_bins` — so every code indexes an `n_bins + 1`-wide
/// contingency axis without a branch. The fields are private because the
/// kernels index with them unchecked by any `Option`: the constructors are
/// the only place a code is made, and they keep `code <= n_bins <= MAX_BINS`
/// and `counts[c]` the number of rows holding `c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discretized {
    codes: Vec<Code>,
    /// Rows per code, `n_bins + 1` of them: the missing bin is last.
    counts: Box<[u32]>,
    n_bins: u32,
}

impl Discretized {
    /// Build directly from integer-like codes (used for already-discrete
    /// features such as class labels). Codes are compacted to `0..k`.
    ///
    /// # Panics
    /// When there are more than [`MAX_BINS`] distinct values.
    pub fn from_codes<I: IntoIterator<Item = Option<i64>>>(iter: I) -> Self {
        let raw: Vec<Option<i64>> = iter.into_iter().collect();
        let mut distinct: Vec<i64> = raw.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= MAX_BINS as usize,
            "{} distinct codes exceed MAX_BINS ({MAX_BINS})",
            distinct.len()
        );
        let missing = distinct.len() as Code;
        let codes = raw
            .iter()
            .map(|v| v.map_or(missing, |x| distinct.binary_search(&x).expect("value present") as Code))
            .collect();
        Discretized::counted(codes, distinct.len() as u32)
    }

    /// `codes` over `n_bins` bins, with the rows of each code counted.
    fn counted(codes: Vec<Code>, n_bins: u32) -> Self {
        let mut counts = vec![0u32; n_bins as usize + 1];
        for &c in &codes {
            counts[c as usize] += 1;
        }
        Discretized { codes, counts: counts.into_boxed_slice(), n_bins }
    }

    /// Bin every finite value with `bin` (which must stay below `n_bins`);
    /// non-finite values get the missing bin.
    fn from_values(values: &[f64], n_bins: u32, bin: impl Fn(f64) -> usize) -> Self {
        debug_assert!(n_bins <= MAX_BINS);
        let missing = n_bins as Code;
        let codes = values
            .iter()
            .map(|&x| if x.is_finite() { bin(x) as Code } else { missing })
            .collect();
        Discretized::counted(codes, n_bins)
    }

    /// The rows in `rows`, in that order, over the same bins.
    pub(crate) fn gather(&self, rows: &[usize]) -> Self {
        Discretized::counted(rows.iter().map(|&i| self.codes[i]).collect(), self.n_bins)
    }

    /// Number of distinct bins (present codes are in `0..n_bins`).
    pub fn n_bins(&self) -> u32 {
        self.n_bins
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The bin of `row`, `None` when the value is missing.
    pub fn code(&self, row: usize) -> Option<u32> {
        let c = u32::from(self.codes[row]);
        (c < self.n_bins).then_some(c)
    }

    /// Number of non-missing entries.
    pub fn n_present(&self) -> usize {
        self.codes.len() - self.counts[self.n_bins as usize] as usize
    }

    /// Rows per code, `n_bins + 1` of them, the missing bin last.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The dense codes: `n_bins` marks a missing row.
    pub(crate) fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// The dense codes and the width of the contingency axis they index.
    pub(crate) fn axis(&self) -> (&[Code], usize) {
        (&self.codes, self.n_bins as usize + 1)
    }
}

/// The distinct finite values, sorted ascending — or `None` as soon as more
/// than `cap` distinct values have been seen. The early exit is the point:
/// high-cardinality columns (the common case for continuous features) bail
/// after scanning at most `cap + 1` distinct values instead of paying a full
/// sort + dedup of the column, and the quantile path then performs the only
/// sort. The buffer never holds more than `cap + 1` values, so a binary
/// search per row beats hashing it. `-0.0` and `0.0` compare equal and share
/// an entry.
fn distinct_capped(values: &[f64], cap: usize) -> Option<Vec<f64>> {
    let mut seen: Vec<f64> = Vec::with_capacity(cap.saturating_add(1));
    for &x in values {
        if !x.is_finite() {
            continue;
        }
        let at = seen.partition_point(|&d| d < x);
        if seen.get(at) != Some(&x) {
            if seen.len() == cap {
                return None;
            }
            seen.insert(at, if x == 0.0 { 0.0 } else { x });
        }
    }
    Some(seen)
}

/// Equal-frequency (quantile) binning into at most `n_bins` bins (and never
/// more than [`MAX_BINS`]).
///
/// When the feature has ≤ `n_bins` distinct values it is treated as already
/// discrete and each value gets its own bin. Identical values always share a
/// bin (boundaries never split ties).
pub fn discretize_equal_frequency(values: &[f64], n_bins: u32) -> Discretized {
    assert!(n_bins >= 1, "n_bins must be >= 1");
    let n_bins = n_bins.min(MAX_BINS);
    if let Some(distinct) = distinct_capped(values, n_bins as usize) {
        // Already discrete (or nothing present): direct value → bin mapping,
        // and the column is never sorted.
        return Discretized::from_values(values, distinct.len() as u32, |x| {
            distinct.partition_point(|&d| d < x)
        });
    }
    let mut order = Vec::new();
    sorted_order(values, &mut order);
    codes_from_order(values, &order, |row| row as usize, n_bins)
}

/// [`discretize_equal_frequency`] for a caller that has already sorted the
/// column: `order` is the `(sort key, row)` of every finite value, ascending
/// by key ([`sorted_order`]), and `row_of` turns an `order` row into an index
/// of `values`. One walk, no search: a row's code is the number of `bounds`
/// at or below its key, and the keys only go up, so a bin's rows are the
/// walk's positions from where it enters the bin to where it leaves it.
pub(crate) fn codes_from_order(
    values: &[f64],
    order: &[(u64, u32)],
    row_of: impl Fn(u32) -> usize,
    n_bins: u32,
) -> Discretized {
    assert!(n_bins >= 1, "n_bins must be >= 1");
    let n_bins = n_bins.min(MAX_BINS) as usize;
    debug_assert!(order.windows(2).all(|w| w[0].0 <= w[1].0), "the order must ascend");
    debug_assert!(covers_present_rows(values, order, &row_of), "the order must cover the present rows");
    let n = order.len();
    // ≤ `n_bins` distinct values: each is its own bin, so every distinct key
    // after the first is a bound.
    let mut bounds: Vec<u64> = Vec::with_capacity(n_bins);
    for w in order.windows(2) {
        if w[0].0 != w[1].0 {
            bounds.push(w[1].0);
            if bounds.len() == n_bins {
                break;
            }
        }
    }
    if bounds.len() == n_bins {
        // More than that: quantile boundaries are the keys at the quantile
        // positions, cut on data values; equal ones merge, so ties never
        // straddle a bound.
        bounds.clear();
        for b in 1..n_bins {
            let q = ((b as f64 / n_bins as f64 * n as f64) as usize).clamp(1, n - 1);
            if bounds.last() != Some(&order[q].0) {
                bounds.push(order[q].0);
            }
        }
    }
    // Every bound is a key of the column, so the largest value lands in bin
    // `bounds.len()`, the highest one used.
    let n_used = if n == 0 { 0 } else { bounds.len() + 1 };
    let mut codes = vec![n_used as Code; values.len()];
    let mut counts = vec![0u32; n_used + 1];
    let (mut bin, mut start) = (0, 0);
    for (at, &(key, row)) in order.iter().enumerate() {
        while bounds.get(bin).is_some_and(|&bound| bound <= key) {
            counts[bin] = (at - start) as u32;
            (bin, start) = (bin + 1, at);
        }
        codes[row_of(row)] = bin as Code;
    }
    debug_assert!(n == 0 || bin == bounds.len(), "the largest key is in the highest bin");
    counts[bin] = (n - start) as u32;
    counts[n_used] = (values.len() - n) as u32;
    Discretized { codes, counts: counts.into_boxed_slice(), n_bins: n_used as u32 }
}

/// Whether `order` names every finite row of `values` once, under its key.
fn covers_present_rows(
    values: &[f64],
    order: &[(u64, u32)],
    row_of: impl Fn(u32) -> usize,
) -> bool {
    let mut seen = vec![false; values.len()];
    order.iter().all(|&(key, row)| {
        let x = values[row_of(row)];
        x.is_finite() && sort_key(x) == key && !std::mem::replace(&mut seen[row_of(row)], true)
    }) && order.len() == values.iter().filter(|x| x.is_finite()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(d: &Discretized) -> Vec<Option<u32>> {
        (0..d.len()).map(|i| d.code(i)).collect()
    }

    #[test]
    fn discrete_passthrough() {
        let d = discretize_equal_frequency(&[0.0, 1.0, 1.0, 2.0], 10);
        assert_eq!(d.n_bins(), 3);
        assert_eq!(codes(&d), vec![Some(0), Some(1), Some(1), Some(2)]);
    }

    #[test]
    fn nan_maps_to_none() {
        let d = discretize_equal_frequency(&[1.0, f64::NAN, 2.0], 4);
        assert_eq!(d.code(1), None);
        assert_eq!(d.n_present(), 2);
    }

    #[test]
    fn all_nan_yields_zero_bins() {
        let d = discretize_equal_frequency(&[f64::NAN, f64::NAN], 4);
        assert_eq!(d.n_bins(), 0);
        assert!(codes(&d).iter().all(Option::is_none));
    }

    #[test]
    fn distinct_capped_early_exits_over_cap() {
        // More than `cap` distinct values: the helper must bail with None
        // (previously the cap was ignored and the full column was sorted).
        let many: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(distinct_capped(&many, 10), None);
        // At or below the cap: the sorted distinct values come back, with
        // duplicates collapsed and non-finite values skipped.
        let few = [3.0, 1.0, f64::NAN, 3.0, -0.0, 0.0, f64::INFINITY, 2.0];
        assert_eq!(distinct_capped(&few, 10), Some(vec![0.0, 1.0, 2.0, 3.0]));
        // Exactly cap distinct values does not trigger the exit.
        assert_eq!(distinct_capped(&[5.0, 4.0], 2), Some(vec![4.0, 5.0]));
        assert_eq!(distinct_capped(&[5.0, 4.0, 3.0], 2), None);
        assert_eq!(distinct_capped(&[f64::NAN], 2), Some(vec![]));
    }

    #[test]
    fn capped_and_quantile_paths_agree_at_the_boundary() {
        // 5 distinct values: discrete path with 5+ bins, quantile with 4.
        let values = [4.0, 0.0, 2.0, 1.0, 3.0, 2.0, 0.0];
        let discrete = discretize_equal_frequency(&values, 5);
        assert_eq!(discrete.n_bins(), 5);
        let quantile = discretize_equal_frequency(&values, 4);
        assert!(quantile.n_bins() <= 4);
        // Both must keep equal values in one bin and stay monotone.
        for d in [&discrete, &quantile] {
            assert_eq!(d.code(2), d.code(5));
            assert_eq!(d.code(1), d.code(6));
        }
    }

    #[test]
    fn equal_frequency_balances_counts() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = discretize_equal_frequency(&values, 4);
        assert_eq!(d.n_bins(), 4);
        let mut counts = [0usize; 4];
        for c in codes(&d).into_iter().flatten() {
            counts[c as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 25);
        }
    }

    #[test]
    fn ties_never_split_across_bins() {
        // 90 copies of 1.0 then 10 distinct larger values; with 4 bins all
        // the 1.0s must land in a single bin.
        let mut values = vec![1.0f64; 90];
        values.extend((0..10).map(|i| 2.0 + i as f64));
        // distinct = 11 > 4 bins, so quantile path is taken
        let d = discretize_equal_frequency(&values, 4);
        let first = d.code(0);
        assert!(codes(&d)[..90].iter().all(|&c| c == first));
    }

    #[test]
    fn skewed_data_still_monotone() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64).exp().min(1e12)).collect();
        let d = discretize_equal_frequency(&values, 5);
        // Codes must be monotone non-decreasing over sorted input.
        let bins: Vec<u32> = codes(&d).into_iter().map(|c| c.unwrap()).collect();
        assert!(bins.windows(2).all(|w| w[0] <= w[1]));
        assert!(d.n_bins() >= 2);
    }

    /// `d`'s rows per code, against a recount of its codes.
    fn assert_counted(d: &Discretized) {
        let mut recount = vec![0u32; d.n_bins() as usize + 1];
        for &c in d.codes() {
            recount[c as usize] += 1;
        }
        assert_eq!(d.counts(), &recount[..], "{d:?}");
    }

    #[test]
    fn every_constructor_counts_its_rows_per_bin() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for d in [
            Discretized::from_codes([Some(10), Some(-5), None, Some(10)]),
            Discretized::from_codes([None, None]),
            Discretized::from_codes([]),
        ] {
            assert_counted(&d);
        }
        // 90 ties, then 10 larger values: every quantile key is the tie, so
        // the walk starts in bin 1 and bin 0 holds no row.
        let mut tied = vec![1.0; 90];
        tied.extend((0..10).map(|i| 2.0 + i as f64));
        let columns: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            vec![2.0, 1.0],
            vec![nan],
            vec![nan, 3.0, -inf],
            (0..100).map(|i| i as f64).collect(),
            (0..100).map(|i| if i % 7 == 3 { [nan, inf][i % 2] } else { (i * 37 % 101) as f64 }).collect(),
            tied.clone(),
            tied.iter().enumerate().map(|(i, &x)| if i % 9 == 0 { nan } else { x }).collect(),
        ];
        let mut order = Vec::new();
        for x in &columns {
            for bins in [1, 2, 4, 10] {
                // Both branches of the entry, and the walk on its own over
                // columns the entry would not sort.
                let d = discretize_equal_frequency(x, bins);
                assert_counted(&d);
                sorted_order(x, &mut order);
                let walked = codes_from_order(x, &order, |row| row as usize, bins);
                assert_counted(&walked);
                let rows: Vec<usize> = (0..x.len()).rev().chain((0..x.len()).step_by(3)).collect();
                assert_counted(&d.gather(&rows));
                assert_counted(&walked.gather(&rows[..rows.len() / 2]));
            }
        }
        let skipped = discretize_equal_frequency(&tied, 4);
        assert_eq!(skipped.counts(), [0, 100, 0], "bin 0 is skipped");
    }

    #[test]
    fn from_codes_compacts() {
        let d = Discretized::from_codes([Some(10), Some(-5), None, Some(10)]);
        assert_eq!(d.n_bins(), 2);
        assert_eq!(codes(&d), vec![Some(1), Some(0), None, Some(1)]);
    }
}
