//! Relevance measures (§V-C): Information Gain, Symmetrical Uncertainty,
//! Pearson, Spearman, and Relief.
//!
//! Each measure is a [`RelevanceMethod`], and [`RelevanceMethod::scores`]
//! is the one way to score a batch of features against the class label.
//! Higher is more relevant. Pearson/Spearman report the **absolute**
//! correlation so that strongly negative predictors rank as relevant (the
//! paper sorts by correlation score for the *select-κ-best* heuristic).
//!
//! Spearman deletes pairwise: a feature's missing rows leave both sides.
//! A caller that scores batch after batch against one label vector (a
//! selector's relevance stage) keeps the labels' ranks and classes
//! (`LabelRanks`). A feature without missing rows correlates with those
//! ranks as they are; for one with missing rows the labels of the common
//! rows are ranked by counting them per class, at most [`MAX_BINS`] counts
//! and no sort, into the same floats the sort gives. Every other caller
//! ranks both sides with [`average_ranks`].

use autofeat_obs as obs;

use crate::discretize::{codes_from_order, discretize_equal_frequency, Discretized, MAX_BINS};
use crate::entropy::entropy;
use crate::mi::mutual_information;
use crate::ranks::{average_ranks, average_ranks_into};

/// Number of bins used when discretizing continuous features for the
/// information-theoretic measures.
pub const DEFAULT_BINS: u32 = 10;

/// The relevance methods evaluated in §V-C of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelevanceMethod {
    /// Information gain `I(X;Y)`.
    InformationGain,
    /// Symmetrical uncertainty `2·I(X;Y)/(H(X)+H(Y))`.
    SymmetricalUncertainty,
    /// Absolute Pearson correlation.
    Pearson,
    /// Absolute Spearman rank correlation (the paper's choice).
    Spearman,
    /// Relief feature weighting.
    Relief,
}

impl RelevanceMethod {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RelevanceMethod::InformationGain => "IG",
            RelevanceMethod::SymmetricalUncertainty => "SU",
            RelevanceMethod::Pearson => "Pearson",
            RelevanceMethod::Spearman => "Spearman",
            RelevanceMethod::Relief => "Relief",
        }
    }

    /// All methods, in the paper's order.
    pub fn all() -> [RelevanceMethod; 5] {
        [
            RelevanceMethod::InformationGain,
            RelevanceMethod::SymmetricalUncertainty,
            RelevanceMethod::Pearson,
            RelevanceMethod::Spearman,
            RelevanceMethod::Relief,
        ]
    }

    /// Score every feature against the labels. `features[j]` is the j-th
    /// feature's values with `NaN` for missing; `labels` are integer class
    /// codes. The label-side work (discretization, label entropy, the
    /// numeric cast) is identical for every feature, so it is done once per
    /// call, not per feature.
    pub fn scores(self, features: &[Vec<f64>], labels: &[i64]) -> Vec<f64> {
        self.scores_and_codes(features, labels, None, None).0
    }

    /// [`RelevanceMethod::scores`] and, when `bins` asks for them, the
    /// [`discretize_equal_frequency`] codes of every feature whose scoring
    /// made them on the way: Spearman reads them off the sort its ranks come
    /// from, IG and SU score the codes themselves. `None` where it did not —
    /// the caller bins those it goes on to need. `label`, when the caller
    /// keeps it, is the [`LabelRanks`] of `labels`, which Spearman then does
    /// not rank again.
    pub(crate) fn scores_and_codes(
        self,
        features: &[Vec<f64>],
        labels: &[i64],
        label: Option<LabelRanks<'_>>,
        bins: Option<u32>,
    ) -> (Vec<f64>, Vec<Option<Discretized>>) {
        let uncoded = |scores: Vec<f64>| {
            let codes = vec![None; scores.len()];
            (scores, codes)
        };
        match self {
            RelevanceMethod::InformationGain => {
                let dy = label_codes(labels);
                features
                    .iter()
                    .map(|x| {
                        let dx = discretize_equal_frequency(x, DEFAULT_BINS);
                        (mutual_information(&dx, &dy), (bins == Some(DEFAULT_BINS)).then_some(dx))
                    })
                    .unzip()
            }
            RelevanceMethod::SymmetricalUncertainty => {
                let dy = label_codes(labels);
                let hy = entropy(&dy);
                features
                    .iter()
                    .map(|x| {
                        let dx = discretize_equal_frequency(x, DEFAULT_BINS);
                        let hx = entropy(&dx);
                        let su = if hx + hy == 0.0 {
                            0.0
                        } else {
                            (2.0 * mutual_information(&dx, &dy) / (hx + hy)).clamp(0.0, 1.0)
                        };
                        (su, (bins == Some(DEFAULT_BINS)).then_some(dx))
                    })
                    .unzip()
            }
            RelevanceMethod::Pearson => {
                let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                uncoded(features.iter().map(|x| pearson_correlation(x, &y).abs()).collect())
            }
            RelevanceMethod::Spearman => {
                let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                let own;
                let label = match label {
                    Some(label) => label,
                    None => {
                        own = average_ranks(&y);
                        LabelRanks { ranks: &own, classes: None }
                    }
                };
                debug_assert_eq!(label.ranks.len(), y.len(), "ranks of other labels");
                features
                    .iter()
                    .map(|x| {
                        let (rho, codes) = spearman_with(x, &y, Some(label), bins);
                        (rho.abs(), codes)
                    })
                    .unzip()
            }
            RelevanceMethod::Relief => uncoded(relief(features, labels)),
        }
    }
}

/// The average ranks of `labels` as numbers: what Spearman correlates every
/// feature against. A caller scoring many batches against one label vector
/// ranks it once and passes the ranks to each.
pub(crate) fn label_ranks(labels: &[i64]) -> Vec<f64> {
    average_ranks(&labels.iter().map(|&l| l as f64).collect::<Vec<f64>>())
}

/// Whether `labels`' classes order and tie their rows as the labels do as
/// numbers: every label is exactly an `f64`, so no two classes meet in one
/// value.
pub(crate) fn classes_rank(labels: &[i64]) -> bool {
    labels.iter().all(|&l| l as f64 as i64 == l)
}

/// What Spearman reads of a label vector a caller scores batch after batch
/// against, made once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LabelRanks<'a> {
    /// The labels' average ranks ([`label_ranks`]): those of the common rows
    /// of a feature without missing rows.
    pub(crate) ranks: &'a [f64],
    /// The labels' classes, ascending by value (`Discretized::from_codes`
    /// of them), when [`classes_rank`] holds: the common rows of a feature
    /// with missing rows rank their labels by counting them
    /// ([`ranks_by_class`]). `None`: those labels are sorted.
    pub(crate) classes: Option<&'a Discretized>,
}

fn label_codes(labels: &[i64]) -> Discretized {
    Discretized::from_codes(labels.iter().map(|&l| Some(l)))
}

/// Pearson correlation of two numeric slices, skipping rows where either is
/// non-finite. Returns 0 when degenerate (constant input or < 2 rows).
///
/// Allocation-free: the pairwise-present rows are visited twice (means, then
/// moments) instead of being materialised. Each accumulator sums the same
/// values in the same order as the old collected-pairs version, so results
/// are bit-identical.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let present = || {
        x.iter()
            .zip(y)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .map(|(&a, &b)| (a, b))
    };
    let mut n = 0usize;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    for (a, b) in present() {
        n += 1;
        sum_x += a;
        sum_y += b;
    }
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = sum_x / nf;
    let mean_y = sum_y / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (a, b) in present() {
        let dx = a - mean_x;
        let dy = b - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Signed Spearman correlation of two numeric slices.
///
/// The gathered columns and both rank buffers live in thread-local scratch:
/// ranking every candidate feature against the label reuses five warm
/// allocations instead of paying five fresh ones per call.
pub fn spearman_correlation(x: &[f64], y: &[f64]) -> f64 {
    spearman_with(x, y, None, None).0
}

/// [`spearman_correlation`], given the [`LabelRanks`] of an all-finite `y`
/// (its labels as numbers) when the caller has them. A feature without
/// missing rows deletes no pair, so the label's ranks are those over the
/// common rows and `y` is not sorted again for it; for one with missing
/// rows, the label's classes, when given, rank the common rows' labels
/// without a sort. With `bins`, the `(key, row)` order the ranks of `x` were
/// read from also yields its [`discretize_equal_frequency`] codes — unless
/// that order does not cover the present rows of `x` (fewer than two common
/// rows, so nothing was sorted, or a non-finite `y` deleted one).
fn spearman_with(
    x: &[f64],
    y: &[f64],
    label: Option<LabelRanks<'_>>,
    bins: Option<u32>,
) -> (f64, Option<Discretized>) {
    assert_eq!(x.len(), y.len(), "length mismatch");
    SPEARMAN_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let y_ranks = label.map(|label| label.ranks);
        if let Some(ry) = y_ranks.filter(|_| x.iter().all(|a| a.is_finite())) {
            if x.len() < 2 {
                return (0.0, None);
            }
            average_ranks_into(x, &mut scratch.order, &mut scratch.rx);
            let codes = bins.map(|bins| bins_off_the_sort(x, &scratch.order, |row| row as usize, bins));
            return (pearson_correlation(&scratch.rx, ry), codes);
        }
        // Pairwise deletion first so the ranks are computed on the common
        // rows; `rows` keeps where each of them sits in `x`.
        scratch.xs.clear();
        scratch.ys.clear();
        scratch.rows.clear();
        let mut present = 0;
        for (row, (a, b)) in x.iter().zip(y).enumerate() {
            if a.is_finite() {
                present += 1;
                if b.is_finite() {
                    scratch.xs.push(*a);
                    scratch.ys.push(*b);
                    scratch.rows.push(row as u32);
                }
            }
        }
        if scratch.xs.len() < 2 {
            return (0.0, None);
        }
        average_ranks_into(&scratch.xs, &mut scratch.order, &mut scratch.rx);
        let rows = &scratch.rows;
        let codes = bins.filter(|_| rows.len() == present).map(|bins| {
            bins_off_the_sort(x, &scratch.order, |row| rows[row as usize] as usize, bins)
        });
        match label.and_then(|label| label.classes) {
            Some(classes) => ranks_by_class(classes, rows, &mut scratch.ry),
            None => average_ranks_into(&scratch.ys, &mut scratch.order, &mut scratch.ry),
        }
        (pearson_correlation(&scratch.rx, &scratch.ry), codes)
    })
}

/// The average ranks of the labels of `rows` among themselves, in `rows`'
/// order, by counting them per class: classes ascend with the labels, so a
/// class whose rows follow the `s` rows of the classes below it and number
/// `k` spans ranks `s + 1 ..= s + k`, and each of its rows gets
/// `(s + 1 + s + k) / 2` — the integers [`average_ranks_into`] divides for
/// the same group, so the same bits, with no sort.
fn ranks_by_class(classes: &Discretized, rows: &[u32], ranks: &mut Vec<f64>) {
    let codes = classes.codes();
    let mut count = [0usize; MAX_BINS as usize + 1];
    for &row in rows {
        count[codes[row as usize] as usize] += 1;
    }
    debug_assert_eq!(count[classes.n_bins() as usize], 0, "a label is missing");
    let mut rank = [f64::NAN; MAX_BINS as usize + 1];
    let mut start = 0;
    for (class, &k) in count.iter().enumerate().take(classes.n_bins() as usize) {
        rank[class] = (start + 1 + start + k) as f64 / 2.0;
        start += k;
    }
    ranks.clear();
    ranks.extend(rows.iter().map(|&row| rank[codes[row as usize] as usize]));
}

fn bins_off_the_sort(
    x: &[f64],
    order: &[(u64, u32)],
    row_of: impl Fn(u32) -> usize,
    bins: u32,
) -> Discretized {
    let _span = obs::span("discretize");
    codes_from_order(x, order, row_of, bins)
}

#[derive(Default)]
struct SpearmanScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    rows: Vec<u32>,
    order: Vec<(u64, u32)>,
    rx: Vec<f64>,
    ry: Vec<f64>,
}

thread_local! {
    static SPEARMAN_SCRATCH: std::cell::RefCell<SpearmanScratch> =
        std::cell::RefCell::new(SpearmanScratch::default());
}

/// Probe instances Relief weighs features on (deterministic even spacing).
const RELIEF_PROBES: usize = 50;

/// Relief feature weighting (Kira & Rendell style, simplified): for
/// [`RELIEF_PROBES`] probe instances, reward features that differ on the
/// nearest miss and penalize features that differ on the nearest hit.
/// Operates on all features jointly (nearest neighbours use the full feature
/// space). Higher = more relevant, can be negative.
fn relief(features: &[Vec<f64>], labels: &[i64]) -> Vec<f64> {
    let n_feat = features.len();
    if n_feat == 0 {
        return Vec::new();
    }
    let n = labels.len();
    if n < 2 {
        return vec![0.0; n_feat];
    }
    // Range-normalize, replacing NaN with the feature midpoint.
    let mut norm: Vec<Vec<f64>> = Vec::with_capacity(n_feat);
    for f in features {
        let present: Vec<f64> = f.iter().copied().filter(|v| v.is_finite()).collect();
        let (lo, hi) = present.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, &v| {
            (acc.0.min(v), acc.1.max(v))
        });
        let range = if hi > lo { hi - lo } else { 1.0 };
        norm.push(
            f.iter()
                .map(|&v| if v.is_finite() { (v - lo) / range } else { 0.5 })
                .collect(),
        );
    }
    let dist = |a: usize, b: usize| -> f64 {
        norm.iter().map(|f| (f[a] - f[b]).abs()).sum()
    };
    let m = RELIEF_PROBES.min(n);
    let stride = n / m;
    let mut w = vec![0.0f64; n_feat];
    let mut probes = 0usize;
    for p in (0..n).step_by(stride.max(1)).take(m) {
        let mut best_hit: Option<(usize, f64)> = None;
        let mut best_miss: Option<(usize, f64)> = None;
        for other in 0..n {
            if other == p {
                continue;
            }
            let d = dist(p, other);
            let slot = if labels[other] == labels[p] { &mut best_hit } else { &mut best_miss };
            if slot.is_none() || d < slot.expect("checked").1 {
                *slot = Some((other, d));
            }
        }
        let (Some((hit, _)), Some((miss, _))) = (best_hit, best_miss) else {
            continue;
        };
        probes += 1;
        for (j, f) in norm.iter().enumerate() {
            w[j] += (f[p] - f[miss]).abs() - (f[p] - f[hit]).abs();
        }
    }
    if probes > 0 {
        for wj in &mut w {
            *wj /= probes as f64;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn informative_feature(n: usize) -> (Vec<f64>, Vec<i64>) {
        // y = 1 iff x > 0.5 (with deterministic values).
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<i64> = x.iter().map(|&v| i64::from(v > 0.5)).collect();
        (x, y)
    }

    #[test]
    fn ig_prefers_informative_feature() {
        let (x, y) = informative_feature(100);
        let noise: Vec<f64> = (0..100).map(|i| ((i * 37 + 11) % 100) as f64).collect();
        let ig = RelevanceMethod::InformationGain.scores(&[x, noise], &y);
        assert!(ig[0] > ig[1]);
    }

    #[test]
    fn su_bounded_and_high_for_perfect_predictor() {
        let (x, y) = informative_feature(100);
        let s = RelevanceMethod::SymmetricalUncertainty.scores(&[x], &y)[0];
        assert!(s > 0.3, "got {s}");
        assert!(s <= 1.0);
    }

    #[test]
    fn su_zero_for_constant_feature() {
        let y: Vec<i64> = (0..10).map(|i| i % 2).collect();
        let x = vec![1.0; 10];
        assert_eq!(RelevanceMethod::SymmetricalUncertainty.scores(&[x], &y)[0], 0.0);
    }

    #[test]
    fn pearson_perfect_linear() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson_correlation(&x, &y) - 1.0).abs() < 1e-12);
        let yn: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson_correlation(&x, &yn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_skips_nan_pairs() {
        let x = [1.0, 2.0, f64::NAN, 4.0];
        let y = [1.0, 2.0, 100.0, 4.0];
        assert!((pearson_correlation(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_zero() {
        assert_eq!(pearson_correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn spearman_detects_monotone_nonlinear() {
        let x: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp().min(1e300)).collect();
        let s = spearman_correlation(&x, &y);
        assert!((s - 1.0).abs() < 1e-12, "spearman on monotone data should be 1, got {s}");
        // Pearson is noticeably below 1 for the same data.
        assert!(pearson_correlation(&x, &y) < 0.9);
    }

    /// Ranks of the labels made once and passed in score every batch as
    /// ranking them per batch does, to the bit, codes included.
    #[test]
    fn passed_label_ranks_change_no_bit() {
        let y: Vec<i64> = (0..300).map(|i| (i * 7 % 11) % 3).collect();
        let feats: Vec<Vec<f64>> = vec![
            (0..300).map(|i| (i % 17) as f64).collect(),
            (0..300).map(|i| if i % 5 == 0 { f64::NAN } else { i as f64 * 0.3 }).collect(),
            vec![1.0; 300],
        ];
        let ranks = label_ranks(&y);
        let classes = label_codes(&y);
        let m = RelevanceMethod::Spearman;
        let (want, want_codes) = m.scores_and_codes(&feats, &y, None, Some(DEFAULT_BINS));
        for classes in [None, Some(&classes)] {
            let label = LabelRanks { ranks: &ranks, classes };
            let (got, got_codes) = m.scores_and_codes(&feats, &y, Some(label), Some(DEFAULT_BINS));
            assert_eq!((bits(&got), got_codes), (bits(&want), want_codes.clone()));
        }
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    /// Spearman of `x` and `labels` the textbook way, kept as the reference
    /// for the counted label ranks: the common rows (pairwise deletion),
    /// both sides ranked by [`average_ranks_into`]'s sort, and Pearson of the
    /// ranks.
    fn sorted_spearman(x: &[f64], labels: &[i64]) -> f64 {
        let common: Vec<usize> = (0..x.len()).filter(|&row| x[row].is_finite()).collect();
        if common.len() < 2 {
            return 0.0;
        }
        let (mut order, mut rx, mut ry) = (Vec::new(), Vec::new(), Vec::new());
        average_ranks_into(&common.iter().map(|&r| x[r]).collect::<Vec<_>>(), &mut order, &mut rx);
        let ys: Vec<f64> = common.iter().map(|&r| labels[r] as f64).collect();
        average_ranks_into(&ys, &mut order, &mut ry);
        pearson_correlation(&rx, &ry)
    }

    proptest::proptest! {
        /// Every score of a feature with missing rows — the pairwise-deletion
        /// path, which ranks the common rows' labels by counting their
        /// classes — has the bits of the sort path, over labels of one class,
        /// two, `MAX_BINS`, non-contiguous values with the `−1` missing
        /// label, and values no `f64` tells apart, which the classes do not
        /// rank; scored one feature at a time with the classes and through a
        /// selector's relevance stage.
        #[test]
        fn counted_label_ranks_have_the_sort_paths_bits(case in 0u64..u64::MAX) {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let rng = &mut StdRng::seed_from_u64(case);
            for kind in 0..5 {
                let n = rng.random_range(300usize..700);
                let values: Vec<i64> = match kind {
                    0 => vec![rng.random_range(-3i64..3)],
                    1 => vec![0, 1],
                    2 => (0..i64::from(MAX_BINS)).collect(),
                    3 => vec![-1, 0, 2, 7, 1_000_003, -40],
                    _ => vec![1 << 53, (1 << 53) + 1, 0, -1],
                };
                let mut labels: Vec<i64> = (0..n).map(|_| values[rng.random_range(0..values.len())]).collect();
                labels[..values.len()].copy_from_slice(&values);
                assert_eq!(classes_rank(&labels), kind != 4);
                let features: Vec<Vec<f64>> = (0..6)
                    .map(|f| {
                        let (distinct, holes) = (rng.random_range(1u64..40), [0.002, 0.2, 0.9, 0.998][f % 4]);
                        let mut x: Vec<f64> = (0..n)
                            .map(|_| if rng.random_bool(holes) { f64::NAN } else { rng.random_range(0..distinct) as f64 })
                            .collect();
                        x[rng.random_range(0..n)] = f64::NAN;
                        x
                    })
                    .collect();
                let want: Vec<f64> = features.iter().map(|x| sorted_spearman(x, &labels)).collect();
                let (ranks, classes) = (label_ranks(&labels), label_codes(&labels));
                let label = LabelRanks { ranks: &ranks, classes: Some(&classes) };
                let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                if kind != 4 {
                    let got: Vec<f64> = features.iter().map(|x| spearman_with(x, &y, Some(label), None).0).collect();
                    assert_eq!(bits(&got), bits(&want), "kind {kind}");
                }
                let stage = crate::streaming::StreamingSelector::new(labels, Some(RelevanceMethod::Spearman), None, 6);
                let (picks, _) = stage.relevance_stage().relevance(&features);
                for pick in picks {
                    let score = want[pick.index].abs();
                    assert_eq!(pick.score.to_bits(), score.to_bits(), "kind {kind}, feature {}", pick.index);
                }
            }
        }
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman_correlation(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bins_come_off_the_sort_only_when_it_covers_the_column() {
        let x = [3.0, f64::NAN, 1.0, 2.0, 2.0, 9.0];
        let y = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let plain = discretize_equal_frequency(&x, 3);
        // Labels are finite: the rows the rank sort covers are `x`'s own.
        let (rho, codes) = spearman_with(&x, &y, None, Some(3));
        assert_eq!(rho.to_bits(), spearman_correlation(&x, &y).to_bits());
        assert_eq!(codes, Some(plain));
        // A non-finite `y` deletes a row `x` has: no codes from that order.
        let holed = [0.0, 1.0, f64::NAN, 1.0, 1.0, 0.0];
        assert_eq!(spearman_with(&x, &holed, None, Some(3)).1, None);
        // Nothing was sorted.
        assert_eq!(spearman_with(&[1.0, f64::NAN], &[0.0, 1.0], None, Some(3)), (0.0, None));
    }

    #[test]
    fn relief_rewards_separating_feature() {
        let n = 60;
        let (x, y) = informative_feature(n);
        let noise: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 7) as f64).collect();
        let w = relief(&[x, noise], &y);
        assert!(w[0] > w[1], "relief weights: {w:?}");
        assert!(w[0] > 0.0);
    }

    #[test]
    fn relief_single_class_yields_zeros() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0, 0, 0];
        let w = relief(&[x], &y);
        assert_eq!(w, vec![0.0]);
    }

    #[test]
    fn relief_empty_features() {
        assert!(relief(&[], &[0, 1]).is_empty());
    }

    #[test]
    fn method_scores_dispatch() {
        let (x, y) = informative_feature(80);
        let feats = vec![x];
        for m in RelevanceMethod::all() {
            let s = m.scores(&feats, &y);
            assert_eq!(s.len(), 1);
            assert!(s[0] > 0.0, "{} should find the feature relevant", m.name());
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(RelevanceMethod::Spearman.name(), "Spearman");
        assert_eq!(RelevanceMethod::all().len(), 5);
    }
}
