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
//! When the labels' classes rank the rows as the labels do (`classes_rank`,
//! which holds for every discovery label), a feature is scored in one walk
//! over its sort: one packed word per present value (`ranks::sorted_order`),
//! then one pass over that order that writes each row's average rank where
//! the row lies and counts the classes of the ranked rows, at most
//! [`MAX_BINS`] counts, whose running sums are the labels' ranks over the
//! common rows — the floats a sort of them gives. The equal-frequency codes
//! come off the same order, and Pearson runs over the ranked rows in row
//! order. Labels whose classes do not rank, and [`spearman_correlation`],
//! rank both sides of the common rows with [`average_ranks`].

use autofeat_obs as obs;

use crate::discretize::{codes_from_order, discretize_equal_frequency, Discretized, MAX_BINS};
use crate::entropy::entropy;
use crate::mi::mutual_information;
use crate::ranks::{average_ranks, ranks_from_order, sorted_order};

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
    /// the caller bins those it goes on to need. `classes`, when the caller
    /// keeps them, are the classes of `labels` (`Discretized::from_codes` of
    /// them) and [`classes_rank`] holds, which Spearman then does not make
    /// again.
    pub(crate) fn scores_and_codes(
        self,
        features: &[Vec<f64>],
        labels: &[i64],
        classes: Option<&Discretized>,
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
                let own;
                let classes = match classes {
                    Some(classes) => classes,
                    None if classes_rank(labels) => {
                        own = label_codes(labels);
                        &own
                    }
                    None => {
                        let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                        return uncoded(features.iter().map(|x| spearman_correlation(x, &y).abs()).collect());
                    }
                };
                features
                    .iter()
                    .map(|x| {
                        let (rho, codes) = spearman_by_class(x, classes, bins);
                        (rho.abs(), codes)
                    })
                    .unzip()
            }
            RelevanceMethod::Relief => uncoded(relief(features, labels)),
        }
    }
}

/// Whether `labels`' classes order and tie their rows as the labels do as
/// numbers: every label is exactly an `f64`, so no two classes meet in one
/// value.
pub(crate) fn classes_rank(labels: &[i64]) -> bool {
    labels.iter().all(|&l| l as f64 as i64 == l)
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
    pearson_of(|| {
        x.iter()
            .zip(y)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .map(|(&a, &b)| (a, b))
    })
}

/// Pearson correlation of the pairs `present` yields, twice, in one order:
/// the sums of [`pearson_correlation`], term for term.
fn pearson_of<I: Iterator<Item = (f64, f64)>>(present: impl Fn() -> I) -> f64 {
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

/// Signed Spearman correlation of two numeric slices: the average ranks of
/// the rows where both are finite, and Pearson of them.
pub fn spearman_correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let (xs, ys): (Vec<f64>, Vec<f64>) =
        x.iter().zip(y).filter(|(a, b)| a.is_finite() && b.is_finite()).map(|(&a, &b)| (a, b)).unzip();
    pearson_correlation(&average_ranks(&xs), &average_ranks(&ys))
}

/// Signed Spearman correlation of `x` and labels whose `classes` rank the
/// rows ([`classes_rank`]), in one walk over the sort of `x`: the walk
/// writes each present row's average rank where the row lies and counts the
/// classes of the rows it ranks. A class whose rows follow the `s` ranked
/// rows of the classes below it and number `k` spans ranks `s + 1 ..= s + k`,
/// so each of its rows ranks `(s + 1 + s + k) / 2` — the integers a sort of
/// the common rows' labels divides, so the same bits. Pearson then reads the
/// ranked rows in row order, the pairs and order of a pairwise deletion.
/// With `bins`, the sort also yields the [`discretize_equal_frequency`]
/// codes of `x`.
fn spearman_by_class(x: &[f64], classes: &Discretized, bins: Option<u32>) -> (f64, Option<Discretized>) {
    assert_eq!(x.len(), classes.len(), "length mismatch");
    let labels = classes.codes();
    SPEARMAN_SCRATCH.with(|cell| {
        let (order, rx) = &mut *cell.borrow_mut();
        let shift = sorted_order(x, order);
        let mut count = [0usize; MAX_BINS as usize + 1];
        ranks_from_order(order, shift, x.len(), rx, |row| count[labels[row] as usize] += 1);
        debug_assert_eq!(count[classes.n_bins() as usize], 0, "a label is missing");
        let mut rank = [f64::NAN; MAX_BINS as usize + 1];
        let mut start = 0;
        for (rank, &k) in rank.iter_mut().zip(&count[..classes.n_bins() as usize]) {
            *rank = (start + 1 + start + k) as f64 / 2.0;
            start += k;
        }
        let ranked = || rx.iter().zip(labels).filter(|(r, _)| !r.is_nan()).map(|(&r, &c)| (r, rank[c as usize]));
        let codes = bins.map(|bins| {
            let _span = obs::span("discretize");
            codes_from_order(x, order, shift, bins)
        });
        (pearson_of(ranked), codes)
    })
}

thread_local! {
    /// The order words and ranks of the last feature scored on this thread.
    static SPEARMAN_SCRATCH: std::cell::RefCell<(Vec<u64>, Vec<f64>)> = std::cell::RefCell::default();
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

    /// Classes of the labels made once and passed in score every batch as
    /// making them per batch does, to the bit, codes included.
    #[test]
    fn passed_classes_change_no_bit() {
        let y: Vec<i64> = (0..300).map(|i| (i * 7 % 11) % 3).collect();
        let feats: Vec<Vec<f64>> = vec![
            (0..300).map(|i| (i % 17) as f64).collect(),
            (0..300).map(|i| if i % 5 == 0 { f64::NAN } else { i as f64 * 0.3 }).collect(),
            vec![1.0; 300],
        ];
        let m = RelevanceMethod::Spearman;
        let (want, want_codes) = m.scores_and_codes(&feats, &y, None, Some(DEFAULT_BINS));
        let (got, got_codes) = m.scores_and_codes(&feats, &y, Some(&label_codes(&y)), Some(DEFAULT_BINS));
        assert_eq!((bits(&got), got_codes), (bits(&want), want_codes));
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    proptest::proptest! {
        /// Every score of the walk that ranks the common rows' labels by
        /// counting their classes has the bits of the sort of both sides
        /// ([`spearman_correlation`]), over labels of one class, two,
        /// `MAX_BINS`, non-contiguous values with the `−1` missing label,
        /// and values no `f64` tells apart, which the classes do not rank;
        /// scored one feature at a time with the classes and through a
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
                let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                let want: Vec<f64> = features.iter().map(|x| spearman_correlation(x, &y)).collect();
                let classes = label_codes(&labels);
                if kind != 4 {
                    let got: Vec<f64> = features.iter().map(|x| spearman_by_class(x, &classes, None).0).collect();
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
    fn bins_come_off_the_sort() {
        let classes = label_codes(&[0, 1, 0, 1, 1, 0]);
        for x in [[3.0, f64::NAN, 1.0, 2.0, 2.0, 9.0], [f64::NAN; 6], [f64::NAN, 4.0, f64::NAN, f64::NAN, f64::NAN, f64::NAN]] {
            let (rho, codes) = spearman_by_class(&x, &classes, Some(3));
            assert_eq!(rho.to_bits(), spearman_correlation(&x, &[0.0, 1.0, 0.0, 1.0, 1.0, 0.0]).to_bits());
            assert_eq!(codes, Some(discretize_equal_frequency(&x, 3)));
        }
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
