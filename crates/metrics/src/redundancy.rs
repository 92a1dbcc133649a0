//! Redundancy criteria (§V-D): MIFS, MRMR, CIFE, JMI, CMIM.
//!
//! All five instantiate the unified conditional-likelihood-maximisation
//! framework (Eq. 1 of the paper):
//!
//! ```text
//! J(X_k) = I(X_k;Y) − β · Σ_{X_j∈S} I(X_j;X_k) + λ · Σ_{X_j∈S} I(X_j;X_k|Y)
//! ```
//!
//! with CMIM as the special case (Eq. 2):
//!
//! ```text
//! J(X_k) = I(X_k;Y) − max_{X_j∈S} [ I(X_j;X_k) − I(X_j;X_k|Y) ]
//! ```
//!
//! A candidate with `J(X_k) > 0` adds more label information than it
//! duplicates and is considered non-redundant.

use crate::contingency::{Tables, Unit, BATCH};
use crate::discretize::Discretized;
use crate::mi::{mi_and_cmi_with, mi_units, mi_with};

/// The redundancy criteria compared in §V-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RedundancyMethod {
    /// Mutual Information Feature Selection: fixed β (paper uses 0.5), λ=0.
    Mifs {
        /// The β penalty weight.
        beta: f64,
    },
    /// Minimum Redundancy Maximum Relevance: β=1/|S|, λ=0 (paper's choice).
    Mrmr,
    /// Conditional Infomax Feature Extraction: β=1, λ=1.
    Cife,
    /// Joint Mutual Information: β=1/|S|, λ=1/|S|.
    Jmi,
    /// Conditional Mutual Information Maximization (Eq. 2).
    Cmim,
}

impl RedundancyMethod {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RedundancyMethod::Mifs { .. } => "MIFS",
            RedundancyMethod::Mrmr => "MRMR",
            RedundancyMethod::Cife => "CIFE",
            RedundancyMethod::Jmi => "JMI",
            RedundancyMethod::Cmim => "CMIM",
        }
    }

    /// All methods with the paper's parameterization, in the paper's order.
    pub fn all() -> [RedundancyMethod; 5] {
        [
            RedundancyMethod::Mifs { beta: 0.5 },
            RedundancyMethod::Mrmr,
            RedundancyMethod::Cife,
            RedundancyMethod::Jmi,
            RedundancyMethod::Cmim,
        ]
    }

    /// Whether the criterion needs conditional MI terms (the expensive part
    /// — the paper notes MIFS/MRMR are ~3× faster for skipping it).
    pub fn needs_conditional(self) -> bool {
        matches!(
            self,
            RedundancyMethod::Cife | RedundancyMethod::Jmi | RedundancyMethod::Cmim
        )
    }
}

/// Scores candidates against an already-selected feature set using a
/// [`RedundancyMethod`]. Every feature arrives discretized; the scorer holds
/// the method only.
#[derive(Debug, Clone)]
pub struct RedundancyScorer {
    method: RedundancyMethod,
}

impl RedundancyScorer {
    /// Scorer for `method`.
    pub fn new(method: RedundancyMethod) -> Self {
        RedundancyScorer { method }
    }

    /// Compute `J(X_k)` for a candidate given the selected set `S` and the
    /// labels, all pre-discretized.
    ///
    /// Estimator note: MIFS/MRMR use **Miller-Madow bias-corrected** MI —
    /// their penalty is a bare sum of `I(X_j;X_k)` terms, and the plug-in
    /// estimator's positive bias (≈ `(B−1)²/2N ln 2` per term) would
    /// otherwise drown weak-but-fresh candidates. The conditional criteria
    /// (CIFE/JMI/CMIM) keep the plug-in estimator: their paired
    /// `I(X_j;X_k) − I(X_j;X_k|Y)` terms carry near-identical bias that
    /// cancels within the pair, and correcting the two terms differently
    /// would break the exact cancellation for deterministic relations.
    pub fn score_codes(
        &self,
        candidate: &Discretized,
        selected: &[&Discretized],
        labels: &Discretized,
    ) -> f64 {
        let singles: Vec<Unit> = selected.iter().map(|s| Unit::Single(s)).collect();
        self.score_with(&mut Tables::default(), candidate, &singles, labels, false)
    }

    /// [`RedundancyScorer::score_codes`] on caller-owned tables, against a
    /// selected set given as [`Unit`]s. MIFS and MRMR count [`BATCH`] units
    /// per row pass — a pair puts two features behind one increment — and
    /// add one penalty term per feature in selection order, so `J` depends
    /// neither on the batch width nor on how the set is packed. The
    /// conditional criteria take the features of the units one 3-way pass at
    /// a time.
    ///
    /// With `reject_early`, MIFS (β ≥ 0), MRMR and CMIM stop at the first
    /// table after which the running score is ≤ 0 — a batch already counted
    /// is not read further — and return that value: every penalty term is
    /// clamped ≥ 0 and joins a sum (or a running maximum) in a fixed order,
    /// so the running penalty is a floating-point lower bound of the final
    /// one and `J > 0` can no longer come true. CIFE and JMI add conditional
    /// terms back and always run to the end.
    pub(crate) fn score_with(
        &self,
        t: &mut Tables,
        candidate: &Discretized,
        selected: &[Unit],
        labels: &Discretized,
        reject_early: bool,
    ) -> f64 {
        let corrected = !self.method.needs_conditional();
        let rel = mi_with(t, candidate, labels, corrected);
        if selected.is_empty() {
            return rel;
        }
        let members = || selected.iter().flat_map(Unit::members);
        let n_selected = members().count() as f64;
        match self.method {
            RedundancyMethod::Mifs { .. } | RedundancyMethod::Mrmr => {
                let j = |red: f64| match self.method {
                    RedundancyMethod::Mifs { beta } => rel - beta * red,
                    _ => rel - red / n_selected,
                };
                // A negative β would turn the penalty into a reward.
                let reject_early = reject_early
                    && !matches!(self.method, RedundancyMethod::Mifs { beta } if beta.is_nan() || beta < 0.0);
                let go_on = |red: f64| !(reject_early && j(red) <= 0.0);
                // `-0.0` is what `Iterator::sum` starts from.
                let mut red = -0.0;
                if go_on(red) {
                    for batch in selected.chunks(BATCH) {
                        let add = |mi: f64| {
                            red += mi;
                            go_on(red)
                        };
                        if !mi_units(t, batch, candidate, add) {
                            break;
                        }
                    }
                }
                j(red)
            }
            // The conditional criteria evaluate the I(X_j;X_k) and
            // I(X_j;X_k|Y) pair per selected feature from one shared 3-way
            // pass (bit-identical to the two separate estimator calls).
            RedundancyMethod::Cife => {
                let mut j = rel;
                for s in members() {
                    let (mi, cmi) = mi_and_cmi_with(t, s, candidate, labels);
                    j -= mi;
                    j += cmi;
                }
                j
            }
            RedundancyMethod::Jmi => {
                let inv = 1.0 / n_selected;
                let mut j = rel;
                for s in members() {
                    let (mi, cmi) = mi_and_cmi_with(t, s, candidate, labels);
                    j -= inv * mi;
                    j += inv * cmi;
                }
                j
            }
            RedundancyMethod::Cmim => {
                let mut worst = f64::NEG_INFINITY;
                for s in members() {
                    if reject_early && rel - worst.max(0.0) <= 0.0 {
                        break;
                    }
                    let (mi, cmi) = mi_and_cmi_with(t, s, candidate, labels);
                    worst = worst.max(mi - cmi);
                }
                rel - worst.max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::discretize_equal_frequency;
    use crate::relevance::DEFAULT_BINS;

    impl RedundancyScorer {
        /// Score raw (continuous) slices, binned the way the pipeline bins.
        fn score(&self, candidate: &[f64], selected: &[&[f64]], labels: &[i64]) -> f64 {
            let codes = |x: &[f64]| discretize_equal_frequency(x, DEFAULT_BINS);
            let sel: Vec<Discretized> = selected.iter().map(|s| codes(s)).collect();
            let sel_refs: Vec<&Discretized> = sel.iter().collect();
            let y = Discretized::from_codes(labels.iter().map(|&l| Some(l)));
            self.score_codes(&codes(candidate), &sel_refs, &y)
        }
    }

    /// y depends on x1; x2 = copy of x1 (redundant); x3 independent noise.
    fn fixture() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<i64>) {
        let n = 200;
        let x1: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let x2 = x1.clone();
        let x3: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64).collect();
        let y: Vec<i64> = x1.iter().map(|&v| i64::from(v >= 5.0)).collect();
        (x1, x2, x3, y)
    }

    #[test]
    fn empty_selected_set_reduces_to_relevance() {
        let (x1, _, _, y) = fixture();
        for m in RedundancyMethod::all() {
            let s = RedundancyScorer::new(m);
            let j = s.score(&x1, &[], &y);
            assert!(j > 0.9, "{}: J without S should be ≈ I(X;Y)=1 bit, got {j}", m.name());
        }
    }

    #[test]
    fn duplicate_feature_is_redundant_under_all_methods() {
        let (x1, x2, _, y) = fixture();
        for m in RedundancyMethod::all() {
            let s = RedundancyScorer::new(m);
            let j = s.score(&x2, &[&x1], &y);
            assert!(
                j <= 1e-9,
                "{}: exact duplicate should score ≤ 0, got {j}",
                m.name()
            );
        }
    }

    #[test]
    fn independent_informative_feature_stays_positive() {
        // y = x1 XOR-ish with a second informative independent feature x4.
        let n = 200;
        let x1: Vec<f64> = (0..n).map(|i| ((i / 2) % 2) as f64).collect();
        let x4: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let y: Vec<i64> = (0..n).map(|i| (((i / 2) % 2) ^ (i % 2)) as i64).collect();
        // x4 alone has ~0 MI with y (XOR), but conditionally informative.
        let s = RedundancyScorer::new(RedundancyMethod::Cife);
        let j = s.score(&x4, &[&x1], &y);
        assert!(j > 0.9, "CIFE should credit conditional information, got {j}");
        // MRMR (no conditional term) scores it near zero instead.
        let s2 = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let j2 = s2.score(&x4, &[&x1], &y);
        assert!(j2.abs() < 0.1, "MRMR has no conditional term, got {j2}");
    }

    #[test]
    fn noise_scores_near_zero() {
        let (x1, _, x3, y) = fixture();
        let s = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let j = s.score(&x3, &[&x1], &y);
        assert!(j.abs() < 0.2, "noise J should be small, got {j}");
    }

    #[test]
    fn mrmr_averages_redundancy() {
        let (x1, x2, _, y) = fixture();
        // With two identical selected features, MRMR's penalty equals the
        // penalty with one (it averages), while MIFS(β=0.5) doubles it.
        let mrmr = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let j1 = mrmr.score(&x2, &[&x1], &y);
        let j2 = mrmr.score(&x2, &[&x1, &x1], &y);
        assert!((j1 - j2).abs() < 1e-9);
        let mifs = RedundancyScorer::new(RedundancyMethod::Mifs { beta: 0.5 });
        let m1 = mifs.score(&x2, &[&x1], &y);
        let m2 = mifs.score(&x2, &[&x1, &x1], &y);
        assert!(m2 < m1 - 0.5, "MIFS penalty should grow with |S|");
    }

    #[test]
    fn cmim_takes_worst_case() {
        let (x1, x2, x3, y) = fixture();
        let s = RedundancyScorer::new(RedundancyMethod::Cmim);
        // Against {noise, duplicate}, the duplicate dominates the max.
        let j = s.score(&x2, &[&x3, &x1], &y);
        assert!(j <= 1e-9, "CMIM should punish the duplicate, got {j}");
    }

    #[test]
    fn needs_conditional_classification() {
        assert!(!RedundancyMethod::Mrmr.needs_conditional());
        assert!(!RedundancyMethod::Mifs { beta: 0.5 }.needs_conditional());
        assert!(RedundancyMethod::Cife.needs_conditional());
        assert!(RedundancyMethod::Jmi.needs_conditional());
        assert!(RedundancyMethod::Cmim.needs_conditional());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = RedundancyMethod::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["MIFS", "MRMR", "CIFE", "JMI", "CMIM"]);
    }
}
