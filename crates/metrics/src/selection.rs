//! Feature-subset selection building blocks used by Algorithm 1.
//!
//! * [`select_k_best`] — the *select-κ-best* heuristic (§VI): sort features
//!   by a relevance score and keep the top κ with a strictly positive score.
//! * [`select_non_redundant`] — greedy forward pass applying a
//!   [`RedundancyScorer`]: candidates are visited in descending relevance;
//!   a candidate is kept iff its `J` score against the selected-so-far set
//!   is positive, and once kept it joins the conditioning set.

use std::borrow::Borrow;

use autofeat_obs as obs;

use crate::contingency::Tables;
use crate::discretize::Discretized;
use crate::redundancy::RedundancyScorer;
use crate::relevance::RelevanceMethod;

/// A feature chosen by a selection step, with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedFeature {
    /// Index into the caller's feature list.
    pub index: usize,
    /// The relevance or redundancy (J) score that justified selection.
    pub score: f64,
}

/// Relevance analysis (Algorithm 1, line 16): score all features with
/// `method`, keep the top-κ with score > `min_score` (default callers pass
/// 0.0), sorted by descending score.
pub fn select_k_best(
    features: &[Vec<f64>],
    labels: &[i64],
    method: RelevanceMethod,
    kappa: usize,
    min_score: f64,
) -> Vec<SelectedFeature> {
    let _span = obs::span("relevance");
    obs::add("metrics.features_scored", features.len() as u64);
    let scores = method.scores(features, labels);
    let mut ranked: Vec<SelectedFeature> = scores
        .into_iter()
        .enumerate()
        .filter(|(_, s)| s.is_finite() && *s > min_score)
        .map(|(index, score)| SelectedFeature { index, score })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then(a.index.cmp(&b.index))
    });
    ranked.truncate(kappa);
    ranked
}

/// Redundancy analysis (Algorithm 1, line 17): greedily keep candidates
/// whose `J` score against `already_selected ∪ kept-so-far` is positive.
///
/// `candidates` are `(index, codes)` pairs, visited in the given order
/// (callers pass them in descending relevance); `already_selected` holds the
/// discretized codes of `R_sel`, the features selected on previous pipeline
/// steps, owned or borrowed. Returns the kept features with their `J`
/// scores. A candidate whose running score has already fallen to ≤ 0 is
/// dropped without scoring it against the rest of the set (see
/// `RedundancyScorer::score_with`): the kept set and the kept scores are
/// those of the exhaustive loop.
pub fn select_non_redundant<S: Borrow<Discretized>>(
    candidates: &[(usize, &Discretized)],
    already_selected: &[S],
    labels: &Discretized,
    scorer: &RedundancyScorer,
) -> Vec<SelectedFeature> {
    let _span = obs::span("redundancy");
    obs::add("metrics.redundancy_candidates", candidates.len() as u64);
    let mut kept: Vec<SelectedFeature> = Vec::new();
    let mut conditioning: Vec<&Discretized> =
        already_selected.iter().map(Borrow::borrow).collect();
    let mut tables = Tables::default();
    for &(index, codes) in candidates {
        let j = scorer.score_with(&mut tables, codes, &conditioning, labels, true);
        if j > 0.0 {
            kept.push(SelectedFeature { index, score: j });
            conditioning.push(codes);
        }
    }
    obs::add("metrics.redundancy_kept", kept.len() as u64);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::discretize_equal_frequency;
    use crate::redundancy::RedundancyMethod;

    fn fixture() -> (Vec<Vec<f64>>, Vec<i64>) {
        let n = 200;
        let informative: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let copy = informative.clone();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 7 + 5) % 13) as f64).collect();
        let weak: Vec<f64> = (0..n)
            .map(|i| (i % 10) as f64 + ((i * 3) % 5) as f64)
            .collect();
        let y: Vec<i64> = informative.iter().map(|&v| i64::from(v >= 5.0)).collect();
        (vec![informative, copy, noise, weak], y)
    }

    #[test]
    fn k_best_ranks_informative_first() {
        let (feats, y) = fixture();
        let sel = select_k_best(&feats, &y, RelevanceMethod::Spearman, 2, 0.0);
        assert_eq!(sel.len(), 2);
        // The informative feature and its copy tie at the top.
        assert!(sel.iter().all(|s| s.index <= 1));
        assert!(sel[0].score >= sel[1].score);
    }

    #[test]
    fn k_best_truncates_to_kappa() {
        let (feats, y) = fixture();
        let sel = select_k_best(&feats, &y, RelevanceMethod::Pearson, 1, 0.0);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn k_best_excludes_nonpositive_scores() {
        let y: Vec<i64> = (0..100).map(|i| i % 2).collect();
        let constant = vec![5.0f64; 100];
        let sel = select_k_best(&[constant], &y, RelevanceMethod::Spearman, 10, 0.0);
        assert!(sel.is_empty());
    }

    #[test]
    fn k_best_deterministic_tie_break_by_index() {
        let (feats, y) = fixture();
        let sel = select_k_best(&feats, &y, RelevanceMethod::Spearman, 4, 0.0);
        // feature 0 and its copy (1) have identical scores; 0 must come first
        let pos0 = sel.iter().position(|s| s.index == 0).unwrap();
        let pos1 = sel.iter().position(|s| s.index == 1).unwrap();
        assert!(pos0 < pos1);
    }

    #[test]
    fn non_redundant_drops_duplicate() {
        let (feats, y) = fixture();
        let codes: Vec<_> = feats
            .iter()
            .map(|f| discretize_equal_frequency(f, 10))
            .collect();
        let ycodes = Discretized::from_codes(y.iter().map(|&l| Some(l)));
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let cands: Vec<(usize, &Discretized)> =
            vec![(0, &codes[0]), (1, &codes[1])];
        let kept = select_non_redundant::<&Discretized>(&cands, &[], &ycodes, &scorer);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].index, 0);
    }

    #[test]
    fn non_redundant_respects_prior_selection() {
        let (feats, y) = fixture();
        let codes: Vec<_> = feats
            .iter()
            .map(|f| discretize_equal_frequency(f, 10))
            .collect();
        let ycodes = Discretized::from_codes(y.iter().map(|&l| Some(l)));
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        // Candidate 1 (the copy) against R_sel = {feature 0} must be dropped.
        let cands: Vec<(usize, &Discretized)> = vec![(1, &codes[1])];
        let kept = select_non_redundant(&cands, &[&codes[0]], &ycodes, &scorer);
        assert!(kept.is_empty());
    }

    #[test]
    fn non_redundant_keeps_fresh_information() {
        let (feats, y) = fixture();
        let codes: Vec<_> = feats
            .iter()
            .map(|f| discretize_equal_frequency(f, 10))
            .collect();
        let ycodes = Discretized::from_codes(y.iter().map(|&l| Some(l)));
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let cands: Vec<(usize, &Discretized)> = vec![(0, &codes[0])];
        let kept = select_non_redundant::<&Discretized>(&cands, &[], &ycodes, &scorer);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].score > 0.0);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let ycodes = Discretized::from_codes([Some(0), Some(1)]);
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        assert!(select_non_redundant::<&Discretized>(&[], &[], &ycodes, &scorer).is_empty());
    }
}
