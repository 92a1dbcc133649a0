//! Feature-subset selection building blocks used by Algorithm 1.
//!
//! * [`select_k_best`] — the *select-κ-best* heuristic (§VI): sort features
//!   by a relevance score and keep the top κ with a strictly positive score;
//!   [`select_k_best_binned`] also hands back the picks' bin codes.
//! * [`select_non_redundant`] — greedy forward pass applying a
//!   [`RedundancyScorer`]: candidates are visited in descending relevance;
//!   a candidate is kept iff its `J` score against the selected-so-far set
//!   is positive, and once kept it joins the conditioning set.
//! * [`SelectedSet`] — `R_sel`, the selected-so-far set that outlives a
//!   step, stored the way the redundancy pass counts against it.

use std::borrow::Borrow;

use autofeat_obs as obs;

use crate::contingency::{Tables, Unit};
use crate::discretize::{discretize_equal_frequency, Code, Discretized};
use crate::redundancy::RedundancyScorer;
use crate::relevance::{LabelRanks, RelevanceMethod};

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
    k_best(features, labels, None, method, kappa, min_score, None).0
}

/// [`select_k_best`], and beside each pick its
/// [`discretize_equal_frequency`] codes over `bins` bins — read off the work
/// the relevance score already did on the column where there was any
/// (Spearman's sort, IG's and SU's own binning), so a picked feature is not
/// sorted a second time on its way to the redundancy analysis.
pub fn select_k_best_binned(
    features: &[Vec<f64>],
    labels: &[i64],
    method: RelevanceMethod,
    kappa: usize,
    min_score: f64,
    bins: u32,
) -> (Vec<SelectedFeature>, Vec<Discretized>) {
    k_best(features, labels, None, method, kappa, min_score, Some(bins))
}

/// The one select-κ-best: [`select_k_best`] without `bins`, and
/// [`select_k_best_binned`] with them. `label` is the
/// `relevance::LabelRanks` of `labels` when the caller keeps it.
pub(crate) fn k_best(
    features: &[Vec<f64>],
    labels: &[i64],
    label: Option<LabelRanks<'_>>,
    method: RelevanceMethod,
    kappa: usize,
    min_score: f64,
    bins: Option<u32>,
) -> (Vec<SelectedFeature>, Vec<Discretized>) {
    let _span = obs::span("relevance");
    obs::add("metrics.features_scored", features.len() as u64);
    let (scores, mut codes) = method.scores_and_codes(features, labels, label, bins);
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
    let Some(bins) = bins else { return (ranked, Vec::new()) };
    let codes = ranked
        .iter()
        .map(|s| {
            codes[s.index].take().unwrap_or_else(|| {
                let _span = obs::span("discretize");
                discretize_equal_frequency(&features[s.index], bins)
            })
        })
        .collect();
    (ranked, codes)
}

/// `R_sel`, the running selected set of Algorithm 1: names and codes in
/// selection order — the order every redundancy sum runs in — and, for every
/// two neighbours `(2p, 2p + 1)` whose codes fit one byte together, the
/// column `a·(n_b + 1) + b` that lets one counter increment serve both (at
/// the pipeline's 10 bins they always fit: 11 · 11 = 121). A pair that does
/// not fit, or whose lengths differ, is counted as two columns.
#[derive(Debug, Clone, Default)]
pub struct SelectedSet {
    names: Vec<String>,
    codes: Vec<Discretized>,
    /// `packed[p]` for members `2p` and `2p + 1`, made when the second arrives.
    packed: Vec<Option<Vec<Code>>>,
}

fn pack(a: &Discretized, b: &Discretized) -> Option<Vec<Code>> {
    let ((a, wa), (b, wb)) = (a.axis(), b.axis());
    if wa * wb > Code::MAX as usize + 1 || a.len() != b.len() {
        return None;
    }
    let packed: Vec<Code> =
        a.iter().zip(b).map(|(&a, &b)| (a as usize * wb + b as usize) as Code).collect();
    debug_assert!(packed.iter().all(|&c| (c as usize) < wa * wb));
    Some(packed)
}

impl SelectedSet {
    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been selected.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The selected names, in selection order.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// The selected features' codes, in step with `names`.
    pub fn codes(&self) -> &[Discretized] {
        &self.codes
    }

    /// Select `name` (Algorithm 1, line 18). A name selected before keeps
    /// its place in the order and takes the new codes; any other is
    /// appended.
    pub fn insert(&mut self, name: &str, codes: Discretized) {
        let at = match self.names.iter().position(|n| n == name) {
            Some(at) => {
                self.codes[at] = codes;
                at
            }
            None => {
                self.names.push(name.to_string());
                self.codes.push(codes);
                self.codes.len() - 1
            }
        };
        // (Re)pack the pair `at` sits in, if its second member is there.
        let p = at / 2;
        if let Some([a, b]) = self.codes.chunks(2).nth(p) {
            let packed = pack(a, b);
            match self.packed.get_mut(p) {
                Some(slot) => *slot = packed,
                None => self.packed.push(packed),
            }
        }
        debug_assert_eq!(self.packed.len(), self.codes.len() / 2);
    }

    fn units(&self) -> Vec<Unit<'_>> {
        let mut units = Vec::with_capacity(self.codes.len());
        for (p, members) in self.codes.chunks(2).enumerate() {
            match (members, self.packed.get(p).and_then(Option::as_deref)) {
                ([a, b], Some(packed)) => units.push(Unit::Pair { packed, a, b }),
                _ => units.extend(members.iter().map(Unit::Single)),
            }
        }
        units
    }

    /// [`select_non_redundant`] with this set as `already_selected`.
    pub fn select_non_redundant(
        &self,
        candidates: &[(usize, &Discretized)],
        labels: &Discretized,
        scorer: &RedundancyScorer,
    ) -> Vec<SelectedFeature> {
        non_redundant(candidates, self.units(), labels, scorer)
    }
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
    let singles = already_selected.iter().map(|s| Unit::Single(s.borrow())).collect();
    non_redundant(candidates, singles, labels, scorer)
}

/// The greedy pass over a conditioning set given as [`Unit`]s; this step's
/// kept candidates join it as singles.
fn non_redundant<'a>(
    candidates: &[(usize, &'a Discretized)],
    mut conditioning: Vec<Unit<'a>>,
    labels: &Discretized,
    scorer: &RedundancyScorer,
) -> Vec<SelectedFeature> {
    let _span = obs::span("redundancy");
    obs::add("metrics.redundancy_candidates", candidates.len() as u64);
    let mut kept: Vec<SelectedFeature> = Vec::new();
    let mut tables = Tables::default();
    #[cfg(debug_assertions)]
    if let (Some(pair), Some((_, first))) =
        (conditioning.iter().find(|u| matches!(u, Unit::Pair { .. })), candidates.first())
    {
        tables.assert_collapse(pair, first);
    }
    for &(index, codes) in candidates {
        let j = scorer.score_with(&mut tables, codes, &conditioning, labels, true);
        if j > 0.0 {
            kept.push(SelectedFeature { index, score: j });
            conditioning.push(Unit::Single(codes));
        }
    }
    obs::add("metrics.redundancy_kept", kept.len() as u64);
    obs::add("metrics.mi_tables", tables.terms.tables);
    obs::add("metrics.mi_log_terms", tables.terms.logs);
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
    fn binned_picks_carry_the_codes_of_the_plain_routine() {
        let (mut feats, y) = fixture();
        feats[2][7] = f64::NAN; // the pairwise-deletion path of the rank sort
        feats.push(vec![f64::NAN; y.len()]); // nothing to sort
        for method in RelevanceMethod::all() {
            let (picked, codes) = select_k_best_binned(&feats, &y, method, 9, f64::NEG_INFINITY, 4);
            assert_eq!(picked, select_k_best(&feats, &y, method, 9, f64::NEG_INFINITY));
            assert_eq!(picked.len(), feats.len());
            for (s, d) in picked.iter().zip(&codes) {
                assert_eq!(*d, discretize_equal_frequency(&feats[s.index], 4), "{}", method.name());
            }
        }
    }

    #[test]
    fn set_packs_neighbours_that_fit_one_code() {
        let ten = |shift: usize| {
            Discretized::from_codes((0..40).map(|i| (i % 7 != 0).then_some(((i + shift) % 10) as i64)))
        };
        let wide = Discretized::from_codes((0..40).map(|i| Some(i as i64)));
        let short = Discretized::from_codes((0..5).map(Some));
        let mut set = SelectedSet::default();
        for (name, codes) in [("a", ten(0)), ("b", ten(3)), ("c", ten(1)), ("d", wide), ("e", ten(2))] {
            set.insert(name, codes);
        }
        assert_eq!(set.names(), ["a", "b", "c", "d", "e"]);
        // (a, b) share a column, (c, d) would need 11 · 41 codes, e waits.
        let packed = |set: &SelectedSet| set.packed.iter().map(Option::is_some).collect::<Vec<_>>();
        assert_eq!(packed(&set), [true, false]);
        let ab = set.packed[0].as_deref().unwrap();
        for (row, &code) in ab.iter().enumerate() {
            let (a, b) = (set.codes[0].code(row).unwrap_or(10), set.codes[1].code(row).unwrap_or(10));
            assert_eq!(u32::from(code), a * 11 + b);
        }
        // New codes for `d` keep its place and repack its pair; a length
        // that differs from its neighbour's leaves the two apart.
        set.insert("d", ten(5));
        set.insert("f", short);
        assert_eq!(set.names(), ["a", "b", "c", "d", "e", "f"]);
        assert_eq!(packed(&set), [true, true, false]);
        assert_eq!(set.units().len(), 4);
    }

    /// `metrics.mi_tables` and `metrics.mi_log_terms` of one call: a label
    /// split off a ten-bin candidate, and the candidate's own codes as
    /// members — once with every 7th row missing, then three times whole.
    /// The candidate is rejected after that first batch of four members.
    /// Five tables: its relevance and the four members. Twenty-one `ln`s:
    /// ten for the ten occupied cells of the relevance table and ten for
    /// those of the holed member (its marginals are not two-valued), then one
    /// for the three whole members together, whose every cell is 100 rows
    /// under the marginals 100 and 100 of 1 000.
    #[test]
    fn mi_work_is_counted_once_per_call() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let cand = discretize_equal_frequency(&values, 10);
        let labels = Discretized::from_codes((0..1000).map(|i| Some(i64::from(cand.code(i).unwrap() < 5))));
        let holed =
            Discretized::from_codes((0..1000).map(|i| cand.code(i).filter(|_| i % 7 != 0).map(i64::from)));
        let members = [holed, cand.clone(), cand.clone(), cand.clone()];
        let tracer = obs::Tracer::enabled();
        let kept = obs::with_tracer(&tracer, || {
            let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
            select_non_redundant(&[(0, &cand)], &members, &labels, &scorer)
        });
        assert!(kept.is_empty());
        let trace = tracer.snapshot();
        assert_eq!(trace.counter("metrics.mi_tables"), Some(5));
        assert_eq!(trace.counter("metrics.mi_log_terms"), Some(21));
    }

    /// A table met twice in one call takes its `ln`s once, whichever way its
    /// two marginal sizes (100 and 101 of 1 003 rows) fall on its axes.
    #[test]
    fn a_repeated_table_takes_no_ln() {
        let n = 1003;
        let binned = |step: usize| {
            let values: Vec<f64> = (0..n).map(|i| ((i * step) % n) as f64).collect();
            discretize_equal_frequency(&values, 10)
        };
        let (cand, member) = (binned(7919), binned(389));
        let labels = Discretized::from_codes((0..n).map(|i| Some(i64::from(cand.code(i).unwrap() < 5))));
        let logs = |members: &[Discretized]| {
            let tracer = obs::Tracer::enabled();
            let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
            obs::with_tracer(&tracer, || select_non_redundant(&[(0, &cand)], members, &labels, &scorer));
            tracer.snapshot().counter("metrics.mi_log_terms").unwrap()
        };
        assert_eq!(logs(&[member.clone(), member.clone()]), logs(&[member]));
    }

    #[test]
    fn empty_candidates_empty_result() {
        let ycodes = Discretized::from_codes([Some(0), Some(1)]);
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        assert!(select_non_redundant::<&Discretized>(&[], &[], &ycodes, &scorer).is_empty());
    }
}
