//! The composite schema matcher (COMA substitute).
//!
//! For every cross-table column pair the matcher blends name similarity and
//! instance (value-overlap) similarity into one score in `[0, 1]`; pairs
//! above the configured threshold become candidate join edges for the DRG.
//!
//! [`SchemaMatcher::match_score`] decides a pair from its summaries first
//! and its values last: two columns whose key spans cannot meet share no
//! value, so their intersection is bounded by 0 without reading either
//! occupancy map; any other pair is bounded by its maps; only a pair the
//! bound cannot reject merges its two value runs.

use crate::discovery::profile::ColumnProfile;

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Minimum composite score to report a match (paper: 0.55).
    pub threshold: f64,
    /// Weight of name similarity in the blend.
    pub name_weight: f64,
    /// Weight of instance similarity in the blend.
    pub value_weight: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            threshold: crate::discovery::PAPER_THRESHOLD,
            name_weight: 0.5,
            value_weight: 0.5,
        }
    }
}

/// A scored column correspondence between two tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatch {
    /// Column in the left table.
    pub left_column: String,
    /// Column in the right table.
    pub right_column: String,
    /// Composite similarity score in `[0, 1]`.
    pub score: f64,
}

/// The schema matcher.
#[derive(Debug, Clone, Default)]
pub struct SchemaMatcher {
    config: MatcherConfig,
}

impl SchemaMatcher {
    /// Matcher with a custom configuration.
    pub fn new(config: MatcherConfig) -> Self {
        SchemaMatcher { config }
    }

    /// Matcher with the paper's 0.55 threshold.
    pub fn paper_default() -> Self {
        SchemaMatcher::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// Instance similarity of two profiles: exact Jaccard blended with the
    /// larger containment direction when exact sets are available (one
    /// merge of the two runs feeds all three terms), MinHash estimate
    /// otherwise — the one place a sketch is read.
    pub fn instance_similarity(&self, a: &ColumnProfile, b: &ColumnProfile) -> f64 {
        match (&a.value_hashes, &b.value_hashes) {
            (Some(ra), Some(rb)) => exact_similarity(ra.len(), rb.len(), ra.intersection_len(rb)),
            _ => a.sketch().jaccard(b.sketch()),
        }
    }

    /// The match decision for one pair, and the matcher's one scorer:
    /// `Some(score)` iff the pair's composite score — the blend of name and
    /// instance similarity, 0 when either column is no join candidate —
    /// reaches the threshold. At threshold `f64::NEG_INFINITY` it is
    /// `Some(score)` for every pair and no bound rejects. The name
    /// similarity comes from `name`, called only for a pair its values
    /// cannot rule out (callers that cache name sims across many pairs — the
    /// incremental DRG maintainer — then neither compute nor cache one for
    /// most of a lake's pairs).
    ///
    /// Before merging two exact sets it asks whether the pair could reach
    /// the threshold at all: the same blend, evaluated at an upper bound in
    /// place of the intersection — first at name similarity 1, the most a
    /// name scores, then at the pair's own. The bound is 0 for a pair whose
    /// key spans cannot meet ([`ColumnProfile::may_share_keys`]; counted in
    /// `match.pairs_range_rejected` when that rejects it), and
    /// [`ValueRun::intersection_bound`] from the occupancy maps otherwise.
    /// That rejects exactly, not heuristically — the bound is never below
    /// the intersection, and every step from intersection and name
    /// similarity to blended score is a correctly rounded operation that
    /// does not decrease as either grows, *provided* the value weight is
    /// positive and the name weight non-negative. The weights are the
    /// caller's, so both signs are checked and the bound is skipped when
    /// either fails.
    ///
    /// [`ValueRun::intersection_bound`]: crate::discovery::value_sim::ValueRun::intersection_bound
    pub fn match_score(
        &self,
        name: impl FnOnce() -> f64,
        a: &ColumnProfile,
        b: &ColumnProfile,
    ) -> Option<f64> {
        let MatcherConfig { threshold, name_weight, value_weight } = self.config;
        if !a.is_joinable_candidate() || !b.is_joinable_candidate() {
            return (0.0 >= threshold).then_some(0.0);
        }
        let monotone = value_weight > 0.0 && name_weight >= 0.0;
        let mut apart = false;
        let at_most = match (monotone, &a.value_hashes, &b.value_hashes) {
            (true, Some(ra), Some(rb)) => {
                apart = !a.may_share_keys(b);
                let shared = if apart { 0 } else { ra.intersection_bound(rb) };
                Some(exact_similarity(ra.len(), rb.len(), shared))
            }
            _ => None,
        };
        let short = |name: f64| at_most.is_some_and(|x| self.blend(name, x) < threshold);
        let name = if short(1.0) { None } else { Some(name()) };
        let Some(name) = name.filter(|&name| !short(name)) else {
            autofeat_obs::incr("match.pairs_bound_rejected");
            if apart {
                autofeat_obs::incr("match.pairs_range_rejected");
            }
            return None;
        };
        let score = self.blend(name, self.instance_similarity(a, b));
        (score >= threshold).then_some(score)
    }

    fn blend(&self, name: f64, inst: f64) -> f64 {
        let w = self.config.name_weight + self.config.value_weight;
        if w <= 0.0 {
            // Zero (or degenerate) weights would divide 0/0 into NaN and
            // poison every comparison downstream; an all-zero blend scores
            // nothing instead.
            return 0.0;
        }
        ((self.config.name_weight * name + self.config.value_weight * inst) / w).clamp(0.0, 1.0)
    }

    /// The order of a table pair's match list: descending score (total
    /// order — scores are finite by construction but a NaN from a hostile
    /// config must not abort the sort), then column names. The DRG
    /// maintainer sorts every list by it, so its edges follow it.
    pub(crate) fn match_order(x: &ColumnMatch, y: &ColumnMatch) -> std::cmp::Ordering {
        y.score
            .total_cmp(&x.score)
            .then_with(|| x.left_column.cmp(&y.left_column))
            .then_with(|| x.right_column.cmp(&y.right_column))
    }
}

/// `(Jaccard + larger containment) / 2` of two sets of `na` and `nb` values
/// sharing `shared` of them. Containment catches FK⊂PK even when sizes
/// differ a lot.
fn exact_similarity(na: usize, nb: usize, shared: usize) -> f64 {
    let shared = shared as f64;
    let j = if na == 0 && nb == 0 { 0.0 } else { shared / ((na + nb) as f64 - shared) };
    let ca = if na == 0 { 0.0 } else { shared / na as f64 };
    let cb = if nb == 0 { 0.0 } else { shared / nb as f64 };
    (j + ca.max(cb)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::name_sim::name_similarity;
    use autofeat_data::{Column, Table};

    /// Profile both tables and decide every column pair, in match order.
    fn profile_and_match(m: &SchemaMatcher, left: &Table, right: &Table) -> Vec<ColumnMatch> {
        let right = ColumnProfile::build_all(right);
        let mut out: Vec<ColumnMatch> = ColumnProfile::build_all(left)
            .iter()
            .flat_map(|a| {
                right.iter().filter_map(move |b| {
                    let score = m.match_score(|| name_similarity(&a.column, &b.column), a, b)?;
                    Some(ColumnMatch {
                        left_column: a.column.clone(),
                        right_column: b.column.clone(),
                        score,
                    })
                })
            })
            .collect();
        out.sort_by(SchemaMatcher::match_order);
        out
    }

    /// The matcher's score of a pair, whatever the threshold.
    fn unbounded(m: &SchemaMatcher, a: &ColumnProfile, b: &ColumnProfile) -> f64 {
        let config = MatcherConfig { threshold: f64::NEG_INFINITY, ..m.config().clone() };
        SchemaMatcher::new(config)
            .match_score(|| name_similarity(&a.column, &b.column), a, b)
            .expect("every pair scores at threshold −∞")
    }

    fn applicants() -> Table {
        Table::new(
            "applicants",
            vec![
                ("applicant_id", Column::from_ints((0..50).map(Some).collect::<Vec<_>>())),
                ("income", Column::from_floats((0..50).map(|i| Some(i as f64 * 1000.0)).collect::<Vec<_>>())),
            ],
        )
        .unwrap()
    }

    fn credit() -> Table {
        Table::new(
            "credit",
            vec![
                // Same key domain, similar name → strong match.
                ("applicantId", Column::from_ints((0..50).map(Some).collect::<Vec<_>>())),
                // Overlapping values but unrelated name → spurious edge.
                ("credit_score", Column::from_ints((0..50).map(Some).collect::<Vec<_>>())),
                ("notes", Column::from_strs((0..50).map(|i| Some(format!("n{i}"))).collect::<Vec<_>>())),
            ],
        )
        .unwrap()
    }

    #[test]
    fn finds_the_true_key_pair_with_top_score() {
        let m = SchemaMatcher::paper_default();
        let matches = profile_and_match(&m, &applicants(), &credit());
        assert!(!matches.is_empty());
        assert_eq!(matches[0].left_column, "applicant_id");
        assert_eq!(matches[0].right_column, "applicantId");
        assert!(matches[0].score > 0.9);
    }

    #[test]
    fn spurious_value_overlap_also_surfaces() {
        // The paper *wants* spurious-but-not-irrelevant edges at 0.55.
        let m = SchemaMatcher::paper_default();
        let matches = profile_and_match(&m, &applicants(), &credit());
        assert!(
            matches
                .iter()
                .any(|c| c.left_column == "applicant_id" && c.right_column == "credit_score"),
            "value-identical pair should pass the 0.55 threshold: {matches:?}"
        );
    }

    #[test]
    fn unrelated_string_column_does_not_match_keys() {
        let m = SchemaMatcher::paper_default();
        let matches = profile_and_match(&m, &applicants(), &credit());
        assert!(!matches
            .iter()
            .any(|c| c.right_column == "notes" && c.left_column == "applicant_id"));
    }

    #[test]
    fn threshold_is_respected() {
        let strict = SchemaMatcher::new(MatcherConfig { threshold: 0.99, ..Default::default() });
        let matches = profile_and_match(&strict, &applicants(), &credit());
        assert!(matches.iter().all(|c| c.score >= 0.99));
    }

    #[test]
    fn results_sorted_by_score() {
        let m = SchemaMatcher::paper_default();
        let matches = profile_and_match(&m, &applicants(), &credit());
        for w in matches.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn all_null_columns_never_match() {
        let l = Table::new("l", vec![("k", Column::from_ints([None, None]))]).unwrap();
        let r = Table::new("r", vec![("k", Column::from_ints([None, None]))]).unwrap();
        let m = SchemaMatcher::paper_default();
        assert!(profile_and_match(&m, &l, &r).is_empty());
    }

    #[test]
    fn unbounded_score_lies_in_the_unit_interval() {
        let t = applicants();
        let ps = ColumnProfile::build_all(&t);
        let m = SchemaMatcher::paper_default();
        let s = unbounded(&m, &ps[0], &ps[1]);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn zero_weights_do_not_panic_with_nan() {
        // Regression: name_weight + value_weight == 0 made the pair score
        // 0/0 = NaN and the `partial_cmp(..).expect("finite scores")`
        // sort aborted the process. Now the blend guards the division and
        // the sort is total.
        let m = SchemaMatcher::new(MatcherConfig {
            threshold: 0.0,
            name_weight: 0.0,
            value_weight: 0.0,
        });
        let matches = profile_and_match(&m, &applicants(), &credit());
        assert!(
            matches.iter().all(|c| c.score == 0.0),
            "zero-weight blend must score 0.0, not NaN: {matches:?}"
        );
    }

    #[test]
    fn instance_similarity_is_jaccard_plus_larger_containment() {
        let profile = |values: std::ops::Range<i64>| {
            ColumnProfile::build("t", "c", &Column::from_ints(values.map(Some)))
        };
        let m = SchemaMatcher::paper_default();
        // 100 and 50 values sharing 20: Jaccard 20/130, containments 0.2 and 0.4.
        let (a, b) = (profile(0..100), profile(80..130));
        let want: f64 = (20.0 / 130.0 + 20.0 / 50.0) / 2.0;
        assert_eq!(m.instance_similarity(&a, &b).to_bits(), want.to_bits());
        assert_eq!(m.instance_similarity(&b, &a).to_bits(), want.to_bits());
        assert_eq!(m.instance_similarity(&a, &a), 1.0);
        assert_eq!(m.instance_similarity(&a, &profile(500..600)), 0.0);
        // A foreign key inside its primary key scores on containment.
        assert_eq!(m.instance_similarity(&profile(10..20), &a), (10.0 / 100.0 + 1.0) / 2.0);
        assert_eq!(m.instance_similarity(&profile(0..0), &a), 0.0);
        assert_eq!(m.instance_similarity(&profile(0..0), &profile(0..0)), 0.0);
    }

    /// A pair whose key spans cannot meet is rejected on its spans and
    /// counted, whatever its maps would say; a pair whose spans meet but
    /// whose values do not is left to the maps.
    #[test]
    fn pairs_apart_are_rejected_on_their_spans() {
        let profile = |name: &str, col: Column| ColumnProfile::build("t", name, &col);
        let ids = profile("id", Column::from_ints((0..50).map(Some)));
        let later = profile("id", Column::from_ints((50..100).map(Some)));
        let halves = profile("id", Column::from_floats((0..50).map(|i| Some(i as f64 + 0.5))));
        let m = SchemaMatcher::paper_default();
        let counted = |a: &ColumnProfile, b: &ColumnProfile| {
            let tracer = autofeat_obs::Tracer::enabled();
            let decided = autofeat_obs::with_tracer(&tracer, || m.match_score(|| 1.0, a, b));
            let count = |name| tracer.snapshot().counter(name).unwrap_or(0);
            (decided, count("match.pairs_range_rejected"), count("match.pairs_bound_rejected"))
        };
        assert!(!ids.may_share_keys(&later));
        assert_eq!(counted(&ids, &later), (None, 1, 1));
        assert!(ids.may_share_keys(&halves));
        assert_eq!(counted(&ids, &halves), (None, 0, 1));
        assert_eq!(counted(&ids, &ids).1, 0);
    }

    #[test]
    fn match_score_is_the_unbounded_score_cut_at_the_threshold() {
        let lp = ColumnProfile::build_all(&applicants());
        let rp = ColumnProfile::build_all(&credit());
        let weights = [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.5, 1.0), (1.0, -0.5)];
        for threshold in [-1.0, 0.0, 0.3, 0.55, 0.99] {
            for (name_weight, value_weight) in weights {
                let m = SchemaMatcher::new(MatcherConfig { threshold, name_weight, value_weight });
                for a in &lp {
                    for b in &rp {
                        let name = name_similarity(&a.column, &b.column);
                        let score = unbounded(&m, a, b);
                        assert_eq!(
                            m.match_score(|| name, a, b).map(f64::to_bits),
                            (score >= threshold).then_some(score.to_bits()),
                            "{}×{} at {threshold}, weights {name_weight}/{value_weight}",
                            a.column,
                            b.column
                        );
                    }
                }
            }
        }
    }
}
