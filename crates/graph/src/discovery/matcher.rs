//! The composite schema matcher (COMA substitute).
//!
//! For every cross-table column pair the matcher blends name similarity and
//! instance (value-overlap) similarity into one score in `[0, 1]`; pairs
//! reaching the paper's threshold become candidate join edges for the DRG.
//! The threshold and the two weights are the paper's and fixed.
//!
//! [`SchemaMatcher::match_score`] decides a pair from its summaries first
//! and its values last: two columns whose key spans cannot meet share no
//! value, so their intersection is bounded by 0 without reading either
//! occupancy map; any other pair is bounded by its maps; only a pair the
//! bound cannot reject merges its two value runs.

use crate::discovery::profile::ColumnProfile;
use crate::discovery::PAPER_THRESHOLD;

/// Weight of name similarity in the blend.
const NAME_WEIGHT: f64 = 0.5;
/// Weight of instance similarity in the blend.
const VALUE_WEIGHT: f64 = 0.5;

// `match_score` rejects a pair by blending an upper bound on its
// intersection, which is exact only while the blend does not decrease as
// either term grows: a positive value weight and a non-negative name weight.
// A pair that is no join candidate scores 0, which the threshold rejects.
const _: () = assert!(VALUE_WEIGHT > 0.0 && NAME_WEIGHT >= 0.0 && PAPER_THRESHOLD > 0.0);

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

/// The schema matcher, at the paper's 0.55 threshold and equal weights.
#[derive(Debug, Clone, Default)]
pub struct SchemaMatcher;

impl SchemaMatcher {
    /// The matcher (the paper's threshold and weights).
    pub fn paper_default() -> Self {
        SchemaMatcher
    }

    /// Instance similarity of two profiles: exact Jaccard blended with the
    /// larger containment direction, all three terms fed by one merge of
    /// the two runs.
    pub fn instance_similarity(&self, a: &ColumnProfile, b: &ColumnProfile) -> f64 {
        let (ra, rb) = (&a.value_hashes, &b.value_hashes);
        exact_similarity(ra.len(), rb.len(), ra.intersection_len(rb))
    }

    /// The match decision for one pair, and the matcher's one scorer:
    /// `Some(score)` iff the pair's composite score — the blend of name and
    /// instance similarity, 0 when either column is no join candidate —
    /// reaches the threshold. The name similarity comes from `name`, called
    /// only for a pair its values cannot rule out (callers that cache name
    /// sims across many pairs — the incremental DRG maintainer — then
    /// neither compute nor cache one for most of a lake's pairs).
    ///
    /// Before merging two value runs it asks whether the pair could reach
    /// the threshold at all: the same blend, evaluated at an upper bound in
    /// place of the intersection — first at name similarity 1, the most a
    /// name scores, then at the pair's own. The bound is 0 for a pair whose
    /// key spans cannot meet (`ColumnProfile::may_share_keys`; counted in
    /// `match.pairs_range_rejected` when that rejects it), and
    /// [`ValueRun::intersection_bound`] from the occupancy maps otherwise.
    /// That rejects exactly, not heuristically — the bound is never below
    /// the intersection, and every step from intersection and name
    /// similarity to blended score is a correctly rounded operation that
    /// does not decrease as either grows, since the value weight is
    /// positive and the name weight non-negative.
    ///
    /// [`ValueRun::intersection_bound`]: crate::discovery::value_sim::ValueRun::intersection_bound
    pub fn match_score(
        &self,
        name: impl FnOnce() -> f64,
        a: &ColumnProfile,
        b: &ColumnProfile,
    ) -> Option<f64> {
        if !a.is_joinable_candidate() || !b.is_joinable_candidate() {
            return None;
        }
        let (ra, rb) = (&a.value_hashes, &b.value_hashes);
        let apart = !a.may_share_keys(b);
        let shared = if apart { 0 } else { ra.intersection_bound(rb) };
        let at_most = exact_similarity(ra.len(), rb.len(), shared);
        let short = |name: f64| Self::blend(name, at_most) < PAPER_THRESHOLD;
        let name = if short(1.0) { None } else { Some(name()) };
        let Some(name) = name.filter(|&name| !short(name)) else {
            autofeat_obs::incr("match.pairs_bound_rejected");
            if apart {
                autofeat_obs::incr("match.pairs_range_rejected");
            }
            return None;
        };
        let score = Self::blend(name, self.instance_similarity(a, b));
        (score >= PAPER_THRESHOLD).then_some(score)
    }

    /// The composite score of a candidate pair with name similarity `name`
    /// and instance similarity `inst`: their weighted mean.
    pub(crate) fn blend(name: f64, inst: f64) -> f64 {
        ((NAME_WEIGHT * name + VALUE_WEIGHT * inst) / (NAME_WEIGHT + VALUE_WEIGHT)).clamp(0.0, 1.0)
    }

    /// The order of a table pair's match list: descending score (a total
    /// order), then column names. The DRG maintainer sorts every list by
    /// it, so its edges follow it.
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

    /// A pair's score without the bound: the blend of its name and instance
    /// similarity, 0 when either column is no join candidate.
    fn unbounded(a: &ColumnProfile, b: &ColumnProfile) -> f64 {
        if !a.is_joinable_candidate() || !b.is_joinable_candidate() {
            return 0.0;
        }
        let name = name_similarity(&a.column, &b.column);
        SchemaMatcher::blend(name, SchemaMatcher.instance_similarity(a, b))
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
        let s = unbounded(&ps[0], &ps[1]);
        assert!((0.0..=1.0).contains(&s));
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
        let m = SchemaMatcher::paper_default();
        for a in &lp {
            for b in &rp {
                let name = name_similarity(&a.column, &b.column);
                let score = unbounded(a, b);
                assert_eq!(
                    m.match_score(|| name, a, b).map(f64::to_bits),
                    (score >= PAPER_THRESHOLD).then_some(score.to_bits()),
                    "{}×{}",
                    a.column,
                    b.column
                );
            }
        }
    }

    /// A foreign key inside a primary key of more than 100 000 distinct
    /// keys, under the same name, is an edge: its instance similarity is
    /// the exact Jaccard averaged with containment 1, as for any smaller
    /// pair. A Jaccard estimate alone (≈ 0.01) would blend to ≈ 0.505.
    #[test]
    fn a_subset_of_a_wide_key_scores_on_its_containment() {
        let build = |keys: std::ops::Range<i64>| {
            ColumnProfile::build("t", "customer_id", &Column::from_ints(keys.map(Some)))
        };
        let (parent, child) = (build(0..100_001), build(40_000..41_000));
        assert_eq!((parent.distinct(), child.distinct()), (100_001, 1_000));
        let m = SchemaMatcher::paper_default();
        let inst: f64 = (1_000.0 / 100_001.0 + 1.0) / 2.0;
        assert_eq!(m.instance_similarity(&parent, &child).to_bits(), inst.to_bits());
        assert_eq!(m.instance_similarity(&child, &parent).to_bits(), inst.to_bits());
        for (a, b) in [(&parent, &child), (&child, &parent)] {
            let score = m.match_score(|| 1.0, a, b).expect("the subset is an edge");
            assert!((score - 0.7525).abs() < 1e-4, "{score}");
        }
    }
}
