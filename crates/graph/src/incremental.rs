//! Incremental DRG maintenance over exactly decided column pairs.
//!
//! [`DrgMaintainer`] owns the per-table [`ColumnProfile`]s, a
//! name-similarity cache, and the per-table-pair match lists the DRG is
//! assembled from. Tables can be added and removed one at a time; each
//! mutation profiles only the affected table, scores only that table's
//! pairs, and splices the match lists in place — never an all-pairs
//! rebuild.
//!
//! ## Every pair, decided exactly
//!
//! Every cross-table column pair goes to [`SchemaMatcher::match_score`].
//! Its occupancy bound settles a pair that cannot reach the threshold from
//! the two profiles' maps — most of them before their names are compared,
//! all without merging their value runs — and it rejects exactly: the
//! bound is never below the true intersection. So a table
//! pair's match list is the all-pairs matcher's by construction — there is
//! no candidate filter in front that could drop an edge.
//! `tests/match_oracle.rs` holds the DRG to an independent all-pairs
//! reference.
//!
//! ## Purity under mutation
//!
//! A table pair's match list is a pure function of the two tables' profiles
//! and the matcher (name similarities never change for a fixed pair of
//! names), and nothing couples one table pair to another. So adding a table
//! scores its own pairs, removing one drops them, and any add/remove
//! sequence ending in the same table set yields a bit-identical DRG — gated
//! by `tests/lake_mutation.rs`, and asserted by
//! [`assemble`](DrgMaintainer::assemble) in debug builds.

use std::collections::{BTreeMap, HashMap};

use autofeat_data::Table;
use autofeat_obs as obs;

use crate::discovery::name_sim::name_similarity;
use crate::discovery::{ColumnMatch, ColumnProfile, SchemaMatcher};
use crate::drg::{Drg, DrgBuilder, JoinEdge};

/// `(lo, hi)` name pair (ordered, nested) → similarity.
type NameSims = HashMap<String, HashMap<String, f64>>;

/// Incrementally maintained DRG state: profiles, name-sim cache, and
/// per-table-pair match lists (see module docs).
#[derive(Debug, Clone)]
pub struct DrgMaintainer {
    matcher: SchemaMatcher,
    /// Table name → its column profiles in table column order.
    tables: BTreeMap<String, Vec<ColumnProfile>>,
    /// Pure values — entries are never invalidated; growth is bounded by
    /// the distinct column names ever seen, not by churn.
    name_sims: NameSims,
    /// Ordered table pair → its match list (absent when empty).
    pair_matches: BTreeMap<(String, String), Vec<ColumnMatch>>,
}

impl DrgMaintainer {
    /// Fresh, empty maintainer.
    pub fn new(matcher: SchemaMatcher) -> Self {
        DrgMaintainer {
            matcher,
            tables: BTreeMap::new(),
            name_sims: HashMap::new(),
            pair_matches: BTreeMap::new(),
        }
    }

    /// Build a maintainer over a full table set — the load-time path.
    /// Defined as sequential [`add_table`](Self::add_table)s so the
    /// incremental path *is* the build path (no parity to lose).
    pub fn build(tables: &[&Table], matcher: &SchemaMatcher) -> Self {
        let _span = obs::span("drg_build");
        let mut m = DrgMaintainer::new(matcher.clone());
        for t in tables {
            m.add_table(t);
        }
        m
    }

    /// Profile a table and add it (replacing any previous table of the
    /// same name). Profiling cost is the table's alone, and scoring touches
    /// only the pairs involving this table.
    pub fn add_table(&mut self, table: &Table) {
        let profiles = ColumnProfile::build_all(table);
        self.add_profiles(table.name(), profiles);
    }

    /// Add a pre-profiled table (lets callers profile outside their lake
    /// lock).
    pub fn add_profiles(&mut self, name: &str, profiles: Vec<ColumnProfile>) {
        let _span = obs::span("drg_incremental_add");
        self.remove_table(name);
        let DrgMaintainer { matcher, tables, name_sims, pair_matches } = self;
        for (other, theirs) in tables.iter() {
            let (lo, hi, list) = if name < other.as_str() {
                (name, other.as_str(), pair_list(matcher, name_sims, &profiles, theirs))
            } else {
                (other.as_str(), name, pair_list(matcher, name_sims, theirs, &profiles))
            };
            if !list.is_empty() {
                obs::add("drg.incremental.edges_spliced", list.len() as u64);
                pair_matches.insert((lo.to_string(), hi.to_string()), list);
            }
        }
        obs::incr("drg.incremental.tables_added");
        obs::add("drg.incremental.pairs_rescored", tables.len() as u64);
        tables.insert(name.to_string(), profiles);
    }

    /// Remove a table; unknown names are a no-op returning `false`.
    pub fn remove_table(&mut self, name: &str) -> bool {
        if self.tables.remove(name).is_none() {
            return false;
        }
        let _span = obs::span("drg_incremental_remove");
        self.pair_matches.retain(|(a, b), _| a != name && b != name);
        obs::incr("drg.incremental.tables_removed");
        true
    }

    /// Assemble the current DRG: nodes in sorted table-name order, edges
    /// per ordered table pair in matcher order — the exact layout an
    /// all-pairs match over name-sorted tables produces.
    pub fn assemble(&self) -> Drg {
        let _span = obs::span("drg_assemble");
        debug_assert!(self.lists_are_fresh(), "a stored match list is not its pair's fresh score");
        let mut b = DrgBuilder::new();
        for name in self.tables.keys() {
            b.add_table(name.as_str());
        }
        for ((ta, tb), list) in &self.pair_matches {
            for m in list {
                b.add_discovered(ta, &m.left_column, tb, &m.right_column, m.score);
            }
        }
        let drg = b.build();
        debug_assert!(self.is_canonical(&drg), "the assembled DRG is not in canonical order");
        obs::add("graph.nodes", drg.n_nodes() as u64);
        obs::add("graph.edges_added", drg.n_edges() as u64);
        drg
    }

    /// Whether every resident table pair's stored list equals scoring the
    /// pair afresh, stored exactly when it is non-empty. Scores with a new
    /// name-sim cache and under a disabled tracer, so the check trusts no
    /// cached state and counts nothing.
    fn lists_are_fresh(&self) -> bool {
        obs::with_tracer(&obs::Tracer::disabled(), || {
            let mut name_sims = NameSims::new();
            let mut non_empty = 0;
            for (i, (lo, left)) in self.tables.iter().enumerate() {
                for (hi, right) in self.tables.iter().skip(i + 1) {
                    let fresh = pair_list(&self.matcher, &mut name_sims, left, right);
                    let stored = self.pair_matches.get(&(lo.clone(), hi.clone()));
                    if stored != (!fresh.is_empty()).then_some(&fresh) {
                        return false;
                    }
                    non_empty += usize::from(stored.is_some());
                }
            }
            non_empty == self.pair_matches.len()
        })
    }

    /// Whether `drg` is in canonical order: nodes by ascending table name,
    /// then edges grouped by ascending `(a, b)` table-name pair, each group
    /// its pair's stored match list in matcher order.
    fn is_canonical(&self, drg: &Drg) -> bool {
        let names: Vec<&str> = drg.nodes().map(|n| drg.table_name(n)).collect();
        let pair = |e: &JoinEdge| (drg.table_name(e.a), drg.table_name(e.b));
        let group_is_list = |group: &[JoinEdge]| {
            let (a, b) = pair(&group[0]);
            self.pair_matches.get(&(a.to_string(), b.to_string())).is_some_and(|list| {
                list.len() == group.len()
                    && list.iter().zip(group).all(|(m, e)| {
                        (&m.left_column, &m.right_column, m.score.to_bits())
                            == (&e.a_column, &e.b_column, e.weight.to_bits())
                    })
            })
        };
        names.windows(2).all(|w| w[0] < w[1])
            && drg.edges().windows(2).all(|w| pair(&w[0]) <= pair(&w[1]))
            && drg.edges().chunk_by(|x, y| pair(x) == pair(y)).all(group_is_list)
            && drg.n_edges() == self.pair_matches.values().map(Vec::len).sum::<usize>()
    }
}

/// Cached symmetric name similarity.
fn cached_name_sim(cache: &mut NameSims, a: &str, b: &str) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if let Some(&s) = cache.get(lo).and_then(|m| m.get(hi)) {
        return s;
    }
    let s = name_similarity(lo, hi);
    cache.entry(lo.to_string()).or_default().insert(hi.to_string(), s);
    s
}

/// The match list of one table pair, in [`SchemaMatcher::match_order`]:
/// every column pair decided by [`SchemaMatcher::match_score`], each kept
/// with its composite score. A name similarity is computed (and cached)
/// only for a pair whose values do not settle it.
/// `match.pairs_scored` counts the pairs; how many of them the occupancy
/// maps settled without a merge is `match.pairs_bound_rejected`.
fn pair_list(
    matcher: &SchemaMatcher,
    name_sims: &mut NameSims,
    left: &[ColumnProfile],
    right: &[ColumnProfile],
) -> Vec<ColumnMatch> {
    let mut out = Vec::new();
    for pa in left {
        for pb in right {
            let name = || cached_name_sim(name_sims, &pa.column, &pb.column);
            if let Some(score) = matcher.match_score(name, pa, pb) {
                out.push(ColumnMatch {
                    left_column: pa.column.clone(),
                    right_column: pb.column.clone(),
                    score,
                });
            }
        }
    }
    out.sort_by(SchemaMatcher::match_order);
    obs::add("match.pairs_scored", (left.len() * right.len()) as u64);
    obs::add("match.pairs_matched", out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::PAPER_THRESHOLD;
    use crate::drg::EdgeProvenance;
    use autofeat_data::Column;

    fn table(name: &str, cols: Vec<(&str, Vec<Option<i64>>)>) -> Table {
        Table::new(name, cols.into_iter().map(|(n, v)| (n, Column::from_ints(v))).collect())
            .unwrap()
    }

    fn ints(r: std::ops::Range<i64>) -> Vec<Option<i64>> {
        r.map(Some).collect()
    }

    fn lake() -> Vec<Table> {
        vec![
            table("base", vec![("user_id", ints(0..200)), ("target", ints(0..200))]),
            table("users", vec![("user_id", ints(0..200)), ("age", ints(1000..1200))]),
            table("orders", vec![("order_id", ints(500..700)), ("user_id", ints(0..200))]),
            table("ghost", vec![("zzz", ints(90_000..90_050))]),
        ]
    }

    fn drg_identical(a: &Drg, b: &Drg) -> bool {
        if a.n_nodes() != b.n_nodes() || a.n_edges() != b.n_edges() {
            return false;
        }
        if a.nodes().any(|n| a.table_name(n) != b.table_name(n)) {
            return false;
        }
        a.edges().iter().zip(b.edges()).all(|(x, y)| {
            x.a == y.a
                && x.b == y.b
                && x.a_column == y.a_column
                && x.b_column == y.b_column
                && x.weight.to_bits() == y.weight.to_bits()
                && x.provenance == y.provenance
        })
    }

    /// The reference the maintainer is held to: every pair of join
    /// candidates of every table pair scored without the bound — the blend
    /// of its name and instance similarity — then cut at the paper's
    /// threshold; no name cache.
    fn all_pairs_drg(tables: &[&Table]) -> Drg {
        let mut b = DrgBuilder::new();
        for t in tables {
            b.add_table(t.name());
        }
        let profiles: Vec<Vec<ColumnProfile>> =
            tables.iter().map(|t| ColumnProfile::build_all(t)).collect();
        for i in 0..tables.len() {
            for j in (i + 1)..tables.len() {
                let mut matches = Vec::new();
                for pa in &profiles[i] {
                    for pb in &profiles[j] {
                        if !pa.is_joinable_candidate() || !pb.is_joinable_candidate() {
                            continue;
                        }
                        let name = name_similarity(&pa.column, &pb.column);
                        let score =
                            SchemaMatcher::blend(name, SchemaMatcher.instance_similarity(pa, pb));
                        if score >= PAPER_THRESHOLD {
                            matches.push(ColumnMatch {
                                left_column: pa.column.clone(),
                                right_column: pb.column.clone(),
                                score,
                            });
                        }
                    }
                }
                matches.sort_by(SchemaMatcher::match_order);
                for m in matches {
                    b.add_discovered(
                        tables[i].name(),
                        &m.left_column,
                        tables[j].name(),
                        &m.right_column,
                        m.score,
                    );
                }
            }
        }
        b.build()
    }

    #[test]
    fn build_matches_all_pairs_discovery() {
        let tables = lake();
        let refs: Vec<&Table> = tables.iter().collect();
        let matcher = SchemaMatcher::paper_default();
        // Sorted input so the all-pairs node order matches assemble()'s.
        let mut sorted = refs.clone();
        sorted.sort_by_key(|t| t.name().to_string());
        let full = all_pairs_drg(&sorted);
        let inc = DrgMaintainer::build(&refs, &matcher).assemble();
        assert!(drg_identical(&full, &inc), "the build must reproduce all-pairs edges");
        assert!(inc.n_edges() >= 3, "expected the user_id clique: {:?}", inc.edges());
    }

    #[test]
    fn build_yields_discovered_multi_edges() {
        let t1 = table("t1", vec![("id", ints(0..30))]);
        let t2 = table("t2", vec![("id", ints(0..30)), ("id_copy", ints(0..30))]);
        let g = DrgMaintainer::build(&[&t1, &t2], &SchemaMatcher::paper_default()).assemble();
        assert_eq!(g.n_nodes(), 2);
        assert!(g.n_edges() >= 2, "expected multi-edges, got {}", g.n_edges());
        assert!(g.edges().iter().all(|e| e.provenance == EdgeProvenance::Discovered));
    }

    #[test]
    fn a_table_never_matches_itself() {
        let t = table("t", vec![("a", ints(0..100)), ("b", ints(0..100))]);
        let g = DrgMaintainer::build(&[&t], &SchemaMatcher::paper_default()).assemble();
        assert_eq!(g.n_edges(), 0, "no self-table edges");
    }

    #[test]
    fn add_remove_converges_to_fresh_build() {
        let tables = lake();
        let matcher = SchemaMatcher::paper_default();
        let mut m = DrgMaintainer::new(matcher.clone());
        for t in &tables {
            m.add_table(t);
        }
        m.remove_table("orders");
        m.remove_table("ghost");
        m.add_table(&tables[2]); // orders back
        let refs: Vec<&Table> = tables.iter().filter(|t| t.name() != "ghost").collect();
        let fresh = DrgMaintainer::build(&refs, &matcher).assemble();
        assert!(drg_identical(&fresh, &m.assemble()));
    }

    #[test]
    fn insertion_order_is_immaterial() {
        let tables = lake();
        let matcher = SchemaMatcher::paper_default();
        let fwd: Vec<&Table> = tables.iter().collect();
        let rev: Vec<&Table> = tables.iter().rev().collect();
        let a = DrgMaintainer::build(&fwd, &matcher).assemble();
        let b = DrgMaintainer::build(&rev, &matcher).assemble();
        assert!(drg_identical(&a, &b));
    }

    #[test]
    fn remove_unknown_is_noop() {
        let matcher = SchemaMatcher::paper_default();
        let mut m = DrgMaintainer::new(matcher);
        assert!(!m.remove_table("nope"));
        assert!(m.tables.is_empty());
    }

    #[test]
    fn readd_replaces_previous_version() {
        let matcher = SchemaMatcher::paper_default();
        let mut m = DrgMaintainer::new(matcher.clone());
        m.add_table(&table("base", vec![("k", ints(0..100))]));
        m.add_table(&table("other", vec![("k", ints(0..100))]));
        let before = m.assemble();
        assert_eq!(before.n_edges(), 1);
        // Replace `other` with a disjoint-valued version: the edge must go.
        m.add_table(&table("other", vec![("zq", ints(50_000..50_100))]));
        assert_eq!(m.assemble().n_edges(), 0);
        assert_eq!(m.tables.len(), 2);
    }
}
