//! Incremental DRG maintenance over an LSH-pruned candidate space.
//!
//! [`DrgMaintainer`] owns the per-table [`ColumnProfile`]s, a lake-wide
//! [`LshIndex`], a name-similarity cache, and the per-table-pair match
//! lists the DRG is assembled from. Tables can be added and removed one at
//! a time; each mutation profiles only the affected table, rescores only
//! the table pairs whose candidacy could have changed, and splices the
//! match lists in place — never an all-pairs rebuild.
//!
//! ## Hybrid candidate generation
//!
//! Pure LSH candidate generation has a recall bug: the composite scorer
//! blends *name* and *value* similarity, so a pair with a near-identical
//! name but weak value overlap (an FK against a heavily filtered PK, say)
//! passes the 0.55 threshold while never colliding in a value-sketch LSH
//! index. A column pair is therefore a candidate when it collides in the
//! LSH index (recall-heavy 64×2 banding, S-curve midpoint ≈ 0.125) **or**
//! its cached name similarity reaches [`NAME_CANDIDATE_TAU`]. With the
//! default 0.5/0.5 blend, a sub-τ name contributes < 0.375, so surviving
//! the 0.55 threshold needs instance similarity ≥ 0.35 — overlap the
//! recall-heavy banding catches with probability ≥ 0.99. Edge parity with
//! an all-pairs reference is asserted on generated lakes by
//! `tests/match_oracle.rs` and `tests/lake_mutation.rs`.
//!
//! ## Purity under mutation
//!
//! Stored match lists are a pure function of the *final* index state, so
//! any add/remove sequence ending in the same table set yields
//! bit-identical DRGs (gated by `tests/lake_mutation.rs`):
//! - name similarities never change for a fixed pair of names;
//! - a pair's LSH candidacy only flips when a shared bucket crosses the
//!   degenerate-bucket cap, and [`LshIndex::insert`]/[`LshIndex::remove`]
//!   report exactly those buckets so the affected table pairs are rescored;
//! - pairs involving the mutated table are always rescored against the
//!   post-mutation index.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use autofeat_data::Table;
use autofeat_discovery::name_sim::name_similarity;
use autofeat_discovery::{ColumnMatch, ColumnProfile, LshIndex, SchemaMatcher};
use autofeat_obs as obs;

use crate::drg::{Drg, DrgBuilder};

/// Name-similarity level at which a column pair is a match candidate even
/// without an LSH collision. High enough to skip cross-family suffix names
/// (`inf_3` vs `noise_12` sit near 0.66 Jaro-Winkler), low enough to keep
/// every pair whose name alone could carry it over the 0.55 threshold.
pub const NAME_CANDIDATE_TAU: f64 = 0.75;

#[derive(Debug, Clone)]
struct TableState {
    /// Column profiles in table column order.
    profiles: Vec<ColumnProfile>,
    /// Global LSH column ids, parallel to `profiles`.
    ids: Vec<usize>,
}

/// Incrementally maintained DRG state: profiles, LSH index, name-sim
/// cache, and per-table-pair match lists (see module docs).
#[derive(Debug, Clone)]
pub struct DrgMaintainer {
    matcher: SchemaMatcher,
    tau_name: f64,
    lsh: LshIndex,
    tables: BTreeMap<String, TableState>,
    /// LSH column id → (table, column index).
    by_id: HashMap<usize, (String, usize)>,
    next_id: usize,
    /// `(lo, hi)` name pair (ordered, nested) → similarity. Pure values —
    /// entries are never invalidated; growth is bounded by the distinct
    /// column names ever seen, not by churn.
    name_sims: HashMap<String, HashMap<String, f64>>,
    /// Ordered table pair → its match list (absent when empty).
    pair_matches: BTreeMap<(String, String), Vec<ColumnMatch>>,
}

impl DrgMaintainer {
    /// Fresh maintainer with the hybrid-default LSH banding.
    pub fn new(matcher: SchemaMatcher) -> Self {
        DrgMaintainer::with_lsh(matcher, LshIndex::hybrid_default(), NAME_CANDIDATE_TAU)
    }

    /// Fresh maintainer with a custom index and name-candidacy threshold
    /// (tests use tiny bucket caps to exercise cap crossings).
    pub fn with_lsh(matcher: SchemaMatcher, lsh: LshIndex, tau_name: f64) -> Self {
        DrgMaintainer {
            matcher,
            tau_name,
            lsh,
            tables: BTreeMap::new(),
            by_id: HashMap::new(),
            next_id: 0,
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

    /// The matcher this maintainer scores with.
    pub fn matcher(&self) -> &SchemaMatcher {
        &self.matcher
    }

    /// Number of resident tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Whether `name` is resident.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Resident table names in sorted order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Profile a table and add it (replacing any previous table of the
    /// same name). Profiling cost is the table's alone; rescoring touches
    /// only pairs involving this table plus pairs whose bucket candidacy
    /// flipped.
    pub fn add_table(&mut self, table: &Table) {
        let profiles = ColumnProfile::build_all(table);
        self.add_profiles(table.name(), profiles);
    }

    /// Add a pre-profiled table (lets callers profile outside their lake
    /// lock).
    pub fn add_profiles(&mut self, name: &str, profiles: Vec<ColumnProfile>) {
        let _span = obs::span("drg_incremental_add");
        if self.tables.contains_key(name) {
            self.remove_table(name);
        }
        // 1. Index the new columns; note buckets pushed over the cap.
        let mut ids = Vec::with_capacity(profiles.len());
        let mut crossed: Vec<(usize, u64)> = Vec::new();
        for p in &profiles {
            let id = self.next_id;
            self.next_id += 1;
            crossed.extend(self.lsh.insert(id, p));
            ids.push(id);
        }
        for (idx, &id) in ids.iter().enumerate() {
            self.by_id.insert(id, (name.to_string(), idx));
        }
        self.tables.insert(name.to_string(), TableState { profiles, ids });

        // 2. Rescore every pair involving the new table against the final
        //    index state. The per-pair work is candidate-gated (a name-sim
        //    cache hit plus an O(bands) collision probe for non-candidates),
        //    so this scan stays cheap even on wide lakes.
        let others: Vec<String> =
            self.tables.keys().filter(|t| t.as_str() != name).cloned().collect();
        let mut rescored = 0u64;
        for other in &others {
            self.rescore_pair(name, other);
            rescored += 1;
        }

        // 3. Pairs that lost candidacy through a bucket crossing the cap.
        rescored += self.rescore_crossed(&crossed, name);
        obs::incr("drg.incremental.tables_added");
        obs::add("drg.incremental.pairs_rescored", rescored);
    }

    /// Remove a table; unknown names are a no-op returning `false`.
    pub fn remove_table(&mut self, name: &str) -> bool {
        let Some(state) = self.tables.remove(name) else {
            return false;
        };
        let _span = obs::span("drg_incremental_remove");
        let mut uncrossed: Vec<(usize, u64)> = Vec::new();
        for &id in &state.ids {
            uncrossed.extend(self.lsh.remove(id));
            self.by_id.remove(&id);
        }
        self.pair_matches.retain(|(a, b), _| a != name && b != name);
        // Pairs that regained candidacy when a bucket dropped back under
        // the cap.
        let rescored = self.rescore_crossed(&uncrossed, name);
        obs::incr("drg.incremental.tables_removed");
        obs::add("drg.incremental.pairs_rescored", rescored);
        true
    }

    /// Recompute the match lists of table pairs touched by cap-crossing
    /// buckets, excluding pairs involving `except` (already rescored, or
    /// just removed). Returns the number of pairs rescored.
    fn rescore_crossed(&mut self, crossings: &[(usize, u64)], except: &str) -> u64 {
        let mut affected: BTreeSet<(String, String)> = BTreeSet::new();
        for &(band, hash) in crossings {
            let mut names: BTreeSet<&String> = BTreeSet::new();
            for id in self.lsh.bucket_members(band, hash) {
                if let Some((t, _)) = self.by_id.get(id) {
                    if t != except {
                        names.insert(t);
                    }
                }
            }
            let names: Vec<&String> = names.into_iter().collect();
            for (i, a) in names.iter().enumerate() {
                for b in &names[i + 1..] {
                    affected.insert(((*a).clone(), (*b).clone()));
                }
            }
        }
        let n = affected.len() as u64;
        for (a, b) in affected {
            self.rescore_pair(&a, &b);
        }
        n
    }

    /// Recompute one table pair's match list from current state.
    fn rescore_pair(&mut self, a: &str, b: &str) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let DrgMaintainer { matcher, tau_name, lsh, tables, name_sims, pair_matches, .. } = self;
        let (Some(left), Some(right)) = (tables.get(lo), tables.get(hi)) else {
            pair_matches.remove(&(lo.to_string(), hi.to_string()));
            return;
        };
        let list = pair_list(matcher, *tau_name, lsh, name_sims, left, right);
        let key = (lo.to_string(), hi.to_string());
        if list.is_empty() {
            pair_matches.remove(&key);
        } else {
            obs::add("drg.incremental.edges_spliced", list.len() as u64);
            pair_matches.insert(key, list);
        }
    }

    /// Assemble the current DRG: nodes in sorted table-name order, edges
    /// per ordered table pair in matcher order — the exact layout an
    /// all-pairs match over name-sorted tables produces.
    pub fn assemble(&self) -> Drg {
        let _span = obs::span("drg_assemble");
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
        obs::add("graph.nodes", drg.n_nodes() as u64);
        obs::add("graph.edges_added", drg.n_edges() as u64);
        drg
    }

    /// Rough resident footprint in bytes: profiles, LSH buckets, and the
    /// name-sim cache. Charged by `SearchContext` like key metadata (lake
    /// state, not cache-budget occupancy).
    pub fn resident_bytes(&self) -> usize {
        let profile_bytes: usize = self
            .tables
            .values()
            .flat_map(|s| s.profiles.iter())
            .map(|p| {
                let exact = p.value_hashes.as_ref().map_or(0, |run| run.resident_bytes());
                exact + p.sketch.slots().len() * 8 + p.table.len() + p.column.len() + 96
            })
            .sum();
        let name_bytes: usize = self
            .name_sims
            .iter()
            .map(|(k, m)| k.len() + 48 + m.keys().map(|n| n.len() + 40).sum::<usize>())
            .sum();
        profile_bytes + name_bytes + self.lsh.resident_bytes()
    }
}

/// Cached symmetric name similarity.
fn cached_name_sim(cache: &mut HashMap<String, HashMap<String, f64>>, a: &str, b: &str) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if let Some(&s) = cache.get(lo).and_then(|m| m.get(hi)) {
        return s;
    }
    let s = name_similarity(lo, hi);
    cache.entry(lo.to_string()).or_default().insert(hi.to_string(), s);
    s
}

/// The candidate-gated match list of one table pair, in
/// [`SchemaMatcher::match_order`]. Scores are bit-identical to
/// `SchemaMatcher::match_profiles` (same blend arithmetic via
/// `match_score`); the gate only skips pairs whose score could not reach
/// the threshold (see module docs). A non-positive threshold disables the
/// gate entirely — every pair scores, preserving exact all-pairs semantics
/// for degenerate configs. `match.pairs_scored` counts the pairs that got
/// past the gate; how many of those `match_score` settled from the
/// occupancy maps without a merge is its `match.pairs_bound_rejected`.
fn pair_list(
    matcher: &SchemaMatcher,
    tau_name: f64,
    lsh: &LshIndex,
    name_sims: &mut HashMap<String, HashMap<String, f64>>,
    left: &TableState,
    right: &TableState,
) -> Vec<ColumnMatch> {
    let gate = matcher.config().threshold > 0.0;
    let mut out = Vec::new();
    let mut scored = 0u64;
    let mut pruned = 0u64;
    for (pa, &ida) in left.profiles.iter().zip(&left.ids) {
        if gate && !pa.is_joinable_candidate() {
            pruned += right.profiles.len() as u64;
            continue;
        }
        for (pb, &idb) in right.profiles.iter().zip(&right.ids) {
            if gate && !pb.is_joinable_candidate() {
                pruned += 1;
                continue;
            }
            let name = cached_name_sim(name_sims, &pa.column, &pb.column);
            if gate && name < tau_name && !lsh.collides(ida, idb) {
                pruned += 1;
                continue;
            }
            scored += 1;
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
    obs::add("match.pairs_scored", scored);
    obs::add("match.pairs_pruned", pruned);
    obs::add("match.pairs_matched", out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The reference the hybrid candidate model is held to: the schema
    /// matcher over every table pair, no LSH and no name gate.
    fn all_pairs_drg(tables: &[&Table], matcher: &SchemaMatcher) -> Drg {
        let mut b = DrgBuilder::new();
        for t in tables {
            b.add_table(t.name());
        }
        let profiles: Vec<Vec<ColumnProfile>> =
            tables.iter().map(|t| ColumnProfile::build_all(t)).collect();
        for i in 0..tables.len() {
            for j in (i + 1)..tables.len() {
                for m in matcher.match_profiles(&profiles[i], &profiles[j]) {
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
        let full = all_pairs_drg(&sorted, &matcher);
        let inc = DrgMaintainer::build(&refs, &matcher).assemble();
        assert!(drg_identical(&full, &inc), "hybrid build must reproduce all-pairs edges");
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
    fn cap_crossings_keep_incremental_pure() {
        // A tiny bucket cap forces candidacy flips as identical columns
        // accumulate; convergence must still hold.
        let matcher = SchemaMatcher::paper_default();
        let mk = |cap: usize| {
            DrgMaintainer::with_lsh(
                matcher.clone(),
                LshIndex::hybrid_default().with_bucket_cap(cap),
                NAME_CANDIDATE_TAU,
            )
        };
        // Same value domain everywhere, dissimilar names → candidacy comes
        // only from LSH, and every shared bucket holds all columns.
        let ts: Vec<Table> = (0..4)
            .map(|i| {
                // Names chosen to stay under the 0.75 name-candidacy tau.
                let names = ["alpha", "brick", "crumb", "dizzy"];
                table(names[i], vec![(&format!("col{i}"), ints(0..150))])
            })
            .collect();
        for cap in [2, 3, 8] {
            let mut inc = mk(cap);
            for t in &ts {
                inc.add_table(t);
            }
            inc.remove_table("brick");
            inc.add_table(&ts[1]);
            let mut fresh = mk(cap);
            for t in &ts {
                fresh.add_table(t);
            }
            // Different mutation histories, same final set.
            assert!(
                drg_identical(&fresh.assemble(), &inc.assemble()),
                "cap {cap} broke incremental purity"
            );
        }
    }

    #[test]
    fn remove_unknown_is_noop() {
        let matcher = SchemaMatcher::paper_default();
        let mut m = DrgMaintainer::new(matcher);
        assert!(!m.remove_table("nope"));
        assert_eq!(m.n_tables(), 0);
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
        assert_eq!(m.n_tables(), 2);
    }

    #[test]
    fn resident_bytes_is_nonzero_and_grows() {
        let matcher = SchemaMatcher::paper_default();
        let mut m = DrgMaintainer::new(matcher);
        let empty = m.resident_bytes();
        m.add_table(&table("t", vec![("k", ints(0..500))]));
        assert!(m.resident_bytes() > empty);
    }
}
