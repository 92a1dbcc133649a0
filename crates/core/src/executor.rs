//! Join-path materialization: turn a [`JoinPath`] into an augmented table
//! by replaying its hops as normalized left joins.
//!
//! Each hop is joined by `SearchContext::join_hop`, the join discovery
//! scored it with: the same right table, the same qualified left key and
//! the same seed, derived from the hop's identity within its path
//! ([`crate::seeding::hop_seed`]). So the rows a feature was scored on
//! during discovery are the rows it is trained on after materialization.

use autofeat_data::control::ambient_interrupted;
use autofeat_data::{DataError, Result, Table};
use autofeat_graph::JoinPath;

use crate::context::SearchContext;

/// The column name a hop's left key has inside the intermediate table:
/// base-table columns keep their names; columns joined in from table `t`
/// were renamed to `t.col`.
pub fn qualified_column(base_name: &str, table: &str, column: &str) -> String {
    if table == base_name {
        column.to_string()
    } else {
        format!("{table}.{column}")
    }
}

/// Materialize a join path starting from `start` (usually the full base
/// table, or a stratified sample of it during discovery). Replays each hop
/// as a left join with cardinality normalization; right-hand columns get
/// `table.` prefixes.
pub fn materialize_path(
    ctx: &SearchContext,
    start: &Table,
    path: &JoinPath,
    seed: u64,
) -> Result<Table> {
    let _span = autofeat_obs::span("materialize");
    let mut current = start.clone();
    for (i, hop) in path.hops().iter().enumerate() {
        // Cooperative checkpoint per hop: a cancel or deadline on the
        // request scope's control winds the replay down between joins.
        if let Some(reason) = ambient_interrupted() {
            return Err(DataError::Interrupted(reason));
        }
        // Joins go through the context's lake-wide index cache, as
        // discovery's do: replaying a path discovery already explored reuses
        // the indexes discovery built. Under a byte budget the cache may
        // deny an index, but that changes how often one is built, never the
        // rows a join picks.
        current = ctx.join_hop(&current, &path.hops()[..i], hop, seed)?.table;
    }
    Ok(current)
}

/// Materialize a **join tree**: the union of several ranked paths rooted at
/// the base table (the paper's output is "depicted as a join tree", Fig. 2,
/// and its reported `#tables joined` exceeds any single chain's length).
///
/// Paths are replayed in the given (rank) order; a table already joined by
/// an earlier path is not joined again — its columns are already present
/// under the same `table.` prefix, so later hops can still use it as a
/// stepping stone. Returns the joined table and the distinct non-base
/// tables joined.
pub(crate) fn materialize_tree(
    ctx: &SearchContext,
    start: &Table,
    paths: &[&JoinPath],
    seed: u64,
) -> Result<(Table, Vec<String>)> {
    let _span = autofeat_obs::span("materialize");
    let mut current = start.clone();
    // `joined` preserves rank order for the caller; `joined_set` gives O(1)
    // membership so tree materialization stays linear in total hop count.
    let mut joined: Vec<String> = Vec::new();
    let mut joined_set: std::collections::HashSet<String> = std::collections::HashSet::new();
    for path in paths {
        for (i, hop) in path.hops().iter().enumerate() {
            // Same cooperative checkpoint as `materialize_path`.
            if let Some(reason) = ambient_interrupted() {
                return Err(DataError::Interrupted(reason));
            }
            if joined_set.contains(&hop.to_table) {
                continue;
            }
            // A branch whose stepping stone was never joined (its path
            // prefix was pruned elsewhere) is skipped; a missing table is
            // still `join_hop`'s error.
            let left_key = qualified_column(ctx.base_name(), &hop.from_table, &hop.from_column);
            if ctx.table(&hop.to_table).is_some() && !current.has_column(&left_key) {
                break;
            }
            // The seed is the hop's identity *within its own path*, so a
            // table shared by several ranked paths gets the picks of the
            // first (best-ranked) path that joins it — the same picks its
            // discovery-time score was computed on.
            current = ctx.join_hop(&current, &path.hops()[..i], hop, seed)?.table;
            joined_set.insert(hop.to_table.clone());
            joined.push(hop.to_table.clone());
        }
    }
    Ok((current, joined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeding::hop_seed;
    use autofeat_data::{Column, Value};
    use autofeat_graph::JoinHop;

    fn ctx() -> SearchContext {
        let base = Table::new(
            "base",
            vec![
                ("a_id", Column::from_ints((0..10).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints((0..10).map(|i| Some(i % 2)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let a = Table::new(
            "a",
            vec![
                ("a_id", Column::from_ints((0..10).map(Some).collect::<Vec<_>>())),
                ("b_id", Column::from_ints((0..10).map(|i| Some(100 + i)).collect::<Vec<_>>())),
                ("fa", Column::from_floats((0..10).map(|i| Some(i as f64)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let b = Table::new(
            "b",
            vec![
                ("b_id", Column::from_ints((0..10).map(|i| Some(100 + i)).collect::<Vec<_>>())),
                ("fb", Column::from_floats((0..10).map(|i| Some(i as f64 * 10.0)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, a, b],
            &[
                ("base".into(), "a_id".into(), "a".into(), "a_id".into()),
                ("a".into(), "b_id".into(), "b".into(), "b_id".into()),
            ],
            "base",
            "target",
        )
        .unwrap()
    }

    fn hop(from: &str, fc: &str, to: &str, tc: &str) -> JoinHop {
        JoinHop {
            from_table: from.into(),
            from_column: fc.into(),
            to_table: to.into(),
            to_column: tc.into(),
            weight: 1.0,
        }
    }

    #[test]
    fn one_hop_materializes() {
        let c = ctx();
        let path = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let t = materialize_path(&c, c.base_table(), &path, 0).unwrap();
        assert_eq!(t.n_rows(), 10);
        assert!(t.has_column("a.fa"));
        assert_eq!(t.value("a.fa", 3).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn two_hop_uses_qualified_intermediate_key() {
        let c = ctx();
        let path = JoinPath::from_hops(vec![
            hop("base", "a_id", "a", "a_id"),
            hop("a", "b_id", "b", "b_id"),
        ]);
        let t = materialize_path(&c, c.base_table(), &path, 0).unwrap();
        assert!(t.has_column("b.fb"));
        assert_eq!(t.value("b.fb", 5).unwrap(), Value::Float(50.0));
    }

    #[test]
    fn empty_path_returns_start() {
        let c = ctx();
        let t = materialize_path(&c, c.base_table(), &JoinPath::empty(), 0).unwrap();
        assert_eq!(&t, c.base_table());
    }

    #[test]
    fn unknown_table_errors() {
        let c = ctx();
        let path = JoinPath::from_hops(vec![hop("base", "a_id", "ghost", "x")]);
        assert!(materialize_path(&c, c.base_table(), &path, 0).is_err());
    }

    #[test]
    fn qualified_column_rules() {
        assert_eq!(qualified_column("base", "base", "x"), "x");
        assert_eq!(qualified_column("base", "a", "x"), "a.x");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ctx();
        let path = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let t1 = materialize_path(&c, c.base_table(), &path, 7).unwrap();
        let t2 = materialize_path(&c, c.base_table(), &path, 7).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn tree_union_joins_each_table_once() {
        let c = ctx();
        let p1 = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let p2 = JoinPath::from_hops(vec![
            hop("base", "a_id", "a", "a_id"),
            hop("a", "b_id", "b", "b_id"),
        ]);
        let (t, joined) = materialize_tree(&c, c.base_table(), &[&p1, &p2], 0).unwrap();
        assert_eq!(joined, vec!["a".to_string(), "b".to_string()]);
        assert!(t.has_column("a.fa"));
        assert!(t.has_column("b.fb"));
        // No duplicate-suffix columns: `a` joined exactly once.
        assert!(!t.has_column("a.fa#2"));
        assert_eq!(t.n_rows(), 10);
    }

    /// Context whose `a` table has several rows per key with different
    /// feature values, so representative picks are observable.
    fn dup_ctx() -> SearchContext {
        let n = 12i64;
        let base = Table::new(
            "base",
            vec![
                ("a_id", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let a = Table::new(
            "a",
            vec![
                ("a_id", Column::from_ints((0..n * 5).map(|i| Some(i / 5)).collect::<Vec<_>>())),
                (
                    "fa",
                    Column::from_floats((0..n * 5).map(|i| Some(i as f64)).collect::<Vec<_>>()),
                ),
                ("b_id", Column::from_ints((0..n * 5).map(|i| Some(100 + i / 5)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let b = Table::new(
            "b",
            vec![
                ("b_id", Column::from_ints((100..100 + n).map(Some).collect::<Vec<_>>())),
                ("fb", Column::from_floats((0..n).map(|i| Some(i as f64 * 10.0)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, a, b],
            &[
                ("base".into(), "a_id".into(), "a".into(), "a_id".into()),
                ("a".into(), "b_id".into(), "b".into(), "b_id".into()),
            ],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn hop_picks_are_prefix_stable() {
        // Materializing the one-hop prefix and the two-hop path must pick
        // the SAME representatives for hop 1 — that hop's identity is its
        // prefix, not its position in some shared RNG stream. (The old
        // shared-RNG replay happened to satisfy this too, but per-hop seeds
        // make it a structural guarantee.)
        let c = dup_ctx();
        let p1 = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let p12 = JoinPath::from_hops(vec![
            hop("base", "a_id", "a", "a_id"),
            hop("a", "b_id", "b", "b_id"),
        ]);
        let t1 = materialize_path(&c, c.base_table(), &p1, 42).unwrap();
        let t12 = materialize_path(&c, c.base_table(), &p12, 42).unwrap();
        for row in 0..t1.n_rows() {
            assert_eq!(t1.value("a.fa", row).unwrap(), t12.value("a.fa", row).unwrap());
        }
    }

    #[test]
    fn materialization_matches_manual_hop_seeded_joins() {
        // Pins the discovery/serve contract: materialize_path replays hops
        // with exactly `hop_seed(seed, prefix, hop)` — the seed discovery
        // used when it scored the path.
        use autofeat_data::join::left_join_normalized;
        let c = dup_ctx();
        let hops =
            vec![hop("base", "a_id", "a", "a_id"), hop("a", "b_id", "b", "b_id")];
        let path = JoinPath::from_hops(hops.clone());
        let via_executor = materialize_path(&c, c.base_table(), &path, 7).unwrap();

        let mut manual = c.base_table().clone();
        for (i, h) in hops.iter().enumerate() {
            let left_key = qualified_column(c.base_name(), &h.from_table, &h.from_column);
            manual = left_join_normalized(
                &manual,
                c.table(&h.to_table).unwrap(),
                &left_key,
                &h.to_column,
                &h.to_table,
                hop_seed(7, &hops[..i], h),
            )
            .unwrap()
            .table;
        }
        assert_eq!(via_executor, manual);
    }

    #[test]
    fn tree_first_path_picks_match_path_materialization() {
        // A table joined by the tree gets the picks of the first ranked
        // path that reaches it — identical to materializing that path
        // alone. This is what keeps tree-trained models consistent with
        // discovery-time scores.
        let c = dup_ctx();
        let p1 = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let p2 = JoinPath::from_hops(vec![
            hop("base", "a_id", "a", "a_id"),
            hop("a", "b_id", "b", "b_id"),
        ]);
        let (tree, joined) = materialize_tree(&c, c.base_table(), &[&p1, &p2], 42).unwrap();
        assert_eq!(joined, vec!["a".to_string(), "b".to_string()]);
        let alone = materialize_path(&c, c.base_table(), &p1, 42).unwrap();
        for row in 0..alone.n_rows() {
            assert_eq!(tree.value("a.fa", row).unwrap(), alone.value("a.fa", row).unwrap());
        }
    }

    #[test]
    fn ambient_cancel_interrupts_materialization() {
        let c = ctx();
        let path = JoinPath::from_hops(vec![hop("base", "a_id", "a", "a_id")]);
        let ctl = std::sync::Arc::new(autofeat_data::RunControl::new());
        ctl.cancel();
        let _g = autofeat_data::RequestScope::with_ctl(&ctl).enter();
        let err = materialize_path(&c, c.base_table(), &path, 0).unwrap_err();
        assert!(err.interrupt().is_some(), "{err}");
        let err = materialize_tree(&c, c.base_table(), &[&path], 0).unwrap_err();
        assert!(err.interrupt().is_some(), "{err}");
    }

    #[test]
    fn tree_skips_branch_with_missing_stepping_stone() {
        let c = ctx();
        // A path whose first hop uses a key that does not exist.
        let bad = JoinPath::from_hops(vec![hop("ghost", "x", "b", "b_id")]);
        let (t, joined) = materialize_tree(&c, c.base_table(), &[&bad], 0).unwrap();
        assert!(joined.is_empty());
        assert_eq!(&t, c.base_table());
    }
}
