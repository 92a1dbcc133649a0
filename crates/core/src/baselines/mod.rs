//! The baselines of §VII-B: BASE, ARDA, MAB, JoinAll and JoinAll+F.
//!
//! ARDA and JoinAll augment the base table with one walker, [`bfs_join`]:
//! ARDA at depth 1, JoinAll unbounded. It takes each hop from the DRG with
//! [`Drg::hop`](autofeat_graph::Drg::hop) and joins it with
//! `SearchContext::join_hop`, as discovery and the materializers do; MAB
//! joins its arms through the cache itself, because it mixes its pull
//! count into the seed. Every baseline joins through the context's
//! lake-wide [`LakeIndexCache`](autofeat_data::LakeIndexCache), so all of
//! them inherit that cache's memory governance: a byte budget applied to
//! the shared cache (programmatically, or via `AUTOFEAT_CACHE_BUDGET` at
//! context construction) bounds baseline memory exactly as it bounds
//! discovery, with bit-identical results either way
//! (`tests/golden_scores.rs` pins the baselines at any budget, and the
//! equivalence sweep in `tests/common/sweep.rs` holds `bfs_join`'s tables
//! to one reference at every budget and row layout).

mod arda;
mod base;
mod join_all;
mod mab;

pub use arda::run_arda;
pub use base::run_base;
pub use join_all::run_join_all;
pub use mab::run_mab;

use autofeat_data::{Result, Table};

use crate::context::SearchContext;
use crate::executor::qualified_column;

/// Join every table a BFS from the base reaches within `max_depth` hops
/// (`None`: every reachable table) onto the base, each once, through the
/// best-scoring edge from its BFS parent. A table whose join matched no
/// row is not kept, and the walk does not descend from it. Each hop is
/// joined with an empty prefix, so its picks derive from the hop alone,
/// whatever order its neighbours are visited in. The run control is polled
/// once per neighbour; an interrupt ends the walk with what it has joined.
/// Returns the joined table and the names of the tables joined, in join
/// order.
pub fn bfs_join(
    ctx: &SearchContext,
    seed: u64,
    max_depth: Option<usize>,
) -> Result<(Table, Vec<String>)> {
    let drg = ctx.drg();
    let mut table = ctx.base_table().clone();
    let mut joined = Vec::new();
    let Some(base_node) = drg.node(ctx.base_name()) else {
        return Ok((table, joined));
    };
    // The base starts visited, so a base self-join edge is never walked.
    let mut visited = vec![false; drg.n_nodes()];
    visited[base_node.0] = true;
    let mut frontier = vec![base_node];
    let mut depth = 0;
    while !frontier.is_empty() && max_depth.is_none_or(|max| depth < max) {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for (v, edge_ids) in drg.neighbours(u) {
                if ctx.control().interrupted().is_some() {
                    return Ok((table, joined));
                }
                if visited[v.0] {
                    continue;
                }
                visited[v.0] = true;
                // A KFK edge can name a table the lake loader quarantined.
                if ctx.table(drg.table_name(v)).is_none() {
                    continue;
                }
                let Some(hop) = drg.best_edges(&edge_ids).first().and_then(|&eid| drg.hop(u, eid))
                else {
                    continue;
                };
                let left_key = qualified_column(ctx.base_name(), &hop.from_table, &hop.from_column);
                if !table.has_column(&left_key) {
                    continue;
                }
                let out = match ctx.join_hop(&table, &[], &hop, seed) {
                    Ok(out) => out,
                    Err(e) if e.interrupt().is_some() => return Ok((table, joined)),
                    Err(e) => return Err(e),
                };
                if out.matched > 0 {
                    table = out.table;
                    joined.push(hop.to_table);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    Ok((table, joined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::Column;
    use autofeat_graph::DrgBuilder;
    use autofeat_ml::eval::ModelKind;

    fn ints(vals: impl Iterator<Item = i64>) -> Column {
        Column::from_ints(vals.map(Some).collect::<Vec<_>>())
    }

    fn floats(vals: impl Iterator<Item = f64>) -> Column {
        Column::from_floats(vals.map(Some).collect::<Vec<_>>())
    }

    fn table(name: &str, cols: Vec<(&str, Column)>) -> Table {
        Table::new(name, cols).unwrap()
    }

    fn base(n: usize) -> Table {
        table("base", vec![("k", ints(0..n as i64)), ("target", ints((0..n as i64).map(|i| i % 2)))])
    }

    fn hop_from(ctx: &SearchContext, from: &str, to: &str) -> autofeat_graph::JoinHop {
        let drg = ctx.drg();
        let (u, v) = (drg.node(from).unwrap(), drg.node(to).unwrap());
        let (_, edges) = drg.neighbours(u).into_iter().find(|(n, _)| *n == v).unwrap();
        drg.hop(u, edges[0]).unwrap()
    }

    /// base — sat, and a base self-join edge.
    #[test]
    fn bfs_join_never_joins_the_base_to_itself() {
        let n = 60;
        let sat = table(
            "sat",
            vec![("k", ints(0..n as i64)), ("f", floats((0..n).map(|i| (i % 2) as f64)))],
        );
        let mut drg = DrgBuilder::new();
        drg.add_kfk("base", "k", "base", "k");
        drg.add_kfk("base", "k", "sat", "k");
        let ctx = SearchContext::new(vec![base(n), sat], drg.build(), "base", "target").unwrap();
        for depth in [Some(1), None] {
            let (t, joined) = bfs_join(&ctx, 17, depth).unwrap();
            assert_eq!(joined, ["sat"], "depth {depth:?}");
            assert_eq!(t.column_names(), ["k", "target", "sat.k", "sat.f"], "depth {depth:?}");
        }
        let arda = run_arda(&ctx, &[ModelKind::RandomForest], 17).unwrap();
        assert_eq!(arda.n_tables_joined, 1);
    }

    /// base — orphan (no key matches) — w, and base — s1 — w; `orphan`
    /// comes first in BFS order, and `w` repeats each key three times with
    /// distinct values, so its picks show the seed they were made with.
    #[test]
    fn bfs_join_descends_only_from_matched_tables_with_the_empty_prefix() {
        let n = 60;
        let orphan = table(
            "orphan",
            vec![("k", ints(9000..9000 + n as i64)), ("k2", ints((0..n as i64).map(|i| 500 + i)))],
        );
        let s1 = table(
            "s1",
            vec![("k", ints(0..n as i64)), ("k2", ints((0..n as i64).map(|i| 500 + i)))],
        );
        let m3 = 3 * n as i64;
        let w = table(
            "w",
            vec![("k2", ints((0..m3).map(|i| 500 + i / 3))), ("g", floats((0..m3).map(|i| i as f64)))],
        );
        let kfk = |a: &str, ac: &str, b: &str, bc: &str| (a.into(), ac.into(), b.into(), bc.into());
        let ctx = SearchContext::from_kfk(
            vec![base(n), orphan, s1, w],
            &[
                kfk("base", "k", "orphan", "k"),
                kfk("base", "k", "s1", "k"),
                kfk("orphan", "k2", "w", "k2"),
                kfk("s1", "k2", "w", "k2"),
            ],
            "base",
            "target",
        )
        .unwrap();
        let seed = 29;
        let star = ctx.join_hop(ctx.base_table(), &[], &hop_from(&ctx, "base", "s1"), seed).unwrap();
        assert_eq!(bfs_join(&ctx, seed, Some(1)).unwrap(), (star.table.clone(), vec!["s1".into()]));
        let deep = ctx.join_hop(&star.table, &[], &hop_from(&ctx, "s1", "w"), seed).unwrap();
        assert_eq!(bfs_join(&ctx, seed, None).unwrap(), (deep.table, vec!["s1".into(), "w".into()]));
    }
}
