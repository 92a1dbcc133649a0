//! DRG traversal: acyclic path enumeration and the `JoinAll` path-count
//! formula (Eq. 3).

use std::collections::VecDeque;

use autofeat_obs as obs;

use crate::drg::{Drg, NodeId};
use crate::path::JoinPath;

/// Enumerate all acyclic join paths from `start` with `1 ≤ length ≤
/// max_length`, breadth-first (shorter paths first). Every distinct
/// multi-edge produces a distinct path (Def. IV.4: "We consider a different
/// join path every edge in the multi-graph").
///
/// When `best_edges_only` is set, the similarity-score pruning rule is
/// applied: per neighbouring table only the top-scored join column(s) are
/// expanded.
pub fn enumerate_paths(
    drg: &Drg,
    start: NodeId,
    max_length: usize,
    best_edges_only: bool,
) -> Vec<JoinPath> {
    let _span = obs::span("enumerate_paths");
    let mut out = Vec::new();
    let mut queue: VecDeque<(NodeId, JoinPath)> = VecDeque::new();
    queue.push_back((start, JoinPath::empty()));
    while let Some((node, path)) = queue.pop_front() {
        if path.len() >= max_length {
            continue;
        }
        for (next, edge_ids) in drg.neighbours(node) {
            let next_name = drg.table_name(next);
            if next == start || path.visits(next_name) {
                continue;
            }
            let candidates = if best_edges_only {
                drg.best_edges(&edge_ids)
            } else {
                edge_ids
            };
            for eid in candidates {
                let hop = drg.hop(node, eid).expect("edge incident to node");
                let p = path.extended(hop);
                out.push(p.clone());
                queue.push_back((next, p));
            }
        }
    }
    obs::add("graph.paths_enumerated", out.len() as u64);
    out
}

/// The number of possible `JoinAll` orderings (Eq. 3):
/// `P = Π_{d=0..D} Π_{v ∈ N(d)} k(v)!` where `k(v)` is the number of
/// unvisited neighbours of `v` in the BFS tree. Returned as `f64` because
/// the count explodes (the paper's school dataset hits `15!`).
pub fn join_all_path_count(drg: &Drg, start: NodeId) -> f64 {
    let mut seen = vec![false; drg.n_nodes()];
    seen[start.0] = true;
    let mut frontier = vec![start];
    let mut product = 1.0f64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            let mut k = 0usize;
            for (v, _) in drg.neighbours(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    next.push(v);
                    k += 1;
                }
            }
            product *= factorial(k);
        }
        frontier = next;
    }
    product
}

fn factorial(k: usize) -> f64 {
    (1..=k).map(|i| i as f64).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drg::DrgBuilder;

    /// base — a — c, base — b, with a multi-edge base→a.
    fn graph() -> Drg {
        let mut b = DrgBuilder::new();
        b.add_kfk("base", "a_id", "a", "id");
        b.add_discovered("base", "a_alt", "a", "alt", 0.6);
        b.add_kfk("base", "b_id", "b", "id");
        b.add_kfk("a", "c_id", "c", "id");
        b.build()
    }

    #[test]
    fn enumerate_counts_multi_edges_as_distinct_paths() {
        let g = graph();
        let base = g.node("base").unwrap();
        let paths = enumerate_paths(&g, base, 1, false);
        // base→a (2 edges) + base→b (1 edge) = 3 one-hop paths.
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn enumerate_extends_transitively() {
        let g = graph();
        let base = g.node("base").unwrap();
        let paths = enumerate_paths(&g, base, 2, false);
        // 3 one-hop + (2 edges to a) × (1 edge a→c) = 5.
        assert_eq!(paths.len(), 5);
        let two_hop: Vec<&JoinPath> = paths.iter().filter(|p| p.len() == 2).collect();
        assert_eq!(two_hop.len(), 2);
        assert!(two_hop.iter().all(|p| p.last_table() == Some("c")));
    }

    #[test]
    fn enumerate_is_acyclic() {
        let g = graph();
        let base = g.node("base").unwrap();
        for p in enumerate_paths(&g, base, 10, false) {
            let tables = p.tables();
            let mut dedup = tables.clone();
            dedup.dedup();
            assert_eq!(tables.len(), dedup.len(), "cycle in {p}");
        }
    }

    #[test]
    fn best_edges_only_prunes_weak_join_columns() {
        let g = graph();
        let base = g.node("base").unwrap();
        let paths = enumerate_paths(&g, base, 1, true);
        // Only the weight-1 edge to a survives, plus the b edge.
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.hops()[0].weight == 1.0));
    }

    #[test]
    fn shorter_paths_enumerate_first() {
        let g = graph();
        let base = g.node("base").unwrap();
        let paths = enumerate_paths(&g, base, 3, false);
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn join_all_count_star_schema() {
        // A star with 4 satellites: P = 4!.
        let mut b = DrgBuilder::new();
        for i in 0..4 {
            b.add_kfk("hub", &format!("k{i}"), &format!("s{i}"), "k");
        }
        let g = b.build();
        assert_eq!(join_all_path_count(&g, g.node("hub").unwrap()), 24.0);
    }

    #[test]
    fn join_all_count_chain_is_one() {
        let mut b = DrgBuilder::new();
        b.add_kfk("a", "k", "b", "k");
        b.add_kfk("b", "k2", "c", "k2");
        let g = b.build();
        assert_eq!(join_all_path_count(&g, g.node("a").unwrap()), 1.0);
    }

    #[test]
    fn join_all_count_two_levels() {
        // hub → s0,s1 ; s0 → t0,t1 ⇒ 2! at hub × 2! at s0 = 4.
        let mut b = DrgBuilder::new();
        b.add_kfk("hub", "k0", "s0", "k");
        b.add_kfk("hub", "k1", "s1", "k");
        b.add_kfk("s0", "m0", "t0", "k");
        b.add_kfk("s0", "m1", "t1", "k");
        let g = b.build();
        assert_eq!(join_all_path_count(&g, g.node("hub").unwrap()), 4.0);
    }

    #[test]
    fn max_length_zero_yields_nothing() {
        let g = graph();
        assert!(enumerate_paths(&g, g.node("base").unwrap(), 0, false).is_empty());
    }
}
