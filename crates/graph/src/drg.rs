//! The Dataset Relation Graph structure and builder.

use std::collections::HashMap;

use crate::path::JoinHop;

/// Node identifier (index into the DRG's table list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Edge identifier (index into the DRG's edge list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

/// How an edge entered the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeProvenance {
    /// A known key/foreign-key constraint (weight 1, Def. IV.1 case 1).
    Kfk,
    /// Discovered by a dataset-discovery algorithm (weight = similarity).
    Discovered,
}

/// One undirected join opportunity between two datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Join column on the `a` side.
    pub a_column: String,
    /// Join column on the `b` side.
    pub b_column: String,
    /// Similarity weight in `(0, 1]`.
    pub weight: f64,
    /// Edge provenance.
    pub provenance: EdgeProvenance,
}

impl JoinEdge {
    /// The opposite endpoint and the (from_col, to_col) orientation when
    /// traversing this edge *from* `node`. `None` if `node` is not an
    /// endpoint.
    pub fn oriented_from(&self, node: NodeId) -> Option<(NodeId, &str, &str)> {
        if node == self.a {
            Some((self.b, &self.a_column, &self.b_column))
        } else if node == self.b {
            Some((self.a, &self.b_column, &self.a_column))
        } else {
            None
        }
    }
}

/// The Dataset Relation Graph (Def. IV.3): an undirected multigraph over
/// datasets.
#[derive(Debug, Clone, Default)]
pub struct Drg {
    tables: Vec<String>,
    index: HashMap<String, NodeId>,
    edges: Vec<JoinEdge>,
    adjacency: Vec<Vec<EdgeId>>,
}

impl Drg {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.tables.len()
    }

    /// Number of (multi-)edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node id of a table name.
    pub fn node(&self, table: &str) -> Option<NodeId> {
        self.index.get(table).copied()
    }

    /// Table name of a node.
    pub fn table_name(&self, node: NodeId) -> &str {
        &self.tables[node.0]
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.tables.len()).map(NodeId)
    }

    /// An edge by id.
    pub fn edge(&self, id: EdgeId) -> &JoinEdge {
        &self.edges[id.0]
    }

    /// All edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// Edge `eid` as a hop out of `from`: from `from`'s table and join
    /// column to the other endpoint's, with the edge's weight. `None` if
    /// `from` is not an endpoint of the edge.
    pub fn hop(&self, from: NodeId, eid: EdgeId) -> Option<JoinHop> {
        let e = self.edge(eid);
        let (to, from_col, to_col) = e.oriented_from(from)?;
        Some(JoinHop {
            from_table: self.table_name(from).to_string(),
            from_column: from_col.to_string(),
            to_table: self.table_name(to).to_string(),
            to_column: to_col.to_string(),
            weight: e.weight,
        })
    }

    /// Edge ids incident to a node.
    pub(crate) fn incident(&self, node: NodeId) -> &[EdgeId] {
        &self.adjacency[node.0]
    }

    /// Whether every adjacency list holds exactly its node's incident edge
    /// ids, ascending: an edge once under each endpoint, and once in all
    /// for a self-join.
    fn adjacency_is_exact(&self) -> bool {
        let mut incident = vec![Vec::new(); self.tables.len()];
        for (i, e) in self.edges.iter().enumerate() {
            incident[e.a.0].push(EdgeId(i));
            if e.b != e.a {
                incident[e.b.0].push(EdgeId(i));
            }
        }
        incident == self.adjacency
    }

    /// Neighbours of a node, grouped per neighbouring table: returns
    /// `(neighbour, edge ids connecting to it)` pairs in deterministic
    /// (ascending node) order. Multiple edge ids per neighbour reflect the
    /// multigraph's multiple join opportunities.
    pub fn neighbours(&self, node: NodeId) -> Vec<(NodeId, Vec<EdgeId>)> {
        let mut by_neighbour: HashMap<NodeId, Vec<EdgeId>> = HashMap::new();
        for &eid in self.incident(node) {
            let (other, _, _) = self.edges[eid.0]
                .oriented_from(node)
                .expect("adjacency lists only hold incident edges");
            by_neighbour.entry(other).or_default().push(eid);
        }
        let mut v: Vec<(NodeId, Vec<EdgeId>)> = by_neighbour.into_iter().collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// The similarity-score pruning rule of §IV-C: among the multi-edges to
    /// one neighbour, keep only those tied at the maximum weight ("AutoFeat
    /// selects the join column with the highest similarity score; when
    /// multiple join columns share the same top score, each ... is an
    /// individual join path").
    pub fn best_edges(&self, edge_ids: &[EdgeId]) -> Vec<EdgeId> {
        let max = edge_ids
            .iter()
            .map(|&e| self.edges[e.0].weight)
            .fold(f64::NEG_INFINITY, f64::max);
        edge_ids
            .iter()
            .copied()
            .filter(|&e| (self.edges[e.0].weight - max).abs() < 1e-12)
            .collect()
    }
}

/// Incremental DRG builder.
#[derive(Debug, Clone, Default)]
pub struct DrgBuilder {
    drg: Drg,
}

impl DrgBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        DrgBuilder::default()
    }

    /// Add (or get) a table node.
    pub fn add_table(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(&id) = self.drg.index.get(&name) {
            return id;
        }
        let id = NodeId(self.drg.tables.len());
        self.drg.index.insert(name.clone(), id);
        self.drg.tables.push(name);
        self.drg.adjacency.push(Vec::new());
        id
    }

    fn add_edge(&mut self, edge: JoinEdge) -> EdgeId {
        let id = EdgeId(self.drg.edges.len());
        self.drg.adjacency[edge.a.0].push(id);
        if edge.b != edge.a {
            self.drg.adjacency[edge.b.0].push(id);
        }
        self.drg.edges.push(edge);
        id
    }

    /// Add a KFK edge (weight 1).
    pub fn add_kfk(
        &mut self,
        table_a: &str,
        column_a: &str,
        table_b: &str,
        column_b: &str,
    ) -> EdgeId {
        let a = self.add_table(table_a);
        let b = self.add_table(table_b);
        self.add_edge(JoinEdge {
            a,
            b,
            a_column: column_a.to_string(),
            b_column: column_b.to_string(),
            weight: 1.0,
            provenance: EdgeProvenance::Kfk,
        })
    }

    /// Add a discovered edge with a similarity score.
    pub fn add_discovered(
        &mut self,
        table_a: &str,
        column_a: &str,
        table_b: &str,
        column_b: &str,
        score: f64,
    ) -> EdgeId {
        let a = self.add_table(table_a);
        let b = self.add_table(table_b);
        self.add_edge(JoinEdge {
            a,
            b,
            a_column: column_a.to_string(),
            b_column: column_b.to_string(),
            weight: score,
            provenance: EdgeProvenance::Discovered,
        })
    }

    /// Finish building.
    pub fn build(self) -> Drg {
        debug_assert!(self.drg.adjacency_is_exact(), "a DRG adjacency list is not its node's incident edges");
        self.drg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Drg {
        // base — a — c, base — b — c, plus a multi-edge base→a.
        let mut b = DrgBuilder::new();
        b.add_kfk("base", "a_id", "a", "id");
        b.add_discovered("base", "a_alt", "a", "alt", 0.7);
        b.add_kfk("base", "b_id", "b", "id");
        b.add_kfk("a", "c_id", "c", "id");
        b.add_kfk("b", "c_id", "c", "id");
        b.build()
    }

    #[test]
    fn nodes_and_edges_counted() {
        let g = diamond();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn add_table_is_idempotent() {
        let mut b = DrgBuilder::new();
        let t1 = b.add_table("x");
        let t2 = b.add_table("x");
        assert_eq!(t1, t2);
        assert_eq!(b.build().n_nodes(), 1);
    }

    #[test]
    fn neighbours_group_multi_edges() {
        let g = diamond();
        let base = g.node("base").unwrap();
        let nbrs = g.neighbours(base);
        assert_eq!(nbrs.len(), 2); // a and b
        let a = g.node("a").unwrap();
        let a_edges = &nbrs.iter().find(|(n, _)| *n == a).unwrap().1;
        assert_eq!(a_edges.len(), 2); // KFK + discovered
    }

    #[test]
    fn oriented_from_flips_columns() {
        let g = diamond();
        let base = g.node("base").unwrap();
        let a = g.node("a").unwrap();
        let e = g.edge(EdgeId(0));
        let (to, from_col, to_col) = e.oriented_from(base).unwrap();
        assert_eq!(to, a);
        assert_eq!(from_col, "a_id");
        assert_eq!(to_col, "id");
        let (back, fc, tc) = e.oriented_from(a).unwrap();
        assert_eq!(back, base);
        assert_eq!(fc, "id");
        assert_eq!(tc, "a_id");
        assert_eq!(e.oriented_from(NodeId(99)), None);
    }

    #[test]
    fn hop_orients_an_edge_both_ways() {
        let g = diamond();
        let hop = |from: &str, fc: &str, to: &str, tc: &str| JoinHop {
            from_table: from.into(),
            from_column: fc.into(),
            to_table: to.into(),
            to_column: tc.into(),
            weight: 0.7,
        };
        let (base, a, c) = (g.node("base").unwrap(), g.node("a").unwrap(), g.node("c").unwrap());
        assert_eq!(g.hop(base, EdgeId(1)), Some(hop("base", "a_alt", "a", "alt")));
        assert_eq!(g.hop(a, EdgeId(1)), Some(hop("a", "alt", "base", "a_alt")));
        assert_eq!(g.hop(c, EdgeId(1)), None);
    }

    #[test]
    fn kfk_edges_have_weight_one() {
        let g = diamond();
        assert_eq!(g.edge(EdgeId(0)).weight, 1.0);
        assert_eq!(g.edge(EdgeId(0)).provenance, EdgeProvenance::Kfk);
        assert_eq!(g.edge(EdgeId(1)).provenance, EdgeProvenance::Discovered);
    }

    #[test]
    fn best_edges_keeps_top_score_ties() {
        let g = diamond();
        let base = g.node("base").unwrap();
        let a = g.node("a").unwrap();
        let nbrs = g.neighbours(base);
        let a_edges = &nbrs.iter().find(|(n, _)| *n == a).unwrap().1;
        let best = g.best_edges(a_edges);
        assert_eq!(best.len(), 1); // the KFK (1.0) beats the 0.7 discovery
        assert_eq!(g.edge(best[0]).weight, 1.0);
    }

    #[test]
    fn best_edges_tie_returns_all() {
        let mut b = DrgBuilder::new();
        b.add_discovered("x", "c1", "y", "d1", 0.8);
        b.add_discovered("x", "c2", "y", "d2", 0.8);
        let g = b.build();
        let x = g.node("x").unwrap();
        let nbrs = g.neighbours(x);
        assert_eq!(g.best_edges(&nbrs[0].1).len(), 2);
    }

    #[test]
    fn a_self_join_is_incident_once() {
        let mut b = DrgBuilder::new();
        b.add_kfk("emp", "manager_id", "emp", "id");
        b.add_kfk("emp", "dept_id", "dept", "id");
        let g = b.build();
        let emp = g.node("emp").unwrap();
        let dept = g.node("dept").unwrap();
        assert_eq!(g.incident(emp), &[EdgeId(0), EdgeId(1)], "the self-loop is listed once");
        assert_eq!(g.incident(dept), &[EdgeId(1)]);
        assert_eq!(g.neighbours(emp), vec![(emp, vec![EdgeId(0)]), (dept, vec![EdgeId(1)])]);
        assert_eq!(g.edge(EdgeId(0)).oriented_from(emp), Some((emp, "manager_id", "id")));
    }

    #[test]
    fn unknown_table_lookup() {
        assert_eq!(diamond().node("ghost"), None);
    }
}
