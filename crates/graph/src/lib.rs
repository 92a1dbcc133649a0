//! # autofeat-graph
//!
//! The **Dataset Relation Graph** (DRG) of §IV: an undirected, weighted
//! *multigraph* whose nodes are datasets and whose (multi-)edges are join
//! opportunities — KFK constraints ingested with weight 1, discovered
//! relationships weighted by the matcher's similarity score.
//!
//! Provides:
//!
//! * the dataset-discovery matcher that proposes the data-lake setting's
//!   edges ([`discovery`]);
//! * the graph structure and its builder ([`Drg`], [`DrgBuilder`]), and
//!   the maintainer that keeps a discovered DRG current as tables come and
//!   go ([`DrgMaintainer`]);
//! * join paths and hops ([`JoinPath`], [`JoinHop`]);
//! * BFS level-order traversal and acyclic path enumeration
//!   ([`traversal`]), including the `JoinAll` path-count formula (Eq. 3)
//!   that explains why exhaustive joining is infeasible on dense graphs.

pub mod discovery;
mod drg;
mod incremental;
mod path;
pub mod traversal;

pub use drg::{Drg, DrgBuilder, EdgeId, EdgeProvenance, JoinEdge, NodeId};
pub use incremental::DrgMaintainer;
pub use path::{JoinHop, JoinPath};
pub use traversal::{enumerate_paths, join_all_path_count};
