//! The baselines of §VII-B: BASE, ARDA, MAB, JoinAll and JoinAll+F.
//!
//! ARDA and JoinAll take each hop from the DRG with
//! [`Drg::hop`](autofeat_graph::Drg::hop) and join it with
//! `SearchContext::join_hop`, as discovery and the materializers do; MAB
//! joins its arms through the cache itself, because it mixes its pull
//! count into the seed. Every baseline joins through the context's
//! lake-wide [`LakeIndexCache`](autofeat_data::LakeIndexCache), so all of
//! them inherit that cache's memory governance: a byte budget applied to
//! the shared cache (programmatically, or via `AUTOFEAT_CACHE_BUDGET` at
//! context construction) bounds baseline memory exactly as it bounds
//! discovery, with bit-identical results either way
//! (`tests/golden_scores.rs` pins them at any budget).

mod arda;
mod base;
mod join_all;
mod mab;

pub use arda::{run_arda, ArdaConfig};
pub use base::run_base;
pub use join_all::{run_join_all, JoinAllConfig};
pub use mab::{run_mab, MabConfig};
