//! # autofeat-data
//!
//! A small, dependency-light columnar table engine — the storage substrate of
//! the AutoFeat reproduction (ICDE 2024, "AutoFeat: Transitive Feature
//! Discovery over Join Paths").
//!
//! The paper manipulates pandas DataFrames; this crate provides the
//! equivalent operations needed by the feature-discovery pipeline:
//!
//! * typed, null-aware columns ([`Column`]) and tables ([`Table`]);
//! * CSV ingestion with type inference ([`csv`]);
//! * dictionary-encoded join-key domains ([`KeyDict`]), part of every
//!   table and built for a column when a join is first keyed on it: dense `u32`
//!   codes with permutation-stable assignment, so index builds and encodes
//!   run over code arithmetic instead of per-row key hashing;
//! * **left joins with join-cardinality normalization** (§IV-B of the paper:
//!   group by the join column and pick a random representative row so the
//!   base-table row count and label distribution are preserved) — [`join`];
//! * stratified sampling and train/test splitting ([`sample`]);
//! * label encoding / numeric-matrix extraction for the ML substrate
//!   ([`encode`]);
//! * data-quality statistics such as the null-value ratio used by the τ
//!   pruning rule ([`stats`]);
//! * a process-stable hasher for determinism-critical derivations
//!   ([`stable_hash`]) and deterministic fan-out over one shared worker
//!   pool ([`parallel`]);
//! * cooperative run-lifecycle control — a final cancel + deadline, polled
//!   per item/row block ([`control`]) — per-lake runtime fault domains for
//!   resilience tests ([`faults`]), and the request scope that carries both,
//!   with the cache recorder and the tracer, to whichever thread works for a
//!   request ([`RequestScope`]).
//!
//! Randomized operations either take an explicit [`rand::rngs::StdRng`]
//! (sampling, splitting) or an explicit `u64` seed (join normalization,
//! whose representative picks are a pure function of `(seed, key, row
//! content)` — see [`join`]) so that experiments are reproducible
//! bit-for-bit, across processes and thread counts.

// Fail-soft discipline: non-test code must propagate errors, not unwrap.
// CI runs clippy with `-D warnings`, so this is effectively a deny there.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
mod column;
pub mod control;
pub mod csv;
pub mod encode;
mod error;
pub mod faults;
pub mod join;
mod keydict;
pub mod parallel;
pub mod sample;
mod schema;
mod scope;
pub mod stable_hash;
pub mod stats;
mod table;
mod value;

pub use cache::{CacheRecorder, CacheStats, LakeIndexCache};
pub use column::Column;
pub use control::{Interrupt, RunControl};
pub use error::{DataError, Result};
pub use faults::FaultDomain;
pub use keydict::KeyDict;
pub use scope::RequestScope;
pub use table::Table;
pub use value::{DType, Key, Value};
