//! Dataset discovery: a schema/instance matcher standing in for
//! **COMA** (as used by the paper via the Valentine framework, §IV and
//! §VII-A) to build the joinability relationships of the Dataset Relation
//! Graph in the *data-lake setting*.
//!
//! For every column pair across two tables the matcher combines:
//!
//! * **name similarity** — token-set Jaccard + Jaro-Winkler over normalized
//!   identifiers ([`name_sim`]);
//! * **instance similarity** — Jaccard / containment overlap of the exact
//!   value sets, or a MinHash estimate when one side has too many distinct
//!   values to keep its set ([`value_sim`]).
//!
//! The composite score is a weighted blend in `[0, 1]`; pairs scoring above
//! a threshold (the paper uses **0.55**, chosen to "encourage spurious, but
//! not irrelevant, connections") become candidate join edges. Every pair is
//! decided exactly: [`SchemaMatcher::match_score`] rejects from per-column
//! summaries when the pair cannot reach the threshold and merges the value
//! sets only when it can. The DRG construction is explicitly independent
//! of the concrete matcher — any scorer emitting a similarity in `[0,1]`
//! plugs in.

mod matcher;
pub mod name_sim;
pub mod profile;
pub mod value_sim;

pub use matcher::{ColumnMatch, MatcherConfig, SchemaMatcher};
pub use profile::ColumnProfile;
pub use value_sim::MinHash;

/// The similarity threshold the paper uses for the data-lake setting.
pub(crate) const PAPER_THRESHOLD: f64 = 0.55;
