//! Dataset discovery: a schema/instance matcher standing in for
//! **COMA** (as used by the paper via the Valentine framework, §IV and
//! §VII-A) to build the joinability relationships of the Dataset Relation
//! Graph in the *data-lake setting*.
//!
//! For every column pair across two tables the matcher combines:
//!
//! * **name similarity** — token-set Jaccard + Jaro-Winkler over normalized
//!   identifiers ([`name_sim`]);
//! * **instance similarity** — Jaccard averaged with the larger containment
//!   of the exact value sets, kept at any column size ([`value_sim`]).
//!
//! The composite score is the equal-weight blend of the two, in `[0, 1]`;
//! pairs scoring at least the paper's threshold (**0.55**, chosen to
//! "encourage spurious, but not irrelevant, connections") become candidate
//! join edges. The threshold and the weights are fixed. Every pair is
//! decided one way, exactly: [`SchemaMatcher::match_score`] rejects from
//! per-column summaries when the pair cannot reach the threshold and merges
//! the value sets only when it can. The DRG construction is explicitly independent
//! of the concrete matcher — any scorer emitting a similarity in `[0,1]`
//! plugs in.

mod matcher;
pub mod name_sim;
pub mod profile;
pub mod value_sim;

pub use matcher::{ColumnMatch, SchemaMatcher};
pub use profile::ColumnProfile;

/// The similarity threshold the paper uses for the data-lake setting.
pub(crate) const PAPER_THRESHOLD: f64 = 0.55;
