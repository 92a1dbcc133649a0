//! # autofeat-datagen
//!
//! Synthetic data-lake generation — the stand-in for the paper's
//! OpenML/Kaggle/UCI downloads (see DESIGN.md §2 for the substitution
//! rationale).
//!
//! Pipeline:
//!
//! 1. [`generator`] draws a ground-truth **wide table**: a binary label plus
//!    *informative* features (class-conditional Gaussians), *redundant*
//!    features (noisy linear images of informative ones), and pure *noise*
//!    features — so relevance and redundancy structure is known by
//!    construction.
//! 2. [`splitter`] carves the wide table into a **snowflake schema** (the
//!    paper's *benchmark setting*): a deliberately weak base table plus
//!    satellite tables connected by KFK edges, with the strongest features
//!    planted in deep (multi-hop) satellites, optional 1:n duplication
//!    (exercising join-cardinality normalization) and missing keys
//!    (exercising the τ pruning rule).
//! 3. [`lake`] corrupts a snowflake into the **data-lake setting**: KFK
//!    metadata is discarded and decoy columns with overlapping values are
//!    planted so that dataset discovery produces a dense multigraph with
//!    spurious edges.
//! 4. [`registry`] reproduces the *shape* of the paper's evaluation corpus:
//!    the 8 datasets of Table II and the 6 feature-selection-study datasets
//!    of §V, scaled to laptop-friendly sizes (documented per entry).
//! 5. [`FaultInjector`] deterministically injects *file-level* faults (truncated
//!    or ragged CSV rows, empty tables, all-null columns, NaN floats,
//!    dangling join keys, duplicate headers) into a serialized lake — the
//!    harness behind the fail-soft ingestion and discovery tests — and
//!    plans seeded runtime faults for a lake's `FaultDomain`.

mod corruptor;
pub mod generator;
pub mod lake;
pub mod registry;
pub mod splitter;

pub use corruptor::{FaultInjector, FaultKind, InjectedFault};
pub use generator::{GroundTruth, GroundTruthConfig};
pub use lake::{corrupt_to_lake, LakeConfig};
pub use registry::{selection_study_datasets, table2_datasets, DatasetSpec};
pub use splitter::{Snowflake, SnowflakeConfig};
