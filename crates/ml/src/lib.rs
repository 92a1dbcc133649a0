//! # autofeat-ml
//!
//! The ML substrate replacing the paper's AutoGluon model zoo. The paper
//! evaluates four decision-tree learners (LightGBM, XGBoost, Random Forest,
//! Extremely Randomised Trees) plus KNN and L1-regularised linear
//! classification; all six are implemented here from scratch:
//!
//! * [`bins`] — per-fit feature binning: every training column imputed and
//!   coded into at most 255 `u8` bins whose upper edges are value midpoints;
//! * [`tree`] — the one histogram tree grower under all four tree learners,
//!   generic over the node statistic (class counts for gini classification
//!   trees, gradient sums for the regression trees inside boosting);
//! * [`forest`] — Random Forest (bootstrap + √d feature subsampling);
//! * `extra` — Extremely Randomised Trees (random thresholds, no
//!   bootstrap);
//! * [`gbdt`] — gradient-boosted decision trees with logistic loss, in a
//!   LightGBM-like first-order preset and an XGBoost-like second-order
//!   preset;
//! * `knn` — K-nearest neighbours on standardized features;
//! * `linear` — logistic regression with L1 (proximal gradient);
//! * [`eval`] — the `Classifier` trait, accuracy scoring, and the
//!   [`ModelKind`] zoo the experiments build learners from.
//!
//! Learners consume the column-major [`Matrix`](autofeat_data::encode::Matrix)
//! produced by `autofeat-data`; `NaN` cells are imputed internally with the
//! feature means of the training matrix — learned once per fit, shared by
//! every tree of an ensemble, and applied again at predict time.
//!
//! ## How the tree learners train
//!
//! A fit bins its matrix **once** ([`bins::BinnedMatrix`]); trees never see
//! a float again until a chosen bin becomes a node's `threshold`. Since
//! `x ≤ cut(k) ⇔ code ≤ k` on every training cell, a fitted tree predicts
//! raw rows with plain `x ≤ threshold` tests. The node statistic (class
//! counts, or `Σg, Σh, n`) owns both inner loops: `fill_feature`, one pass
//! over a node's rows per feature, and `scan`, which adds up a feature's
//! occupied bins in ascending order and offers each prefix to the search.
//! The smaller child of a split is passed over again and the larger child's
//! histogram is the parent's minus it. The search keeps its best as
//! `(feature, bin, gain)`, rows are partitioned without a branch on the
//! data, and nothing is allocated per node. Forests and extra-trees hand
//! each tree a `u32` row list over the shared codes (bootstrap repeats are
//! repeated ids); boosting adds each leaf's value to its rows' margins as
//! the leaf is made, and predicts tree by tree over imputed columns. A fit
//! is a pure function of the matrix and the seed at any worker count.
//!
//! Where every feature has at most 255 distinct values this is, on the
//! fitted rows, exactly the tree an exact split finder over per-node value
//! midpoints grows — `tests/tree_oracle.rs` holds the grower to one — and
//! the two differ only on unseen rows that fall between two neighbouring
//! training values. Beyond 255 distinct values cut points are per-fit
//! equal-frequency edges rather than per-node quantiles. DESIGN.md §3n has
//! the rules and what is and is not guaranteed.

pub mod bins;
pub mod dataset;
pub mod eval;
mod extra;
pub mod forest;
pub mod gbdt;
mod knn;
mod linear;
pub mod tree;

pub use eval::{accuracy, Classifier, MlError, ModelKind};
pub use tree::{DecisionTree, TreeConfig};
