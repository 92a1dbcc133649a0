//! # autofeat-ml
//!
//! The ML substrate replacing the paper's AutoGluon model zoo. The paper
//! evaluates four decision-tree learners (LightGBM, XGBoost, Random Forest,
//! Extremely Randomised Trees) plus KNN and L1-regularised linear
//! classification; all six are implemented here from scratch:
//!
//! * [`tree`] — CART decision trees (gini for classification, variance
//!   reduction for the regression trees inside boosting);
//! * [`forest`] — Random Forest (bootstrap + √d feature subsampling);
//! * [`extra`] — Extremely Randomised Trees (random thresholds, no
//!   bootstrap);
//! * [`gbdt`] — gradient-boosted decision trees with logistic loss, in a
//!   LightGBM-like first-order preset and an XGBoost-like second-order
//!   preset;
//! * [`knn`] — K-nearest neighbours on standardized features;
//! * [`linear`] — logistic regression with L1 (proximal gradient);
//! * [`eval`] — the `Classifier` trait, accuracy
//!   scoring, and the train/test evaluation harness the experiments use.
//!
//! Learners consume the column-major [`Matrix`](autofeat_data::encode::Matrix)
//! produced by `autofeat-data`; `NaN` cells are imputed internally with
//! feature means learned at fit time.

pub mod dataset;
pub mod eval;
pub mod extra;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod tree;

pub use dataset::{standardize_fit, Standardizer};
pub use eval::{accuracy, Classifier, MlError, ModelKind};
pub use extra::ExtraTrees;
pub use forest::RandomForest;
pub use gbdt::{Gbdt, GbdtConfig};
pub use knn::Knn;
pub use metrics::{cross_validate, roc_auc, Confusion};
pub use linear::LogisticL1;
pub use tree::{DecisionTree, TreeConfig};
