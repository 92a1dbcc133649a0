//! The classifier interface, accuracy scoring, and the model zoo.

use std::fmt;

use autofeat_data::encode::Matrix;

use crate::dataset::row_of;

/// Errors from learners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Fit was called on an empty matrix.
    EmptyDataset,
    /// The learner supports only binary labels but saw more classes.
    NotBinary { n_classes: usize },
    /// A tree classifier keeps a counter per bin and class; more classes
    /// than `MAX_CLASSES` (255) is a regression target.
    TooManyClasses { n_classes: usize },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "empty dataset"),
            MlError::NotBinary { n_classes } => {
                write!(f, "binary classifier got {n_classes} classes")
            }
            MlError::TooManyClasses { n_classes } => {
                write!(f, "tree classifier got {n_classes} classes, more than it bins")
            }
        }
    }
}

impl std::error::Error for MlError {}

/// A supervised classifier over numeric matrices.
pub trait Classifier {
    /// Fit on a training matrix.
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError>;

    /// Predict the class of a single row (same feature order as fit).
    fn predict_row(&self, row: &[f64]) -> i64;

    /// Whether fit has completed.
    fn is_fitted(&self) -> bool;

    /// Predict every row of a matrix.
    fn predict(&self, data: &Matrix) -> Vec<i64> {
        (0..data.n_rows)
            .map(|i| self.predict_row(&row_of(data, i)))
            .collect()
    }
}

/// Fraction of exact label matches; zero for empty input.
pub fn accuracy(predictions: &[i64], labels: &[i64]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let hits = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / labels.len() as f64
}

/// The model zoo of the paper's evaluation (§VII-A): four tree learners for
/// the main results plus the two non-tree models of Figs. 5/7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// First-order GBDT preset (LightGBM stand-in).
    LightGbm,
    /// Second-order GBDT preset (XGBoost stand-in).
    XgBoost,
    /// Random Forest.
    RandomForest,
    /// Extremely Randomised Trees.
    ExtraTrees,
    /// K-nearest neighbours.
    Knn,
    /// Logistic regression with L1 regularisation ("LR" in the paper).
    LogisticL1,
}

impl ModelKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::LightGbm => "LightGBM",
            ModelKind::XgBoost => "XGBoost",
            ModelKind::RandomForest => "RandomForest",
            ModelKind::ExtraTrees => "ExtraTrees",
            ModelKind::Knn => "KNN",
            ModelKind::LogisticL1 => "LR",
        }
    }

    /// The four tree-based models of Figs. 4/6.
    pub fn tree_models() -> [ModelKind; 4] {
        [
            ModelKind::LightGbm,
            ModelKind::XgBoost,
            ModelKind::RandomForest,
            ModelKind::ExtraTrees,
        ]
    }

    /// The non-tree models of Figs. 5/7.
    pub fn non_tree_models() -> [ModelKind; 2] {
        [ModelKind::Knn, ModelKind::LogisticL1]
    }

    /// Instantiate with a seed.
    pub fn build(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ModelKind::LightGbm => Box::new(crate::gbdt::Gbdt::new(
                crate::gbdt::GbdtConfig::lightgbm_like(),
                seed,
            )),
            ModelKind::XgBoost => Box::new(crate::gbdt::Gbdt::new(
                crate::gbdt::GbdtConfig::xgboost_like(),
                seed,
            )),
            ModelKind::RandomForest => Box::new(crate::forest::RandomForest::default_seeded(seed)),
            ModelKind::ExtraTrees => Box::new(crate::extra::ExtraTrees::default_seeded(seed)),
            ModelKind::Knn => Box::new(crate::knn::Knn::new(5)),
            ModelKind::LogisticL1 => Box::new(crate::linear::LogisticL1::default_config()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[5], &[5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::LightGbm.name(), "LightGBM");
        assert_eq!(ModelKind::tree_models().len(), 4);
        assert_eq!(ModelKind::non_tree_models().len(), 2);
    }

    #[test]
    fn every_model_kind_builds() {
        for kind in ModelKind::tree_models()
            .into_iter()
            .chain(ModelKind::non_tree_models())
        {
            let m = kind.build(1);
            assert!(!m.is_fitted());
        }
    }
}
