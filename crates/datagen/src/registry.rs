//! The evaluation corpus: synthetic analogs of the paper's datasets.
//!
//! Table II lists eight OpenML/Kaggle datasets; we reproduce their *shape*
//! (row counts, joinable-table counts, feature counts) with the ground-truth
//! generator, scaling the largest row/feature counts down to laptop-friendly
//! sizes (the paper values are preserved in the spec for reporting). §V's
//! feature-selection study uses six single-table binary-classification
//! datasets with varying row/column ratios, reproduced likewise.

use crate::generator::{generate, GroundTruth, GroundTruthConfig};
use crate::lake::{corrupt_to_lake, Lake, LakeConfig};
use crate::splitter::{split, Snowflake, SnowflakeConfig};

/// A dataset entry of Table II, with both the paper's reported shape and
/// the scaled shape we generate.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Rows reported in Table II.
    pub paper_rows: usize,
    /// Joinable tables reported in Table II.
    pub paper_joinable_tables: usize,
    /// Total features reported in Table II.
    pub paper_features: usize,
    /// Best accuracy reported in Table II (OpenML leaderboard / ARDA).
    pub paper_best_accuracy: f64,
    /// Rows we generate (≤ paper_rows; large datasets scaled down).
    pub rows: usize,
    /// Total features we generate (label excluded).
    pub features: usize,
    /// Satellites in the snowflake (= paper joinable tables).
    pub n_satellites: usize,
    /// Join-tree branching; `usize::MAX`-like wide value ⇒ star schema.
    pub max_branching: usize,
    /// Task difficulty: class separation of the planted signal.
    pub class_sep: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    fn ground_truth_config(&self) -> GroundTruthConfig {
        let f = self.features;
        // Roughly 25% informative, 15% redundant, rest noise, 1 categorical.
        let n_informative = (f / 4).max(2);
        let n_redundant = (f * 3 / 20).max(1);
        let n_categorical = 1usize;
        let n_noise = f
            .saturating_sub(n_informative + n_redundant + n_categorical)
            .max(1);
        GroundTruthConfig {
            n_rows: self.rows,
            n_informative,
            n_redundant,
            n_noise,
            n_categorical,
            class_sep: self.class_sep,
            label_noise: 0.05,
            seed: self.seed,
        }
    }

    /// Generate the wide ground truth.
    pub(crate) fn build_ground_truth(&self) -> GroundTruth {
        generate(&self.ground_truth_config())
    }

    /// Generate the *benchmark setting* snowflake (known KFK edges).
    pub fn build_snowflake(&self) -> Snowflake {
        let gt = self.build_ground_truth();
        split(
            &gt,
            &SnowflakeConfig {
                n_satellites: self.n_satellites,
                max_branching: self.max_branching,
                base_features: 2,
                deep_signal: true,
                duplicate_frac: 0.05,
                missing_key_frac: 0.03,
                // Kept at zero so the published EXPERIMENTS.md numbers stay
                // exactly reproducible; flip on to stress imputation.
                feature_null_frac: 0.0,
                seed: self.seed ^ 0x5f0f,
            },
        )
    }

    /// Generate the *data-lake setting*: snowflake, KFK stripped, decoys
    /// planted (≈ one decoy per three satellites).
    pub fn build_lake(&self) -> Lake {
        let sf = self.build_snowflake();
        corrupt_to_lake(
            &sf,
            &LakeConfig {
                n_decoys: (self.n_satellites / 3).max(2),
                decoy_overlap: 0.8,
                seed: self.seed ^ 0xacc5,
            },
        )
    }
}

/// The eight datasets of Table II. Ordering matches the paper (ascending
/// joinable-table count).
pub fn table2_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "credit",
            paper_rows: 1001,
            paper_joinable_tables: 5,
            paper_features: 21,
            paper_best_accuracy: 0.99,
            rows: 1001,
            features: 21,
            n_satellites: 5,
            max_branching: 2,
            class_sep: 2.2,
            seed: 101,
        },
        DatasetSpec {
            name: "eyemove",
            paper_rows: 7609,
            paper_joinable_tables: 6,
            paper_features: 24,
            paper_best_accuracy: 0.894,
            rows: 2400,
            features: 24,
            n_satellites: 6,
            max_branching: 2,
            class_sep: 1.1,
            seed: 102,
        },
        DatasetSpec {
            name: "covertype",
            paper_rows: 423_682,
            paper_joinable_tables: 12,
            paper_features: 21,
            paper_best_accuracy: 0.99,
            rows: 3000,
            features: 21,
            n_satellites: 12,
            max_branching: 3,
            class_sep: 2.2,
            seed: 103,
        },
        DatasetSpec {
            name: "jannis",
            paper_rows: 57_581,
            paper_joinable_tables: 12,
            paper_features: 55,
            paper_best_accuracy: 0.875,
            rows: 2500,
            features: 55,
            n_satellites: 12,
            max_branching: 3,
            class_sep: 1.0,
            seed: 104,
        },
        DatasetSpec {
            name: "miniboone",
            paper_rows: 73_000,
            paper_joinable_tables: 15,
            paper_features: 51,
            paper_best_accuracy: 0.9465,
            rows: 3000,
            features: 51,
            n_satellites: 15,
            max_branching: 3,
            class_sep: 1.6,
            seed: 105,
        },
        DatasetSpec {
            name: "steel",
            paper_rows: 1943,
            paper_joinable_tables: 15,
            paper_features: 34,
            paper_best_accuracy: 1.0,
            rows: 1943,
            features: 34,
            n_satellites: 15,
            max_branching: 3,
            class_sep: 2.5,
            seed: 106,
        },
        DatasetSpec {
            name: "school",
            // Star schema in the paper (ARDA's dataset).
            paper_rows: 1775,
            paper_joinable_tables: 16,
            paper_features: 731,
            paper_best_accuracy: 0.831,
            rows: 1775,
            features: 64,
            n_satellites: 16,
            max_branching: 16,
            class_sep: 0.9,
            seed: 107,
        },
        DatasetSpec {
            name: "bioresponse",
            paper_rows: 3435,
            paper_joinable_tables: 40,
            paper_features: 420,
            paper_best_accuracy: 0.885,
            rows: 2000,
            features: 64,
            n_satellites: 40,
            max_branching: 4,
            class_sep: 1.2,
            seed: 108,
        },
    ]
}

/// Look up a Table II dataset by name.
pub fn dataset(name: &str) -> Option<DatasetSpec> {
    table2_datasets().into_iter().find(|d| d.name == name)
}

/// The six single-table datasets of the §V feature-selection study,
/// "varying in domains, the ratio of rows to columns, and types of
/// features".
pub fn selection_study_datasets() -> Vec<GroundTruth> {
    let configs = [
        // (name hint) rows, inf, red, noise, cat, sep, seed
        (800usize, 4usize, 2usize, 8usize, 1usize, 2.0f64, 201u64), // small & easy (medicine-like)
        (3000, 6, 4, 20, 2, 1.2, 202),                              // mid-size, noisy (web-like)
        (5000, 8, 4, 8, 0, 1.8, 203),                               // many rows, few cols
        (600, 10, 8, 42, 2, 1.0, 204),                              // wide & hard
        (2000, 5, 5, 10, 3, 1.5, 205),                              // heavy categoricals
        (1200, 3, 1, 26, 0, 2.5, 206),                              // sparse signal
    ];
    configs
        .into_iter()
        .map(|(rows, inf, red, noise, cat, sep, seed)| {
            generate(&GroundTruthConfig {
                n_rows: rows,
                n_informative: inf,
                n_redundant: red,
                n_noise: noise,
                n_categorical: cat,
                class_sep: sep,
                label_noise: 0.05,
                seed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eight_entries_matching_paper_shapes() {
        let ds = table2_datasets();
        assert_eq!(ds.len(), 8);
        let school = ds.iter().find(|d| d.name == "school").unwrap();
        assert_eq!(school.paper_features, 731);
        assert_eq!(school.n_satellites, 16);
        assert_eq!(school.max_branching, 16, "school is a star schema");
        let bio = ds.iter().find(|d| d.name == "bioresponse").unwrap();
        assert_eq!(bio.paper_joinable_tables, 40);
    }

    #[test]
    fn joinable_table_counts_ascend_like_table2() {
        let ds = table2_datasets();
        for w in ds.windows(2) {
            assert!(w[0].paper_joinable_tables <= w[1].paper_joinable_tables);
        }
    }

    #[test]
    fn credit_builds_end_to_end() {
        let spec = dataset("credit").unwrap();
        let sf = spec.build_snowflake();
        assert_eq!(sf.satellites.len(), 5);
        assert_eq!(sf.base.n_rows(), 1001);
        let lake = spec.build_lake();
        assert_eq!(lake.tables.len(), 6);
    }

    #[test]
    fn school_snowflake_is_star() {
        let spec = dataset("school").unwrap();
        let sf = spec.build_snowflake();
        assert_eq!(sf.max_depth(), 1, "star schema: every satellite at depth 1");
    }

    #[test]
    fn non_star_datasets_have_depth() {
        let spec = dataset("covertype").unwrap();
        let sf = spec.build_snowflake();
        assert!(sf.max_depth() >= 2, "covertype should have multi-hop paths");
    }

    #[test]
    fn feature_budget_respected() {
        for spec in table2_datasets().into_iter().take(3) {
            let gt = spec.build_ground_truth();
            // features + row_id + target
            assert_eq!(gt.table.n_cols(), spec.features + 2, "{}", spec.name);
        }
    }

    #[test]
    fn selection_study_has_six_varied_datasets() {
        let ds = selection_study_datasets();
        assert_eq!(ds.len(), 6);
        let rows: Vec<usize> = ds.iter().map(|g| g.table.n_rows()).collect();
        let mut sorted = rows.clone();
        sorted.dedup();
        assert!(sorted.len() > 3, "row counts should vary: {rows:?}");
    }

    #[test]
    fn unknown_dataset_is_none() {
        assert!(dataset("nope").is_none());
    }
}
