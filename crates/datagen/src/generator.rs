//! Ground-truth wide-table generation with planted relevance/redundancy.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::{Column, Table};

/// Configuration of the ground-truth generator.
#[derive(Debug, Clone)]
pub struct GroundTruthConfig {
    /// Number of rows.
    pub n_rows: usize,
    /// Features carrying class signal (class-conditional Gaussian means).
    pub n_informative: usize,
    /// Noisy linear images of informative features (redundant).
    pub n_redundant: usize,
    /// Independent noise features.
    pub n_noise: usize,
    /// Number of informative features additionally exposed as categorical
    /// (string) bins, exercising label encoding.
    pub n_categorical: usize,
    /// Class separation: distance between the class means, in σ units.
    /// Larger ⇒ easier task.
    pub class_sep: f64,
    /// Fraction of labels flipped at random (irreducible error).
    pub label_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            n_rows: 1000,
            n_informative: 5,
            n_redundant: 3,
            n_noise: 8,
            n_categorical: 1,
            class_sep: 1.5,
            label_noise: 0.05,
            seed: 7,
        }
    }
}

/// A generated wide table plus its provenance (which features are which).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The wide table: `row_id`, features, and the `target` label column.
    pub table: Table,
    /// Names of the informative feature columns.
    pub informative: Vec<String>,
    /// Names of the redundant feature columns.
    pub redundant: Vec<String>,
    /// Names of the noise feature columns.
    pub noise: Vec<String>,
    /// Names of the categorical (string) feature columns.
    pub categorical: Vec<String>,
    /// Name of the label column (always `"target"`).
    pub label: String,
}

impl GroundTruth {
    /// All feature names (everything except `row_id` and the label).
    pub fn feature_names(&self) -> Vec<&str> {
        self.informative
            .iter()
            .chain(&self.redundant)
            .chain(&self.noise)
            .chain(&self.categorical)
            .map(String::as_str)
            .collect()
    }
}

/// Standard normal via Box-Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generate a ground-truth wide table.
pub fn generate(config: &GroundTruthConfig) -> GroundTruth {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n_rows;

    // Balanced labels, then noise-flipped.
    let mut labels: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
    // Shuffle label assignment so row order carries no signal.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        labels.swap(i, j);
    }
    let observed: Vec<i64> = labels
        .iter()
        .map(|&l| {
            if rng.random_range(0.0..1.0) < config.label_noise {
                1 - l
            } else {
                l
            }
        })
        .collect();

    let mut cols: Vec<(String, Column)> = Vec::new();
    cols.push((
        "row_id".to_string(),
        Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>()),
    ));

    let mut informative_names = Vec::new();
    let mut informative_data: Vec<Vec<f64>> = Vec::new();
    for j in 0..config.n_informative {
        // Per-feature decreasing signal strength so features are rankable.
        let sep = config.class_sep * (1.0 - 0.12 * j as f64).max(0.25);
        let data: Vec<f64> = labels
            .iter()
            .map(|&l| normal(&mut rng) + if l == 1 { sep } else { 0.0 })
            .collect();
        let name = format!("inf_{j}");
        cols.push((name.clone(), Column::from_floats(data.iter().map(|&v| Some(v)).collect::<Vec<_>>())));
        informative_names.push(name);
        informative_data.push(data);
    }

    let mut redundant_names = Vec::new();
    for j in 0..config.n_redundant {
        let src = &informative_data[j % informative_data.len().max(1)];
        let scale = 1.0 + 0.5 * (j as f64);
        let data: Vec<f64> = src
            .iter()
            .map(|&v| scale * v + 0.1 * normal(&mut rng))
            .collect();
        let name = format!("red_{j}");
        cols.push((name.clone(), Column::from_floats(data.into_iter().map(Some).collect::<Vec<_>>())));
        redundant_names.push(name);
    }

    let mut noise_names = Vec::new();
    for j in 0..config.n_noise {
        let data: Vec<Option<f64>> = (0..n).map(|_| Some(normal(&mut rng) * 2.0)).collect();
        let name = format!("noise_{j}");
        cols.push((name.clone(), Column::from_floats(data)));
        noise_names.push(name);
    }

    let mut categorical_names = Vec::new();
    for j in 0..config.n_categorical {
        let src = &informative_data[j % informative_data.len().max(1)];
        let data: Vec<Option<String>> = src
            .iter()
            .map(|&v| {
                let bin = if v < 0.0 {
                    "low"
                } else if v < config.class_sep {
                    "mid"
                } else {
                    "high"
                };
                Some(bin.to_string())
            })
            .collect();
        let name = format!("cat_{j}");
        cols.push((name.clone(), Column::from_strs(data)));
        categorical_names.push(name);
    }

    cols.push((
        "target".to_string(),
        Column::from_ints(observed.into_iter().map(Some).collect::<Vec<_>>()),
    ));

    let table = Table::new("ground_truth", cols).expect("generated names are unique");
    GroundTruth {
        table,
        informative: informative_names,
        redundant: redundant_names,
        noise: noise_names,
        categorical: categorical_names,
        label: "target".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::encode::to_matrix;
    use autofeat_metrics::relevance::RelevanceMethod;

    fn small() -> GroundTruth {
        generate(&GroundTruthConfig { n_rows: 500, ..Default::default() })
    }

    #[test]
    fn shape_matches_config() {
        let gt = small();
        // row_id + 5 inf + 3 red + 8 noise + 1 cat + target = 19
        assert_eq!(gt.table.n_cols(), 19);
        assert_eq!(gt.table.n_rows(), 500);
        assert_eq!(gt.feature_names().len(), 17);
    }

    #[test]
    fn labels_roughly_balanced() {
        let gt = small();
        let y = gt.table.column("target").unwrap();
        let pos: usize = (0..y.len()).filter(|&i| y.get_f64(i) == Some(1.0)).count();
        let frac = pos as f64 / y.len() as f64;
        assert!((0.4..0.6).contains(&frac), "positive fraction {frac}");
    }

    #[test]
    fn informative_beats_noise_on_spearman() {
        let gt = small();
        let m = to_matrix(&gt.table, &["inf_0", "noise_0"], "target").unwrap();
        let s = RelevanceMethod::Spearman.scores(&m.cols, &m.labels);
        let (inf, noi) = (s[0], s[1]);
        assert!(inf > 0.3, "informative Spearman {inf}");
        assert!(noi < 0.15, "noise Spearman {noi}");
    }

    #[test]
    fn redundant_tracks_its_source() {
        let gt = small();
        let m = to_matrix(&gt.table, &["inf_0", "red_0"], "target").unwrap();
        let r = autofeat_metrics::relevance::pearson_correlation(&m.cols[0], &m.cols[1]);
        assert!(r > 0.95, "redundant feature should correlate with source, r={r}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&GroundTruthConfig::default());
        let b = generate(&GroundTruthConfig::default());
        assert_eq!(a.table, b.table);
        let c = generate(&GroundTruthConfig { seed: 99, ..Default::default() });
        assert_ne!(a.table, c.table);
    }

    #[test]
    fn categorical_column_is_string() {
        let gt = small();
        assert_eq!(
            gt.table.column("cat_0").unwrap().dtype(),
            autofeat_data::DType::Str
        );
    }

    #[test]
    fn zero_counts_are_legal() {
        let gt = generate(&GroundTruthConfig {
            n_rows: 50,
            n_informative: 1,
            n_redundant: 0,
            n_noise: 0,
            n_categorical: 0,
            ..Default::default()
        });
        assert_eq!(gt.table.n_cols(), 3); // row_id, inf_0, target
        assert!(gt.redundant.is_empty());
    }
}
