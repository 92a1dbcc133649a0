//! The data-lake corruption: strip KFK metadata and plant spurious
//! joinable columns, then let dataset discovery rebuild a dense multigraph
//! (the paper's *data-lake setting*, §VII-A).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::{Column, Table, Value};

use crate::splitter::Snowflake;

/// Lake-corruption configuration.
#[derive(Debug, Clone)]
pub struct LakeConfig {
    /// Number of decoy columns planted across satellites. Each decoy copies
    /// values from some other table's key domain under a confusable name,
    /// creating a spurious join opportunity.
    pub n_decoys: usize,
    /// Fraction of a decoy's values drawn from the victim key domain (the
    /// rest is noise) — controls how convincing the spurious edge looks.
    pub decoy_overlap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig { n_decoys: 3, decoy_overlap: 0.8, seed: 23 }
    }
}

/// A data lake: tables with no relationship metadata.
#[derive(Debug, Clone)]
pub struct Lake {
    /// All tables (base first).
    pub tables: Vec<Table>,
    /// Name of the base table.
    pub base_name: String,
    /// Label column in the base table.
    pub label: String,
}

impl Lake {
    /// The base table.
    pub fn base(&self) -> &Table {
        self.tables
            .iter()
            .find(|t| t.name() == self.base_name)
            .expect("base table present")
    }
}

/// Strip a snowflake's KFK metadata and plant decoy columns.
pub fn corrupt_to_lake(sf: &Snowflake, config: &LakeConfig) -> Lake {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut tables: Vec<Table> = sf.all_tables().into_iter().cloned().collect();

    let n_sats = sf.satellites.len();
    if n_sats >= 2 {
        for d in 0..config.n_decoys {
            // Victim: the key domain we imitate. Host: where the decoy goes.
            let victim = rng.random_range(0..n_sats);
            let mut host = rng.random_range(0..n_sats);
            if host == victim {
                host = (host + 1) % n_sats;
            }
            let victim_table = &tables[victim + 1]; // +1: base is tables[0]
            let pk_name = format!("s{victim}_id");
            let Ok(pk) = victim_table.column(&pk_name) else {
                continue;
            };
            let domain: Vec<i64> = (0..pk.len())
                .filter_map(|i| match pk.get(i) {
                    Value::Int(v) => Some(v),
                    _ => None,
                })
                .collect();
            if domain.is_empty() {
                continue;
            }
            let host_table = &tables[host + 1];
            let n = host_table.n_rows();
            let decoy: Vec<Option<i64>> = (0..n)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < config.decoy_overlap {
                        Some(domain[rng.random_range(0..domain.len())])
                    } else {
                        Some(rng.random_range(0..i64::MAX / 2))
                    }
                })
                .collect();
            // Confusable name: shares the victim's vocabulary.
            let decoy_name = format!("s{victim}_id_ref{d}");
            if host_table.has_column(&decoy_name) {
                continue;
            }
            tables[host + 1] = host_table
                .with_column(decoy_name, Column::from_ints(decoy))
                .expect("fresh decoy name");
        }
    }

    Lake {
        tables,
        base_name: sf.base.name().to_string(),
        label: sf.label.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GroundTruthConfig};
    use crate::splitter::{split, SnowflakeConfig};

    fn lake() -> Lake {
        let gt = generate(&GroundTruthConfig { n_rows: 200, ..Default::default() });
        let sf = split(&gt, &SnowflakeConfig::default());
        corrupt_to_lake(&sf, &LakeConfig::default())
    }

    #[test]
    fn lake_has_all_tables() {
        let l = lake();
        assert_eq!(l.tables.len(), 6);
        assert_eq!(l.base().name(), "base");
    }

    #[test]
    fn decoys_were_planted() {
        let l = lake();
        let n_decoys: usize = l
            .tables
            .iter()
            .flat_map(|t| t.column_names().into_iter().map(String::from).collect::<Vec<_>>())
            .filter(|c| c.contains("_ref"))
            .count();
        assert!(n_decoys >= 1, "expected at least one decoy column");
    }

    #[test]
    fn zero_decoys_is_clean() {
        let gt = generate(&GroundTruthConfig { n_rows: 100, ..Default::default() });
        let sf = split(&gt, &SnowflakeConfig::default());
        let l = corrupt_to_lake(&sf, &LakeConfig { n_decoys: 0, ..Default::default() });
        let total_cols: usize = l.tables.iter().map(Table::n_cols).sum();
        let orig_cols: usize = sf.all_tables().iter().map(|t| t.n_cols()).sum();
        assert_eq!(total_cols, orig_cols);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = lake();
        let b = lake();
        for (x, y) in a.tables.iter().zip(&b.tables) {
            assert_eq!(x, y);
        }
    }
}
