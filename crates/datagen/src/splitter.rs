//! The snowflake splitter: carve a ground-truth wide table into a base
//! table plus multi-hop satellite tables with known KFK edges — the paper's
//! *benchmark setting* ("we design a technique to divide a dataset into
//! multiple small tables with known KFK constraints", §VII-A).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::{Column, Table};

use crate::generator::GroundTruth;

/// A known KFK edge between two materialized tables. Both sides carry the
/// same column name (satellite keys are named `s{k}_id` on both ends), which
/// is what the MAB baseline's same-name join restriction keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KfkEdge {
    /// Parent (FK-holding) table.
    pub parent_table: String,
    /// FK column in the parent.
    pub parent_column: String,
    /// Child (PK-holding) table.
    pub child_table: String,
    /// PK column in the child.
    pub child_column: String,
}

/// Snowflake-splitting configuration.
#[derive(Debug, Clone)]
pub struct SnowflakeConfig {
    /// Number of satellite tables.
    pub n_satellites: usize,
    /// Maximum children per table in the join tree (1 ⇒ a deep chain).
    pub max_branching: usize,
    /// Number of (weakest) features kept in the base table.
    pub base_features: usize,
    /// Plant the strongest informative features in the deepest satellites,
    /// so only transitive exploration finds them.
    pub deep_signal: bool,
    /// Fraction of satellite rows duplicated with jitter (creates 1:n join
    /// cardinality, exercising normalization).
    pub duplicate_frac: f64,
    /// Fraction of satellite rows dropped (creates unmatched FKs ⇒ nulls,
    /// exercising the τ pruning rule).
    pub missing_key_frac: f64,
    /// Fraction of satellite *feature cells* blanked to null (exercises
    /// imputation, §IV-C: real lakes are incomplete inside tables too, not
    /// only at the join keys).
    pub feature_null_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SnowflakeConfig {
    fn default() -> Self {
        SnowflakeConfig {
            n_satellites: 5,
            max_branching: 2,
            base_features: 2,
            deep_signal: true,
            duplicate_frac: 0.05,
            missing_key_frac: 0.02,
            feature_null_frac: 0.02,
            seed: 11,
        }
    }
}

/// A materialized snowflake schema.
#[derive(Debug, Clone)]
pub struct Snowflake {
    /// The base table (holds the label and the weakest features).
    pub base: Table,
    /// Satellite tables.
    pub satellites: Vec<Table>,
    /// The known KFK edges.
    pub kfk: Vec<KfkEdge>,
    /// Label column name (in the base table).
    pub label: String,
    /// Depth of each table in the join tree (base = 0).
    pub depth: HashMap<String, usize>,
    /// Which feature columns ended up in which table.
    pub placement: HashMap<String, String>,
}

impl Snowflake {
    /// All tables, base first.
    pub fn all_tables(&self) -> Vec<&Table> {
        std::iter::once(&self.base).chain(self.satellites.iter()).collect()
    }

    /// Maximum table depth (the number of hops needed to reach the deepest
    /// satellite).
    pub fn max_depth(&self) -> usize {
        self.depth.values().copied().max().unwrap_or(0)
    }
}

/// Split a ground-truth wide table into a snowflake.
pub fn split(gt: &GroundTruth, config: &SnowflakeConfig) -> Snowflake {
    assert!(config.n_satellites >= 1, "need at least one satellite");
    assert!(config.max_branching >= 1, "branching must be >= 1");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = gt.table.n_rows();

    // ---- 1. Order features from weakest to strongest. ----
    // Noise first, then categoricals, then redundant, then informative from
    // weakest (highest index) to strongest (inf_0).
    let mut ordered: Vec<String> = Vec::new();
    ordered.extend(gt.noise.iter().cloned());
    ordered.extend(gt.categorical.iter().cloned());
    ordered.extend(gt.redundant.iter().cloned());
    ordered.extend(gt.informative.iter().rev().cloned());
    if !config.deep_signal {
        // Scatter instead: deterministic shuffle.
        for i in (1..ordered.len()).rev() {
            let j = rng.random_range(0..=i);
            ordered.swap(i, j);
        }
    }

    // ---- 2. Base features = the weakest few. ----
    let n_base = config.base_features.min(ordered.len());
    let base_feats: Vec<String> = ordered[..n_base].to_vec();
    let rest: Vec<String> = ordered[n_base..].to_vec();

    // ---- 3. Join-tree structure over satellites. ----
    // parent[k] = None ⇒ base; Some(j) ⇒ satellite j (j < k).
    // Breadth-first attachment: each satellite attaches to the shallowest
    // table with spare branching capacity (base first). `max_branching = m`
    // therefore yields a star schema; `max_branching = 1` a chain.
    let m = config.n_satellites;
    let mut parent: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut depth_of: Vec<usize> = Vec::with_capacity(m);
    let mut child_count_base = 0usize;
    let mut child_count: Vec<usize> = vec![0; m];
    for k in 0..m {
        let choice = if child_count_base < config.max_branching {
            None
        } else {
            (0..k)
                .filter(|&j| child_count[j] < config.max_branching)
                .min_by_key(|&j| (depth_of[j], j))
        };
        match choice {
            None => child_count_base += 1,
            Some(j) => child_count[j] += 1,
        }
        depth_of.push(match choice {
            None => 1,
            Some(j) => depth_of[j] + 1,
        });
        parent.push(choice);
    }

    // ---- 4. Assign features to satellites: shallow get the weak ones. ----
    // Satellites sorted by depth; features dealt in order (weak → strong).
    let mut order_by_depth: Vec<usize> = (0..m).collect();
    order_by_depth.sort_by_key(|&k| depth_of[k]);
    let mut sat_feats: Vec<Vec<String>> = vec![Vec::new(); m];
    if !rest.is_empty() {
        let per = rest.len().div_ceil(m).max(1);
        let chunks: Vec<&[String]> = rest.chunks(per).collect();
        // Deal chunks so the strongest (last) chunk lands on the deepest
        // table; when there are fewer chunks than tables the shallowest
        // tables stay featureless (pure link tables).
        let offset = m - chunks.len();
        for (slot, chunk) in chunks.into_iter().enumerate() {
            let k = order_by_depth[offset + slot];
            sat_feats[k].extend(chunk.iter().cloned());
        }
    }

    // ---- 5. Key spaces: disjoint ranges + per-satellite permutation. ----
    // key_of[k][i] = key value of ground row i in satellite k.
    let mut key_of: Vec<Vec<i64>> = Vec::with_capacity(m);
    for k in 0..m {
        let base_offset = ((k + 1) * n * 2) as i64;
        let mut perm: Vec<i64> = (0..n as i64).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        key_of.push(perm.into_iter().map(|p| base_offset + p).collect());
    }

    let children_of = |k: Option<usize>| -> Vec<usize> {
        (0..m).filter(|&c| parent[c] == k).collect()
    };

    // ---- 6. Materialize satellites. ----
    let mut satellites = Vec::with_capacity(m);
    let mut kfk = Vec::new();
    let mut placement: HashMap<String, String> = HashMap::new();
    for k in 0..m {
        let name = format!("s{k}");
        // Row order: shuffled ground rows, some dropped, some duplicated.
        let mut rows: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            rows.swap(i, j);
        }
        let mut kept: Vec<usize> = rows
            .into_iter()
            .filter(|_| rng.random_range(0.0..1.0) >= config.missing_key_frac)
            .collect();
        let dups: Vec<usize> = kept
            .iter()
            .copied()
            .filter(|_| rng.random_range(0.0..1.0) < config.duplicate_frac)
            .collect();
        kept.extend(dups);

        let mut cols: Vec<(String, Column)> = Vec::new();
        // PK column, named like the FK in the parent.
        let pk_name = format!("s{k}_id");
        cols.push((
            pk_name.clone(),
            Column::from_ints(kept.iter().map(|&i| Some(key_of[k][i])).collect::<Vec<_>>()),
        ));
        // FK columns to this satellite's children.
        for c in children_of(Some(k)) {
            cols.push((
                format!("s{c}_id"),
                Column::from_ints(kept.iter().map(|&i| Some(key_of[c][i])).collect::<Vec<_>>()),
            ));
        }
        // Feature columns, with a sprinkle of nulls.
        for f in &sat_feats[k] {
            let src = gt.table.column(f).expect("feature exists in ground truth");
            let mut col = Column::with_capacity(src.dtype(), kept.len());
            for &i in &kept {
                // Guard the draw: at frac 0 no RNG state is consumed, so
                // generation stays bit-identical to a null-free config.
                if config.feature_null_frac > 0.0
                    && rng.random_range(0.0..1.0) < config.feature_null_frac
                {
                    col.push_null();
                } else {
                    col.push(src.get(i)).expect("same dtype");
                }
            }
            cols.push((f.clone(), col));
            placement.insert(f.clone(), name.clone());
        }
        satellites.push(Table::new(name.clone(), cols).expect("unique column names"));
        // KFK edge to the parent.
        let parent_name = match parent[k] {
            None => "base".to_string(),
            Some(j) => format!("s{j}"),
        };
        kfk.push(KfkEdge {
            parent_table: parent_name,
            parent_column: pk_name.clone(),
            child_table: format!("s{k}"),
            child_column: pk_name,
        });
    }

    // ---- 7. Materialize the base table. ----
    let mut cols: Vec<(String, Column)> = Vec::new();
    for c in children_of(None) {
        cols.push((
            format!("s{c}_id"),
            Column::from_ints((0..n).map(|i| Some(key_of[c][i])).collect::<Vec<_>>()),
        ));
    }
    for f in &base_feats {
        let src = gt.table.column(f).expect("feature exists");
        let mut col = Column::with_capacity(src.dtype(), n);
        for i in 0..n {
            col.push(src.get(i)).expect("same dtype");
        }
        cols.push((f.clone(), col));
        placement.insert(f.clone(), "base".to_string());
    }
    let label_src = gt.table.column(&gt.label).expect("label exists");
    let mut label_col = Column::with_capacity(label_src.dtype(), n);
    for i in 0..n {
        label_col.push(label_src.get(i)).expect("same dtype");
    }
    cols.push((gt.label.clone(), label_col));
    let base = Table::new("base", cols).expect("unique column names");

    let mut depth = HashMap::new();
    depth.insert("base".to_string(), 0usize);
    for (k, &d) in depth_of.iter().enumerate() {
        depth.insert(format!("s{k}"), d);
    }

    Snowflake { base, satellites, kfk, label: gt.label.clone(), depth, placement }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GroundTruthConfig};
    use autofeat_data::Value;

    fn snowflake() -> Snowflake {
        let gt = generate(&GroundTruthConfig { n_rows: 300, ..Default::default() });
        split(&gt, &SnowflakeConfig::default())
    }

    #[test]
    fn produces_requested_tables() {
        let sf = snowflake();
        assert_eq!(sf.satellites.len(), 5);
        assert_eq!(sf.kfk.len(), 5);
        assert_eq!(sf.all_tables().len(), 6);
    }

    #[test]
    fn base_keeps_label_and_weak_features() {
        let sf = snowflake();
        assert!(sf.base.has_column("target"));
        // Base features are the weakest (noise) ones under deep_signal.
        let base_feats: Vec<&String> = sf
            .placement
            .iter()
            .filter(|(_, t)| *t == "base")
            .map(|(f, _)| f)
            .collect();
        assert_eq!(base_feats.len(), 2);
        assert!(base_feats.iter().all(|f| f.starts_with("noise")));
    }

    #[test]
    fn strongest_feature_is_deepest() {
        let sf = snowflake();
        let inf0_table = sf.placement.get("inf_0").expect("inf_0 placed");
        let inf0_depth = sf.depth[inf0_table];
        let max_depth = sf.max_depth();
        assert_eq!(
            inf0_depth, max_depth,
            "deep_signal should plant inf_0 at depth {max_depth}, got {inf0_depth}"
        );
        assert!(max_depth >= 2, "default config should create multi-hop paths");
    }

    #[test]
    fn key_ranges_are_disjoint() {
        // Each satellite's primary keys occupy a range no other satellite's
        // keys overlap.
        let sf = snowflake();
        let mut ranges: Vec<(i64, i64)> = Vec::new();
        for t in &sf.satellites {
            let col = t.column(t.column_names()[0]).expect("pk exists");
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for i in 0..col.len() {
                if let Value::Int(v) = col.get(i) {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            ranges.push((lo, hi));
        }
        ranges.sort_unstable();
        assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "{ranges:?}");
    }

    #[test]
    fn kfk_columns_share_names_across_sides() {
        let sf = snowflake();
        for e in &sf.kfk {
            assert_eq!(e.parent_column, e.child_column);
        }
    }

    #[test]
    fn duplication_creates_multi_rows() {
        let gt = generate(&GroundTruthConfig { n_rows: 400, ..Default::default() });
        let sf = split(
            &gt,
            &SnowflakeConfig { duplicate_frac: 0.5, missing_key_frac: 0.0, ..Default::default() },
        );
        let s0 = &sf.satellites[0];
        assert!(s0.n_rows() > 400, "expected duplicated rows, got {}", s0.n_rows());
    }

    #[test]
    fn feature_nulls_are_injected_at_the_configured_rate() {
        let gt = generate(&GroundTruthConfig { n_rows: 500, ..Default::default() });
        let sf = split(
            &gt,
            &SnowflakeConfig {
                feature_null_frac: 0.2,
                missing_key_frac: 0.0,
                duplicate_frac: 0.0,
                ..Default::default()
            },
        );
        // Keys stay null-free; feature columns carry ≈ 20% nulls.
        let mut feature_cells = 0usize;
        let mut feature_nulls = 0usize;
        for t in &sf.satellites {
            for i in 0..t.n_cols() {
                let name = &t.field_at(i).name;
                let col = t.column_at(i);
                if name.ends_with("_id") {
                    assert_eq!(col.null_count(), 0, "key {name} must stay complete");
                } else {
                    feature_cells += col.len();
                    feature_nulls += col.null_count();
                }
            }
        }
        let ratio = feature_nulls as f64 / feature_cells as f64;
        assert!((0.12..0.28).contains(&ratio), "null ratio {ratio}");
    }

    #[test]
    fn zero_feature_null_frac_is_clean() {
        let gt = generate(&GroundTruthConfig { n_rows: 200, ..Default::default() });
        let sf = split(
            &gt,
            &SnowflakeConfig { feature_null_frac: 0.0, ..Default::default() },
        );
        for t in &sf.satellites {
            for i in 0..t.n_cols() {
                assert_eq!(t.column_at(i).null_count(), 0);
            }
        }
    }

    #[test]
    fn missing_keys_shrink_satellites() {
        let gt = generate(&GroundTruthConfig { n_rows: 400, ..Default::default() });
        let sf = split(
            &gt,
            &SnowflakeConfig { duplicate_frac: 0.0, missing_key_frac: 0.3, ..Default::default() },
        );
        assert!(sf.satellites[0].n_rows() < 350);
    }

    #[test]
    fn chain_topology_with_branching_one() {
        let gt = generate(&GroundTruthConfig { n_rows: 100, ..Default::default() });
        let sf = split(
            &gt,
            &SnowflakeConfig { n_satellites: 4, max_branching: 1, ..Default::default() },
        );
        assert_eq!(sf.max_depth(), 4, "branching 1 must produce a chain");
    }

    #[test]
    fn every_feature_is_placed_exactly_once() {
        let gt = generate(&GroundTruthConfig { n_rows: 100, ..Default::default() });
        let sf = split(&gt, &SnowflakeConfig::default());
        let n_feats = gt.feature_names().len();
        assert_eq!(sf.placement.len(), n_feats);
        // No feature column appears in two tables.
        for f in gt.feature_names() {
            let owners: usize = sf
                .all_tables()
                .iter()
                .filter(|t| t.has_column(f))
                .count();
            assert_eq!(owners, 1, "feature {f} appears in {owners} tables");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gt = generate(&GroundTruthConfig { n_rows: 150, ..Default::default() });
        let a = split(&gt, &SnowflakeConfig::default());
        let b = split(&gt, &SnowflakeConfig::default());
        assert_eq!(a.base, b.base);
        assert_eq!(a.satellites, b.satellites);
    }
}
