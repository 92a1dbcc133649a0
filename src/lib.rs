//! # autofeat
//!
//! A Rust implementation of **AutoFeat: Transitive Feature Discovery over
//! Join Paths** (Ionescu et al., ICDE 2024), together with every substrate
//! its evaluation depends on.
//!
//! Given a *base table* with a classification label sitting in a collection
//! of datasets (a curated warehouse or a messy data lake), AutoFeat finds
//! **multi-hop join paths** that lead to features with high predictive
//! power — without training a model per candidate join. Paths are pruned by
//! join-column similarity and data quality (τ), and ranked by cheap
//! information-theoretic **relevance** (Spearman) and **redundancy** (MRMR)
//! scores; only the top-k ranked paths are ever materialized and trained.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`data`] | columnar table engine: typed null-aware columns, CSV, normalized left joins, sampling, encoding |
//! | [`graph`] | the Dataset Relation Graph multigraph, BFS, path enumeration, Eq. 3 |
//! | [`discovery`] | `graph`'s schema/instance matcher (COMA stand-in) that builds the data-lake setting's DRG |
//! | [`metrics`] | entropy/MI, the 5 relevance measures, the 5 redundancy criteria |
//! | [`ml`] | decision trees, Random Forest, Extra-Trees, GBDT (×2 presets), KNN, logistic-L1 |
//! | [`core`] | Algorithm 1 & 2, the streaming selection pipeline, baselines (BASE/ARDA/MAB/JoinAll) |
//! | [`obs`] | run tracing: per-phase spans, pipeline counters, machine-readable run traces |
//! | [`datagen`] | synthetic ground-truth lakes replicating the paper's evaluation corpus |
//!
//! ## Quickstart
//!
//! ```
//! use autofeat::prelude::*;
//!
//! // A toy lake: the base table and one joinable satellite.
//! let base = Table::new("base", vec![
//!     ("customer_id", Column::from_ints((0..100).map(Some).collect::<Vec<_>>())),
//!     ("target", Column::from_ints((0..100).map(|i| Some(i % 2)).collect::<Vec<_>>())),
//! ]).unwrap();
//! let profile = Table::new("profile", vec![
//!     ("customer_id", Column::from_ints((0..100).map(Some).collect::<Vec<_>>())),
//!     ("score", Column::from_floats((0..100).map(|i| Some((i % 2) as f64)).collect::<Vec<_>>())),
//! ]).unwrap();
//!
//! // Benchmark setting: the KFK edge is known.
//! let ctx = SearchContext::from_kfk(
//!     vec![base, profile],
//!     &[("base".into(), "customer_id".into(), "profile".into(), "customer_id".into())],
//!     "base",
//!     "target",
//! ).unwrap();
//!
//! let result = AutoFeat::paper().discover(&ctx).unwrap();
//! assert_eq!(result.ranked.len(), 1);
//! assert!(result.ranked[0].features.iter().any(|f| f == "profile.score"));
//! ```

pub use autofeat_core as core;
pub use autofeat_data as data;
pub use autofeat_datagen as datagen;
pub use autofeat_graph::discovery;
pub use autofeat_graph as graph;
pub use autofeat_metrics as metrics;
pub use autofeat_ml as ml;
pub use autofeat_obs as obs;

/// The most common imports in one place.
pub mod prelude {
    pub use autofeat_core::{
        baselines::{run_arda, run_base, run_join_all, run_mab},
        discovery_health_report, load_lake_dir, train_top_k, AutoFeat, AutoFeatConfig,
        DiscoveryRequest, DiscoveryResult, DiscoveryService, LakeLoadReport, MethodResult,
        PathFailure, Phase, PreparedRequest, QuarantinedTable, RankedPath, RequestLogRecord,
        RequestOutcome, ResilienceStats, SearchContext, TrainOutcome,
        TruncationReason, REQUEST_LOG_CAP,
    };
    pub use autofeat_data::{
        CacheRecorder, CacheStats, Column, DType, FaultDomain, Interrupt, KeyDict,
        LakeIndexCache, RunControl, Table, Value,
    };
    pub use autofeat_graph::discovery::SchemaMatcher;
    pub use autofeat_graph::{Drg, DrgBuilder, JoinPath};
    pub use autofeat_metrics::{RedundancyMethod, RelevanceMethod};
    pub use autofeat_ml::eval::ModelKind;
    pub use autofeat_obs::{RunTrace, Tracer};
}

/// Build a [`core::SearchContext`] straight from a datagen snowflake
/// (benchmark setting).
pub fn context_from_snowflake(
    sf: &datagen::Snowflake,
) -> data::Result<core::SearchContext> {
    let tables: Vec<data::Table> = sf.all_tables().into_iter().cloned().collect();
    let kfk: Vec<(String, String, String, String)> = sf
        .kfk
        .iter()
        .map(|e| {
            (
                e.parent_table.clone(),
                e.parent_column.clone(),
                e.child_table.clone(),
                e.child_column.clone(),
            )
        })
        .collect();
    core::SearchContext::from_kfk(tables, &kfk, sf.base.name().to_string(), sf.label.clone())
}

/// Build a [`core::SearchContext`] from a datagen lake by running dataset
/// discovery (data-lake setting).
pub fn context_from_lake(
    lake: &datagen::lake::Lake,
    matcher: &discovery::SchemaMatcher,
) -> data::Result<core::SearchContext> {
    core::SearchContext::from_discovery(
        lake.tables.clone(),
        matcher,
        lake.base_name.clone(),
        lake.label.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{GroundTruthConfig, SnowflakeConfig};

    #[test]
    fn snowflake_context_roundtrip() {
        let gt = datagen::generator::generate(&GroundTruthConfig {
            n_rows: 120,
            ..Default::default()
        });
        let sf = datagen::splitter::split(&gt, &SnowflakeConfig::default());
        let ctx = context_from_snowflake(&sf).unwrap();
        assert_eq!(ctx.n_tables(), 6);
        assert_eq!(ctx.drg().n_edges(), 5);
        assert!(ctx.drg().node("base").is_some());
    }

    #[test]
    fn lake_context_roundtrip() {
        let gt = datagen::generator::generate(&GroundTruthConfig {
            n_rows: 120,
            ..Default::default()
        });
        let sf = datagen::splitter::split(&gt, &SnowflakeConfig::default());
        let lake = datagen::lake::corrupt_to_lake(&sf, &datagen::LakeConfig::default());
        let ctx = context_from_lake(&lake, &discovery::SchemaMatcher::paper_default()).unwrap();
        assert_eq!(ctx.n_tables(), 6);
        assert!(ctx.drg().n_edges() >= 5, "discovery should reconnect the lake");
    }
}
