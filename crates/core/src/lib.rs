//! # autofeat-core
//!
//! The paper's primary contribution: **ranking-based transitive feature
//! discovery over join paths** (Algorithms 1 & 2 of "AutoFeat: Transitive
//! Feature Discovery over Join Paths", ICDE 2024), plus every baseline of
//! its evaluation.
//!
//! ## The AutoFeat pipeline
//!
//! 1. A [`SearchContext`] bundles the data lake's
//!    tables, the base table + label, and the Dataset Relation Graph (KFK
//!    edges in the *benchmark setting*, discovered edges in the *data-lake
//!    setting*).
//! 2. [`AutoFeat::discover`](autofeat::AutoFeat) runs Algorithm 1: BFS over
//!    the DRG, per-neighbour similarity-score pruning, left joins with
//!    cardinality normalization, τ data-quality pruning, *select-κ-best*
//!    relevance analysis (Spearman by default), streaming redundancy
//!    analysis (MRMR by default) against the running selected set, and
//!    Algorithm 2 path scoring — producing a ranked list of join paths with
//!    their selected features.
//! 3. [`train::train_top_k`] materializes the top-k paths at full scale,
//!    trains the requested models, and returns the best path by accuracy.
//!
//! Every phase polls the run's [`RunControl`] cooperatively: cancellation
//! and deadlines truncate the ranking instead of erroring, worker panics
//! are isolated into [`PathFailure`] entries, and a deadline-driven
//! degradation ladder trades fidelity for liveness (DESIGN.md §3h).
//!
//! ## Baselines (§VII-B)
//!
//! * [`baselines::run_base`] — the unaugmented base table;
//! * [`baselines::run_arda`] — ARDA's random-injection feature selection
//!   over a single-hop star join;
//! * [`baselines::run_mab`] — the multi-armed-bandit augmenter (UCB1 over
//!   same-name join candidates, model-accuracy reward);
//! * [`baselines::run_join_all`] — JoinAll / JoinAll+F with the Eq. 3
//!   feasibility guard.
//!
//! ARDA and JoinAll join through one walker, [`baselines::bfs_join`]: ARDA
//! at depth 1, JoinAll over every reachable table.

// Fail-soft discipline: non-test code must propagate errors, not unwrap.
// CI runs clippy with `-D warnings`, so this is effectively a deny there.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod autofeat;
pub mod baselines;
mod config;
mod context;
pub mod executor;
pub mod ranking;
mod report;
mod seeding;
mod service;
pub mod train;

pub use autofeat::{
    AutoFeat, DiscoveryResult, PathFailure, Phase, RankedPath, ResilienceStats, TruncationReason,
};
pub use autofeat_data::{Interrupt, RunControl};
pub use autofeat_obs::{
    MetricsSnapshot, RunTrace, StatsListener, Tracer, METRICS_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
};
pub use config::AutoFeatConfig;
pub use context::{load_lake_dir, LakeLoadReport, QuarantinedTable, SearchContext};
pub use executor::materialize_path;
pub use ranking::compute_score;
pub use report::{discovery_health_report, MethodResult};
pub use seeding::hop_seed;
pub use service::{
    DiscoveryRequest, DiscoveryService, PreparedRequest, RequestLogRecord, RequestOutcome,
    REQUEST_LOG_CAP,
};
pub use train::{train_top_k, TrainOutcome};
