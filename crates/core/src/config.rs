//! AutoFeat configuration (hyper-parameters of §VI/§VII).

use std::path::PathBuf;
use std::time::Duration;

use autofeat_metrics::redundancy::RedundancyMethod;
use autofeat_metrics::relevance::RelevanceMethod;

/// Hyper-parameters of the AutoFeat pipeline.
///
/// Defaults follow the paper's evaluation: τ = 0.65, κ = 15, Spearman
/// relevance, MRMR redundancy.
#[derive(Debug, Clone)]
pub struct AutoFeatConfig {
    /// Null-value-ratio threshold τ: a join whose newly added columns have
    /// completeness (fraction of non-null cells) below τ is pruned.
    pub tau: f64,
    /// Maximum features selected from one table (κ of *select-κ-best*).
    pub kappa: usize,
    /// Relevance measure; `None` disables the relevance analysis (ablation
    /// "turn off relevance": every new feature passes straight to the
    /// redundancy step).
    pub relevance: Option<RelevanceMethod>,
    /// Redundancy criterion; `None` disables the redundancy analysis
    /// (ablation: all relevant features are kept).
    pub redundancy: Option<RedundancyMethod>,
    /// Number of top-ranked paths handed to model training.
    pub top_k: usize,
    /// Maximum join-path length explored.
    pub max_path_length: usize,
    /// Hard cap on the number of joins evaluated (guards dense data-lake
    /// multigraphs where the acyclic path space explodes).
    pub max_joins: usize,
    /// Optional wall-clock deadline for the discovery BFS. When elapsed time
    /// exceeds it, exploration stops gracefully and the result is marked
    /// truncated with
    /// [`TruncationReason::DeadlineExceeded`](crate::TruncationReason);
    /// everything ranked so far is still returned. `None` = no deadline.
    /// The deadline composes with the context-wide
    /// [`RunControl`](autofeat_data::RunControl): the tighter of the two
    /// wins, and a cancel on either interrupts the run.
    pub time_budget: Option<Duration>,
    /// Optional beam width: keep only the best-scored `b` frontier entries
    /// per BFS level. `None` = exhaustive level expansion (the paper's
    /// published algorithm); `Some(b)` is the "more aggressive pruning" its
    /// future-work section proposes for dense lakes.
    pub beam_width: Option<usize>,
    /// Row cap for the stratified sample used during feature selection
    /// (§VI: "we use stratified sampling to sample the base table at the
    /// beginning of the process"). `None` = use all rows.
    pub sample_rows: Option<usize>,
    /// RNG seed: drives base-table sampling directly and every join's
    /// representative picks via per-hop seed derivation
    /// (see [`crate::seeding::hop_seed`]).
    pub seed: u64,
    /// Worker threads for the per-level parallel path evaluation. `0` =
    /// auto: honour the `AUTOFEAT_THREADS` environment variable when set to
    /// a positive integer, else use the machine's available parallelism.
    /// Results are bit-identical at any thread count.
    pub threads: usize,
    /// Which [`LakeIndexCache`](autofeat_data::LakeIndexCache) joins go
    /// through: the context's shared one, or with `false` a private one at
    /// budget 0 that builds, uses and drops every index and leaves the shared
    /// one untouched. Results are bit-identical either way.
    pub cache: bool,
    /// Byte budget for the lake-wide join-index cache (memory governance:
    /// fit-or-deny admission, LRU eviction on budget shrink — see the
    /// `autofeat_data::cache` module docs). `Some(b)` is applied to the
    /// context's cache at the start of each run; `None` leaves the cache's
    /// budget as it is — the `AUTOFEAT_CACHE_BUDGET` environment variable
    /// read when the cache was built, or whatever
    /// [`LakeIndexCache::set_budget`](autofeat_data::LakeIndexCache::set_budget)
    /// applied since. Ignored with `cache: false`. Budgeted and unbounded
    /// runs are bit-identical — the budget bounds memory, never results.
    pub cache_budget_bytes: Option<u64>,
    /// Collect a structured [`RunTrace`](autofeat_obs::RunTrace) for every
    /// discovery run: per-phase wall times, pipeline counters, and a bounded
    /// event log, attached to the result as `DiscoveryResult::trace`.
    /// Tracing never perturbs results — traced and untraced runs are
    /// bit-identical. Also enabled implicitly by the `AUTOFEAT_TRACE`
    /// environment variable, which names a file the trace is written to as
    /// JSON (schema [`autofeat_obs::TRACE_SCHEMA_VERSION`]). Write failures
    /// are fail-soft: the run still succeeds and the trace stays on the
    /// result.
    pub trace: bool,
}

impl Default for AutoFeatConfig {
    fn default() -> Self {
        AutoFeatConfig {
            tau: 0.65,
            kappa: 15,
            relevance: Some(RelevanceMethod::Spearman),
            redundancy: Some(RedundancyMethod::Mrmr),
            top_k: 4,
            max_path_length: 4,
            max_joins: 2000,
            time_budget: None,
            beam_width: None,
            sample_rows: Some(1000),
            seed: 42,
            threads: 0,
            cache: true,
            cache_budget_bytes: None,
            trace: false,
        }
    }
}

impl AutoFeatConfig {
    /// The paper's published configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builder-style τ override.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Builder-style κ override.
    pub fn with_kappa(mut self, kappa: usize) -> Self {
        self.kappa = kappa;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style discovery deadline override.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Builder-style worker-thread override (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style choice of join-index cache (see [`cache`](Self::cache)).
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Builder-style cache byte-budget override (see
    /// [`cache_budget_bytes`](Self::cache_budget_bytes)).
    pub fn with_cache_budget_bytes(mut self, bytes: u64) -> Self {
        self.cache_budget_bytes = Some(bytes);
        self
    }

    /// Builder-style trace toggle (in-memory trace on the result, no file).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Whether this run should collect a trace: the explicit `trace` flag,
    /// or a trace file named by `AUTOFEAT_TRACE`.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace || trace_file().is_some()
    }

    /// `cache_budget_bytes`, the field itself: discovery reads the field,
    /// and this getter stays for callers outside the workspace (the
    /// benchmark's layer replay).
    pub fn resolve_cache_budget(&self) -> Option<u64> {
        self.cache_budget_bytes
    }

    /// The effective worker count: the explicit `threads` field when
    /// positive, else the `AUTOFEAT_THREADS` / auto-detect resolution of
    /// [`autofeat_data::parallel::n_workers`].
    pub(crate) fn resolve_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            autofeat_data::parallel::n_workers()
        }
    }

    /// Ablation variants of Fig. 9, by name.
    ///
    /// Returns `(label, config)` pairs: Spearman-MRMR (AutoFeat proper),
    /// Pearson-MRMR, Spearman-JMI, Pearson-JMI, Spearman-only, MRMR-only.
    pub fn ablation_variants() -> Vec<(&'static str, AutoFeatConfig)> {
        let base = AutoFeatConfig::default();
        vec![
            ("Spearman-MRMR", base.clone()),
            (
                "Pearson-MRMR",
                AutoFeatConfig { relevance: Some(RelevanceMethod::Pearson), ..base.clone() },
            ),
            (
                "Spearman-JMI",
                AutoFeatConfig { redundancy: Some(RedundancyMethod::Jmi), ..base.clone() },
            ),
            (
                "Pearson-JMI",
                AutoFeatConfig {
                    relevance: Some(RelevanceMethod::Pearson),
                    redundancy: Some(RedundancyMethod::Jmi),
                    ..base.clone()
                },
            ),
            (
                "Spearman-only",
                AutoFeatConfig { redundancy: None, ..base.clone() },
            ),
            ("MRMR-only", AutoFeatConfig { relevance: None, ..base }),
        ]
    }
}

/// The trace file named by the `AUTOFEAT_TRACE` environment variable, when
/// set non-empty: the one way to have a run's trace written to disk.
pub(crate) fn trace_file() -> Option<PathBuf> {
    match std::env::var("AUTOFEAT_TRACE") {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AutoFeatConfig::paper();
        assert_eq!(c.tau, 0.65);
        assert_eq!(c.kappa, 15);
        assert_eq!(c.relevance, Some(RelevanceMethod::Spearman));
        assert!(matches!(c.redundancy, Some(RedundancyMethod::Mrmr)));
    }

    #[test]
    fn builders_override() {
        let c = AutoFeatConfig::default().with_tau(0.3).with_kappa(5).with_seed(9);
        assert_eq!(c.tau, 0.3);
        assert_eq!(c.kappa, 5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn threads_resolution() {
        // Explicit config value wins over everything.
        let c = AutoFeatConfig::default().with_threads(3);
        assert_eq!(c.resolve_threads(), 3);
        // 0 = auto: at least one worker, whatever the environment says.
        let auto = AutoFeatConfig::default();
        assert_eq!(auto.threads, 0);
        assert!(auto.resolve_threads() >= 1);
    }

    #[test]
    fn cache_budget_resolution() {
        // Default: no budget configured, so the run leaves the cache's own.
        let c = AutoFeatConfig::default();
        assert_eq!(c.cache_budget_bytes, None);
        let c = AutoFeatConfig::default().with_cache_budget_bytes(24 << 20);
        assert_eq!(c.cache_budget_bytes, Some(24 << 20));
        let c = AutoFeatConfig::default().with_cache_budget_bytes(0);
        assert_eq!(c.cache_budget_bytes, Some(0), "zero budget is explicit");
    }

    #[test]
    fn trace_builder_enables_tracing() {
        assert!(AutoFeatConfig::default().with_trace(true).trace_enabled());
    }

    #[test]
    fn ablation_variants_cover_fig9() {
        let v = AutoFeatConfig::ablation_variants();
        assert_eq!(v.len(), 6);
        let labels: Vec<&str> = v.iter().map(|(l, _)| *l).collect();
        assert!(labels.contains(&"Spearman-MRMR"));
        assert!(labels.contains(&"MRMR-only"));
        let spearman_only = &v.iter().find(|(l, _)| *l == "Spearman-only").unwrap().1;
        assert!(spearman_only.redundancy.is_none());
        let mrmr_only = &v.iter().find(|(l, _)| *l == "MRMR-only").unwrap().1;
        assert!(mrmr_only.relevance.is_none());
    }
}
