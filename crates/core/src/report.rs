//! Result records shared by AutoFeat and the baselines — the rows behind
//! Figs. 1, 4, 5, 6, 7 — plus the fail-soft health report of a discovery
//! run (isolated path failures and early truncation).

use std::fmt::Write as _;
use std::time::Duration;

use autofeat_ml::eval::ModelKind;

use crate::autofeat::{DiscoveryResult, TruncationReason};

/// One method's outcome on one dataset: what the paper's bar charts plot.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label ("AutoFeat", "BASE", "ARDA", "MAB", "JoinAll",
    /// "JoinAll+F").
    pub method: String,
    /// Test accuracy per ML model.
    pub accuracy_per_model: Vec<(ModelKind, f64)>,
    /// Time spent assessing/choosing features (the contrasting bar segment
    /// of Figs. 4/6).
    pub feature_selection_time: Duration,
    /// Total runtime including model training.
    pub total_time: Duration,
    /// Number of tables joined into the winning augmented table (the number
    /// printed on the paper's bars).
    pub n_tables_joined: usize,
    /// Number of features the method selected for training.
    pub n_features: usize,
}

impl MethodResult {
    /// Mean accuracy across models (the paper averages "over all tested
    /// tree-based ML algorithms").
    pub fn mean_accuracy(&self) -> f64 {
        mean_accuracy(&self.accuracy_per_model)
    }

    /// Accuracy for one model, if evaluated.
    pub fn accuracy_for(&self, kind: ModelKind) -> Option<f64> {
        self.accuracy_per_model
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| *a)
    }
}

/// Mean of per-model accuracies; zero when no model was evaluated.
pub(crate) fn mean_accuracy(accs: &[(ModelKind, f64)]) -> f64 {
    if accs.is_empty() {
        return 0.0;
    }
    accs.iter().map(|(_, a)| a).sum::<f64>() / accs.len() as f64
}

/// Multi-line human-readable health report of a discovery run: path counts,
/// the join-index cache, truncation (and why), and every isolated hop
/// failure with its path context. The counts, cache and lake lines are
/// always there; any other section appears when it has content, and a run
/// with no failure and no truncation ends in a "healthy" line.
pub fn discovery_health_report(result: &DiscoveryResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "discovery: {} path(s) ranked, {} join(s) evaluated, \
         {} unjoinable, {} below-quality, {} worker thread(s)",
        result.ranked.len(),
        result.n_joins_evaluated,
        result.n_pruned_unjoinable,
        result.n_pruned_quality,
        result.threads_used
    );
    let c = &result.cache;
    let _ = writeln!(
        out,
        "join-index cache: {} hit(s), {} miss(es), {:?} build time, \
         {} index(es) resident ({} bytes)",
        c.hits, c.misses, c.build_time, c.entries, c.resident_bytes
    );
    let budget = c.budget_bytes.map_or("unbounded".to_string(), |b| format!("{b} bytes"));
    let _ = writeln!(
        out,
        "cache governance: budget {budget}, peak resident {} bytes, \
         {} eviction(s) ({} bytes), {} admission rejection(s)",
        c.peak_resident_bytes, c.evictions, c.evicted_bytes, c.rejections
    );
    let _ = writeln!(out, "lake payload: {} bytes of cells resident", result.lake_payload_bytes);
    if result.n_pruned_similarity > 0 || result.n_pruned_budget > 0 {
        let _ = writeln!(
            out,
            "also pruned: {} similarity-pruned edge(s), {} budget-dropped candidate(s)",
            result.n_pruned_similarity, result.n_pruned_budget
        );
    }
    match result.truncation {
        Some(TruncationReason::MaxJoins) => {
            let _ = writeln!(out, "truncated: max_joins cap reached");
        }
        Some(TruncationReason::DeadlineExceeded { phase }) => {
            let _ = writeln!(
                out,
                "truncated: time budget exhausted during {phase} after {:?}",
                result.elapsed
            );
        }
        Some(TruncationReason::Cancelled) => {
            let _ = writeln!(out, "truncated: cancelled after {:?}", result.elapsed);
        }
        None => {}
    }
    // Resilience section, present only when the lifecycle layer actually
    // did something: degradation rungs, isolated panics (in the fan-out or
    // the cache), poisoned-lock recoveries, a cancel.
    let res = &result.resilience;
    if !res.degradations.is_empty()
        || res.worker_panics > 0
        || res.cancel_latency.is_some()
        || c.lock_recoveries > 0
        || c.build_panics > 0
    {
        let mut parts: Vec<String> = Vec::new();
        if !res.degradations.is_empty() {
            parts.push(format!("degraded ({})", res.degradations.join(", ")));
        }
        if res.worker_panics > 0 {
            parts.push(format!("{} worker panic(s) isolated", res.worker_panics));
        }
        if c.build_panics > 0 {
            parts.push(format!("{} cache build panic(s) isolated", c.build_panics));
        }
        if c.lock_recoveries > 0 {
            parts.push(format!("{} poisoned-lock recovery(ies)", c.lock_recoveries));
        }
        if let Some(latency) = res.cancel_latency {
            parts.push(format!("cancel latency {latency:?}"));
        }
        let _ = writeln!(out, "resilience: {}", parts.join(", "));
    }
    if result.failures.is_empty() {
        if result.truncation.is_none() {
            let _ = writeln!(out, "healthy: no hop failures");
        }
    } else {
        let _ = writeln!(out, "{} hop failure(s) isolated:", result.failures.len());
        for f in &result.failures {
            let _ = writeln!(
                out,
                "  - {} -> {} (on {}={}) after [{}]: {}",
                f.hop.from_table,
                f.hop.to_table,
                f.hop.from_column,
                f.hop.to_column,
                f.path,
                f.error
            );
        }
    }
    // Phase-timing section, present only when the run was traced (the
    // trace is informational: its absence never hides health problems).
    if let Some(trace) = &result.trace {
        let _ = writeln!(out, "phase timings:");
        trace.render_phases_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofeat::{PathFailure, Phase, ResilienceStats};
    use autofeat_graph::{JoinHop, JoinPath};

    fn discovery(failures: Vec<PathFailure>, truncation: Option<TruncationReason>) -> DiscoveryResult {
        DiscoveryResult {
            ranked: vec![],
            n_joins_evaluated: 5,
            n_pruned_unjoinable: 1,
            n_pruned_quality: 2,
            n_pruned_similarity: 0,
            n_pruned_budget: 0,
            truncated: truncation.is_some(),
            truncation,
            failures,
            elapsed: Duration::from_millis(10),
            selected_features: vec![],
            threads_used: 4,
            cache: autofeat_data::CacheStats {
                hits: 8,
                misses: 2,
                build_time: Duration::from_millis(3),
                resident_bytes: 4096,
                entries: 2,
                evictions: 0,
                evicted_bytes: 0,
                rejections: 0,
                peak_resident_bytes: 4096,
                budget_bytes: None,
                lock_recoveries: 0,
                build_panics: 0,
                invalidations: 0,
                invalidated_bytes: 0,
            },
            lake_payload_bytes: 65536,
            trace: None,
            resilience: Default::default(),
        }
    }

    #[test]
    fn health_report_healthy_run() {
        let r = discovery_health_report(&discovery(vec![], None));
        assert!(r.contains("healthy"), "{r}");
        assert!(r.contains("5 join(s)"), "{r}");
        assert!(r.contains("4 worker thread(s)"), "{r}");
        assert!(r.contains("join-index cache: 8 hit(s), 2 miss(es)"), "{r}");
        assert!(r.contains("2 index(es) resident (4096 bytes)"), "{r}");
    }

    #[test]
    fn health_report_lists_failures_and_truncation() {
        let failure = PathFailure {
            path: JoinPath::empty(),
            hop: JoinHop {
                from_table: "base".into(),
                from_column: "k".into(),
                to_table: "bad".into(),
                to_column: "k".into(),
                weight: 1.0,
            },
            error: "type mismatch: expected int, got str".into(),
        };
        let r = discovery_health_report(&discovery(
            vec![failure],
            Some(TruncationReason::DeadlineExceeded { phase: Phase::Enumerate }),
        ));
        assert!(r.contains("1 hop failure(s)"), "{r}");
        assert!(r.contains("base -> bad"), "{r}");
        assert!(r.contains("type mismatch"), "{r}");
        assert!(r.contains("time budget"), "{r}");
        assert!(!r.contains("healthy"), "{r}");
    }

    // ---- Golden-style tests: the report is a stable, line-oriented text
    // format; these pin the exact output for inputs whose every field is
    // deterministic (durations are fixed via the fixture).

    #[test]
    fn golden_healthy_report_is_exact() {
        let r = discovery_health_report(&discovery(vec![], None));
        let expected = "\
discovery: 0 path(s) ranked, 5 join(s) evaluated, 1 unjoinable, 2 below-quality, 4 worker thread(s)
join-index cache: 8 hit(s), 2 miss(es), 3ms build time, 2 index(es) resident (4096 bytes)
cache governance: budget unbounded, peak resident 4096 bytes, 0 eviction(s) (0 bytes), 0 admission rejection(s)
lake payload: 65536 bytes of cells resident
healthy: no hop failures
";
        assert_eq!(r, expected);
    }

    #[test]
    fn golden_truncation_section_is_exact() {
        let r = discovery_health_report(&discovery(vec![], Some(TruncationReason::MaxJoins)));
        let expected = "\
discovery: 0 path(s) ranked, 5 join(s) evaluated, 1 unjoinable, 2 below-quality, 4 worker thread(s)
join-index cache: 8 hit(s), 2 miss(es), 3ms build time, 2 index(es) resident (4096 bytes)
cache governance: budget unbounded, peak resident 4096 bytes, 0 eviction(s) (0 bytes), 0 admission rejection(s)
lake payload: 65536 bytes of cells resident
truncated: max_joins cap reached
";
        assert_eq!(r, expected);
    }

    #[test]
    fn golden_failure_section_is_exact() {
        let failure = PathFailure {
            path: JoinPath::empty(),
            hop: JoinHop {
                from_table: "base".into(),
                from_column: "k".into(),
                to_table: "bad".into(),
                to_column: "k2".into(),
                weight: 1.0,
            },
            error: "column not found".into(),
        };
        let r = discovery_health_report(&discovery(vec![failure], None));
        let expected = "\
discovery: 0 path(s) ranked, 5 join(s) evaluated, 1 unjoinable, 2 below-quality, 4 worker thread(s)
join-index cache: 8 hit(s), 2 miss(es), 3ms build time, 2 index(es) resident (4096 bytes)
cache governance: budget unbounded, peak resident 4096 bytes, 0 eviction(s) (0 bytes), 0 admission rejection(s)
lake payload: 65536 bytes of cells resident
1 hop failure(s) isolated:
  - base -> bad (on k=k2) after [(empty path)]: column not found
";
        assert_eq!(r, expected);
    }

    #[test]
    fn golden_governance_section_is_exact() {
        let mut d = discovery(vec![], None);
        d.cache = autofeat_data::CacheStats {
            hits: 8,
            misses: 2,
            build_time: Duration::from_millis(3),
            resident_bytes: 4096,
            entries: 2,
            evictions: 3,
            evicted_bytes: 6144,
            rejections: 1,
            peak_resident_bytes: 8192,
            budget_bytes: Some(10240),
            lock_recoveries: 0,
            build_panics: 0,
            invalidations: 0,
            invalidated_bytes: 0,
        };
        let r = discovery_health_report(&d);
        let expected = "\
discovery: 0 path(s) ranked, 5 join(s) evaluated, 1 unjoinable, 2 below-quality, 4 worker thread(s)
join-index cache: 8 hit(s), 2 miss(es), 3ms build time, 2 index(es) resident (4096 bytes)
cache governance: budget 10240 bytes, peak resident 8192 bytes, 3 eviction(s) (6144 bytes), 1 admission rejection(s)
lake payload: 65536 bytes of cells resident
healthy: no hop failures
";
        assert_eq!(r, expected);
    }

    #[test]
    fn uncached_run_reports_its_private_cache() {
        // A `cache: false` run joins through a budget-0 cache of its own:
        // every build is a miss the cache refuses to keep.
        let mut d = discovery(vec![], None);
        d.cache.hits = 0;
        (d.cache.resident_bytes, d.cache.entries, d.cache.peak_resident_bytes) = (0, 0, 0);
        (d.cache.budget_bytes, d.cache.rejections) = (Some(0), 2);
        let r = discovery_health_report(&d);
        assert!(r.contains("join-index cache: 0 hit(s), 2 miss(es), 3ms build time, 0 index(es) resident (0 bytes)\n"), "{r}");
        assert!(r.contains("cache governance: budget 0 bytes, peak resident 0 bytes, 0 eviction(s) (0 bytes), 2 admission rejection(s)\n"), "{r}");
    }

    #[test]
    fn golden_resilience_section_is_exact() {
        let mut d = discovery(vec![], None);
        d.resilience = ResilienceStats {
            degradations: vec!["shrunk sample", "skipped redundancy refinement"],
            worker_panics: 1,
            cancel_latency: Some(Duration::from_millis(12)),
        };
        let r = discovery_health_report(&d);
        let expected = "\
discovery: 0 path(s) ranked, 5 join(s) evaluated, 1 unjoinable, 2 below-quality, 4 worker thread(s)
join-index cache: 8 hit(s), 2 miss(es), 3ms build time, 2 index(es) resident (4096 bytes)
cache governance: budget unbounded, peak resident 4096 bytes, 0 eviction(s) (0 bytes), 0 admission rejection(s)
lake payload: 65536 bytes of cells resident
resilience: degraded (shrunk sample, skipped redundancy refinement), 1 worker panic(s) isolated, cancel latency 12ms
healthy: no hop failures
";
        assert_eq!(r, expected);
    }

    #[test]
    fn resilience_section_absent_on_healthy_runs() {
        let r = discovery_health_report(&discovery(vec![], None));
        assert!(!r.contains("resilience:"), "{r}");
    }

    #[test]
    fn cancelled_truncation_and_cache_recoveries_reported() {
        let mut d = discovery(vec![], Some(TruncationReason::Cancelled));
        d.cache.lock_recoveries = 2;
        d.cache.build_panics = 1;
        let r = discovery_health_report(&d);
        assert!(r.contains("truncated: cancelled after"), "{r}");
        assert!(r.contains("1 cache build panic(s) isolated"), "{r}");
        assert!(r.contains("2 poisoned-lock recovery(ies)"), "{r}");
    }

    #[test]
    fn deadline_truncation_names_the_phase() {
        let r = discovery_health_report(&discovery(
            vec![],
            Some(TruncationReason::DeadlineExceeded { phase: Phase::Evaluate }),
        ));
        assert!(r.contains("time budget exhausted during evaluate"), "{r}");
    }

    #[test]
    fn report_mentions_similarity_and_budget_pruning() {
        let mut d = discovery(vec![], None);
        d.n_pruned_similarity = 3;
        d.n_pruned_budget = 7;
        let r = discovery_health_report(&d);
        assert!(
            r.contains("also pruned: 3 similarity-pruned edge(s), 7 budget-dropped candidate(s)"),
            "{r}"
        );
    }

    #[test]
    fn report_includes_phase_timings_when_traced() {
        let tracer = autofeat_obs::Tracer::enabled();
        autofeat_obs::with_tracer(&tracer, || {
            let _discover = autofeat_obs::span("discover");
            let _level = autofeat_obs::span("level");
        });
        let mut d = discovery(vec![], None);
        d.trace = Some(tracer.snapshot());
        let r = discovery_health_report(&d);
        assert!(r.contains("phase timings:"), "{r}");
        assert!(r.contains("discover"), "{r}");
        assert!(r.contains("level"), "{r}");
        // Untraced, the section has no content and is left out.
        d.trace = None;
        assert!(!discovery_health_report(&d).contains("phase timings:"));
    }

    fn result() -> MethodResult {
        MethodResult {
            method: "AutoFeat".into(),
            accuracy_per_model: vec![
                (ModelKind::LightGbm, 0.9),
                (ModelKind::RandomForest, 0.8),
            ],
            feature_selection_time: Duration::from_millis(120),
            total_time: Duration::from_millis(500),
            n_tables_joined: 3,
            n_features: 7,
        }
    }

    #[test]
    fn mean_accuracy_averages() {
        assert!((result().mean_accuracy() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn empty_accuracy_is_zero() {
        let mut r = result();
        r.accuracy_per_model.clear();
        assert_eq!(r.mean_accuracy(), 0.0);
    }

    #[test]
    fn accuracy_lookup() {
        let r = result();
        assert_eq!(r.accuracy_for(ModelKind::LightGbm), Some(0.9));
        assert_eq!(r.accuracy_for(ModelKind::Knn), None);
    }
}
