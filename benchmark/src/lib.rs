//! `lakebench`: the repository's benchmark.
//!
//! Six workloads exercise the AutoFeat program strictly from outside,
//! through public functions of `autofeat::{data, discovery, graph, metrics,
//! ml, core, obs, datagen}`. One run measures one workload: end-to-end
//! metrics with tracing off, or — in a separate traced run — the per-layer
//! table from a replay of the request in [`layers`]. `BENCHMARK.json` at the
//! repository root names the same workloads and metrics as the tables here;
//! the self-test holds the two together. See `README.md`.

pub mod calib;
pub mod gen;
pub mod json;
pub mod layers;
pub mod report;
pub mod workloads;

use std::collections::BTreeMap;

/// A workload's name, the one line on why it exists, and its traffic:
/// closed-loop client threads and worker threads inside each request.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub threads: usize,
    /// The share of the calibration kernel's slow-down that the workload's
    /// ops show, as measured on the sandbox (see [`calib`]): 1 where joins
    /// and ingest do the work, less where scoring or training does.
    pub speed_share: f64,
}

const fn workload(
    name: &'static str,
    clients: usize,
    threads: usize,
    speed_share: f64,
    why: &'static str,
) -> WorkloadDef {
    WorkloadDef {
        name,
        why,
        clients,
        threads,
        speed_share,
    }
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    workload("star_warm", 1, 1, 1.0, "steady-state serving, cache fits: probe+gather and redundancy dominate and per-request fixed costs are visible"),
    workload("star_budgeted", 2, 1, 1.0, "working set 4x the join-index cache budget under 2 concurrent clients: index builds, admission and eviction do the work"),
    workload("wide_fullscan", 1, 2, 0.7, "no sampling, wide full-row gathers over two levels with intra-request fan-out: scoring kernels dominate, fixed costs vanish"),
    workload("lake_cold_start", 1, 1, 1.0, "CSV text to first ranked result: ingest, key dictionaries, profiling, LSH matching and DRG assembly"),
    workload("lake_mutating", 1, 1, 1.0, "remove_table/add_table interleaved with requests: incremental DRG upkeep and table-scoped cache invalidation beside reads"),
    workload("snowflake_augment", 1, 1, 0.7, "the paper's end-to-end: multi-hop discovery, materialize top-k, train; executor/train/ml do the work and accuracy is checked"),
];

/// One metric of the catalogue. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
/// What each metric measures, and which end-to-end metric a layer metric
/// should move on which workload, is tabled in `README.md`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one, and
/// every time is divided by the box's slow-down at the moment it was
/// measured (see [`calib`]). The time bounds are three times the widest
/// ten-seed spread measured for the metric, rounded up to 0.05 and capped at
/// the contract's 0.25 (table in `README.md`). An "op" is a `DiscoveryService::submit` on the three star/wide workloads,
/// one CSV→first-result cold start on `lake_cold_start`, one
/// remove/2 reads/add/2 reads cycle on `lake_mutating`, and one
/// discover+`train_top_k` on `snowflake_augment`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.2),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
    e2e("ranked_paths", "count", "higher", 0.01),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Layer = crate.module. Times are self-time per replayed op in ms unless
/// the name says otherwise; counts are per op.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("data.csv.read_ms", "ms", "lower"),
    layer("data.csv.mb_per_s", "MB/s", "higher"),
    layer("data.keymeta.attach_ms", "ms", "lower"),
    layer("data.sample.stratified_ms", "ms", "lower"),
    layer("data.join.index_build_ms", "ms", "lower"),
    layer("data.join.index_builds", "count", "lower"),
    layer("data.join.index_rows_per_s", "1/s", "higher"),
    layer("data.join.probe_gather_ms", "ms", "lower"),
    layer("data.join.left_rows", "count", "lower"),
    layer("data.join.matched_share", "fraction", "higher"),
    layer("data.stats.completeness_ms", "ms", "lower"),
    layer("data.encode.label_encode_ms", "ms", "lower"),
    layer("data.cache.lookup_ms", "ms", "lower"),
    layer("data.cache.hits", "count", "higher"),
    layer("data.cache.misses", "count", "lower"),
    layer("data.cache.hit_ratio", "fraction", "higher"),
    layer("data.cache.evictions", "count", "lower"),
    layer("data.cache.rejections", "count", "lower"),
    layer("data.cache.invalidations", "count", "lower"),
    layer("data.cache.build_s", "s", "lower"),
    layer("data.cache.resident_mb", "MiB", "lower"),
    layer("discovery.profile.build_ms", "ms", "lower"),
    layer("discovery.profile.columns", "count", "lower"),
    layer("graph.drg.match_ms", "ms", "lower"),
    layer("graph.drg.assemble_ms", "ms", "lower"),
    layer("graph.drg.edges", "count", "lower"),
    layer("graph.drg.add_table_ms", "ms", "lower"),
    layer("graph.drg.remove_table_ms", "ms", "lower"),
    layer("graph.traversal.enumerate_ms", "ms", "lower"),
    layer("graph.traversal.paths", "count", "lower"),
    layer("metrics.relevance.score_ms", "ms", "lower"),
    layer("metrics.relevance.features_scored", "count", "lower"),
    layer("metrics.discretize.ms", "ms", "lower"),
    layer("metrics.redundancy.score_ms", "ms", "lower"),
    layer("metrics.redundancy.kept_share", "fraction", "higher"),
    layer("core.context.build_ms", "ms", "lower"),
    layer("core.discover.ms", "ms", "lower"),
    layer("core.discover.joins_evaluated", "count", "lower"),
    layer("core.discover.pruned_quality", "count", "lower"),
    layer("core.discover.pruned_similarity", "count", "lower"),
    layer("core.discover.features_selected", "count", "higher"),
    layer("core.service.overhead_ms", "ms", "lower"),
    layer("core.service.request_p50_ms", "ms", "lower"),
    layer("core.service.request_p95_ms", "ms", "lower"),
    layer("core.service.add_table_p50_ms", "ms", "lower"),
    layer("core.service.remove_table_p50_ms", "ms", "lower"),
    layer("core.executor.materialize_ms", "ms", "lower"),
    layer("core.train.ms", "ms", "lower"),
    layer("ml.fit_predict_ms", "ms", "lower"),
    layer("ml.accuracy", "fraction", "higher"),
    layer("ml.base_accuracy", "fraction", "higher"),
    layer("obs.trace.overhead_share", "fraction", "lower"),
    layer("obs.metrics.scrape_ms", "ms", "lower"),
    layer("bench.replay.coverage", "ratio", "higher"),
    layer("bench.replay.self_ms", "ms", "lower"),
    layer("bench.datagen.s", "s", "lower"),
    layer("bench.raw.op_p50_ms", "ms", "lower"),
    layer("bench.raw.setup_s", "s", "lower"),
    layer("bench.raw.slowdown_p50", "ratio", "lower"),
];

/// How one run is asked to behave.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Measure the per-layer table instead of the end-to-end metrics.
    pub trace: bool,
    /// 1/16 of every row count, for the harness self-test.
    pub smoke: bool,
    /// Self-test hook: perturb the reference so every check must fail.
    pub corrupt_reference: bool,
}

/// What one run measured. `values` holds every metric the run produced;
/// [`RunOutput::metrics`] selects the catalogue the run was asked for.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub trace_json: Option<String>,
}

impl RunOutput {
    /// The catalogue's metrics in catalogue order. A layer that did nothing
    /// on this workload reads 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static MetricDef, f64)> {
        let defs: &'static [MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        defs.iter()
            .map(|d| (d, self.values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Run one workload once; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts) -> Option<RunOutput> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|def| workloads::run(def, opts))
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}
