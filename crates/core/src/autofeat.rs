//! Algorithm 1: BFS feature discovery over the Dataset Relation Graph, as a
//! pipeline of typed phases run level by level.
//!
//! ## Phases
//!
//! `AutoFeat::setup` (the sample, the join-column set, a
//! [`StreamingSelector`] whose `R_sel` holds the base features) →
//! per level: `AutoFeat::plan_level` (pure: the candidate hops in canonical
//! order) → `AutoFeat::evaluate_hop` (pure: join, τ quality,
//! [`RelevanceStage::relevance`]) → `Search::merge` (the only writer:
//! [`StreamingSelector::admit`] into `R_sel`, Algorithm 2, the ranking, the
//! counters, the next frontier) → `Search::finish` (rank). Within a level
//! the last two overlap: one ordered fan-out evaluates the hops on every
//! worker and merges hop `i` on the calling thread as soon as it is there,
//! while later hops are still being evaluated. `discover` itself keeps only
//! what decides *whether* a phase runs: the degradation ladder (`Ladder`)
//! and the truncation gates. DESIGN.md §3d has the table.
//!
//! ## Determinism model
//!
//! Every stochastic or order-sensitive piece of the search is pinned to a
//! stable identity, so a run's output is **bit-identical across processes
//! and across worker-thread counts** for a fixed seed:
//!
//! * each hop's join seed is derived from `(config seed, path prefix, hop)`
//!   via [`crate::seeding::hop_seed`] — never from a shared RNG stream, so
//!   evaluation order (or parallelism) cannot perturb representative picks;
//! * `R_sel` is insertion-ordered, not a `HashMap`, so redundancy scores
//!   accumulate in the same floating-point order every run;
//! * `plan_level` enumerates in a fixed order (frontier index, then
//!   ascending neighbour node, then edge id); `evaluate_hop` is a pure
//!   function of its candidate — of the selector it reads the immutable
//!   [`RelevanceStage`] only — so the level's hops are claimed one at a
//!   time by whichever worker is free and it does not matter which
//!   finishes first; `merge` meets the outcomes in candidate order, one
//!   hop at a time, exactly as a sequential walk would.
//!
//! Trace events are emitted only from `merge` and the loop around it, never
//! from `evaluate_hop`, so the event log is the same at any worker count.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use autofeat_data::cache::CacheRecorder;
use autofeat_data::encode::label_encode_column;
use autofeat_data::parallel::{run_indexed_ctl, ItemOutcome};
use autofeat_data::sample::stratified_sample;
use autofeat_data::stats::completeness;
use autofeat_data::{CacheStats, DataError, Interrupt, RequestScope, Result, RunControl, Table};
use autofeat_graph::{JoinHop, JoinPath, NodeId};
use autofeat_metrics::discretize::{Discretized, MAX_BINS};
use autofeat_metrics::selection::SelectedFeature;
use autofeat_metrics::streaming::{RelevanceStage, StreamingSelector};
use autofeat_obs as obs;
use autofeat_obs::RunTrace;

use crate::config::{self, AutoFeatConfig};
use crate::context::SearchContext;
use crate::executor::qualified_column;
use crate::ranking::{accumulate, compute_score};

/// One ranked join path: the paper's output unit ("a ranked list of top-k
/// join paths ... with their respective join keys and a list of selected
/// features").
#[derive(Debug, Clone)]
pub struct RankedPath {
    /// The join path (hops with join keys).
    pub path: JoinPath,
    /// Algorithm 2 score, accumulated over the path's hops.
    pub score: f64,
    /// Qualified names of the features selected along this path.
    pub features: Vec<String>,
}

/// Why exploration stopped before exhausting the path space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The `max_joins` cap on evaluated joins was reached.
    MaxJoins,
    /// The effective wall-clock deadline — the config's `time_budget`, or
    /// one the context's [`RunControl`] was made with — expired.
    DeadlineExceeded {
        /// The pipeline phase whose boundary check noticed the expiry.
        phase: Phase,
    },
    /// The run was cancelled via [`RunControl::cancel`] (on the context's
    /// control, from any thread).
    Cancelled,
}

/// The discovery phase at whose cooperative checkpoint an interrupt was
/// noticed. Coarse by design: checkpoints sit at phase boundaries, so this
/// is where the run *stopped*, not where time was spent (the trace answers
/// that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// At a level boundary, between candidate enumeration and evaluation.
    Enumerate,
    /// Inside the per-candidate evaluation fan-out.
    Evaluate,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Enumerate => write!(f, "enumerate"),
            Phase::Evaluate => write!(f, "evaluate"),
        }
    }
}

/// Write one request's trace document (`RunTrace::to_json`, which ends in a
/// newline) to `path`: the process's first traced request for a path
/// truncates the file, every later one appends, so a run keeps every
/// request's trace. One process-wide lock serializes the writes, so
/// concurrent requests never interleave their documents.
fn append_trace(path: &Path, json: &str) -> std::io::Result<()> {
    static WRITTEN: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());
    let mut written = WRITTEN.lock().unwrap_or_else(PoisonError::into_inner);
    let first = !written.contains(path);
    let mut file = OpenOptions::new().create(true).write(true).truncate(first).append(!first).open(path)?;
    file.write_all(json.as_bytes())?;
    written.insert(path.to_path_buf());
    Ok(())
}

/// Map an interrupt reason to the truncation it causes at `phase`.
fn truncation_reason(reason: Interrupt, phase: Phase) -> TruncationReason {
    match reason {
        Interrupt::Cancelled => TruncationReason::Cancelled,
        Interrupt::DeadlineExceeded => TruncationReason::DeadlineExceeded { phase },
    }
}

/// Resilience bookkeeping for one discovery run: what the lifecycle layer
/// had to do to bring the run home. All-default on a healthy run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Degradation-ladder rungs taken, in the order they engaged (see
    /// [`AutoFeat::discover`]; empty unless a deadline was armed).
    pub degradations: Vec<&'static str>,
    /// Worker panics caught in the evaluation fan-out and isolated into
    /// [`PathFailure`]s instead of aborting the process.
    pub worker_panics: usize,
    /// Cancel-request → result-return latency, when the run was cancelled.
    pub cancel_latency: Option<Duration>,
}

/// One join hop that failed during discovery. The failure is *isolated*: the
/// BFS records it and keeps exploring every other path, so a single corrupt
/// table cannot abort an hours-long lake run.
#[derive(Debug, Clone)]
pub struct PathFailure {
    /// The path explored up to (not including) the failed hop.
    pub path: JoinPath,
    /// The hop whose evaluation errored.
    pub hop: JoinHop,
    /// The error text (stringified so the result stays `Clone`).
    pub error: String,
}

/// The outcome of a discovery run. The default is that of a run that
/// explored nothing.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryResult {
    /// All scored paths, best first.
    pub ranked: Vec<RankedPath>,
    /// Joins actually evaluated.
    pub n_joins_evaluated: usize,
    /// Paths pruned because the join produced no matches (mismatched
    /// columns — the data-lake failure mode). A join against an *empty*
    /// base is vacuous, not unjoinable, and is never counted here (see
    /// [`autofeat_data::join::JoinOutput::match_ratio`]).
    pub n_pruned_unjoinable: usize,
    /// Paths pruned by the τ data-quality rule.
    pub n_pruned_quality: usize,
    /// Candidate edges pruned by the similarity-score rule (per neighbour,
    /// only the top-scored join column(s) are expanded; the rest are
    /// counted here without ever being joined).
    pub n_pruned_similarity: usize,
    /// Enumerated candidates dropped without evaluation because a budget
    /// gate fired: the `max_joins` quota truncated the level, or the
    /// `time_budget` deadline expired before the level ran.
    pub n_pruned_budget: usize,
    /// Whether exploration stopped early (see `truncation` for why).
    pub truncated: bool,
    /// Why exploration stopped early, when it did.
    pub truncation: Option<TruncationReason>,
    /// Hops that errored and were skipped; the paths through them were
    /// abandoned but every other path was still explored.
    pub failures: Vec<PathFailure>,
    /// Wall-clock feature-discovery time (the paper's "feature selection
    /// time").
    pub elapsed: Duration,
    /// Union of all features selected across paths (excluding base
    /// features).
    pub selected_features: Vec<String>,
    /// Worker threads used for path evaluation. Informational only —
    /// results are bit-identical at any thread count.
    pub threads_used: usize,
    /// Join-index-cache activity of this run: the counters are its own work;
    /// resident bytes, entries, peak and budget are the end-of-run state of
    /// the cache it joined through — the context's shared one (the peak is
    /// this run's if it applied a budget), or with `cache: false` a private
    /// budget-0 one that keeps nothing. Informational only — results are
    /// bit-identical through either cache, budgeted or not.
    pub cache: CacheStats,
    /// Bytes of cells the lake's tables held resident when the run finished
    /// ([`SearchContext::lake_payload_bytes`]). Informational only.
    pub lake_payload_bytes: usize,
    /// Structured run trace (per-phase wall times, pipeline counters,
    /// bounded event log), present when the run was configured with
    /// tracing (`trace`, or `AUTOFEAT_TRACE`). Informational
    /// only — results are bit-identical with tracing on or off.
    pub trace: Option<RunTrace>,
    /// What the request-lifecycle layer did during this run: degradation
    /// rungs taken, worker panics isolated, cancel latency. All-default on
    /// a healthy, unbounded run.
    pub resilience: ResilienceStats,
}

impl DiscoveryResult {
    /// The top-k paths.
    pub fn top_k(&self, k: usize) -> &[RankedPath] {
        &self.ranked[..k.min(self.ranked.len())]
    }
}

/// One entry of a BFS level: a path explored so far and the table it built.
struct Frontier {
    node: NodeId,
    path: JoinPath,
    table: Table,
    score: f64,
    features: Vec<String>,
}

impl Frontier {
    /// The empty path: the base table, where every level-1 hop starts.
    fn root(node: NodeId, table: Table) -> Frontier {
        Frontier { node, path: JoinPath::empty(), table, score: 0.0, features: Vec::new() }
    }
}

/// One `(frontier entry × best edge)` pair of the current BFS level, as
/// [`AutoFeat::plan_level`] enumerates them.
struct HopCandidate {
    /// Index into the current frontier.
    entry: usize,
    /// The neighbour node this hop reaches.
    next: NodeId,
    /// The hop itself (`hop.to_table` is the join prefix).
    hop: JoinHop,
}

/// What [`AutoFeat::evaluate_hop`] found out about one candidate: the pure
/// part of its evaluation, safe to compute on any thread.
enum HopEval {
    /// The hop errored (error text; path/hop context lives in the
    /// candidate).
    Failed(String),
    /// The hop's evaluation was stopped cooperatively (cancel/deadline)
    /// mid-join. Not a failure: the candidate simply was never evaluated.
    Interrupted(Interrupt),
    /// The join produced no matches on a non-empty base.
    Unjoinable,
    /// New columns' completeness fell below τ.
    LowQuality,
    /// The hop survived pruning and its candidates passed relevance.
    Scored(ScoredHop),
}

/// The data a surviving hop carries into the merge.
struct ScoredHop {
    /// The joined (augmented) table.
    table: Table,
    /// Names of the hop's candidate features (join columns excluded).
    names: Vec<String>,
    /// The relevance picks, indexing `names`, in descending relevance.
    picks: Vec<SelectedFeature>,
    /// Discretized codes aligned with `picks`.
    codes: Vec<Discretized>,
}

/// What [`AutoFeat::setup`] prepares once per request.
struct Setup {
    /// The (stratified sample of the) base table every path starts from.
    sampled: Table,
    /// `(table, column)` pairs some DRG edge joins on.
    join_cols: HashSet<(String, String)>,
    /// The streaming selector, `R_sel` seeded with the base features.
    selector: StreamingSelector,
}

/// Total-order sort key for path scores: degenerate inputs (constant
/// columns, all-null features) can make a score NaN, which must neither
/// panic the sort nor outrank healthy paths — NaN ranks below every finite
/// score.
fn rank_key(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// Rung 1 engages when the whole armed budget is below this.
const SHRINK_SAMPLE_BELOW: Duration = Duration::from_secs(1);
/// The sample cap rung 1 applies.
const MIN_SAMPLE_ROWS: usize = 250;
/// Rung 2 engages when the remaining fraction of the budget is below this.
const SKIP_REDUNDANCY_BELOW: f64 = 0.25;
/// Cache admission rejections in one run that also engage rung 2: sustained
/// rejection means indexes are rebuilt over and over, so the cheaper merge
/// buys the most time back.
const REJECTION_PRESSURE: u64 = 64;
/// Rung 3 engages when the remaining fraction of the budget is below this.
const STOP_LEVELS_BELOW: f64 = 0.10;
// The rungs engage in order as the budget runs out.
const _: () = assert!(SKIP_REDUNDANCY_BELOW > STOP_LEVELS_BELOW);

/// One run's graceful-degradation ladder: deterministic trade-downs a run
/// takes to stay useful as its deadline nears. It is armed by any deadline
/// (the run's `time_budget`, or one on the context's [`RunControl`]);
/// unbounded runs never degrade, so they stay bit-identical. `taken`
/// records each rung, in order; the result carries them as
/// `ResilienceStats::degradations`, each also a `degraded` trace event.
///
/// 1. **Shrink the stratified sample** to [`MIN_SAMPLE_ROWS`] when the
///    whole budget is below [`SHRINK_SAMPLE_BELOW`]. This reads the
///    budget, not the clock, so equal budgets take it identically.
/// 2. **Skip redundancy refinement** for the levels left when the remaining
///    fraction is below [`SKIP_REDUNDANCY_BELOW`] at a level boundary, or
///    the run has had [`REJECTION_PRESSURE`] admissions rejected.
/// 3. **Stop before the next level** when the remaining fraction is below
///    [`STOP_LEVELS_BELOW`]; the result is marked truncated.
///
/// Rungs 2 and 3 read the wall clock, so they are best-effort: under a
/// deadline, anytime semantics — not bit-identity — are the contract.
struct Ladder<'a> {
    ctl: &'a RunControl,
    /// The budget the deadline left at run start; `None` = disarmed.
    total: Option<Duration>,
    taken: Vec<&'static str>,
}

impl<'a> Ladder<'a> {
    fn new(ctl: &'a RunControl, t0: Instant) -> Ladder<'a> {
        let total = ctl.deadline().map(|d| d.saturating_duration_since(t0));
        Ladder { ctl, total, taken: Vec::new() }
    }

    /// Rung 1: the sample cap, shrunk when the total budget is too tight for
    /// the full sample.
    fn before_run(&mut self, sample_rows: Option<usize>, base_rows: usize) -> Option<usize> {
        let shrunk = MIN_SAMPLE_ROWS;
        let tight = self.total.is_some_and(|b| b < SHRINK_SAMPLE_BELOW);
        if !tight || sample_rows.is_some_and(|c| c <= shrunk) || base_rows <= shrunk {
            return sample_rows;
        }
        let detail = format!("sample capped at {shrunk} row(s): budget below threshold");
        self.degrade("shrunk sample", detail);
        Some(shrunk)
    }

    /// Rungs 3 and 2, before every level but the first: whether to stop
    /// here; if not, time or cache pressure (the run's admission rejections)
    /// turns redundancy refinement off for the levels left.
    fn before_level(&mut self, recorder: &CacheRecorder, selector: &mut StreamingSelector) -> bool {
        let Some(frac) = self.remaining_fraction() else { return false };
        if frac < STOP_LEVELS_BELOW {
            let detail = "stopped enumerating deeper levels: budget nearly spent";
            self.degrade("stopped deeper levels", detail.into());
            return true;
        }
        let pressure = recorder.rejections() >= REJECTION_PRESSURE;
        if (pressure || frac < SKIP_REDUNDANCY_BELOW) && selector.skip_redundancy() {
            let detail = "redundancy refinement off for remaining levels";
            self.degrade("skipped redundancy refinement", detail.into());
        }
        false
    }

    /// Fraction of the armed budget still remaining. Reads the wall clock,
    /// so only armed, where anytime semantics are the contract.
    fn remaining_fraction(&self) -> Option<f64> {
        let total = self.total?.as_secs_f64();
        Some(if total == 0.0 { 0.0 } else { self.ctl.remaining()?.as_secs_f64() / total })
    }

    fn degrade(&mut self, rung: &'static str, detail: String) {
        self.taken.push(rung);
        obs::event("degraded", || detail);
    }
}

/// The AutoFeat feature-discovery engine.
#[derive(Debug, Clone, Default)]
pub struct AutoFeat {
    /// Hyper-parameters.
    pub config: AutoFeatConfig,
}

impl AutoFeat {
    /// Engine with the given configuration.
    pub fn new(config: AutoFeatConfig) -> Self {
        AutoFeat { config }
    }

    /// Engine with the paper's configuration.
    pub fn paper() -> Self {
        AutoFeat::new(AutoFeatConfig::paper())
    }

    /// Run Algorithm 1 over the context, producing the ranked path list.
    ///
    /// When tracing is enabled (config `trace` or the `AUTOFEAT_TRACE`
    /// environment variable), the whole run executes under an ambient
    /// [`Tracer`](autofeat_obs::Tracer); the aggregated [`RunTrace`] is
    /// attached to the result and, when `AUTOFEAT_TRACE` names a file,
    /// appended there as one JSON document per request. Trace collection
    /// never changes the result: traced and untraced runs are
    /// bit-identical, and counter totals are invariant across worker-thread
    /// counts.
    pub fn discover(&self, ctx: &SearchContext) -> Result<DiscoveryResult> {
        if !self.config.trace_enabled() {
            return self.discover_inner(ctx);
        }
        let tracer = obs::Tracer::enabled();
        let mut result = obs::with_tracer(&tracer, || self.discover_inner(ctx))?;
        let trace = tracer.snapshot();
        if let Some(path) = config::trace_file() {
            // Fail-soft: a bad trace destination must not fail a discovery
            // run that already succeeded.
            if let Err(e) = append_trace(&path, &trace.to_json()) {
                eprintln!("autofeat: could not write trace to {}: {e}", path.display());
            }
        }
        result.trace = Some(trace);
        Ok(result)
    }

    /// Algorithm 1 proper, running under whatever ambient tracer (possibly
    /// the inert one) the caller installed: the request scope, the setup,
    /// then the phases, level by level, behind the degradation ladder and
    /// the truncation gates.
    fn discover_inner(&self, ctx: &SearchContext) -> Result<DiscoveryResult> {
        let _discover_span = obs::span("discover");
        let t0 = Instant::now();
        let cfg = &self.config;
        let workers = cfg.resolve_threads();
        // The request's scope, entered here and by every fan-out worker. The
        // time budget is a deadline on a *child* of the context's control:
        // the tighter one wins, a cancel on either side interrupts, and the
        // per-run deadline never leaks into the shared handle. The recorder
        // credits cache activity to this run; the fault domain keeps
        // injected faults to this lake.
        let deadline = cfg.time_budget.and_then(|b| Instant::now().checked_add(b));
        let ctl = ctx.control().scoped(deadline);
        let recorder = CacheRecorder::new();
        let _scope = RequestScope {
            ctl: Some(Arc::clone(&ctl)),
            recorder: Some(Arc::clone(&recorder)),
            faults: Some(Arc::clone(ctx.fault_domain())),
            trace: obs::ambient_scope(),
        }
        .enter();
        // Every join goes through a `LakeIndexCache`: the shared one, under
        // this run's budget if any (applied in the scope, so its evictions and
        // peak are this run's), or with `cache: false` a private budget-0 one.
        let private;
        let ctx = if cfg.cache {
            if let Some(budget) = cfg.cache_budget_bytes {
                ctx.lake_cache().set_budget(Some(budget));
            }
            ctx
        } else {
            private = ctx.clone().with_private_cache();
            &private
        };
        let mut ladder = Ladder::new(&ctl, t0);
        let sample_cap = ladder.before_run(cfg.sample_rows, ctx.base_table().n_rows());
        let Setup { sampled, join_cols, selector } = self.setup(ctx, sample_cap)?;
        let relevance = selector.relevance_stage();
        let mut search = Search::new(selector, workers);

        // BFS over levels (§IV-A: level-by-level exploration contains join
        // errors). A base the graph does not know has no first level.
        let root = ctx.drg().node(ctx.base_name());
        let mut frontier: Vec<_> = root.map(|n| Frontier::root(n, sampled)).into_iter().collect();
        while !frontier.is_empty() {
            if search.n_levels > 0 && ladder.before_level(&recorder, &mut search.selector) {
                let stop = TruncationReason::DeadlineExceeded { phase: Phase::Enumerate };
                search.out.truncation.get_or_insert(stop);
                break;
            }
            let _level_span = obs::span("level");
            search.n_levels += 1;
            let mut cands = {
                let _span = obs::span("enumerate");
                let (cands, pruned) = self.plan_level(ctx, &frontier);
                search.out.n_pruned_similarity += pruned;
                obs::add("discover.candidates_enumerated", cands.len() as u64);
                cands
            };

            // Truncation gates, level-wise: the evaluated candidates are a
            // deterministic prefix of the enumeration at any thread count.
            if !cands.is_empty() {
                if let Some(reason) = ctl.interrupted() {
                    search.out.truncation = Some(truncation_reason(reason, Phase::Enumerate));
                    search.out.n_pruned_budget += cands.len();
                    break;
                }
                let quota = cfg.max_joins.saturating_sub(search.out.n_joins_evaluated);
                if cands.len() > quota {
                    search.out.n_pruned_budget += cands.len() - quota;
                    cands.truncate(quota);
                    search.out.truncation = Some(TruncationReason::MaxJoins);
                }
            }

            // One ordered fan-out per level: every worker, this thread among
            // them, evaluates hops (a panic comes back `Panicked`, a hop
            // never run after an interrupt `Skipped`), and this thread merges
            // hop `i` as soon as it is there. Its wait for an evaluation,
            // beside the `eval` and `merge` spans, says which bound the level.
            let mut next_level: Vec<Frontier> = Vec::new();
            let eval = |i: usize| {
                let (_span, c) = (obs::span("eval"), &cands[i]);
                self.evaluate_hop(ctx, &join_cols, &relevance, &frontier[c.entry], c)
            };
            let merge_wait = run_indexed_ctl(workers, cands.len(), Some(&ctl), eval, |i, outcome| {
                let (_span, c) = (obs::span("merge"), &cands[i]);
                next_level.extend(search.merge(&frontier[c.entry], c, outcome));
            });
            obs::record_secs("discover.merge_wait_secs", merge_wait.as_secs_f64());
            if search.out.truncation.is_some() {
                break;
            }
            frontier = self.next_frontier(next_level);
        }
        search.out.resilience.degradations = ladder.taken;
        Ok(search.finish(ctx, &ctl, &recorder, t0))
    }

    /// **Setup.** The stratified sample of the base table (only affects
    /// feature selection, not final training — §VI; the RNG is used for the
    /// sample only, joins derive their seeds per hop), the label codes, the
    /// DRG's join columns, and the selector with `R_sel` seeded.
    fn setup(&self, ctx: &SearchContext, sample_cap: Option<usize>) -> Result<Setup> {
        let _span = obs::span("sample");
        let cfg = &self.config;
        let base = ctx.base_table();
        let sampled = match sample_cap {
            Some(cap) if base.n_rows() > cap => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let frac = cap as f64 / base.n_rows() as f64;
                stratified_sample(base, ctx.label(), frac, &mut rng)?
            }
            _ => base.clone(),
        };

        // Label codes aligned with the sampled base (and, by left-join row
        // preservation, with every augmented table derived from it).
        let label_col = label_encode_column(sampled.column(ctx.label())?);
        let labels: Vec<i64> = (0..label_col.len())
            .map(|i| label_col.get_f64(i).map_or(-1, |v| v as i64))
            .collect();
        // Checked here so a regression-like target is a typed error before
        // any join runs, not a panic inside `Discretized::from_codes`.
        let classes = labels.iter().collect::<HashSet<_>>().len();
        if classes > MAX_BINS as usize {
            return Err(DataError::TooManyClasses {
                column: ctx.label().to_string(),
                classes,
                max: MAX_BINS as usize,
            });
        }

        let drg = ctx.drg();
        // Join columns are infrastructure, not features: they are random
        // identifiers whose noise dilutes the MRMR average and whose
        // near-zero correlations pollute the top-κ slots. They must stay in
        // the tables (they are the stepping stones of transitive joins) but
        // are excluded from relevance/redundancy candidacy and from the
        // R_sel seed.
        let mut join_cols: HashSet<(String, String)> = HashSet::new();
        for e in drg.edges() {
            join_cols.insert((drg.table_name(e.a).to_string(), e.a_column.clone()));
            join_cols.insert((drg.table_name(e.b).to_string(), e.b_column.clone()));
        }

        // R_sel starts as the base table's non-key features (Algorithm 1
        // input).
        let mut selector = StreamingSelector::new(labels, cfg.relevance, cfg.redundancy, cfg.kappa);
        for f in ctx.base_features() {
            if join_cols.contains(&(ctx.base_name().to_string(), f.clone())) {
                continue;
            }
            selector.seed(&f, &label_encode_column(sampled.column(&f)?).to_f64_lossy());
        }
        Ok(Setup { sampled, join_cols, selector })
    }

    /// **Plan.** This level's candidates, in deterministic order: frontier
    /// index, then ascending neighbour, then edge. Also returns how many
    /// multi-edges the similarity-score rule pruned: per neighbour only the
    /// top-scored join column(s) are expanded.
    fn plan_level(&self, ctx: &SearchContext, frontier: &[Frontier]) -> (Vec<HopCandidate>, usize) {
        let drg = ctx.drg();
        let mut cands: Vec<HopCandidate> = Vec::new();
        let mut pruned = 0usize;
        for (ei, entry) in frontier.iter().enumerate() {
            if entry.path.len() >= self.config.max_path_length {
                continue;
            }
            for (next, edge_ids) in drg.neighbours(entry.node) {
                let next_name = drg.table_name(next);
                if next_name == ctx.base_name()
                    || entry.path.visits(next_name)
                    || ctx.table(next_name).is_none()
                {
                    continue;
                }
                let best = drg.best_edges(&edge_ids);
                pruned += edge_ids.len() - best.len();
                for hop in best.into_iter().filter_map(|eid| drg.hop(entry.node, eid)) {
                    let left_key =
                        qualified_column(ctx.base_name(), &hop.from_table, &hop.from_column);
                    if entry.table.has_column(&left_key) {
                        cands.push(HopCandidate { entry: ei, next, hop });
                    }
                }
            }
        }
        (cands, pruned)
    }

    /// **Evaluate.** Join `c` onto its frontier entry, prune on match count
    /// and τ quality, and run the relevance analysis over the new columns.
    /// A pure function of its arguments — of the selector it takes the
    /// immutable half — so a level's hops can be evaluated in any order, on
    /// any thread, while `merge` updates `R_sel`.
    fn evaluate_hop(
        &self,
        ctx: &SearchContext,
        join_cols: &HashSet<(String, String)>,
        relevance: &RelevanceStage,
        entry: &Frontier,
        c: &HopCandidate,
    ) -> HopEval {
        let cfg = &self.config;
        let eval = || -> Result<HopEval> {
            let next_name = &c.hop.to_table;
            let out = ctx.join_hop(&entry.table, entry.path.hops(), &c.hop, cfg.seed)?;
            // Prune: join produced no matches at all. An empty base yields
            // `match_ratio() == None` (vacuous) and is *not* misreported as
            // unjoinable.
            if out.matched == 0 && out.match_ratio().is_some() {
                return Ok(HopEval::Unjoinable);
            }
            // Prune: data quality below τ.
            let new_cols: Vec<&str> = out.right_columns.iter().map(String::as_str).collect();
            if completeness(&out.table, &new_cols)? < cfg.tau {
                return Ok(HopEval::LowQuality);
            }
            // Join columns of the DRG never become feature candidates (see
            // `setup`).
            let next_prefix = format!("{next_name}.");
            let names: Vec<String> = out
                .right_columns
                .into_iter()
                .filter(|qualified| {
                    let original = qualified.strip_prefix(&next_prefix).unwrap_or(qualified);
                    !join_cols.contains(&(next_name.clone(), original.to_string()))
                })
                .collect();
            let data = names
                .iter()
                .map(|name| Ok(label_encode_column(out.table.column(name)?).to_f64_lossy()))
                .collect::<Result<Vec<Vec<f64>>>>()?;
            let (picks, codes) = relevance.relevance(&data);
            Ok(HopEval::Scored(ScoredHop { table: out.table, names, picks, codes }))
        };
        // A cooperative stop inside the join (or a cache build denied by an
        // interrupt) is not a hop failure: the candidate was simply never
        // evaluated.
        eval().unwrap_or_else(|e| match e.interrupt() {
            Some(reason) => HopEval::Interrupted(reason),
            None => HopEval::Failed(e.to_string()),
        })
    }

    /// The next level's frontier: everything the merge produced, or — with
    /// a beam — only the best-scored entries, the "more aggressive pruning"
    /// the paper's future-work section calls for on dense lakes.
    fn next_frontier(&self, mut next_level: Vec<Frontier>) -> Vec<Frontier> {
        if let Some(beam) = self.config.beam_width {
            next_level.sort_by(|a, b| {
                rank_key(b.score)
                    .total_cmp(&rank_key(a.score))
                    .then_with(|| a.path.to_string().cmp(&b.path.to_string()))
            });
            next_level.truncate(beam);
        }
        next_level
    }
}

/// Everything a run accumulates: `R_sel` (inside the selector) and the result
/// under construction — the ranking so far, the counters, the failures.
/// [`Search::merge`] is the only place an evaluated hop changes any of it;
/// the level loop's gates write `truncation`, the budget and similarity
/// counters, `n_levels` and the degradations.
struct Search {
    selector: StreamingSelector,
    n_levels: usize,
    out: DiscoveryResult,
}

impl Search {
    /// The one place a [`DiscoveryResult`] is made: empty, to be filled in.
    fn new(selector: StreamingSelector, workers: usize) -> Search {
        let out = DiscoveryResult { threads_used: workers, ..Default::default() };
        Search { selector, n_levels: 0, out }
    }

    /// **Merge.** Take one hop's outcome — the caller hands them over in
    /// candidate order, exactly as the sequential walk would meet them: the
    /// streaming redundancy analysis against `R_sel` and its update,
    /// Algorithm 2's score, the ranking, the counters. Returns the hop's
    /// entry in the next level's frontier, if it survived. Trace events are
    /// emitted only here, so the event log is identical at any
    /// worker-thread count.
    fn merge(
        &mut self,
        entry: &Frontier,
        c: &HopCandidate,
        outcome: ItemOutcome<HopEval>,
    ) -> Option<Frontier> {
        let eval = match outcome {
            ItemOutcome::Done(eval) => eval,
            // Never ran: the control interrupted before its turn.
            ItemOutcome::Skipped(reason) => HopEval::Interrupted(reason),
            // Ran and panicked: the panic was caught on the worker and
            // lands here as a structured failure (item index + phase in
            // the message, path identity from the candidate), via the
            // same path as any other hop error.
            ItemOutcome::Panicked(panic) => {
                self.out.resilience.worker_panics += 1;
                obs::event("worker_panic", || panic.to_string());
                HopEval::Failed(panic.to_string())
            }
        };
        // Every outcome but an interrupt is an evaluated join.
        if !matches!(eval, HopEval::Interrupted(_)) {
            self.out.n_joins_evaluated += 1;
        }
        let pruned = |why: &str| {
            obs::event("path_pruned", || {
                format!("{why}: [{}] + {} -> {}", entry.path, c.hop.from_table, c.hop.to_table)
            })
        };
        match eval {
            // Never evaluated: counted with the budget-dropped
            // candidates, exactly like those dropped at the level gate.
            HopEval::Interrupted(reason) => {
                self.out.n_pruned_budget += 1;
                self.out.truncation.get_or_insert(truncation_reason(reason, Phase::Evaluate));
            }
            HopEval::Failed(error) => {
                obs::event("hop_failed", || {
                    format!("{} -> {} after [{}]: {error}", c.hop.from_table, c.hop.to_table, entry.path)
                });
                self.out.failures.push(PathFailure {
                    path: entry.path.clone(),
                    hop: c.hop.clone(),
                    error,
                });
            }
            HopEval::Unjoinable => {
                pruned("unjoinable");
                self.out.n_pruned_unjoinable += 1;
            }
            HopEval::LowQuality => {
                pruned("below τ quality");
                self.out.n_pruned_quality += 1;
            }
            HopEval::Scored(sh) => return Some(self.admit(entry, c, sh)),
        }
        None
    }

    /// One surviving hop: redundancy analysis and `R_sel` update (Algorithm
    /// 1, lines 17–18), then ranking (Algorithm 2).
    fn admit(&mut self, entry: &Frontier, c: &HopCandidate, sh: ScoredHop) -> Frontier {
        let outcome = self.selector.admit(&sh.names, sh.picks, sh.codes);
        let mut features = entry.features.clone();
        for &i in &outcome.selected {
            let name = &sh.names[i];
            if !self.out.selected_features.contains(name) {
                self.out.selected_features.push(name.clone());
            }
            features.push(name.clone());
        }
        let hop_score = compute_score(outcome.relevance_scores(), outcome.redundancy_scores());
        let score = accumulate(entry.score, hop_score);
        let path = entry.path.extended(c.hop.clone());
        self.out.ranked.push(RankedPath { path: path.clone(), score, features: features.clone() });
        // Even a join contributing nothing stays in the queue: it may be
        // the gateway to a deeper, relevant table (streaming-FS
        // requirement, §V-A).
        Frontier { node: c.next, path, table: sh.table, score, features }
    }

    /// **Rank**, and what only the end of a run knows. The run totals are
    /// emitted to the trace from the same values the result (and hence the
    /// health report) carries, so trace counters and report numbers agree
    /// by construction.
    fn finish(
        self,
        ctx: &SearchContext,
        ctl: &RunControl,
        recorder: &CacheRecorder,
        t0: Instant,
    ) -> DiscoveryResult {
        let mut out = self.out;
        {
            let _span = obs::span("rank");
            out.ranked.sort_by(|a, b| {
                rank_key(b.score)
                    .total_cmp(&rank_key(a.score))
                    .then_with(|| a.path.len().cmp(&b.path.len()))
                    .then_with(|| a.path.to_string().cmp(&b.path.to_string()))
            });
        }
        out.truncated = out.truncation.is_some();
        if let Some(reason) = out.truncation {
            obs::event("truncated", || match reason {
                TruncationReason::MaxJoins => "max_joins cap reached".to_string(),
                TruncationReason::DeadlineExceeded { phase } => {
                    format!("time budget exhausted during {phase}")
                }
                TruncationReason::Cancelled => "run cancelled".to_string(),
            });
        }
        obs::add("discover.joins_evaluated", out.n_joins_evaluated as u64);
        obs::add("discover.pruned_unjoinable", out.n_pruned_unjoinable as u64);
        obs::add("discover.pruned_quality", out.n_pruned_quality as u64);
        obs::add("discover.pruned_similarity", out.n_pruned_similarity as u64);
        obs::add("discover.pruned_budget", out.n_pruned_budget as u64);
        obs::add("discover.paths_ranked", out.ranked.len() as u64);
        obs::add("discover.features_selected", out.selected_features.len() as u64);
        obs::add("discover.hop_failures", out.failures.len() as u64);
        obs::add("discover.levels", self.n_levels as u64);
        // Resilience counters stay absent from healthy runs (`obs::add`
        // drops zero counts), so counter-set invariance across thread
        // counts and cache modes is untouched when nothing fires.
        obs::add("resilience.worker_panics", out.resilience.worker_panics as u64);
        obs::add("resilience.degradations", out.resilience.degradations.len() as u64);
        out.resilience.cancel_latency = ctl.cancel_latency();
        if let Some(latency) = out.resilience.cancel_latency {
            obs::record_secs("resilience.cancel_latency_secs", latency.as_secs_f64());
        }
        out.cache = recorder.attributed(ctx.lake_cache());
        // The trace's `cache.*` counters are a view of this request's share.
        let c = out.cache;
        for (name, n) in [
            ("cache.hits", c.hits),
            ("cache.misses", c.misses),
            ("cache.admission_rejected", c.rejections),
            ("cache.evictions", c.evictions),
            ("cache.evicted_bytes", c.evicted_bytes),
            ("cache.invalidations", c.invalidations),
            ("cache.invalidated_bytes", c.invalidated_bytes),
            ("cache.build_panics", c.build_panics),
            ("cache.lock_recoveries", c.lock_recoveries),
        ] {
            obs::add(name, n);
        }
        out.lake_payload_bytes = ctx.lake_payload_bytes();
        out.elapsed = t0.elapsed();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::Column;

    /// base(k, weak, target) — s1(k, strong_feature, k2) — s2(k2, stronger).
    fn chain_ctx(n: usize) -> SearchContext {
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "weak",
                    Column::from_floats(
                        (0..n).map(|i| Some(((i * 37) % 11) as f64)).collect::<Vec<_>>(),
                    ),
                ),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(1000 + i)).collect::<Vec<_>>())),
                (
                    "mid",
                    Column::from_floats(
                        labels
                            .iter()
                            .enumerate()
                            .map(|(i, &l)| Some(l as f64 + ((i * 13) % 7) as f64 * 0.3))
                            .collect::<Vec<_>>(),
                    ),
                ),
            ],
        )
        .unwrap();
        let s2 = Table::new(
            "s2",
            vec![
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(1000 + i)).collect::<Vec<_>>())),
                (
                    "strong",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, s1, s2],
            &[
                ("base".into(), "k".into(), "s1".into(), "k".into()),
                ("s1".into(), "k2".into(), "s2".into(), "k2".into()),
            ],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn discovers_transitive_path() {
        let ctx = chain_ctx(200);
        let result = AutoFeat::paper().discover(&ctx).unwrap();
        assert_eq!(result.ranked.len(), 2); // base→s1 and base→s1→s2
        // The two-hop path reaching the perfect feature must rank first.
        let best = &result.ranked[0];
        assert_eq!(best.path.len(), 2);
        assert_eq!(best.path.last_table(), Some("s2"));
        assert!(best.features.iter().any(|f| f == "s2.strong"));
    }

    #[test]
    fn selected_features_include_deep_signal() {
        let ctx = chain_ctx(200);
        let result = AutoFeat::paper().discover(&ctx).unwrap();
        assert!(result.selected_features.iter().any(|f| f == "s2.strong"));
    }

    #[test]
    fn quality_pruning_counts() {
        // s1's keys do not match the base at all ⇒ unjoinable pruning.
        let n = 100;
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
            vec![
                ("k", Column::from_ints((5000..5000 + n).map(Some).collect::<Vec<_>>())),
                ("f", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, s1],
            &[("base".into(), "k".into(), "s1".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        let result = AutoFeat::paper().discover(&ctx).unwrap();
        assert_eq!(result.ranked.len(), 0);
        assert_eq!(result.n_pruned_unjoinable, 1);
    }

    #[test]
    fn tau_pruning_kicks_in() {
        // Half the keys match ⇒ completeness ≈ 0.5 < τ=0.65 ⇒ pruned.
        let n = 100i64;
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
            vec![
                ("k", Column::from_ints((0..n / 2).map(Some).collect::<Vec<_>>())),
                ("f", Column::from_floats((0..n / 2).map(|i| Some(i as f64)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, s1],
            &[("base".into(), "k".into(), "s1".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        let strict = AutoFeat::new(AutoFeatConfig::default().with_tau(0.65));
        let r = strict.discover(&ctx).unwrap();
        assert_eq!(r.n_pruned_quality, 1);
        assert!(r.ranked.is_empty());
        // With τ = 0.3 the same join survives.
        let lax = AutoFeat::new(AutoFeatConfig::default().with_tau(0.3));
        let r2 = lax.discover(&ctx).unwrap();
        assert_eq!(r2.n_pruned_quality, 0);
        assert_eq!(r2.ranked.len(), 1);
    }

    #[test]
    fn kappa_caps_selected_features() {
        let ctx = chain_ctx(150);
        let cfg = AutoFeatConfig::default().with_kappa(1);
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        for rp in &result.ranked {
            // Each hop can add at most κ=1 feature, so a path of length L
            // has at most L features.
            assert!(rp.features.len() <= rp.path.len());
        }
    }

    #[test]
    fn max_joins_truncates() {
        let ctx = chain_ctx(100);
        let cfg = AutoFeatConfig { max_joins: 1, ..Default::default() };
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(result.truncated);
        assert_eq!(result.truncation, Some(TruncationReason::MaxJoins));
        assert_eq!(result.n_joins_evaluated, 1);
    }

    #[test]
    fn zero_time_budget_truncates_with_deadline_reason() {
        let ctx = chain_ctx(100);
        let cfg = AutoFeatConfig::default().with_time_budget(Duration::ZERO);
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(result.truncated);
        assert!(
            matches!(result.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
            "{:?}",
            result.truncation
        );
        assert_eq!(result.n_joins_evaluated, 0);
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn generous_time_budget_does_not_truncate() {
        let ctx = chain_ctx(100);
        let cfg = AutoFeatConfig::default().with_time_budget(Duration::from_secs(600));
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(!result.truncated);
        assert_eq!(result.truncation, None);
        assert!(!result.ranked.is_empty());
    }

    #[test]
    fn pre_cancelled_context_returns_ranked_partial_with_reason() {
        let ctx = chain_ctx(100);
        ctx.control().cancel();
        let result = AutoFeat::paper().discover(&ctx).unwrap();
        assert!(result.truncated);
        assert_eq!(result.truncation, Some(TruncationReason::Cancelled));
        assert!(result.ranked.is_empty());
        assert!(
            result.resilience.cancel_latency.is_some(),
            "cancelled runs report their cancel latency"
        );
        // A cancel is final; a view of the same lake with a fresh control
        // runs healthy and bit-identical to a never-cancelled context.
        let fresh = ctx.clone().with_request_control(Arc::new(RunControl::new()));
        let again = AutoFeat::paper().discover(&fresh).unwrap();
        assert_eq!(again.truncation, None);
        assert!(!again.ranked.is_empty());
        assert_eq!(again.resilience, ResilienceStats::default());
        assert_results_identical(&again, &AutoFeat::paper().discover(&chain_ctx(100)).unwrap());
    }

    #[test]
    fn context_deadline_composes_with_run_budget() {
        // An expired deadline on the *context* control truncates a run whose
        // own time budget is generous — the tighter deadline wins — without
        // mutating the run-scoped budget logic.
        let ctx = chain_ctx(100)
            .with_request_control(Arc::new(RunControl::new()).scoped(Some(Instant::now())));
        let cfg = AutoFeatConfig::default().with_time_budget(Duration::from_secs(600));
        let result = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
        assert!(
            matches!(result.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
            "{:?}",
            result.truncation
        );
        let fresh = ctx.clone().with_request_control(Arc::new(RunControl::new()));
        let healthy = AutoFeat::new(cfg).discover(&fresh).unwrap();
        assert_eq!(healthy.truncation, None, "a fresh control carries no deadline");
    }

    #[test]
    fn tight_budget_engages_sample_shrink_rung() {
        // Base bigger than the shrunken cap, budget below the rung-1
        // threshold: the ladder trades sample size for headroom and records
        // the rung on the result.
        let ctx = chain_ctx(400);
        let cfg = AutoFeatConfig::default().with_time_budget(Duration::from_millis(900));
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(
            result.resilience.degradations.contains(&"shrunk sample"),
            "{:?}",
            result.resilience.degradations
        );
        // Without a deadline the ladder never engages, whatever the knobs.
        let unbounded = AutoFeat::paper().discover(&ctx).unwrap();
        assert!(unbounded.resilience.degradations.is_empty());
    }

    #[test]
    fn injected_worker_panic_is_isolated_not_fatal() {
        let n = 100usize;
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "af_panic_base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let bad = Table::new(
            "af_panic_bad",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("f", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let good = Table::new(
            "af_panic_good",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, bad, good],
            &[
                ("af_panic_base".into(), "k".into(), "af_panic_bad".into(), "k".into()),
                ("af_panic_base".into(), "k".into(), "af_panic_good".into(), "k".into()),
            ],
            "af_panic_base",
            "target",
        )
        .unwrap();
        ctx.fault_domain().arm(
            "af_panic_bad",
            autofeat_data::faults::TableFaults { panic_on_row: Some(0), slow_join_ms: None },
        );

        // Through the shared cache or a private one, the panic fires inside
        // the cache's index build, is caught there, and surfaces as a
        // structured hop failure; the healthy path still ranks. (A panic
        // that reaches the fan-out is `merge_counts_a_worker_panic_as_a_failure`.)
        for cache in [false, true] {
            let r = AutoFeat::new(AutoFeatConfig::default().with_cache(cache))
                .discover(&ctx)
                .unwrap();
            assert_eq!(r.resilience.worker_panics, 0);
            assert_eq!(r.cache.build_panics, 1, "cache {cache}");
            assert_eq!(r.failures.len(), 1);
            assert_eq!(r.failures[0].hop.to_table, "af_panic_bad");
            assert!(r.failures[0].error.contains("panicked"), "{}", r.failures[0].error);
            assert!(r.failures[0].error.contains("injected fault"), "{}", r.failures[0].error);
            assert_eq!(r.ranked.len(), 1);
            assert_eq!(r.ranked[0].path.last_table(), Some("af_panic_good"));
        }

        ctx.fault_domain().disarm("af_panic_bad");
        // With the fault gone the same context discovers both paths.
        let healed = AutoFeat::new(AutoFeatConfig::default())
            .discover(&ctx)
            .unwrap();
        assert!(healed.failures.is_empty());
        assert_eq!(healed.ranked.len(), 2);
    }

    #[test]
    fn merge_counts_a_worker_panic_as_a_failure() {
        let ctx = chain_ctx(60);
        let engine = AutoFeat::paper();
        let Setup { sampled, selector, .. } = engine.setup(&ctx, None).unwrap();
        let frontier = [Frontier::root(ctx.drg().node("base").unwrap(), sampled)];
        let (cands, _) = engine.plan_level(&ctx, &frontier);
        let mut search = Search::new(selector, 1);
        let panic = autofeat_data::parallel::WorkerPanic {
            item: 0,
            phase: "discover.level.eval".into(),
            message: "boom".into(),
        };
        let tracer = obs::Tracer::enabled();
        let next = obs::with_tracer(&tracer, || {
            search.merge(&frontier[0], &cands[0], ItemOutcome::Panicked(panic))
        });
        assert!(next.is_none(), "a failed hop extends no path");
        assert_eq!(search.out.resilience.worker_panics, 1);
        assert_eq!(search.out.n_joins_evaluated, 1);
        let failure = &search.out.failures[..];
        assert_eq!(failure.len(), 1);
        assert_eq!(failure[0].hop, cands[0].hop);
        assert_eq!(failure[0].error, "worker panic on item 0 in phase `discover.level.eval`: boom");
        let kinds: Vec<String> = tracer.snapshot().events.into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["worker_panic", "hop_failed"]);
    }

    #[test]
    fn nan_scores_sort_last_not_panic() {
        // Regression: the ranked/beam sorts used
        // `partial_cmp().expect("finite scores")`, which panics on NaN.
        let mut scores = [f64::NAN, 0.2, f64::NAN, 1.5, -0.3];
        scores.sort_by(|a, b| rank_key(*b).total_cmp(&rank_key(*a)));
        assert_eq!(scores[0], 1.5);
        assert_eq!(scores[1], 0.2);
        assert_eq!(scores[2], -0.3);
        assert!(scores[3].is_nan() && scores[4].is_nan());
    }

    #[test]
    fn constant_feature_columns_never_panic() {
        // A neighbour whose only feature is constant yields NaN Spearman
        // relevance; discovery (with and without a beam) must complete and
        // never rank a NaN-scored path above a healthy one.
        let n = 120usize;
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let flat = Table::new(
            "flat",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("c", Column::from_floats(vec![Some(7.0); n])),
            ],
        )
        .unwrap();
        let good = Table::new(
            "good",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, flat, good],
            &[
                ("base".into(), "k".into(), "flat".into(), "k".into()),
                ("base".into(), "k".into(), "good".into(), "k".into()),
            ],
            "base",
            "target",
        )
        .unwrap();
        for beam in [None, Some(1)] {
            let cfg = AutoFeatConfig { beam_width: beam, ..Default::default() };
            let r = AutoFeat::new(cfg).discover(&ctx).unwrap();
            assert!(!r.ranked.is_empty());
            // The healthy path must outrank (or displace) the constant one.
            assert_eq!(r.ranked[0].path.last_table(), Some("good"));
            assert!(r.selected_features.iter().any(|f| f == "good.signal"));
        }
    }

    #[test]
    fn broken_hop_is_isolated_not_fatal() {
        // The DRG claims `bad` joins on a column the table does not have;
        // evaluating that hop errors. Discovery must record the failure and
        // still rank the healthy neighbour.
        let n = 100usize;
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let bad = Table::new(
            "bad",
            vec![("other", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>()))],
        )
        .unwrap();
        let good = Table::new(
            "good",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, bad, good],
            &[
                // Edge references `bad.missing`, which does not exist.
                ("base".into(), "k".into(), "bad".into(), "missing".into()),
                ("base".into(), "k".into(), "good".into(), "k".into()),
            ],
            "base",
            "target",
        )
        .unwrap();
        let r = AutoFeat::paper().discover(&ctx).unwrap();
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].hop.to_table, "bad");
        assert!(r.failures[0].error.contains("missing"), "{}", r.failures[0].error);
        // The healthy path is unaffected.
        assert_eq!(r.ranked.len(), 1);
        assert_eq!(r.ranked[0].path.last_table(), Some("good"));
    }

    #[test]
    fn max_path_length_limits_depth() {
        let ctx = chain_ctx(100);
        let cfg = AutoFeatConfig { max_path_length: 1, ..Default::default() };
        let result = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(result.ranked.iter().all(|r| r.path.len() == 1));
    }

    /// Assert two discovery results are bit-identical in everything except
    /// the informational `threads_used`/`elapsed` fields.
    fn assert_results_identical(a: &DiscoveryResult, b: &DiscoveryResult) {
        assert_eq!(a.ranked.len(), b.ranked.len());
        for (x, y) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "path {}", x.path);
            assert_eq!(x.features, y.features);
        }
        assert_eq!(a.n_joins_evaluated, b.n_joins_evaluated);
        assert_eq!(a.n_pruned_unjoinable, b.n_pruned_unjoinable);
        assert_eq!(a.n_pruned_quality, b.n_pruned_quality);
        assert_eq!(a.n_pruned_similarity, b.n_pruned_similarity);
        assert_eq!(a.n_pruned_budget, b.n_pruned_budget);
        assert_eq!(a.truncation, b.truncation);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.selected_features, b.selected_features);
        assert_eq!(a.resilience, b.resilience);
    }

    #[test]
    fn repeat_run_reports_cache_hits_as_delta() {
        let ctx = chain_ctx(120);
        let engine = AutoFeat::paper();
        let first = engine.discover(&ctx).unwrap();
        let s1 = first.cache;
        assert!(s1.misses > 0, "first run must build indexes");
        assert_eq!(s1.hits, 0, "nothing to hit on a cold cache");
        let second = engine.discover(&ctx).unwrap();
        let s2 = second.cache;
        assert_eq!(s2.misses, 0, "second run must reuse every index");
        assert!(s2.hits > 0);
        assert_eq!(s2.entries, s1.entries, "occupancy unchanged");
        assert_results_identical(&first, &second);
    }

    /// Regression for the traversal-order coupling bug: with one shared RNG
    /// threaded through the BFS, an *unrelated* neighbour evaluated earlier
    /// consumed RNG draws and perturbed the representative picks — and
    /// hence the scores — of every later join. Per-hop seed derivation
    /// makes each path's picks a function of its own identity only.
    #[test]
    fn unrelated_table_does_not_perturb_other_paths() {
        let n = 120usize;
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        // `dup` has 4 rows per key with *different* feature values, so its
        // hop score depends on which representative each key gets.
        let dup_keys: Vec<Option<i64>> = (0..(n * 4) as i64).map(|i| Some(i / 4)).collect();
        let dup_vals: Vec<Option<f64>> = (0..(n * 4) as i64)
            .map(|i| Some(((i * 31) % 97) as f64 + ((i / 4) % 2) as f64 * 50.0))
            .collect();
        let dup = Table::new(
            "dup",
            vec![
                ("k", Column::from_ints(dup_keys)),
                ("val", Column::from_floats(dup_vals)),
            ],
        )
        .unwrap();
        // `aaa` also has duplicated keys (so the old shared RNG would have
        // drawn for it) but contributes no features — only the join column.
        let aaa = Table::new(
            "aaa",
            vec![("k", Column::from_ints((0..(n * 3) as i64).map(|i| Some(i / 3)).collect::<Vec<_>>()))],
        )
        .unwrap();

        let without = SearchContext::from_kfk(
            vec![base.clone(), dup.clone()],
            &[("base".into(), "k".into(), "dup".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap();
        // `aaa` sits *before* `dup` in table order, so its hop is evaluated
        // first within the level.
        let with = SearchContext::from_kfk(
            vec![base, aaa, dup],
            &[
                ("base".into(), "k".into(), "aaa".into(), "k".into()),
                ("base".into(), "k".into(), "dup".into(), "k".into()),
            ],
            "base",
            "target",
        )
        .unwrap();

        let cfg = AutoFeatConfig { sample_rows: None, ..Default::default() };
        let a = AutoFeat::new(cfg.clone()).discover(&without).unwrap();
        let b = AutoFeat::new(cfg).discover(&with).unwrap();
        let score_of = |r: &DiscoveryResult| {
            r.ranked
                .iter()
                .find(|p| p.path.last_table() == Some("dup"))
                .map(|p| p.score.to_bits())
                .expect("dup path ranked")
        };
        assert_eq!(
            score_of(&a),
            score_of(&b),
            "adding an unrelated table changed another path's score"
        );
    }

    #[test]
    fn beam_width_limits_frontier() {
        let ctx = chain_ctx(150);
        // Beam of 1: at most one frontier entry survives each level, so at
        // most one path per level is recorded.
        let cfg = AutoFeatConfig { beam_width: Some(1), ..Default::default() };
        let narrow = AutoFeat::new(cfg).discover(&ctx).unwrap();
        let wide = AutoFeat::paper().discover(&ctx).unwrap();
        assert!(narrow.ranked.len() <= wide.ranked.len());
        // The chain graph still reaches the deep signal through the beam.
        assert!(narrow.selected_features.iter().any(|f| f == "s2.strong"));
    }

    #[test]
    fn ablation_variants_run() {
        let ctx = chain_ctx(100);
        for (label, cfg) in AutoFeatConfig::ablation_variants() {
            let r = AutoFeat::new(cfg).discover(&ctx).unwrap();
            assert!(!r.ranked.is_empty(), "{label} produced no paths");
        }
    }

    #[test]
    fn redundant_deep_feature_not_selected_twice() {
        // s2.strong duplicates s1.mid? Here: make s2's feature an exact
        // copy of s1's; redundancy must drop it.
        let n = 150usize;
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let feat: Vec<Option<f64>> = labels.iter().map(|&l| Some(l as f64)).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(900 + i)).collect::<Vec<_>>())),
                ("f", Column::from_floats(feat.clone())),
            ],
        )
        .unwrap();
        let s2 = Table::new(
            "s2",
            vec![
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(900 + i)).collect::<Vec<_>>())),
                ("f_copy", Column::from_floats(feat)),
            ],
        )
        .unwrap();
        let ctx = SearchContext::from_kfk(
            vec![base, s1, s2],
            &[
                ("base".into(), "k".into(), "s1".into(), "k".into()),
                ("s1".into(), "k2".into(), "s2".into(), "k2".into()),
            ],
            "base",
            "target",
        )
        .unwrap();
        // CMIM penalizes the *worst-case* overlap, so an exact duplicate is
        // always dropped. (MRMR averages over |S|, which dilutes the
        // duplicate penalty once unrelated features are in R_sel — that is
        // faithful to the published criterion, so we assert the stricter
        // behaviour on CMIM.)
        let cfg = crate::config::AutoFeatConfig {
            redundancy: Some(autofeat_metrics::redundancy::RedundancyMethod::Cmim),
            ..Default::default()
        };
        let r = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert!(r.selected_features.iter().any(|f| f == "s1.f"));
        assert!(
            !r.selected_features.iter().any(|f| f == "s2.f_copy"),
            "exact duplicate of an already-selected feature must be dropped: {:?}",
            r.selected_features
        );
    }

    // ---- Phase tests: each phase on its own, over `chain_ctx` and a
    // diamond whose far corner is reached over two paths. ----

    /// base(k, k2, weak, target) — a(k, alt, ck, fa) — c(ck, fc), and
    /// base — b(k, ck, fb) — c. `base`–`a` is a multi-edge: `k`–`k` at 0.9
    /// and `k2`–`alt` at 0.6. Edges are inserted in the order `edge_order`
    /// lists them.
    fn diamond_ctx(n: usize, edge_order: [usize; 5]) -> SearchContext {
        let ints = |f: &dyn Fn(i64) -> i64| {
            Column::from_ints((0..n as i64).map(|i| Some(f(i))).collect::<Vec<_>>())
        };
        let floats = |f: &dyn Fn(usize) -> f64| {
            Column::from_floats((0..n).map(|i| Some(f(i))).collect::<Vec<_>>())
        };
        let label = |i: usize| (i % 2) as f64;
        let tables = vec![
            Table::new(
                "base",
                vec![
                    ("k", ints(&|i| i)),
                    ("k2", ints(&|i| 7000 + i)),
                    ("weak", floats(&|i| ((i * 37) % 11) as f64)),
                    ("target", ints(&|i| i % 2)),
                ],
            )
            .unwrap(),
            Table::new(
                "a",
                vec![
                    ("k", ints(&|i| i)),
                    ("alt", ints(&|i| 7000 + i)),
                    ("ck", ints(&|i| 500 + i)),
                    ("fa", floats(&|i| label(i) + ((i * 13) % 7) as f64 * 0.3)),
                ],
            )
            .unwrap(),
            Table::new(
                "b",
                vec![
                    ("k", ints(&|i| i)),
                    ("ck", ints(&|i| 500 + i)),
                    ("fb", floats(&|i| label(i) * 2.0 + ((i * 5) % 9) as f64 * 0.2)),
                ],
            )
            .unwrap(),
            Table::new("c", vec![("ck", ints(&|i| 500 + i)), ("fc", floats(&label))]).unwrap(),
        ];
        let edges = [
            ("base", "k", "a", "k", 0.9),
            ("base", "k2", "a", "alt", 0.6),
            ("base", "k", "b", "k", 0.8),
            ("a", "ck", "c", "ck", 0.85),
            ("b", "ck", "c", "ck", 0.75),
        ];
        let mut drg = autofeat_graph::DrgBuilder::new();
        for t in &tables {
            drg.add_table(t.name());
        }
        for i in edge_order {
            let (ta, ca, tb, cb, w) = edges[i];
            drg.add_discovered(ta, ca, tb, cb, w);
        }
        SearchContext::new(tables, drg.build(), "base", "target").unwrap()
    }

    /// Run the phases by hand, without ladder or gates, evaluating each
    /// level's hops front to back or back to front and then merging them
    /// hop by hop in candidate order.
    fn drive(engine: &AutoFeat, ctx: &SearchContext, reverse: bool) -> Search {
        let Setup { sampled, join_cols, selector } =
            engine.setup(ctx, engine.config.sample_rows).unwrap();
        let relevance = selector.relevance_stage();
        let mut search = Search::new(selector, 1);
        let mut frontier = vec![Frontier::root(ctx.drg().node(ctx.base_name()).unwrap(), sampled)];
        while !frontier.is_empty() {
            search.n_levels += 1;
            let (cands, pruned) = engine.plan_level(ctx, &frontier);
            search.out.n_pruned_similarity += pruned;
            let mut order: Vec<usize> = (0..cands.len()).collect();
            if reverse {
                order.reverse();
            }
            let mut evals: Vec<Option<HopEval>> = cands.iter().map(|_| None).collect();
            for i in order {
                let c = &cands[i];
                evals[i] =
                    Some(engine.evaluate_hop(ctx, &join_cols, &relevance, &frontier[c.entry], c));
            }
            let next_level = cands
                .iter()
                .zip(evals)
                .filter_map(|(c, eval)| {
                    let eval = ItemOutcome::Done(eval.expect("every hop evaluated"));
                    search.merge(&frontier[c.entry], c, eval)
                })
                .collect();
            frontier = engine.next_frontier(next_level);
        }
        search
    }

    fn finished(search: Search, ctx: &SearchContext) -> DiscoveryResult {
        search.finish(ctx, &RunControl::new(), &CacheRecorder::default(), Instant::now())
    }

    #[test]
    fn plan_level_ignores_edge_insertion_order_and_counts_pruned_multi_edges() {
        let engine = AutoFeat::paper();
        let plan = |ctx: &SearchContext| {
            // Level 1 from the base, then level 2 from everything level 1
            // reached (hand-made entries: planning reads no scores).
            let base = ctx.drg().node("base").unwrap();
            let level1 = vec![Frontier::root(base, ctx.base_table().clone())];
            let (cands1, pruned1) = engine.plan_level(ctx, &level1);
            let level2: Vec<Frontier> = cands1
                .iter()
                .map(|c| Frontier {
                    node: c.next,
                    path: JoinPath::empty().extended(c.hop.clone()),
                    table: ctx.join_hop(ctx.base_table(), &[], &c.hop, 0).unwrap().table,
                    score: 0.0,
                    features: Vec::new(),
                })
                .collect();
            let (cands2, pruned2) = engine.plan_level(ctx, &level2);
            let describe = |cands: &[HopCandidate]| -> Vec<(usize, String, String)> {
                cands
                    .iter()
                    .map(|c| {
                        let left_key = qualified_column(ctx.base_name(), &c.hop.from_table, &c.hop.from_column);
                        (c.entry, left_key, format!("{:?}", c.hop))
                    })
                    .collect()
            };
            (describe(&cands1), pruned1, describe(&cands2), pruned2)
        };
        let (l1, pruned1, l2, pruned2) = plan(&diamond_ctx(60, [0, 1, 2, 3, 4]));
        // base → a over the 0.9 edge only (the 0.6 one is pruned, never
        // joined), base → b; then a → c and b → c.
        assert_eq!(l1.iter().map(|c| c.1.as_str()).collect::<Vec<_>>(), ["k", "k"]);
        assert_eq!(pruned1, 1);
        assert_eq!(l2.iter().map(|c| (c.0, c.1.as_str())).collect::<Vec<_>>(), [(0, "a.ck"), (1, "b.ck")]);
        assert_eq!(pruned2, 0);
        for order in [[4, 3, 2, 1, 0], [1, 0, 4, 2, 3], [2, 4, 0, 3, 1]] {
            assert_eq!(plan(&diamond_ctx(60, order)), (l1.clone(), pruned1, l2.clone(), pruned2));
        }
    }

    #[test]
    fn evaluate_hop_prunes_below_tau_and_not_at_it() {
        // `matching` of the base's 100 keys find a row in s1, so the new
        // columns' completeness is matching / 100.
        let first_hop = |matching: i64| -> HopEval {
            let n = 100i64;
            let base = Table::new(
                "base",
                vec![
                    ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                    ("target", Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>())),
                ],
            )
            .unwrap();
            let s1 = Table::new(
                "s1",
                vec![
                    ("k", Column::from_ints((0..matching).map(Some).collect::<Vec<_>>())),
                    ("f", Column::from_floats((0..matching).map(|i| Some((i % 2) as f64)).collect::<Vec<_>>())),
                ],
            )
            .unwrap();
            let ctx = SearchContext::from_kfk(
                vec![base, s1],
                &[("base".into(), "k".into(), "s1".into(), "k".into())],
                "base",
                "target",
            )
            .unwrap();
            let engine = AutoFeat::new(AutoFeatConfig::default().with_tau(0.5));
            let Setup { sampled, join_cols, selector } = engine.setup(&ctx, None).unwrap();
            let frontier = [Frontier::root(ctx.drg().node("base").unwrap(), sampled)];
            let (cands, _) = engine.plan_level(&ctx, &frontier);
            assert_eq!(cands.len(), 1);
            engine.evaluate_hop(&ctx, &join_cols, &selector.relevance_stage(), &frontier[0], &cands[0])
        };
        match first_hop(50) {
            HopEval::Scored(sh) => {
                assert_eq!(sh.names, ["s1.f"], "the join column is no candidate");
                assert_eq!(sh.picks.len(), 1);
                assert_eq!(sh.codes.len(), 1);
            }
            _ => panic!("a match ratio of exactly τ passes"),
        }
        assert!(matches!(first_hop(49), HopEval::LowQuality), "one row below τ is pruned");
        assert!(matches!(first_hop(0), HopEval::Unjoinable));
    }

    #[test]
    fn evaluation_order_within_a_level_does_not_change_the_result() {
        // What makes the evaluate phase safe to fan out: whichever hop of a
        // level is evaluated first, merging in candidate order gives the
        // result of the sequential walk — and of `discover`.
        for ctx in [chain_ctx(160), diamond_ctx(120, [0, 1, 2, 3, 4])] {
            for (label, cfg) in AutoFeatConfig::ablation_variants() {
                let engine = AutoFeat::new(cfg);
                let forward = finished(drive(&engine, &ctx, false), &ctx);
                let backward = finished(drive(&engine, &ctx, true), &ctx);
                assert!(!forward.ranked.is_empty(), "{label}");
                assert_results_identical(&forward, &backward);
                assert_results_identical(&forward, &engine.discover(&ctx).unwrap());
            }
        }
    }

    #[test]
    fn a_kept_name_that_re_enters_through_admit_keeps_its_place() {
        // With redundancy off, `c.fc` is kept both times `c` is reached
        // (over `a`, then over `b`): one member of R_sel, where it first
        // went in, and a feature of both paths.
        let ctx = diamond_ctx(120, [0, 1, 2, 3, 4]);
        let engine = AutoFeat::new(AutoFeatConfig { redundancy: None, ..Default::default() });
        let search = drive(&engine, &ctx, false);
        assert_eq!(search.selector.selected_names(), ["weak", "a.fa", "b.fb", "c.fc"]);
        let result = finished(search, &ctx);
        assert_eq!(result.selected_features, ["a.fa", "b.fb", "c.fc"]);
        let to_c: Vec<&RankedPath> =
            result.ranked.iter().filter(|p| p.path.last_table() == Some("c")).collect();
        assert_eq!(to_c.len(), 2);
        assert!(to_c.iter().all(|p| p.features.last().map(String::as_str) == Some("c.fc")));
    }
}
