//! The resident discovery service: one loaded lake serving many
//! concurrent discovery requests.
//!
//! [`AutoFeat::discover`] is a one-shot call; a [`DiscoveryService`] is the
//! long-lived handle around it. It owns one [`SearchContext`] — the lake's
//! tables, its DRG, the governed `LakeIndexCache`, the fault domain — and
//! accepts [`DiscoveryRequest`]s from any number of threads at once. Every
//! request gets:
//!
//! * a **request-scoped view** of the context (its own base table, target
//!   label, and config — the lake state is `Arc`-shared, never copied or
//!   mutably borrowed);
//! * a **fresh scoped control**: a [`RunControl::scoped`] child of the
//!   service-wide control. Cancelling one request never touches its
//!   siblings; [`shutdown`] (`DiscoveryService::shutdown`) cancels the
//!   service-wide parent and winds every in-flight request down to a valid
//!   partial result. A request's time budget is its config's `time_budget`,
//!   and its clock starts when the request runs, not when it is prepared;
//! * **request-attributed governance counters**: the `cache` stats on its
//!   [`DiscoveryResult`] count this request's own hits/misses/builds, not
//!   a racy delta of the shared cache (per-request recorders sum exactly
//!   to the shared cache's global counters).
//!
//! Requests are served on the caller's thread (plus the shared fan-out
//! worker pool in `autofeat_data::parallel`); the service itself spawns
//! nothing (except an optional stats listener, below). Identical requests
//! are **bit-identical** whether run solo or concurrently with any mix of
//! other requests — determinism is per-hop seeded and shared state is
//! read-only or content-addressed (DESIGN.md §3i).
//!
//! ## Telemetry
//!
//! The service counts what it alone knows — request outcomes, rejections,
//! degradation rungs, caught worker panics, live table additions and
//! removals — in plain atomics, keeps an in-flight count with its peak and
//! a latency [`Histogram`], all process-lifetime, never reset by request
//! lifecycle and entirely separate from the per-run `Tracer` (DESIGN.md
//! §3k). A scrape is one function of the service's state: it reads those
//! atomics, then what the shared cache (its governance counters), the lake
//! (its key-metadata footprint, which grows while requests are served) and
//! the worker pool (queue and utilization) report at that instant. Read it
//! two ways:
//!
//! * [`metrics_snapshot`](DiscoveryService::metrics_snapshot) /
//!   [`metrics_text`](DiscoveryService::metrics_text) — every series as a
//!   struct or as Prometheus-style text (`/metrics.json` below serves the
//!   stable-schema JSON, `metrics.schema.json`);
//! * [`serve_metrics`](DiscoveryService::serve_metrics) — an optional
//!   std-only TCP listener serving `GET /metrics`, `/metrics.json`, and
//!   `/healthz` from a background thread (the first brick of the
//!   roadmap's network front-end), shut down with the service.
//!
//! A bounded in-memory request log (ring of the last
//! [`REQUEST_LOG_CAP`] [`RequestLogRecord`]s) is queryable via
//! [`request_log`](DiscoveryService::request_log) and dumped on
//! [`shutdown`](DiscoveryService::shutdown) when `AUTOFEAT_REQUEST_LOG`
//! names a file path (or `-`/`stderr` for standard error).
//!
//! Telemetry never perturbs results — a served request is bit-identical to
//! the same one-shot [`AutoFeat::discover`] (the equivalence sweep in
//! `tests/equivalence.rs`) — and what it costs a request is `lakebench`'s
//! `core.service.overhead_ms`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use autofeat_data::parallel::shared_pool;
use autofeat_data::{CacheStats, Result, RunControl, Table};
use autofeat_obs::{
    render_json, render_prometheus, Histogram, MetricData, MetricValue, MetricsSnapshot,
    StatsListener, StatsSource,
};

use crate::autofeat::{AutoFeat, DiscoveryResult, TruncationReason};
use crate::config::AutoFeatConfig;
use crate::context::SearchContext;

/// One discovery request against a [`DiscoveryService`]: which base table
/// and target label to discover for, under which configuration (its
/// `time_budget` included). Every field defaults to the service's own
/// (`None` = inherit).
#[derive(Debug, Clone, Default)]
pub struct DiscoveryRequest {
    /// Base table name; `None` = the service context's base.
    pub base: Option<String>,
    /// Target (label) column on the base table; `None` = the service
    /// context's label.
    pub target: Option<String>,
    /// Full per-request configuration; `None` = the service's base config.
    pub config: Option<AutoFeatConfig>,
}

impl DiscoveryRequest {
    /// A request that inherits everything from the service.
    pub fn new() -> DiscoveryRequest {
        DiscoveryRequest::default()
    }

    /// Discover for this base table instead of the service default.
    pub fn with_base(mut self, base: impl Into<String>) -> DiscoveryRequest {
        self.base = Some(base.into());
        self
    }

    /// Use this configuration instead of the service's base config.
    pub fn with_config(mut self, config: AutoFeatConfig) -> DiscoveryRequest {
        self.config = Some(config);
        self
    }
}

/// How one completed request ended, from an operator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Ran to completion, untruncated.
    Ok,
    /// Stopped early by a budget gate (deadline or `max_joins`) but
    /// returned a valid ranked partial.
    Truncated,
    /// Interrupted by a cancel (per-request or service shutdown); still a
    /// valid ranked partial (anytime semantics).
    Cancelled,
    /// Returned an error after starting to run.
    Error,
}

impl RequestOutcome {
    /// Stable lower-case label (`"ok"`, `"truncated"`, …), used in the
    /// request log and metric names.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Truncated => "truncated",
            RequestOutcome::Cancelled => "cancelled",
            RequestOutcome::Error => "error",
        }
    }

    fn classify(result: &Result<DiscoveryResult>) -> RequestOutcome {
        match result {
            Err(_) => RequestOutcome::Error,
            Ok(r) => match r.truncation {
                None => RequestOutcome::Ok,
                Some(TruncationReason::Cancelled) => RequestOutcome::Cancelled,
                Some(_) => RequestOutcome::Truncated,
            },
        }
    }
}

/// Capacity of the in-memory structured request log: once full, the oldest
/// record is dropped per new completion (the drop count is exported as
/// `autofeat_request_log_dropped_total`).
pub const REQUEST_LOG_CAP: usize = 256;

/// One completed request, as recorded in the bounded request log.
#[derive(Debug, Clone)]
pub struct RequestLogRecord {
    /// Monotonically increasing completion id (1-based, service-lifetime).
    pub id: u64,
    /// Base table the request ran against.
    pub base: String,
    /// Target column the request ranked for.
    pub target: String,
    /// When the request finished, as an offset from service creation.
    pub finished_at: Duration,
    /// Request wall time (submit → result), as measured by the service.
    pub duration: Duration,
    /// How it ended.
    pub outcome: RequestOutcome,
    /// The error message, for [`RequestOutcome::Error`] completions.
    pub error: Option<String>,
    /// Cache hits attributed to this request (per-request recorder delta).
    pub cache_hits: u64,
    /// Cache misses (index builds triggered) attributed to this request.
    pub cache_misses: u64,
    /// Index build time attributed to this request.
    pub cache_build_time: Duration,
    /// Degradation-ladder rungs this request engaged.
    pub degradations: usize,
    /// Worker panics caught and isolated while serving this request.
    pub worker_panics: usize,
}

impl RequestLogRecord {
    /// One-line rendering for the shutdown dump / operator logs.
    pub fn render_line(&self) -> String {
        format!(
            "req {} {}→{} {} in {:.3}ms (cache {}h/{}m, {} degradations, {} panics){}",
            self.id,
            self.base,
            self.target,
            self.outcome.as_str(),
            self.duration.as_secs_f64() * 1e3,
            self.cache_hits,
            self.cache_misses,
            self.degradations,
            self.worker_panics,
            match &self.error {
                Some(e) => format!(": {e}"),
                None => String::new(),
            },
        )
    }
}

#[derive(Debug, Default)]
struct RequestLog {
    records: VecDeque<RequestLogRecord>,
    dropped: u64,
}

/// The service's own counts: outcome, rejection, degradation, panic and
/// table counters, the occupancy atomics, the latency histogram and the
/// request-log ring. Each is counted here and nowhere else; a scrape reads
/// them ([`Telemetry::snapshot`]). Lives in an `Arc` so the background
/// stats listener can outlive any one borrow of the service.
#[derive(Debug)]
struct Telemetry {
    started: Instant,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    latency: Histogram,
    requests_ok: AtomicU64,
    requests_truncated: AtomicU64,
    requests_cancelled: AtomicU64,
    requests_error: AtomicU64,
    requests_rejected: AtomicU64,
    degradations: AtomicU64,
    worker_panics: AtomicU64,
    tables_added: AtomicU64,
    tables_removed: AtomicU64,
    log: Mutex<RequestLog>,
    next_id: AtomicU64,
    log_dumped: AtomicBool,
}

impl Telemetry {
    fn new() -> Telemetry {
        let zero = || AtomicU64::new(0);
        Telemetry {
            started: Instant::now(),
            in_flight: zero(),
            peak_in_flight: zero(),
            latency: Histogram::default(),
            requests_ok: zero(),
            requests_truncated: zero(),
            requests_cancelled: zero(),
            requests_error: zero(),
            requests_rejected: zero(),
            degradations: zero(),
            worker_panics: zero(),
            tables_added: zero(),
            tables_removed: zero(),
            log: Mutex::new(RequestLog::default()),
            next_id: zero(),
            log_dumped: AtomicBool::new(false),
        }
    }

    /// Record one completed request into the histogram, outcome counters,
    /// and the bounded request log.
    fn record_request(
        &self,
        base: &str,
        target: &str,
        duration: Duration,
        outcome: RequestOutcome,
        result: &Result<DiscoveryResult>,
    ) {
        // Latency before the outcome counter: `snapshot` reads them in
        // the other order.
        self.latency.observe(duration);
        let counter = match outcome {
            RequestOutcome::Ok => &self.requests_ok,
            RequestOutcome::Truncated => &self.requests_truncated,
            RequestOutcome::Cancelled => &self.requests_cancelled,
            RequestOutcome::Error => &self.requests_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let (cache, degradations, worker_panics, error) = match result {
            Ok(r) => (
                r.cache,
                r.resilience.degradations.len(),
                r.resilience.worker_panics,
                None,
            ),
            Err(e) => (CacheStats::default(), 0, 0, Some(e.to_string())),
        };
        self.degradations.fetch_add(degradations as u64, Ordering::Relaxed);
        self.worker_panics.fetch_add(worker_panics as u64, Ordering::Relaxed);
        // The id is drawn under the log's lock: drawn before it, two
        // completions could enter the log in the other order than their ids.
        let Ok(mut log) = self.log.lock() else { return };
        let record = RequestLogRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
            base: base.to_string(),
            target: target.to_string(),
            finished_at: self.started.elapsed(),
            duration,
            outcome,
            error,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_build_time: cache.build_time,
            degradations,
            worker_panics,
        };
        if log.records.len() >= REQUEST_LOG_CAP {
            log.records.pop_front();
            log.dropped += 1;
        }
        log.records.push_back(record);
    }

    /// Every series the service exports, read at this instant, sorted by
    /// name: the service's own atomics, then the shared cache's governance
    /// counters, the lake's key metadata and the pool's pressure.
    ///
    /// The latency histogram is read before the outcome counters, and a
    /// request observes its latency before it bumps its counter, so a
    /// snapshot's latency count never outruns its outcome sum by more than
    /// the requests completing during the read.
    fn snapshot(&self, ctx: &SearchContext) -> MetricsSnapshot {
        use MetricData::{Counter, Gauge};
        let latency = MetricData::Histogram(self.latency.snapshot());
        let count = |c: &AtomicU64| Counter(c.load(Ordering::Relaxed));
        let level = |c: &AtomicU64| Gauge(c.load(Ordering::Relaxed) as f64);
        let log_dropped = self.log.lock().map_or(0, |l| l.dropped);
        let c = ctx.lake_cache().stats();
        let touches = c.hits + c.misses;
        let hit_ratio = if touches == 0 { 0.0 } else { c.hits as f64 / touches as f64 };
        // Lake-owned, outside the cache budget, and growing while the
        // process serves: a dictionary is built by the first join keyed on
        // its column.
        let (key_meta_bytes, dictionaries) = ctx.lake_key_meta();
        let pool = shared_pool();
        let metrics: Vec<MetricValue> = [
            (
                "autofeat_cache_budget_bytes",
                "Byte budget in force (0 = unbounded).",
                Gauge(c.budget_bytes.unwrap_or(0) as f64),
            ),
            (
                "autofeat_cache_build_panics_total",
                "Index builds that panicked (isolated).",
                Counter(c.build_panics),
            ),
            (
                "autofeat_cache_build_seconds_total",
                "Total wall time spent building indexes.",
                Gauge(c.build_time.as_secs_f64()),
            ),
            (
                "autofeat_cache_entries",
                "Number of resident (table, column) indexes.",
                Gauge(c.entries as f64),
            ),
            (
                "autofeat_cache_evictions_total",
                "Indexes evicted by the byte budget.",
                Counter(c.evictions),
            ),
            (
                "autofeat_cache_hit_ratio",
                "hits / (hits + misses) since process start.",
                Gauge(hit_ratio),
            ),
            (
                "autofeat_cache_hits_total",
                "Joins served from an already-built index.",
                Counter(c.hits),
            ),
            (
                "autofeat_cache_lock_recoveries_total",
                "Operations that found the governor lock poisoned and degraded.",
                Counter(c.lock_recoveries),
            ),
            (
                "autofeat_cache_misses_total",
                "Joins that had to build the index first.",
                Counter(c.misses),
            ),
            (
                "autofeat_cache_peak_resident_bytes",
                "High-water mark of resident bytes in the current budget epoch.",
                Gauge(c.peak_resident_bytes as f64),
            ),
            (
                "autofeat_cache_rejections_total",
                "Builds denied retention by the budget.",
                Counter(c.rejections),
            ),
            (
                "autofeat_cache_resident_bytes",
                "Heap footprint of retained indexes.",
                Gauge(c.resident_bytes as f64),
            ),
            (
                "autofeat_degradations_total",
                "Degradation-ladder rungs engaged across all requests.",
                count(&self.degradations),
            ),
            ("autofeat_in_flight", "Requests currently executing.", level(&self.in_flight)),
            (
                "autofeat_lake_dictionaries",
                "Key dictionaries built so far, one per joined-on column.",
                Gauge(dictionaries as f64),
            ),
            (
                "autofeat_lake_key_meta_bytes",
                "Heap footprint of the key dictionaries and row fingerprints built so far.",
                Gauge(key_meta_bytes as f64),
            ),
            (
                "autofeat_lake_payload_bytes",
                "Heap footprint of the cells the lake's tables hold resident.",
                Gauge(ctx.lake_payload_bytes() as f64),
            ),
            (
                "autofeat_peak_in_flight",
                "High-water mark of in-flight requests.",
                level(&self.peak_in_flight),
            ),
            (
                "autofeat_pool_busy_workers",
                "Helper threads currently executing a job; request threads are not counted.",
                Gauge(pool.busy_workers() as f64),
            ),
            (
                "autofeat_pool_queue_depth",
                "Helper jobs queued but not yet picked up, including those whose fan-out has ended.",
                Gauge(pool.queue_depth() as f64),
            ),
            (
                "autofeat_pool_size",
                "Helper threads in the shared fan-out pool; a request's own thread works beside them.",
                Gauge(pool.size() as f64),
            ),
            (
                "autofeat_request_latency_seconds",
                "Per-request wall time (submit to result), all outcomes.",
                latency,
            ),
            (
                "autofeat_request_log_dropped_total",
                "Request-log records evicted after the ring filled.",
                Counter(log_dropped),
            ),
            (
                "autofeat_requests_cancelled_total",
                "Requests interrupted by a cancel (valid partial returned).",
                count(&self.requests_cancelled),
            ),
            (
                "autofeat_requests_error_total",
                "Requests that returned an error after starting to run.",
                count(&self.requests_error),
            ),
            (
                "autofeat_requests_ok_total",
                "Requests completed untruncated.",
                count(&self.requests_ok),
            ),
            (
                "autofeat_requests_rejected_total",
                "Requests rejected at validation, before running.",
                count(&self.requests_rejected),
            ),
            (
                "autofeat_requests_truncated_total",
                "Requests stopped early by a budget gate (valid partial returned).",
                count(&self.requests_truncated),
            ),
            (
                "autofeat_tables_added_total",
                "Tables added to the live lake (incremental DRG splice).",
                count(&self.tables_added),
            ),
            (
                "autofeat_tables_removed_total",
                "Tables removed from the live lake (incremental DRG splice).",
                count(&self.tables_removed),
            ),
            (
                "autofeat_uptime_seconds",
                "Seconds since the service was created.",
                Gauge(self.started.elapsed().as_secs_f64()),
            ),
            (
                "autofeat_worker_panics_total",
                "Worker panics caught and isolated across all requests.",
                count(&self.worker_panics),
            ),
        ]
        .into_iter()
        .map(|(name, help, value)| MetricValue {
            name: name.to_string(),
            help: help.to_string(),
            value,
        })
        .collect();
        debug_assert!(
            metrics.windows(2).all(|w| w[0].name < w[1].name),
            "metric names must be sorted and unique: MetricsSnapshot::get binary-searches them"
        );
        MetricsSnapshot { metrics }
    }

    /// Dump the request log to the sink named by `AUTOFEAT_REQUEST_LOG`
    /// (a file path, or `-`/`stderr` for standard error); unset = no dump.
    /// At most once per service, no matter how often shutdown is called.
    fn dump_request_log(&self) {
        let Ok(sink) = std::env::var("AUTOFEAT_REQUEST_LOG") else { return };
        if sink.is_empty() || self.log_dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        let Ok(log) = self.log.lock() else { return };
        let mut out = String::new();
        out.push_str(&format!(
            "request log at shutdown: {} records ({} dropped)\n",
            log.records.len(),
            log.dropped
        ));
        for r in &log.records {
            out.push_str(&r.render_line());
            out.push('\n');
        }
        if sink == "-" || sink == "stderr" {
            eprint!("{out}");
        } else if let Err(e) = std::fs::write(&sink, &out) {
            eprintln!("failed to write request log to {sink}: {e}");
        }
    }
}

/// The listener's view of the service: enough `Arc`s to render a fresh
/// scrape without borrowing the `DiscoveryService` itself.
struct ServiceMetricsSource {
    telemetry: Arc<Telemetry>,
    /// A handle on the lake (`Arc`s of its shared state), read through
    /// `latest()` at scrape time.
    ctx: SearchContext,
    control: Arc<RunControl>,
}

impl StatsSource for ServiceMetricsSource {
    fn metrics_text(&self) -> String {
        render_prometheus(&self.telemetry.snapshot(&self.ctx))
    }

    fn metrics_json(&self) -> String {
        render_json(&self.telemetry.snapshot(&self.ctx))
    }

    fn healthy(&self) -> bool {
        !self.control.is_cancelled()
    }
}

/// A long-lived discovery service over one loaded lake. See the module
/// docs for the serving model; [`submit`](DiscoveryService::submit) is the
/// whole API for most callers and is safe to call from many threads at
/// once (`&self`, no interior `&mut` on shared lake state).
#[derive(Debug)]
pub struct DiscoveryService {
    ctx: SearchContext,
    base_config: AutoFeatConfig,
    /// Service-wide control: the parent of every request's scoped control.
    /// This is the context's own handle, so `ctx.control().cancel()` and
    /// [`shutdown`](DiscoveryService::shutdown) are the same lever.
    control: Arc<RunControl>,
    telemetry: Arc<Telemetry>,
}

impl DiscoveryService {
    /// Wrap a loaded lake context into a resident service. `base_config`
    /// is the default configuration for requests that do not carry their
    /// own.
    pub fn new(ctx: SearchContext, base_config: AutoFeatConfig) -> DiscoveryService {
        let control = Arc::clone(ctx.control());
        DiscoveryService { ctx, base_config, control, telemetry: Arc::new(Telemetry::new()) }
    }

    /// The underlying lake context (shared state: tables, DRG, cache).
    pub fn context(&self) -> &SearchContext {
        &self.ctx
    }

    /// Cancel the service-wide control: every in-flight request winds down
    /// to a valid ranked partial (anytime semantics, DESIGN.md §3h), and
    /// every later submit returns immediately with a cancelled truncation.
    /// Dumps the request log when `AUTOFEAT_REQUEST_LOG` is set.
    pub fn shutdown(&self) {
        self.control.cancel();
        self.telemetry.dump_request_log();
    }

    /// A fresh snapshot of every series the service exports (its own
    /// counters and latency histogram, cache governance, lake key metadata,
    /// pool pressure), read at this instant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot(&self.ctx)
    }

    /// [`metrics_snapshot`](DiscoveryService::metrics_snapshot) rendered as
    /// Prometheus-style text exposition.
    pub fn metrics_text(&self) -> String {
        render_prometheus(&self.metrics_snapshot())
    }

    /// The bounded structured request log, oldest first (up to
    /// [`REQUEST_LOG_CAP`] records).
    pub fn request_log(&self) -> Vec<RequestLogRecord> {
        self.telemetry
            .log
            .lock()
            .map(|l| l.records.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Start the std-only TCP stats listener on `addr` (use
    /// `"127.0.0.1:0"` for an ephemeral port), serving `GET /metrics`
    /// (Prometheus text), `/metrics.json`, and `/healthz` (503 once the
    /// service is shut down) from a background thread. Stop it with
    /// [`StatsListener::stop`] or by dropping the listener; it holds
    /// `Arc`s, not borrows, so it may outlive any one borrow of `self`.
    pub fn serve_metrics(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<StatsListener> {
        let source = ServiceMetricsSource {
            telemetry: Arc::clone(&self.telemetry),
            ctx: self.ctx.clone(),
            control: Arc::clone(&self.control),
        };
        StatsListener::serve(addr, Arc::new(source))
    }

    /// Validate `req` and bind it to a request-scoped context view and a
    /// fresh scoped control, without running it yet. Use the returned
    /// handle's [`control`](PreparedRequest::control) to cancel this one
    /// request from another thread, then [`run`](PreparedRequest::run) it.
    ///
    /// A validation failure (unknown base/target) is counted as a
    /// *rejected* request — it never ran, so it appears in
    /// `autofeat_requests_rejected_total`, not in an outcome counter or the
    /// latency histogram.
    pub fn prepare(&self, req: &DiscoveryRequest) -> Result<PreparedRequest<'_>> {
        let config = req.config.clone().unwrap_or_else(|| self.base_config.clone());
        let base = req.base.as_deref().unwrap_or_else(|| self.ctx.base_name());
        let target = req.target.as_deref().unwrap_or_else(|| self.ctx.label());
        let view = match self.ctx.with_base_label(base, target) {
            Ok(view) => view,
            Err(e) => {
                self.telemetry.requests_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let base = base.to_string();
        let target = target.to_string();
        // Fresh scoped control per request: a cancel here is invisible to
        // sibling requests, a service-wide cancel reaches every child, and
        // no reset-reuse hazard exists because nothing is ever reset (each
        // request's control is born clean). The config's `time_budget`
        // becomes a deadline when `discover` starts.
        let control = self.control.scoped(None);
        let ctx = view.with_request_control(Arc::clone(&control));
        Ok(PreparedRequest { service: self, ctx, config, control, base, target })
    }

    /// Serve one request to completion on the calling thread. Concurrent
    /// submits interleave freely; each returns its own independent
    /// [`DiscoveryResult`], bit-identical to the same request served solo.
    pub fn submit(&self, req: &DiscoveryRequest) -> Result<DiscoveryResult> {
        self.prepare(req)?.run()
    }

    /// Add `table` to the live lake without draining in-flight requests:
    /// the new table is profiled outside the lake lock, spliced into the
    /// DRG incrementally ([`SearchContext::add_table`]), and visible to
    /// every request prepared after this call returns. Requests already
    /// running keep their pre-mutation snapshot — never a torn view.
    /// Errors if the service was built from an immutable (KFK /
    /// explicit-DRG) context or the name is already present.
    pub fn add_table(&self, table: Table) -> Result<()> {
        self.ctx.add_table(table)?;
        self.telemetry.tables_added.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove `name` from the live lake: its DRG edges are spliced out
    /// incrementally and only its own cache entries are invalidated
    /// ([`SearchContext::remove_table`]); the rest of the cache survives.
    /// In-flight requests holding the pre-mutation snapshot finish
    /// unperturbed. Errors on the base table, unknown names, or an
    /// immutable context.
    pub fn remove_table(&self, name: &str) -> Result<()> {
        self.ctx.remove_table(name)?;
        self.telemetry.tables_removed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A validated, bound, not-yet-running request from
/// [`DiscoveryService::prepare`].
#[derive(Debug)]
pub struct PreparedRequest<'a> {
    service: &'a DiscoveryService,
    ctx: SearchContext,
    config: AutoFeatConfig,
    control: Arc<RunControl>,
    base: String,
    target: String,
}

impl PreparedRequest<'_> {
    /// This request's own control: cancel it to interrupt just this
    /// request (clone the `Arc` into whatever thread should hold the
    /// trigger before calling [`run`](PreparedRequest::run)).
    pub fn control(&self) -> &Arc<RunControl> {
        &self.control
    }

    /// Run the request on the calling thread.
    pub fn run(self) -> Result<DiscoveryResult> {
        let tel = &*self.service.telemetry;
        let was = tel.in_flight.fetch_add(1, Ordering::Relaxed);
        tel.peak_in_flight.fetch_max(was + 1, Ordering::Relaxed);
        // The guard only tracks occupancy; outcome accounting happens on
        // the normal return path below (a panic escapes uncounted — the
        // caller is losing the thread anyway).
        struct InFlight<'s>(&'s AtomicU64);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _guard = InFlight(&tel.in_flight);
        let started = Instant::now();
        let result = AutoFeat::new(self.config).discover(&self.ctx);
        let duration = started.elapsed();
        let outcome = RequestOutcome::classify(&result);
        tel.record_request(&self.base, &self.target, duration, outcome, &result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofeat::TruncationReason;
    use autofeat_data::{Column, Table};

    /// base(k, target) — sat(k, f): one hop, enough for ranked output.
    fn service_ctx(n: i64) -> SearchContext {
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                (
                    "target",
                    Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let sat = Table::new(
            "sat",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                (
                    "f",
                    Column::from_floats(
                        (0..n).map(|i| Some(((i % 2) * 100 + i) as f64)).collect::<Vec<_>>(),
                    ),
                ),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, sat],
            &[("base".into(), "k".into(), "sat".into(), "k".into())],
            "base",
            "target",
        )
        .unwrap()
    }

    /// Same lake shape as [`service_ctx`], but discovery-built so the
    /// service can mutate it.
    fn mutable_ctx(n: i64) -> SearchContext {
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                (
                    "target",
                    Column::from_ints((0..n).map(|i| Some(i % 2)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let sat = Table::new(
            "sat",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                (
                    "f",
                    Column::from_floats(
                        (0..n).map(|i| Some(((i % 2) * 100 + i) as f64)).collect::<Vec<_>>(),
                    ),
                ),
            ],
        )
        .unwrap();
        SearchContext::from_discovery(
            vec![base, sat],
            &autofeat_graph::discovery::SchemaMatcher::paper_default(),
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn live_mutation_changes_later_requests_and_counts() {
        let n = 40i64;
        let service = DiscoveryService::new(mutable_ctx(n), AutoFeatConfig::default());
        let before = service.submit(&DiscoveryRequest::new()).unwrap();
        let extra = Table::new(
            "extra",
            vec![
                ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
                (
                    "g",
                    Column::from_floats((0..n).map(|i| Some(i as f64 * 3.0)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        service.add_table(extra).unwrap();
        let after = service.submit(&DiscoveryRequest::new()).unwrap();
        assert!(
            after.ranked.len() > before.ranked.len(),
            "the added joinable table yields new candidate paths ({} vs {})",
            after.ranked.len(),
            before.ranked.len()
        );
        service.remove_table("extra").unwrap();
        let reverted = service.submit(&DiscoveryRequest::new()).unwrap();
        assert_same_ranking(&before, &reverted);
        assert!(service.remove_table("base").is_err(), "base stays protected");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("autofeat_tables_added_total"), Some(1));
        assert_eq!(snap.counter("autofeat_tables_removed_total"), Some(1));
    }

    fn assert_same_ranking(a: &DiscoveryResult, b: &DiscoveryResult) {
        assert_eq!(a.ranked.len(), b.ranked.len());
        for (x, y) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "bit-identical scores");
            assert_eq!(x.features, y.features);
        }
        assert_eq!(a.selected_features, b.selected_features);
    }

    #[test]
    fn service_request_matches_one_shot_run() {
        let cfg = AutoFeatConfig::default();
        let solo = AutoFeat::new(cfg.clone()).discover(&service_ctx(40)).unwrap();
        let service = DiscoveryService::new(service_ctx(40), cfg);
        let via_service = service.submit(&DiscoveryRequest::new()).unwrap();
        assert_same_ranking(&solo, &via_service);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.histogram("autofeat_request_latency_seconds").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("autofeat_requests_ok_total"), Some(1));
        assert_eq!(snap.gauge("autofeat_in_flight"), Some(0.0));
        assert_eq!(snap.gauge("autofeat_peak_in_flight"), Some(1.0), "one request peaked at one");
    }

    #[test]
    fn unknown_base_or_target_is_rejected() {
        let service = DiscoveryService::new(service_ctx(20), AutoFeatConfig::default());
        assert!(service.submit(&DiscoveryRequest::new().with_base("ghost")).is_err());
        let ghost_target = DiscoveryRequest { target: Some("ghost".into()), ..DiscoveryRequest::new() };
        assert!(service.submit(&ghost_target).is_err());
        let snap = service.metrics_snapshot();
        let served = snap.histogram("autofeat_request_latency_seconds").map(|h| h.count);
        assert_eq!(served, Some(0), "rejected before running");
        assert_eq!(snap.counter("autofeat_requests_rejected_total"), Some(2));
        assert!(service.request_log().is_empty(), "rejections never reach the log");
    }

    #[test]
    fn shutdown_truncates_new_requests_but_stays_ok() {
        let service = DiscoveryService::new(service_ctx(30), AutoFeatConfig::default());
        service.shutdown();
        let r = service.submit(&DiscoveryRequest::new()).unwrap();
        assert_eq!(r.truncation, Some(TruncationReason::Cancelled), "anytime semantics");
        let cancelled = service.metrics_snapshot().counter("autofeat_requests_cancelled_total");
        assert_eq!(cancelled, Some(1));
    }

    #[test]
    fn request_deadline_does_not_leak_to_siblings() {
        let service = DiscoveryService::new(service_ctx(40), AutoFeatConfig::default());
        let starved = service
            .submit(&DiscoveryRequest::new().with_config(
                AutoFeatConfig::default().with_time_budget(Duration::ZERO),
            ))
            .unwrap();
        assert!(
            matches!(starved.truncation, Some(TruncationReason::DeadlineExceeded { .. })),
            "zero budget truncates: {:?}",
            starved.truncation
        );
        let healthy = service.submit(&DiscoveryRequest::new()).unwrap();
        assert_eq!(healthy.truncation, None, "sibling unaffected by expired deadline");
        assert!(!healthy.ranked.is_empty());
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("autofeat_requests_truncated_total"), Some(1));
        assert_eq!(snap.counter("autofeat_requests_ok_total"), Some(1));
        assert_eq!(snap.histogram("autofeat_request_latency_seconds").map(|h| h.count), Some(2));
    }

    #[test]
    fn cancelling_one_prepared_request_spares_the_rest() {
        let service = DiscoveryService::new(service_ctx(40), AutoFeatConfig::default());
        let prepared = service.prepare(&DiscoveryRequest::new()).unwrap();
        prepared.control().cancel();
        let cancelled = prepared.run().unwrap();
        assert_eq!(cancelled.truncation, Some(TruncationReason::Cancelled));
        let healthy = service.submit(&DiscoveryRequest::new()).unwrap();
        assert_eq!(healthy.truncation, None);
        assert!(!service.context().control().is_cancelled());
    }

    #[test]
    fn per_request_config_overrides_base_config() {
        let wide = AutoFeatConfig { top_k: 5, ..AutoFeatConfig::default() };
        let narrow_cfg = AutoFeatConfig { top_k: 1, ..AutoFeatConfig::default() };
        let service = DiscoveryService::new(service_ctx(40), wide);
        let narrow =
            service.submit(&DiscoveryRequest::new().with_config(narrow_cfg)).unwrap();
        assert!(narrow.ranked.len() <= 1, "request config wins");
    }

    #[test]
    fn request_log_records_completions_in_order() {
        let service = DiscoveryService::new(service_ctx(40), AutoFeatConfig::default());
        service.submit(&DiscoveryRequest::new()).unwrap();
        service
            .submit(&DiscoveryRequest::new().with_config(
                AutoFeatConfig::default().with_time_budget(Duration::ZERO),
            ))
            .unwrap();
        let log = service.request_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, 1);
        assert_eq!(log[0].outcome, RequestOutcome::Ok);
        assert_eq!(log[0].base, "base");
        assert_eq!(log[0].target, "target");
        assert!(log[0].error.is_none());
        assert_eq!(log[1].id, 2);
        assert_eq!(log[1].outcome, RequestOutcome::Truncated);
        assert!(log[1].finished_at >= log[0].finished_at, "completion order");
        let dropped = service.metrics_snapshot().counter("autofeat_request_log_dropped_total");
        assert_eq!(dropped, Some(0));
        assert!(log[0].render_line().contains("req 1 base→target ok"));
    }

    #[test]
    fn metrics_snapshot_exports_latency_outcomes_and_cache() {
        let service = DiscoveryService::new(service_ctx(40), AutoFeatConfig::default());
        for _ in 0..3 {
            service.submit(&DiscoveryRequest::new()).unwrap();
        }
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("autofeat_requests_ok_total"), Some(3));
        let latency = snap.histogram("autofeat_request_latency_seconds").unwrap();
        assert_eq!(latency.count, 3, "one latency observation per completion");
        assert!(latency.quantile(0.99) > 0.0);
        assert!(snap.gauge("autofeat_cache_resident_bytes").is_some());
        assert!(snap.gauge("autofeat_uptime_seconds").unwrap() >= 0.0);
        let text = service.metrics_text();
        assert!(text.contains("autofeat_request_latency_seconds_p50"));
        assert!(text.contains("autofeat_requests_ok_total 3"));
        let json = render_json(&snap);
        assert!(json.contains("\"schema_version\""));
    }
}
