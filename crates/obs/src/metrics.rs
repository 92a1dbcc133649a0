//! Always-on service metrics: a lock-cheap registry of atomic counters,
//! gauges, and fixed-bucket histograms with streaming quantile reads.
//!
//! This is the *service-lifetime* half of the crate, deliberately distinct
//! from the per-run [`Tracer`](crate::Tracer):
//!
//! | | [`Tracer`] | [`MetricsRegistry`] |
//! |---|---|---|
//! | lifetime | one discovery run | the process |
//! | reset | fresh per run | never |
//! | sharing | ambient thread-local scope | `Arc`-shared handles |
//! | output | post-hoc [`RunTrace`](crate::RunTrace) artifact | live [`MetricsSnapshot`] scrapes |
//!
//! A `RunTrace` answers "what did *that request* do"; the registry answers
//! "what is *this deployment* doing right now" — latency quantiles,
//! outcome rates, cache pressure — the numbers an operator watches on a
//! resident service. Both keep durations in one type: a trace's
//! distributions are [`Histogram`]s too. Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cloned `Arc`s around atomics: updates are single
//! atomic read-modify-writes, with no lock on any hot path. The registry's
//! only lock guards the name → handle map, taken at registration and
//! snapshot time.
//!
//! Nothing here feeds back into discovery decisions: a served request is
//! bit-identical to the same one-shot run (the equivalence sweep in
//! `tests/equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂-spaced histogram buckets: bucket `i` has upper bound
/// `1µs × 2^i`, spanning 1µs … ~134s. See
/// `dist_bucket_bounds_secs`.
pub const N_HIST_BUCKETS: usize = 28;

/// The bucket an observation of `secs` lands in.
fn bucket_index(secs: f64) -> usize {
    if secs.is_nan() || secs <= 1e-6 {
        return 0; // ≤ 1µs, NaN, and negative all land in bucket 0
    }
    let idx = (secs / 1e-6).log2().ceil() as usize;
    idx.min(N_HIST_BUCKETS - 1)
}

/// Upper bound (seconds) of histogram bucket `i`.
pub(crate) fn bucket_le_secs(i: usize) -> f64 {
    1e-6 * (1u64 << i.min(63)) as f64
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic; a detached (unregistered) counter still counts, it just never
/// appears in a snapshot.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Mirror an externally maintained monotonic total into this counter
    /// (used to re-export totals owned by another subsystem, e.g. the lake
    /// cache's hit count, at scrape time). Monotonic: the stored value
    /// never decreases even if `total` regresses.
    pub fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down, stored as an `f64`.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; N_HIST_BUCKETS],
    sum_nanos: AtomicU64,
    /// `u64::MAX` until the first observation.
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log₂ histogram of durations in seconds, supporting
/// lock-free concurrent observation and streaming quantile reads. Sum, min
/// and max are kept in whole nanoseconds; a NaN or negative observation
/// counts as 0.
///
/// The observation count is *derived* (the sum over buckets), never stored
/// separately — so a concurrent snapshot can never see a count that
/// disagrees with its own bucket totals.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation, in seconds.
    pub(crate) fn observe_secs(&self, secs: f64) {
        self.0.buckets[bucket_index(secs)].fetch_add(1, Ordering::Relaxed);
        let nanos = if secs.is_finite() && secs > 0.0 { (secs * 1e9) as u64 } else { 0 };
        self.0.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.0.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.0.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] observation.
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    /// A tear-free point-in-time copy. Buckets are read in one pass and the
    /// count is their sum, so `count == Σ buckets` holds in every snapshot
    /// taken during concurrent load. Sum, min and max are read separately
    /// and may trail the buckets by in-flight observations.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        let secs = |nanos: &AtomicU64| match nanos.load(Ordering::Relaxed) {
            u64::MAX => 0.0, // the minimum before any observation
            n => n as f64 / 1e9,
        };
        HistogramSnapshot {
            count,
            sum_secs: secs(&self.0.sum_nanos),
            min_secs: secs(&self.0.min_nanos),
            max_secs: secs(&self.0.max_nanos),
            buckets,
        }
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations (always equals the sum over `buckets`).
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub sum_secs: f64,
    /// Smallest observation, in seconds (0 when empty).
    pub min_secs: f64,
    /// Largest observation, in seconds (0 when empty).
    pub max_secs: f64,
    /// Per-bucket (non-cumulative) observation counts; bucket `i`'s upper
    /// bound is `dist_bucket_bounds_secs()[i]`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in seconds (0 when empty).
    pub(crate) fn mean_secs(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum_secs / self.count as f64 }
    }

    /// Streaming quantile estimate (`q` in `[0, 1]`): find the bucket where
    /// the cumulative count crosses `q × total` and interpolate linearly
    /// within it. Resolution is bounded by the log₂ grid (a factor-of-two
    /// band), which is exactly what a latency dashboard needs. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let bounds = crate::dist_bucket_bounds_secs();
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev_cum = cum;
            cum += c;
            if (cum as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let upper = bounds[i];
                let frac = (rank - prev_cum as f64) / c as f64;
                return lower + (upper - lower) * frac.clamp(0.0, 1.0);
            }
        }
        bounds[N_HIST_BUCKETS - 1]
    }
}

/// What one registered metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down `f64` gauge.
    Gauge,
    /// Fixed-bucket duration histogram.
    Histogram,
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_) => MetricKind::Counter,
            Instrument::Gauge(_) => MetricKind::Gauge,
            Instrument::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A process-lifetime registry of named metrics.
///
/// Registration is idempotent: asking for an existing name (with the same
/// kind) returns a clone of the existing handle, so independent subsystems
/// can share an instrument by name. A kind clash returns a *detached*
/// handle — it works, it is just never exported — rather than panicking,
/// keeping the fail-soft discipline (telemetry must never take down the
/// service it observes).
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("metrics", &n).finish()
    }
}

impl MetricsRegistry {
    /// An empty registry, ready to share behind an `Arc`.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::default())
    }

    fn register(&self, name: &str, help: &str, make: Instrument) -> Instrument {
        let Ok(mut entries) = self.entries.lock() else {
            return make; // poisoned registry: hand out a detached handle
        };
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            if e.instrument.kind() == make.kind() {
                return e.instrument.clone();
            }
            return make; // kind clash: detached, never exported
        }
        entries.push(Entry { name: name.to_string(), help: help.to_string(), instrument: make.clone() });
        make
    }

    /// Get or register the named counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// Get or register the named gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// Get or register the named histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            _ => Histogram::default(),
        }
    }

    /// A consistent point-in-time read of every registered metric, sorted
    /// by name. Lock-cheap: the registry lock is held only to clone the
    /// handle list; the values themselves are atomic loads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let handles: Vec<(String, String, Instrument)> = self
            .entries
            .lock()
            .map(|e| {
                e.iter()
                    .map(|e| (e.name.clone(), e.help.clone(), e.instrument.clone()))
                    .collect()
            })
            .unwrap_or_default();
        let mut metrics: Vec<MetricValue> = handles
            .into_iter()
            .map(|(name, help, instrument)| {
                let value = match instrument {
                    Instrument::Counter(c) => MetricData::Counter(c.get()),
                    Instrument::Gauge(g) => MetricData::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricData::Histogram(h.snapshot()),
                };
                MetricValue { name, help, value }
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { metrics }
    }
}

/// One metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Registered metric name (e.g. `autofeat_requests_ok_total`).
    pub name: String,
    /// One-line human description, rendered as `# HELP`.
    pub help: String,
    /// The value, by kind.
    pub value: MetricData,
}

/// A snapshot value, by metric kind.
#[derive(Debug, Clone)]
pub enum MetricData {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram copy.
    Histogram(HistogramSnapshot),
}

/// Everything a [`MetricsRegistry`] knew at one instant, sorted by metric
/// name. Render with [`expose::render_prometheus`](crate::expose::render_prometheus)
/// or [`expose::render_json`](crate::expose::render_json).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All metrics, ascending by name.
    pub metrics: Vec<MetricValue>,
}

impl MetricsSnapshot {
    /// The named metric, if registered.
    pub(crate) fn get(&self, name: &str) -> Option<&MetricData> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].value)
    }

    /// Counter total by name (`None` when absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricData::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricData::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name (`None` when absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricData::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("req_total", "requests");
        let b = reg.counter("req_total", "requests");
        a.incr();
        b.add(4);
        a.add(0); // no-op
        assert_eq!(a.get(), 5, "same name = same atomic");
        assert_eq!(reg.snapshot().counter("req_total"), Some(5));
    }

    #[test]
    fn record_total_is_monotonic() {
        let c = Counter::default();
        c.record_total(10);
        c.record_total(7); // regression ignored
        assert_eq!(c.get(), 10);
        c.record_total(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauges_go_up_and_down() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("in_flight", "concurrent requests");
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
        g.set(0.5);
        assert_eq!(reg.snapshot().gauge("in_flight"), Some(0.5));
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x", "");
        c.add(2);
        let g = reg.gauge("x", ""); // clash: detached
        g.set(99.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(2), "registered counter untouched");
        assert_eq!(snap.metrics.len(), 1, "clashing gauge never exported");
    }

    #[test]
    fn histogram_count_always_equals_bucket_sum() {
        let h = Histogram::default();
        for i in 0..100 {
            h.observe_secs(1e-6 * (i as f64 + 1.0) * 37.0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert!(s.sum_secs > 0.0);
        assert!(s.mean_secs() > 0.0);
    }

    #[test]
    fn histogram_min_and_max_over_zero_one_and_many_observations() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.min_secs, s.max_secs), (0, 0.0, 0.0), "empty");
        h.observe_secs(0.25);
        let s = h.snapshot();
        assert_eq!((s.count, s.min_secs, s.max_secs), (1, 0.25, 0.25), "one");
        for secs in [0.5, 0.000_002, 3.0, 0.1] {
            h.observe_secs(secs);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.min_secs, s.max_secs), (5, 0.000_002, 3.0), "many");
        h.observe_secs(-1.0);
        assert_eq!(h.snapshot().min_secs, 0.0, "a negative observation counts as 0");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::default();
        // 90 fast observations (~1ms) and 10 slow ones (~1s).
        for _ in 0..90 {
            h.observe_secs(0.001);
        }
        for _ in 0..10 {
            h.observe_secs(1.0);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
        assert!((0.0005..=0.002).contains(&p50), "p50 in the fast band: {p50}");
        assert!((0.5..=2.0).contains(&p99), "p99 in the slow band: {p99}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles are ordered");
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0.0, "empty = 0");
    }

    #[test]
    fn histogram_extremes_land_in_edge_buckets() {
        let h = Histogram::default();
        h.observe_secs(0.0); // bucket 0
        h.observe_secs(f64::NAN); // bucket 0, no sum contribution
        h.observe_secs(1e9); // clamped to the last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[N_HIST_BUCKETS - 1], 1);
        assert!(s.quantile(1.0) <= crate::dist_bucket_bounds_secs()[N_HIST_BUCKETS - 1]);
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let reg = MetricsRegistry::new();
        reg.counter("zzz", "").incr();
        reg.gauge("aaa", "").set(1.0);
        reg.histogram("mmm", "").observe_secs(0.01);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["aaa", "mmm", "zzz"]);
        assert!(snap.histogram("mmm").is_some());
        assert!(snap.get("nope").is_none());
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits", "");
        let h = reg.histogram("lat", "");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                        h.observe_secs(0.001);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }
}
