//! Always-on service metrics: the fixed-bucket [`Histogram`] with
//! streaming quantile reads, and the [`MetricsSnapshot`] a scrape returns.
//!
//! This is the *service-lifetime* half of the crate, deliberately distinct
//! from the per-run [`Tracer`](crate::Tracer):
//!
//! | | [`Tracer`] | [`MetricsSnapshot`] |
//! |---|---|---|
//! | lifetime | one discovery run | the process |
//! | reset | fresh per run | never |
//! | sharing | ambient thread-local scope | read off its owner's atomics |
//! | output | post-hoc [`RunTrace`](crate::RunTrace) artifact | live scrapes |
//!
//! A `RunTrace` answers "what did *that request* do"; a snapshot answers
//! "what is *this deployment* doing right now" — latency quantiles,
//! outcome rates, cache pressure — the numbers an operator watches on a
//! resident service. There is no registry: the owner of the state (the
//! discovery service) keeps plain atomics and a latency [`Histogram`], and
//! builds each snapshot from them and from what the cache, lake and pool
//! report at that instant. Both halves keep durations in one type: a
//! trace's distributions are [`Histogram`]s too. Updates are single atomic
//! read-modify-writes, with no lock on any hot path.
//!
//! Nothing here feeds back into discovery decisions: a served request is
//! bit-identical to the same one-shot run (the equivalence sweep in
//! `tests/equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

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

/// A fixed-bucket log₂ histogram of durations in seconds, supporting
/// lock-free concurrent observation and streaming quantile reads. Sum, min
/// and max are kept in whole nanoseconds; a NaN or negative observation
/// counts as 0.
///
/// The observation count is *derived* (the sum over buckets), never stored
/// separately — so a concurrent snapshot can never see a count that
/// disagrees with its own bucket totals.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_HIST_BUCKETS],
    sum_nanos: AtomicU64,
    /// `u64::MAX` until the first observation.
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation, in seconds.
    pub(crate) fn observe_secs(&self, secs: f64) {
        self.buckets[bucket_index(secs)].fetch_add(1, Ordering::Relaxed);
        let nanos = if secs.is_finite() && secs > 0.0 { (secs * 1e9) as u64 } else { 0 };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] observation.
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    /// A tear-free point-in-time copy. Buckets are read in one pass and the
    /// count is their sum, so `count == Σ buckets` holds in every snapshot
    /// taken during concurrent load. Sum, min and max are read separately
    /// and may trail the buckets by in-flight observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        let secs = |nanos: &AtomicU64| match nanos.load(Ordering::Relaxed) {
            u64::MAX => 0.0, // the minimum before any observation
            n => n as f64 / 1e9,
        };
        HistogramSnapshot {
            count,
            sum_secs: secs(&self.sum_nanos),
            min_secs: secs(&self.min_nanos),
            max_secs: secs(&self.max_nanos),
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

/// One metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Metric name (e.g. `autofeat_requests_ok_total`).
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

/// Every metric of a service at one instant, sorted by name (lookups
/// binary-search it, so names are unique too). Render with [`expose::render_prometheus`](crate::expose::render_prometheus)
/// or [`expose::render_json`](crate::expose::render_json).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All metrics, ascending by name.
    pub metrics: Vec<MetricValue>,
}

impl MetricsSnapshot {
    /// The named metric, if present.
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
    fn lookup_finds_a_metric_by_name_and_kind() {
        let h = Histogram::default();
        h.observe_secs(0.01);
        let metric = |name: &str, value| MetricValue { name: name.into(), help: String::new(), value };
        let snap = MetricsSnapshot {
            metrics: vec![
                metric("aaa", MetricData::Gauge(1.0)),
                metric("mmm", MetricData::Histogram(h.snapshot())),
                metric("zzz", MetricData::Counter(1)),
            ],
        };
        assert_eq!(snap.gauge("aaa"), Some(1.0));
        assert_eq!(snap.histogram("mmm").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("zzz"), Some(1));
        assert_eq!(snap.counter("aaa"), None, "a gauge is not a counter");
        assert!(snap.get("nope").is_none());
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        h.observe_secs(0.001);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 8000);
    }
}
