//! # autofeat-obs
//!
//! Zero-dependency structured tracing for the AutoFeat pipeline: per-phase
//! RAII span timers, typed pipeline counters, bounded event logs, and
//! value distributions, aggregated into a deterministic [`RunTrace`].
//!
//! ## Design
//!
//! * **No-op when disabled.** A [`Tracer`] is an `Option<Arc<…>>`; the
//!   disabled handle records nothing, and every ambient helper
//!   ([`span`], [`add`], [`event`], …) bails out after one thread-local
//!   check. Instrumented library code pays a few nanoseconds per call site
//!   when no tracer is installed.
//! * **Ambient, not threaded-through.** Rather than plumbing a handle
//!   through every signature in every crate, the active tracer lives in a
//!   thread-local *scope* together with the current span path. Fan-out
//!   points capture the scope with [`ambient_scope`] and re-install it in
//!   worker threads via [`TraceScope::enter`], so worker-side spans nest
//!   under the phase that spawned them.
//! * **Deterministic output.** Span paths, counters, and distributions are
//!   emitted in lexicographic order; events are only recorded from
//!   sequential pipeline sections. Wall-time *values* naturally vary run to
//!   run, but the *shape* of a [`RunTrace`] — which phases, which counters,
//!   which events, and every counter total — is invariant across worker
//!   thread counts (asserted by the integration tests).
//! * **Max-across-threads phase timing.** Spans are accumulated per
//!   `(path, thread)`. A phase's `wall` is the **maximum** per-thread sum —
//!   the critical-path estimate for a fan-out phase — while `cpu` is the
//!   sum across threads. `self` subtracts from a parent's wall what its
//!   children took on the thread they kept busiest, so self times
//!   telescope: they sum to (approximately) the root phase's wall clock,
//!   plus what sibling phases overlapped on different threads.
//!
//! The crate's other half is service-lifetime metrics: the latency
//! [`Histogram`], the [`MetricsSnapshot`] a scrape returns, its two
//! renderers ([`render_prometheus`], [`render_json`]) and the
//! [`StatsListener`] that serves them. There is no registry: the owner of
//! the counted state builds each snapshot from it at scrape time.
//!
//! Tracing must never perturb results: nothing in this crate feeds back
//! into discovery decisions, and the instrumented pipeline is asserted
//! bit-identical traced vs untraced.

mod expose;
mod metrics;
mod tracer;
mod trace;

pub use expose::{
    render_json, render_prometheus, StatsListener, StatsSource, METRICS_SCHEMA_VERSION,
};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricData, MetricValue, MetricsSnapshot, N_HIST_BUCKETS,
};
pub use trace::{PhaseNode, RunTrace, TraceEvent, TRACE_SCHEMA_VERSION};
pub use tracer::{ScopeGuard, Span, TraceScope, Tracer};

/// Upper bounds (seconds) of the log₂ [`Histogram`] grid, which tracer
/// distributions and service latency alike use: bucket `i` covers
/// observations ≤ `1µs × 2^i`, spanning 1µs … ~134s over
/// [`N_HIST_BUCKETS`] buckets. The last bucket additionally absorbs
/// anything larger (it renders as `+Inf` in Prometheus exposition).
pub(crate) fn dist_bucket_bounds_secs() -> Vec<f64> {
    (0..N_HIST_BUCKETS).map(metrics::bucket_le_secs).collect()
}

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonically increasing key identifying the recording thread, used to
/// bucket span accumulation per thread (max-across-threads aggregation).
static NEXT_THREAD_KEY: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_KEY: u64 = NEXT_THREAD_KEY.fetch_add(1, Ordering::Relaxed);
    static AMBIENT: RefCell<Ambient> = const {
        RefCell::new(Ambient { tracer: Tracer { inner: None }, prefix: String::new() })
    };
    /// Path of the last span a panic closed on this thread; see
    /// [`take_unwound_span_path`].
    static UNWOUND: RefCell<String> = const { RefCell::new(String::new()) };
}

pub(crate) fn thread_key() -> u64 {
    THREAD_KEY.with(|k| *k)
}

/// The per-thread tracing state: the installed tracer and the dotted path
/// of the currently open span stack (empty = at the root).
pub(crate) struct Ambient {
    pub(crate) tracer: Tracer,
    pub(crate) prefix: String,
}

/// Install `tracer` as this thread's ambient tracer for the duration of
/// `f`, resetting the span path to the root. The previous ambient state is
/// restored afterwards (also on panic).
pub fn with_tracer<R>(tracer: &Tracer, f: impl FnOnce() -> R) -> R {
    let prev = AMBIENT.with(|a| {
        std::mem::replace(
            &mut *a.borrow_mut(),
            Ambient { tracer: tracer.clone(), prefix: String::new() },
        )
    });
    let _restore = RestoreAmbient(Some(prev));
    f()
}

struct RestoreAmbient(Option<Ambient>);

impl Drop for RestoreAmbient {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            AMBIENT.with(|a| *a.borrow_mut() = prev);
        }
    }
}

/// Capture this thread's tracer and span path for re-installation in a
/// worker thread (see [`TraceScope::enter`]). Cheap to clone and inert when
/// no tracer is installed.
pub fn ambient_scope() -> TraceScope {
    AMBIENT.with(|a| {
        let amb = a.borrow();
        TraceScope::new(amb.tracer.clone(), amb.prefix.as_str())
    })
}

/// The dotted span path currently open on this thread (`""` at the root,
/// or when no tracer is installed). Used to label diagnostics — e.g. a
/// worker-panic report — with the pipeline phase they occurred in.
pub fn current_span_path() -> String {
    AMBIENT.with(|a| a.borrow().prefix.clone())
}

/// The path of the outermost span a panic has unwound through on this
/// thread since the last call (`""` if none has): by the time a
/// `catch_unwind` returns, [`current_span_path`] is back at the catcher's
/// own phase, and this is the phase the panic came from. Call it before
/// the guarded code too, so what it returns afterwards is that code's.
pub fn take_unwound_span_path() -> String {
    UNWOUND.with(|u| std::mem::take(&mut *u.borrow_mut()))
}

/// Open a span named `name` under the current span path on the ambient
/// tracer. Returns an RAII guard that records the elapsed wall time on
/// drop; a no-op guard when no tracer is installed.
///
/// Spans must be dropped in LIFO order on the thread that opened them
/// (the natural behaviour of a `let _guard = obs::span("…");` binding).
pub fn span(name: &'static str) -> Span {
    AMBIENT.with(|a| {
        let mut amb = a.borrow_mut();
        let Some(inner) = amb.tracer.inner.clone() else {
            return Span::noop();
        };
        let prev_len = amb.prefix.len();
        if prev_len > 0 {
            amb.prefix.push('.');
        }
        amb.prefix.push_str(name);
        Span::live(inner, amb.prefix.clone(), prev_len, Instant::now())
    })
}

/// Add `n` to the named counter on the ambient tracer (no-op when
/// disabled). Counter names are flat, dot-namespaced by pipeline stage
/// (`"cache.hits"`, `"discover.joins_evaluated"`), independent of the span
/// path.
pub fn add(name: &'static str, n: u64) {
    if n == 0 {
        return;
    }
    AMBIENT.with(|a| {
        if let Some(inner) = a.borrow().tracer.inner.as_ref() {
            inner.add_counter(name, n);
        }
    });
}

/// [`add`]`(name, 1)`.
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// Record one observation (in seconds) into the named distribution, a
/// [`Histogram`] — e.g. the per-entry index build-time histogram.
pub fn record_secs(name: &'static str, secs: f64) {
    AMBIENT.with(|a| {
        if let Some(inner) = a.borrow().tracer.inner.as_ref() {
            inner.record_dist(name, secs);
        }
    });
}

/// Append an event to the bounded event log. `detail` is lazy so callers
/// pay no formatting cost when tracing is disabled or the log is full.
///
/// Events should only be emitted from sequential pipeline sections (e.g.
/// `discover`'s merge phase), so the log order is deterministic.
pub fn event(kind: &'static str, detail: impl FnOnce() -> String) {
    AMBIENT.with(|a| {
        if let Some(inner) = a.borrow().tracer.inner.as_ref() {
            inner.push_event(kind, detail);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer currently installed on this thread (disabled when none).
    fn current() -> Tracer {
        AMBIENT.with(|a| a.borrow().tracer.clone())
    }

    #[test]
    fn disabled_ambient_is_inert() {
        assert!(!current().is_enabled());
        let _s = span("phase");
        add("c", 3);
        incr("c");
        record_secs("d", 0.5);
        event("e", || unreachable!("detail must not be formatted when disabled"));
        let t = current().snapshot();
        assert!(t.phases.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn spans_nest_by_scope_and_counters_accumulate() {
        let tracer = Tracer::enabled();
        with_tracer(&tracer, || {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                incr("n.iterations");
            }
            add("n.items", 10);
        });
        let t = tracer.snapshot();
        assert_eq!(t.counter("n.iterations"), Some(3));
        assert_eq!(t.counter("n.items"), Some(10));
        let root = t.phase("root").expect("root phase recorded");
        assert_eq!(root.count, 1);
        assert_eq!(root.children.len(), 1);
        let child = t.phase("root.child").expect("nested path");
        assert_eq!(child.count, 3);
        assert!(root.wall >= child.wall, "parent wall covers child wall");
    }

    #[test]
    fn scope_propagates_into_worker_threads() {
        let tracer = Tracer::enabled();
        with_tracer(&tracer, || {
            let _fanout = span("fanout");
            let scope = ambient_scope();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let scope = scope.clone();
                    s.spawn(move || {
                        let _g = scope.enter();
                        let _w = span("work");
                        incr("worker.items");
                    });
                }
            });
        });
        let t = tracer.snapshot();
        assert_eq!(t.counter("worker.items"), Some(2));
        let work = t.phase("fanout.work").expect("worker span nests under fanout");
        assert_eq!(work.count, 2);
        // cpu sums across threads; wall takes the per-thread max.
        assert!(work.cpu >= work.wall);
    }

    #[test]
    fn with_tracer_restores_previous_ambient() {
        let outer = Tracer::enabled();
        let inner = Tracer::enabled();
        with_tracer(&outer, || {
            incr("outer.before");
            with_tracer(&inner, || incr("inner.only"));
            incr("outer.after");
        });
        assert_eq!(outer.snapshot().counter("inner.only"), None);
        assert_eq!(outer.snapshot().counter("outer.after"), Some(1));
        assert_eq!(inner.snapshot().counter("inner.only"), Some(1));
    }

    #[test]
    fn event_log_is_bounded_with_drop_count() {
        let tracer = Tracer::enabled();
        with_tracer(&tracer, || {
            for i in 0..500 {
                event("tick", || format!("event {i}"));
            }
        });
        let t = tracer.snapshot();
        assert_eq!(t.events.len(), 256);
        assert_eq!(t.events_dropped, 244);
        assert_eq!(t.events[0].detail, "event 0");
    }

    #[test]
    fn distributions_summarize() {
        let tracer = Tracer::enabled();
        with_tracer(&tracer, || {
            record_secs("build", 0.001);
            record_secs("build", 0.004);
            record_secs("build", 0.000_000_5);
        });
        let t = tracer.snapshot();
        let (_, d) = t
            .dists
            .iter()
            .find(|(n, _)| n == "build")
            .expect("distribution present");
        assert_eq!(d.count, 3);
        assert!((d.sum_secs - 0.0050005).abs() < 1e-9);
        assert!(d.min_secs <= 0.000_001);
        assert!((d.max_secs - 0.004).abs() < 1e-12);
        let total: u64 = d.buckets.iter().sum();
        assert_eq!(total, 3, "every observation lands in a bucket");
    }
}
