//! The recording half of the crate: [`Tracer`] handles, RAII [`Span`]s,
//! and the cross-thread [`TraceScope`].

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::trace::{PhaseNode, RunTrace, TraceEvent};
use crate::{thread_key, AMBIENT, Ambient, UNWOUND};

/// Maximum number of events retained per trace; later events are counted
/// in [`RunTrace::events_dropped`] instead of stored.
pub(crate) const EVENT_CAP: usize = 256;

#[derive(Default)]
struct SpanAcc {
    count: u64,
    nanos: u64,
}

#[derive(Default)]
struct EventBuf {
    entries: Vec<TraceEvent>,
    dropped: u64,
}

pub(crate) struct Inner {
    started: Instant,
    // Keyed by (span path, thread key): per-thread accumulation feeds the
    // max-across-threads wall-time aggregation in `snapshot`.
    spans: Mutex<HashMap<(String, u64), SpanAcc>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    dists: Mutex<BTreeMap<&'static str, Histogram>>,
    events: Mutex<EventBuf>,
}

impl Inner {
    pub(crate) fn add_counter(&self, name: &'static str, n: u64) {
        if let Ok(mut c) = self.counters.lock() {
            *c.entry(name).or_insert(0) += n;
        }
    }

    pub(crate) fn record_dist(&self, name: &'static str, secs: f64) {
        if let Ok(mut d) = self.dists.lock() {
            d.entry(name).or_default().observe_secs(secs);
        }
    }

    pub(crate) fn push_event(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        if let Ok(mut e) = self.events.lock() {
            if e.entries.len() < EVENT_CAP {
                e.entries.push(TraceEvent { kind: kind.to_string(), detail: detail() });
            } else {
                e.dropped += 1;
            }
        }
    }

    fn record_span(&self, path: String, thread: u64, elapsed: Duration) {
        if let Ok(mut s) = self.spans.lock() {
            let acc = s.entry((path, thread)).or_default();
            acc.count += 1;
            acc.nanos += elapsed.as_nanos() as u64;
        }
    }

    fn snapshot(&self) -> RunTrace {
        let wall = self.started.elapsed();

        // Aggregate spans per path: count and cpu sum across threads, wall
        // as the max per-thread sum (critical-path estimate for fan-outs).
        // `in_children` is what a path's direct children took on the
        // thread they kept busiest: siblings that ran side by side on
        // different threads overlap inside the parent's wall, siblings on
        // one thread do not.
        #[derive(Default)]
        struct Agg {
            count: u64,
            cpu: u64,
            wall: u64,
            in_children: u64,
        }
        let mut by_path: BTreeMap<String, Agg> = BTreeMap::new();
        if let Ok(spans) = self.spans.lock() {
            let mut children_on: HashMap<(&str, u64), u64> = HashMap::new();
            for ((path, thread), acc) in spans.iter() {
                let agg = by_path.entry(path.clone()).or_default();
                agg.count += acc.count;
                agg.cpu += acc.nanos;
                agg.wall = agg.wall.max(acc.nanos);
                if let Some(dot) = path.rfind('.') {
                    *children_on.entry((&path[..dot], *thread)).or_default() += acc.nanos;
                }
            }
            for ((parent, _thread), nanos) in children_on {
                let agg = by_path.entry(parent.to_string()).or_default();
                agg.in_children = agg.in_children.max(nanos);
            }
        }
        // A worker-recorded path can exist without its parent having been
        // recorded yet (or at all, if the parent span outlives the
        // snapshot); synthesize zero-cost ancestors so the tree is closed.
        let paths: Vec<String> = by_path.keys().cloned().collect();
        for p in paths {
            let mut q = p.as_str();
            while let Some(i) = q.rfind('.') {
                q = &q[..i];
                by_path.entry(q.to_string()).or_default();
            }
        }

        // Lexicographic order lists every parent immediately before its
        // subtree, so one pass with a stack builds the forest.
        let mut roots: Vec<PhaseNode> = Vec::new();
        let mut stack: Vec<PhaseNode> = Vec::new();
        let attach = |stack: &mut Vec<PhaseNode>, roots: &mut Vec<PhaseNode>| {
            if let Some(done) = stack.pop() {
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => roots.push(done),
                }
            }
        };
        for (path, agg) in by_path {
            while let Some(top) = stack.last() {
                let is_child = path.len() > top.path.len()
                    && path.starts_with(top.path.as_str())
                    && path.as_bytes()[top.path.len()] == b'.';
                if is_child {
                    break;
                }
                attach(&mut stack, &mut roots);
            }
            let name = path.rsplit('.').next().unwrap_or(path.as_str()).to_string();
            let wall = Duration::from_nanos(agg.wall);
            stack.push(PhaseNode {
                name,
                path,
                count: agg.count,
                wall,
                cpu: Duration::from_nanos(agg.cpu),
                self_time: wall.saturating_sub(Duration::from_nanos(agg.in_children)),
                children: Vec::new(),
            });
        }
        while !stack.is_empty() {
            attach(&mut stack, &mut roots);
        }

        let counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .map(|c| c.iter().map(|(&k, &v)| (k.to_string(), v)).collect())
            .unwrap_or_default();
        let dists: Vec<(String, HistogramSnapshot)> = self
            .dists
            .lock()
            .map(|d| d.iter().map(|(&k, h)| (k.to_string(), h.snapshot())).collect())
            .unwrap_or_default();
        let (events, events_dropped) = self
            .events
            .lock()
            .map(|e| (e.entries.clone(), e.dropped))
            .unwrap_or_default();

        RunTrace { wall, phases: roots, counters, dists, events, events_dropped }
    }
}

/// A handle to one run's trace collector.
///
/// Cloning is an `Arc` bump; all clones feed the same collector. The
/// [disabled](Tracer::disabled) handle records nothing and makes every
/// instrumentation call site a near-free early return. Install a tracer on
/// the current thread with [`with_tracer`](crate::with_tracer); the
/// instrumented pipeline picks it up ambiently.
#[derive(Clone, Default)]
pub struct Tracer {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl Tracer {
    /// A recording tracer; the trace's wall clock starts now.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                spans: Mutex::new(HashMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                dists: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventBuf::default()),
            })),
        }
    }

    /// The inert tracer: records nothing, snapshots empty.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this handle records.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Aggregate everything recorded so far into a [`RunTrace`]
    /// (deterministically ordered). Empty for a disabled tracer.
    pub fn snapshot(&self) -> RunTrace {
        match &self.inner {
            Some(inner) => inner.snapshot(),
            None => RunTrace::default(),
        }
    }
}

/// A captured `(tracer, span path)` pair, for carrying the ambient tracing
/// context across a thread boundary — see
/// [`ambient_scope`](crate::ambient_scope).
#[derive(Clone)]
pub struct TraceScope {
    tracer: Tracer,
    prefix: Arc<str>,
}

impl TraceScope {
    pub(crate) fn new(tracer: Tracer, prefix: &str) -> TraceScope {
        TraceScope { tracer, prefix: Arc::from(prefix) }
    }

    /// Install the captured context on the current thread, returning a
    /// guard that restores the previous context on drop. Inert (and
    /// allocation-free) when the captured tracer is disabled.
    pub fn enter(&self) -> ScopeGuard {
        if self.tracer.inner.is_none() {
            return ScopeGuard(None);
        }
        let prev = AMBIENT.with(|a| {
            std::mem::replace(
                &mut *a.borrow_mut(),
                Ambient { tracer: self.tracer.clone(), prefix: self.prefix.to_string() },
            )
        });
        ScopeGuard(Some(prev))
    }
}

/// Restores the previous ambient context when dropped.
pub struct ScopeGuard(Option<Ambient>);

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            AMBIENT.with(|a| *a.borrow_mut() = prev);
        }
    }
}

/// RAII span timer returned by [`span`](crate::span): records the elapsed
/// wall time against its path when dropped.
pub struct Span {
    live: Option<SpanLive>,
}

struct SpanLive {
    inner: Arc<Inner>,
    path: String,
    prev_len: usize,
    start: Instant,
}

impl Span {
    pub(crate) fn noop() -> Span {
        Span { live: None }
    }

    pub(crate) fn live(inner: Arc<Inner>, path: String, prev_len: usize, start: Instant) -> Span {
        Span { live: Some(SpanLive { inner, path, prev_len, start }) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let elapsed = live.start.elapsed();
            AMBIENT.with(|a| a.borrow_mut().prefix.truncate(live.prev_len));
            if std::thread::panicking() {
                UNWOUND.with(|u| u.borrow_mut().clone_from(&live.path));
            }
            live.inner.record_span(live.path, thread_key(), elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace built from `(path, thread, milliseconds)` records.
    fn trace_of(records: &[(&str, u64, u64)]) -> RunTrace {
        let tracer = Tracer::enabled();
        let inner = tracer.inner.as_ref().expect("enabled");
        for &(path, thread, ms) in records {
            inner.record_span(path.to_string(), thread, Duration::from_millis(ms));
        }
        tracer.snapshot()
    }

    fn self_ms(trace: &RunTrace, path: &str) -> u128 {
        trace.phase(path).expect(path).self_time.as_millis()
    }

    #[test]
    fn self_time_subtracts_the_busiest_threads_share_of_overlapping_children() {
        // The caller (thread 1) evaluates for 25 ms and merges for 30 ms
        // inside a 60 ms level while a pool thread (2) evaluates for 45 ms
        // beside it. The level spent 60 − (25 + 30) = 5 ms in itself;
        // subtracting each child's wall (45 + 30) would leave it nothing.
        let t = trace_of(&[
            ("level", 1, 60),
            ("level.eval", 1, 25),
            ("level.merge", 1, 30),
            ("level.eval", 2, 45),
        ]);
        assert_eq!(self_ms(&t, "level"), 5);
        let eval = t.phase("level.eval").unwrap();
        assert_eq!((eval.wall.as_millis(), eval.cpu.as_millis()), (45, 70));
        assert_eq!(self_ms(&t, "level.merge"), 30);
    }

    #[test]
    fn self_time_of_siblings_that_do_not_overlap_is_wall_minus_their_walls() {
        // Fan-out inside `eval` only, the parent parked meanwhile: the
        // busiest thread's share is the child's wall, as it always was.
        let t = trace_of(&[
            ("level", 1, 100),
            ("level.enumerate", 1, 10),
            ("level.eval", 1, 50),
            ("level.eval.join", 2, 48),
            ("level.eval.join", 3, 40),
            ("level.merge", 1, 38),
        ]);
        assert_eq!(self_ms(&t, "level"), 100 - (10 + 50 + 38));
        assert_eq!(self_ms(&t, "level.eval"), 50 - 48);
        assert_eq!(t.self_time_total().as_millis(), 100, "and the self times telescope");
    }

    #[test]
    fn children_one_after_another_on_different_threads_read_as_if_side_by_side() {
        // The limit of a rule that sees per-thread totals and no clock:
        // `a` runs for 50 ms on the caller, *then* `b` fans out, 20 ms on
        // the caller and 45 ms on a pool thread. The children kept the
        // parent for 50 + 45 = 95 of its 100 ms, but thread for thread
        // these are the records of `b`'s pool share running beside `a`, so
        // the parent is charged max(50 + 20, 45) = 70 and keeps the 25 ms
        // the caller waited on `b`. The sum of self times is then what it
        // is for overlapping siblings: over the parent's wall by the
        // siblings' walls minus that charge, never short of it.
        let t = trace_of(&[("p", 1, 100), ("p.a", 1, 50), ("p.b", 1, 20), ("p.b", 2, 45)]);
        assert_eq!(self_ms(&t, "p"), 100 - 70);
        assert_eq!(t.self_time_total().as_millis(), 100 + (50 + 45 - 70));
        // A span of the caller's around the fan-out settles it: the wait
        // is that span's, and the sum telescopes.
        let t = trace_of(&[
            ("p", 1, 100),
            ("p.a", 1, 50),
            ("p.b", 1, 46),
            ("p.b.item", 1, 20),
            ("p.b.item", 2, 45),
        ]);
        assert_eq!(self_ms(&t, "p"), 100 - (50 + 46));
        assert_eq!(t.self_time_total().as_millis(), 100);
    }
}
