//! Deterministic fan-out over the process's shared worker pool.
//!
//! Shared by the ML ensembles (tree fitting), lake profiling and the
//! discovery BFS (per-level hop evaluation). Work is split by item index and
//! every item must be a pure function of its index, so the output is
//! bit-identical at any worker count — parallelism changes wall-clock time,
//! never results.
//!
//! There is one primitive, [`run_indexed_ctl`]: items run on the
//! [`shared_pool`] under the caller's [`RequestScope`], each wrapped in
//! `catch_unwind` (a panicking item becomes a structured [`WorkerPanic`]
//! carrying the item index and the pipeline phase, not a process abort), and
//! a given [`RunControl`] is polled before every item (interrupted items come
//! back as [`ItemOutcome::Skipped`]). [`build_indexed`] is its infallible
//! wrapper for callers without failure handling: a worker panic there is
//! resumed on the calling thread with the enriched context attached.
//!
//! Worker-count resolution honours the `AUTOFEAT_THREADS` environment
//! variable (`0`, unset, or unparsable = auto-detect via
//! `available_parallelism`), resolved **once per process** — the variable
//! is read and parsed on the first [`n_workers`] call and cached in a
//! `OnceLock`, so steady-state resolution is a single atomic load. Callers
//! with their own configuration knob (e.g. `AutoFeatConfig::threads`)
//! resolve that knob first and pass an explicit count: config-first,
//! environment as the fallback.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::control::{Interrupt, RunControl};
use crate::scope::RequestScope;

/// Parse an `AUTOFEAT_THREADS`-style value: a positive integer is an
/// explicit count; `0`, `None`, or unparsable input means auto-detect via
/// `available_parallelism`.
pub fn parse_worker_count(raw: Option<&str>) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        // 0 or absent/invalid = auto.
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Number of worker threads to use when the caller has no explicit
/// configuration: the `AUTOFEAT_THREADS` environment variable when set to a
/// positive integer, otherwise the machine's available parallelism.
/// Resolved once per process; later changes to the variable have no effect.
pub fn n_workers() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED
        .get_or_init(|| parse_worker_count(std::env::var("AUTOFEAT_THREADS").ok().as_deref()))
}

/// How one fan-out item ended.
#[derive(Debug)]
pub enum ItemOutcome<T> {
    /// The item's closure returned normally.
    Done(T),
    /// The item's closure panicked; the panic was caught and structured.
    Panicked(WorkerPanic),
    /// The item was never run: the [`RunControl`] was interrupted before
    /// its turn.
    Skipped(Interrupt),
}

impl<T> ItemOutcome<T> {
    /// The value, if the item completed.
    pub fn done(self) -> Option<T> {
        match self {
            ItemOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// A caught worker panic, with enough context to act on: which item, in
/// which pipeline phase, saying what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub item: usize,
    /// Dotted span path of the phase that spawned the fan-out (`""` when
    /// tracing is disabled).
    pub phase: String,
    /// The panic payload, stringified (`&str` and `String` payloads pass
    /// through; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panic on item {}", self.item)?;
        if !self.phase.is_empty() {
            write!(f, " in phase `{}`", self.phase)?;
        }
        write!(f, ": {}", self.message)
    }
}

pub(crate) fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `make(i)` for `i in 0..n_items` across `workers` pool threads,
/// preserving index order, isolating panics, and honouring `ctl`.
///
/// * Every item runs under the caller's [`RequestScope`] — control, cache
///   recorder, fault domain, tracer and span path — so joins and index
///   builds inside `make` poll, record and trace as they would on the
///   calling thread. A given `ctl` replaces the scope's control; an absent
///   one inherits it.
/// * Before each item a given `ctl` is polled; once it reports an
///   interrupt, that worker's remaining items are [`ItemOutcome::Skipped`] —
///   already-finished items are unaffected, so the caller gets a
///   partial-but-valid prefix per chunk. An inherited control skips
///   nothing here (the layers that poll it return their own errors).
/// * Each item runs under `catch_unwind`: a panic is caught and returned
///   as [`ItemOutcome::Panicked`] with the item index and current phase
///   span path attached. One poisoned item never takes down its siblings
///   or the process.
///
/// `make` must be pure given `i` for the `Done` outcomes to be
/// bit-identical at any worker count (panics and skips are, by nature,
/// only deterministic when their cause is).
pub fn run_indexed_ctl<T, F>(
    workers: usize,
    n_items: usize,
    ctl: Option<&Arc<RunControl>>,
    make: F,
) -> Vec<ItemOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_items.max(1));
    let phase = autofeat_obs::current_span_path();
    let mut scope = RequestScope::capture();
    if let Some(ctl) = ctl {
        scope.ctl = Some(Arc::clone(ctl));
    }
    let run_item = |i: usize| -> ItemOutcome<T> {
        if let Some(reason) = ctl.and_then(|c| c.interrupted()) {
            return ItemOutcome::Skipped(reason);
        }
        match catch_unwind(AssertUnwindSafe(|| make(i))) {
            Ok(v) => ItemOutcome::Done(v),
            Err(payload) => ItemOutcome::Panicked(WorkerPanic {
                item: i,
                phase: phase.clone(),
                message: payload_message(payload),
            }),
        }
    };
    // `in_pool_worker`: a nested fan-out from inside a pool job runs
    // inline — submitting to the pool from a pool thread could deadlock
    // (every thread waiting on jobs only they could run).
    if workers <= 1 || in_pool_worker() {
        let _scope = scope.enter();
        return (0..n_items).map(run_item).collect();
    }
    // One slot per item, filled by whichever pool job owns the item's chunk;
    // the scatter call blocks until every job has run.
    let slots: Vec<Mutex<Option<ItemOutcome<T>>>> = (0..n_items).map(|_| Mutex::new(None)).collect();
    let chunk_len = n_items.div_ceil(workers);
    let chunks: Vec<_> = slots.chunks(chunk_len).collect();
    let task = |w: usize| {
        let _scope = scope.enter();
        for (off, slot) in chunks[w].iter().enumerate() {
            let outcome = run_item(w * chunk_len + off);
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        }
    };
    let pool = shared_pool();
    pool.grow_to(workers);
    pool.scatter(chunks.len(), &task);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            // An unfilled slot means the fan-out harness itself panicked
            // around the item (the item closure is unwind-caught); surface
            // it as a structured outcome instead of aborting the request.
            slot.into_inner().unwrap_or_else(|e| e.into_inner()).unwrap_or_else(|| {
                ItemOutcome::Panicked(WorkerPanic {
                    item: i,
                    phase: phase.clone(),
                    message: "fan-out harness panicked before the item ran".to_string(),
                })
            })
        })
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of long-lived worker threads fed from one shared queue. It only
/// grows ([`WorkerPool::grow_to`]): the process-wide [`shared_pool`] ends up
/// as large as the largest worker count any caller has asked for.
///
/// Built for the serving path: every discovery request fans its per-level
/// evaluation out through [`run_indexed_ctl`], and under a resident
/// [`DiscoveryService`] spawning (and joining) fresh OS threads per level
/// per request is the cost the pool amortizes across the process lifetime;
/// requests interleave at chunk granularity.
///
/// The pool schedules closures and nothing else: a job enters its
/// spawner's [`RequestScope`] itself, so a thread serving request A
/// immediately after request B carries zero residue between them.
pub struct WorkerPool {
    inner: Arc<PoolShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.size()).finish()
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Workers currently executing a job (not parked, not popping) — the
    /// instantaneous utilization numerator exported by the service metrics.
    busy: AtomicUsize,
}

thread_local! {
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread one of a [`WorkerPool`]'s workers?
fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

impl WorkerPool {
    /// Spawn a pool of `size` worker threads (at least one).
    pub fn new(size: usize) -> WorkerPool {
        let pool = WorkerPool {
            inner: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                busy: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.grow_to(size.max(1));
        pool
    }

    /// Spawn workers until there are at least `size` of them.
    pub fn grow_to(&self, size: usize) {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for i in handles.len()..size {
            let shared = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("autofeat-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            handles.push(handle);
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.lock().map(|h| h.len()).unwrap_or(0)
    }

    /// Jobs queued but not yet picked up by a worker. Point-in-time; only
    /// meaningful as a pressure gauge (a scrape-rate signal, not a count
    /// to act on per-value).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().map(|q| q.len()).unwrap_or(0)
    }

    /// Workers currently executing a job. Point-in-time;
    /// `busy_workers() / size()` is the pool's instantaneous utilization.
    pub fn busy_workers(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    fn submit(&self, job: Job) {
        let Ok(mut q) = self.inner.queue.lock() else { return };
        q.push_back(job);
        drop(q);
        self.inner.available.notify_one();
    }

    /// Run `task(w)` for every `w in 0..n_tasks` on the pool, blocking the
    /// caller until all of them have finished. Tasks may run in any order
    /// and interleave with other callers' tasks; a panicking task is
    /// caught (the worker thread survives) and simply counts as finished.
    ///
    /// `task` is borrowed, not `'static`: the completion latch below keeps
    /// the caller parked until the last job has dropped its reference, so
    /// the erased lifetime can never be observed dangling.
    pub fn scatter(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        struct Latch {
            remaining: Mutex<usize>,
            done: Condvar,
        }
        // Lifetime erasure for the non-'static task reference; see the
        // latch argument above. The pointer is only ever dereferenced
        // before the job decrements the latch.
        struct TaskPtr(*const (dyn Fn(usize) + Sync));
        unsafe impl Send for TaskPtr {}
        impl TaskPtr {
            /// SAFETY: caller must guarantee the pointee is still alive.
            unsafe fn call(&self, w: usize) {
                (*self.0)(w)
            }
        }
        let latch = Arc::new(Latch { remaining: Mutex::new(n_tasks), done: Condvar::new() });
        // SAFETY: lifetime erasure only — the latch wait below keeps `task`
        // borrowed (and the caller parked) until the last job finishes.
        let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task)
        };
        for w in 0..n_tasks {
            let latch = Arc::clone(&latch);
            let ptr = TaskPtr(erased);
            self.submit(Box::new(move || {
                // SAFETY: the scatter caller blocks on the latch until this
                // job (and every sibling) has decremented it, which happens
                // strictly after this dereference — the borrow is alive.
                let _ = catch_unwind(AssertUnwindSafe(|| unsafe { ptr.call(w) }));
                let mut rem = latch.remaining.lock().unwrap_or_else(|e| e.into_inner());
                *rem -= 1;
                if *rem == 0 {
                    latch.done.notify_all();
                }
            }));
        }
        let mut rem = latch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *rem > 0 {
            rem = latch.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        let handles = self.handles.get_mut().unwrap_or_else(|e| e.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL_WORKER.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        job();
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The process-wide pool [`run_indexed_ctl`] runs on: created with
/// [`n_workers`] threads on first use, grown to the worker count of any
/// fan-out that asks for more (`with_threads(4)` under `AUTOFEAT_THREADS=1`
/// gets four real threads), alive for the rest of the process.
pub fn shared_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(n_workers()))
}

/// Build `n_items` values with `make(i)` across [`n_workers`] pool threads,
/// preserving index order. `make` must be pure given `i` (all randomness
/// derived from `i`), so the result is identical at every worker count.
///
/// A panicking item does not abort the process from a worker thread:
/// the panic is caught, enriched with the item index and phase span path,
/// and resumed on the calling thread.
pub fn build_indexed<T, F>(n_items: usize, make: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n_items);
    for outcome in run_indexed_ctl(n_workers(), n_items, None, make) {
        match outcome {
            ItemOutcome::Done(v) => out.push(v),
            ItemOutcome::Panicked(p) => std::panic::resume_unwind(Box::new(p.to_string())),
            ItemOutcome::Skipped(_) => unreachable!("no control given, nothing can skip"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let v = build_indexed(100, |i| i * 2);
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_sequential_path() {
        assert_eq!(build_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_items() {
        let v: Vec<usize> = build_indexed(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn matches_sequential_for_any_size_and_worker_count() {
        for workers in [1usize, 2, 3, 8, 64] {
            for n in [2usize, 3, 7, 8, 9, 33] {
                let par: Vec<Option<usize>> = run_indexed_ctl(workers, n, None, |i| i * i)
                    .into_iter()
                    .map(ItemOutcome::done)
                    .collect();
                let seq: Vec<Option<usize>> = (0..n).map(|i| Some(i * i)).collect();
                assert_eq!(par, seq, "workers = {workers}, n = {n}");
            }
        }
    }

    #[test]
    fn worker_count_parsing_is_config_shaped() {
        // `n_workers()` itself resolves once per process (other tests may
        // have fixed its value already), so the contract is asserted on the
        // parser it delegates to.
        assert_eq!(parse_worker_count(Some("3")), 3);
        assert_eq!(parse_worker_count(Some(" 12 ")), 12);
        let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(parse_worker_count(Some("0")), auto, "0 = auto");
        assert_eq!(parse_worker_count(Some("not-a-number")), auto);
        assert_eq!(parse_worker_count(None), auto);
        assert!(n_workers() >= 1);
        assert_eq!(n_workers(), n_workers(), "resolution is stable");
    }

    #[test]
    fn panicking_item_is_isolated_and_structured() {
        for workers in [1usize, 4] {
            let outcomes = run_indexed_ctl(workers, 8, None, |i| {
                if i == 5 {
                    panic!("injected fault: item five");
                }
                i * 10
            });
            assert_eq!(outcomes.len(), 8);
            for (i, o) in outcomes.iter().enumerate() {
                match o {
                    ItemOutcome::Done(v) => assert_eq!(*v, i * 10),
                    ItemOutcome::Panicked(p) => {
                        assert_eq!(i, 5, "only item 5 panics (workers = {workers})");
                        assert_eq!(p.item, 5);
                        assert!(p.message.contains("item five"), "{p:?}");
                    }
                    ItemOutcome::Skipped(_) => panic!("nothing should skip"),
                }
            }
        }
    }

    #[test]
    fn panic_context_includes_phase_span_path() {
        let tracer = autofeat_obs::Tracer::enabled();
        let outcomes = autofeat_obs::with_tracer(&tracer, || {
            let _s = autofeat_obs::span("level");
            run_indexed_ctl(2, 4, None, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        let p = outcomes
            .iter()
            .find_map(|o| match o {
                ItemOutcome::Panicked(p) => Some(p),
                _ => None,
            })
            .expect("item 2 panicked");
        assert_eq!(p.phase, "level");
        assert!(p.to_string().contains("item 2 in phase `level`"), "{p}");
    }

    #[test]
    fn build_indexed_resumes_panic_with_context() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            build_indexed(6, |i| {
                if i == 3 {
                    panic!("kaboom");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("worker panic on item 3"), "{msg}");
        assert!(msg.contains("kaboom"), "{msg}");
    }

    #[test]
    fn cancelled_control_skips_remaining_items() {
        let ctl = Arc::new(RunControl::new());
        ctl.cancel();
        let outcomes = run_indexed_ctl(4, 10, Some(&ctl), |i| i);
        assert!(
            outcomes.iter().all(|o| matches!(o, ItemOutcome::Skipped(Interrupt::Cancelled))),
            "pre-cancelled control skips every item"
        );
    }

    #[test]
    fn expired_deadline_skips_items() {
        let ctl = Arc::new(RunControl::new());
        ctl.arm_budget(std::time::Duration::ZERO);
        let outcomes = run_indexed_ctl(2, 6, Some(&ctl), |i| i);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ItemOutcome::Skipped(Interrupt::DeadlineExceeded))));
    }

    #[test]
    fn a_given_control_is_the_items_control() {
        let ctl = Arc::new(RunControl::new());
        for workers in [1usize, 3] {
            let outcomes = run_indexed_ctl(workers, 6, Some(&ctl), |_| {
                RequestScope::capture().ctl.is_some_and(|c| Arc::ptr_eq(&c, &ctl))
            });
            assert!(outcomes.into_iter().all(|o| o.done() == Some(true)));
        }
        assert!(RequestScope::capture().ctl.is_none(), "caller thread restored");
    }

    #[test]
    fn an_absent_control_inherits_the_callers() {
        // `build_indexed` passes no control. That used to *install* none,
        // hiding the caller's from its items: a forest fitted under
        // `train_top_k`'s control could not be interrupted tree by tree.
        let ctl = Arc::new(RunControl::new());
        let _g = RequestScope::with_ctl(&ctl).enter();
        let sees_it = || RequestScope::capture().ctl.is_some_and(|c| Arc::ptr_eq(&c, &ctl));
        assert!(build_indexed(4, |_| sees_it()).into_iter().all(|seen| seen));
        for workers in [1usize, 4] {
            let outcomes = run_indexed_ctl(workers, 4, None, |_| sees_it());
            assert!(outcomes.into_iter().all(|o| o.done() == Some(true)), "workers = {workers}");
        }
    }

    #[test]
    fn workers_run_under_the_callers_scope() {
        let rec = crate::cache::CacheRecorder::new();
        let dom = crate::faults::FaultDomain::new();
        let _g = RequestScope {
            recorder: Some(Arc::clone(&rec)),
            faults: Some(Arc::clone(&dom)),
            ..RequestScope::capture()
        }
        .enter();
        let outcomes = run_indexed_ctl(4, 8, None, |_| {
            let scope = RequestScope::capture();
            (scope.recorder.is_some(), scope.faults.map(|d| d.id()))
        });
        for o in outcomes {
            let (has_recorder, domain) = o.done().expect("no faults injected");
            assert!(has_recorder, "worker sees the spawner's cache recorder");
            assert_eq!(domain, Some(dom.id()), "worker sees the spawner's fault domain");
        }
    }

    #[test]
    fn the_shared_pool_grows_to_the_largest_request() {
        let before = shared_pool().size();
        assert!(before >= n_workers());
        let names = run_indexed_ctl(before + 2, before + 2, None, |_| {
            std::thread::current().name().map(str::to_string)
        });
        assert!(shared_pool().size() >= before + 2);
        for name in names {
            let name = name.done().flatten().expect("pool threads are named");
            assert!(name.starts_with("autofeat-worker-"), "{name}");
        }
    }

    #[test]
    fn pool_scatter_runs_every_task_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        let task = |w: usize| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        };
        pool.scatter(hits.len(), &task);
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {w} ran exactly once");
        }
        pool.scatter(0, &task); // zero tasks: returns immediately
    }

    #[test]
    fn pool_survives_panicking_tasks() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(2);
        let panicking = |w: usize| {
            if w.is_multiple_of(2) {
                panic!("injected task fault");
            }
        };
        pool.scatter(6, &panicking);
        let ran = AtomicUsize::new(0);
        let counting = |_w: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
        };
        pool.scatter(5, &counting);
        assert_eq!(ran.load(Ordering::SeqCst), 5, "workers survive caught task panics");
    }

    #[test]
    fn pool_interleaves_concurrent_scatters() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let task = |_w: usize| {
                        total.fetch_add(1, Ordering::SeqCst);
                    };
                    pool.scatter(25, &task);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 100, "4 concurrent clients × 25 tasks");
    }

    #[test]
    fn pool_gauges_track_busy_and_return_to_idle() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.busy_workers(), 0);
        let release = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let task = |_w: usize| {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                };
                pool.scatter(1, &task);
            });
            // The job is running (parked on `release`), so the busy gauge
            // must observe it.
            let mut seen_busy = false;
            for _ in 0..1000 {
                if pool.busy_workers() > 0 {
                    seen_busy = true;
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            release.store(true, Ordering::SeqCst);
            assert!(seen_busy, "busy gauge observes an in-flight job");
        });
        // The busy decrement races scatter's return by a few instructions.
        for _ in 0..1000 {
            if pool.busy_workers() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert_eq!(pool.busy_workers(), 0, "gauge returns to idle");
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn nested_fan_out_runs_inline_without_deadlock() {
        // A fan-out item that itself fans out must not submit to the pool
        // (it runs inline instead) — with a pool of N threads all busy on
        // outer items, nested submissions could otherwise deadlock.
        let outcomes = run_indexed_ctl(4, 6, None, |i| {
            let inner = run_indexed_ctl(4, 3, None, move |j| i * 10 + j);
            inner.into_iter().map(|o| o.done().expect("inner item done")).collect::<Vec<_>>()
        });
        for (i, o) in outcomes.into_iter().enumerate() {
            let inner = o.done().expect("outer item done");
            assert_eq!(inner, vec![i * 10, i * 10 + 1, i * 10 + 2]);
        }
    }
}
