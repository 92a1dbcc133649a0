//! Deterministic fan-out over the process's shared worker pool.
//!
//! Shared by the ML ensembles (tree fitting), lake profiling and the
//! discovery BFS (per-level hop evaluation and merge). Every item must be a
//! pure function of its index and outcomes are handed to the caller in index
//! order, so the output is bit-identical at any worker count — parallelism
//! changes wall-clock time, never results.
//!
//! There is one primitive, [`run_indexed_ctl`], an *ordered streaming*
//! fan-out: items are claimed one at a time from a shared cursor by the
//! calling thread and by jobs on the [`shared_pool`], each under the
//! caller's [`RequestScope`] and wrapped in `catch_unwind` (a panicking item
//! becomes a structured [`WorkerPanic`] carrying the item index and the
//! pipeline phase, not a process abort), a given [`RunControl`] is polled
//! before every item (interrupted items come back as
//! [`ItemOutcome::Skipped`]), and the caller's `consume` receives outcome
//! `0`, then `1`, … as soon as each is there — while later items are still
//! running. [`build_indexed`] is its infallible wrapper for callers without
//! failure handling: a worker panic there is resumed on the calling thread
//! with the enriched context attached.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::control::{Interrupt, RunControl};
use crate::scope::RequestScope;

/// Parse an `AUTOFEAT_THREADS`-style value: a positive integer is an
/// explicit count; `0`, `None`, or unparsable input means auto-detect via
/// `available_parallelism`.
pub(crate) fn parse_worker_count(raw: Option<&str>) -> usize {
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

/// A caught worker panic, with enough context to act on: which item, in
/// which pipeline phase, saying what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub item: usize,
    /// Dotted span path of the phase the item was in: the outermost span it
    /// had opened around the panic, or, if it had opened none, the phase
    /// that spawned the fan-out (`""` when tracing is disabled).
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

/// Recover a guard from a lock a panicking thread held. Sound for every
/// mutex in this file: each update under one is a single push, pop or
/// assignment, so the data is valid at every step.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Is this thread inside a fan-out item right now (on the caller or on
    /// a pool thread)? A fan-out started from there runs inline.
    static IN_ITEM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// What the threads of one fan-out share: the cursor items are claimed from
/// and one slot per item for its outcome.
struct Board<T> {
    state: Mutex<BoardState<T>>,
    /// Signalled on every post; only the calling thread waits on it.
    posted: Condvar,
}

struct BoardState<T> {
    /// Next unclaimed item; `>= slots.len()` when there is none.
    cursor: usize,
    slots: Vec<Option<ItemOutcome<T>>>,
}

/// What the calling thread does next.
enum Step<T> {
    /// The next in-order outcome is there: consume it.
    Consume(ItemOutcome<T>),
    /// It is not, and this item is unclaimed: run it.
    Run(usize),
}

impl<T> BoardState<T> {
    fn claim(&mut self) -> Option<usize> {
        let i = self.cursor;
        (i < self.slots.len()).then(|| {
            self.cursor += 1;
            i
        })
    }
}

impl<T> Board<T> {
    fn new(n_items: usize) -> Board<T> {
        let slots = (0..n_items).map(|_| None).collect();
        Board { state: Mutex::new(BoardState { cursor: 0, slots }), posted: Condvar::new() }
    }

    fn claim(&self) -> Option<usize> {
        relock(&self.state).claim()
    }

    fn post(&self, i: usize, outcome: ItemOutcome<T>) {
        relock(&self.state).slots[i] = Some(outcome);
        self.posted.notify_one();
    }

    /// Leave nothing to claim: jobs still running finish their item and stop.
    fn park(&self) {
        let mut s = relock(&self.state);
        s.cursor = s.slots.len();
    }

    /// Outcome `next` if it is there, else an unclaimed item to run, else
    /// outcome `next` once the job running it posts it — every claimed item
    /// is posted, `run_item` cannot unwind — with the time spent waiting
    /// added to `waited`.
    fn step(&self, next: usize, waited: &mut Duration) -> Step<T> {
        let mut s = relock(&self.state);
        if let Some(outcome) = s.slots[next].take() {
            return Step::Consume(outcome);
        }
        if let Some(i) = s.claim() {
            return Step::Run(i);
        }
        let parked = Instant::now();
        loop {
            s = self.posted.wait(s).unwrap_or_else(|e| e.into_inner());
            if let Some(outcome) = s.slots[next].take() {
                *waited += parked.elapsed();
                return Step::Consume(outcome);
            }
        }
    }
}

/// Parks the cursor when the caller's loop ends, by return or by unwinding.
struct ParkOnDrop<'a, T>(&'a Board<T>);

impl<T> Drop for ParkOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.park();
    }
}

/// Run `make(i)` for `i in 0..n_items` on up to `workers` threads — the
/// caller and `workers − 1` pool jobs — and hand each outcome to `consume`
/// on the calling thread, in index order, as soon as it is there.
///
/// * Items are claimed one at a time from a shared cursor. The caller is
///   one of the workers: it consumes outcome `next` if that is ready, else
///   claims and runs an item, else waits for the job running item `next`.
///   With one worker, or from inside another fan-out's item (where waiting
///   on pool jobs could starve the pool), nobody else claims and the same
///   loop reads make 0, consume 0, make 1, ….
/// * Every item runs under the caller's [`RequestScope`] — control, cache
///   recorder, fault domain, tracer and span path — so joins and index
///   builds inside `make` poll, record and trace as they would on the
///   calling thread. A given `ctl` replaces the scope's control; an absent
///   one inherits it. `consume` runs under the caller's scope as it is.
/// * Before each item a given `ctl` is polled; once it reports an
///   interrupt, every item not yet started is [`ItemOutcome::Skipped`] —
///   already-finished items are unaffected, so the caller still gets one
///   outcome per index, in order. An inherited control skips nothing here
///   (the layers that poll it return their own errors).
/// * Each item runs under `catch_unwind`: a panic is caught and arrives as
///   [`ItemOutcome::Panicked`] in the item's place, with the item index and
///   current phase span path attached. One poisoned item never takes down
///   its siblings or the process. A panic in `consume` is the caller's own:
///   it unwinds out of this call once the jobs in flight have finished
///   their item, and leaves the pool usable.
///
/// `make` must be pure given `i` for the `Done` outcomes to be
/// bit-identical at any worker count (panics and skips are, by nature,
/// only deterministic when their cause is).
///
/// Returns how long the caller waited for an outcome with nothing left to
/// claim — zero at one worker — which is what tells a consume-bound
/// fan-out from a make-bound one.
pub fn run_indexed_ctl<T, F, C>(
    workers: usize,
    n_items: usize,
    ctl: Option<&Arc<RunControl>>,
    make: F,
    mut consume: C,
) -> Duration
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, ItemOutcome<T>),
{
    let phase = autofeat_obs::current_span_path();
    let mut scope = RequestScope::capture();
    if let Some(ctl) = ctl {
        scope.ctl = Some(Arc::clone(ctl));
    }
    let nested = IN_ITEM.with(|f| f.get());
    let run_item = |i: usize| -> ItemOutcome<T> {
        let was_in_item = IN_ITEM.with(|f| f.replace(true));
        // Forget a panic something caught on this thread earlier.
        autofeat_obs::take_unwound_span_path();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _scope = scope.enter();
            match ctl.and_then(|c| c.interrupted()) {
                Some(reason) => ItemOutcome::Skipped(reason),
                None => ItemOutcome::Done(make(i)),
            }
        }));
        IN_ITEM.with(|f| f.set(was_in_item));
        caught.unwrap_or_else(|payload| {
            // The span the item had opened around the panic, which the
            // unwinding closed; the fan-out's own phase if it had opened none.
            let unwound = autofeat_obs::take_unwound_span_path();
            ItemOutcome::Panicked(WorkerPanic {
                item: i,
                phase: if unwound.is_empty() { phase.clone() } else { unwound },
                message: payload_message(payload),
            })
        })
    };
    let board = Board::new(n_items);
    let job = || {
        while let Some(i) = board.claim() {
            board.post(i, run_item(i));
        }
    };
    let helpers = if nested { 0 } else { workers.min(n_items).saturating_sub(1) };
    let pool = shared_pool();
    pool.grow_to(helpers);
    let mut waited = Duration::ZERO;
    pool.scatter(helpers, &job, || {
        // Dropped when this closure returns or `consume` unwinds out of it,
        // before `scatter` waits for the jobs in flight.
        let _park = ParkOnDrop(&board);
        let mut next = 0;
        while next < n_items {
            match board.step(next, &mut waited) {
                Step::Consume(outcome) => {
                    consume(next, outcome);
                    next += 1;
                }
                Step::Run(i) => board.post(i, run_item(i)),
            }
        }
    });
    waited
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of long-lived worker threads fed from one shared queue. It only
/// grows (`WorkerPool::grow_to`): the process-wide [`shared_pool`] ends up
/// as large as the largest number of helpers any caller has asked for.
///
/// Built for the serving path: every discovery request fans its per-level
/// evaluation out through [`run_indexed_ctl`], and under a resident
/// [`DiscoveryService`] spawning (and joining) fresh OS threads per level
/// per request is the cost the pool amortizes across the process lifetime;
/// requests interleave at item granularity.
///
/// The pool schedules closures and nothing else: an item enters its
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

/// Which of one [`WorkerPool::scatter`]'s jobs may still touch its task.
struct Latch {
    state: Mutex<LatchState>,
    idle: Condvar,
}

struct LatchState {
    /// Jobs inside the task right now.
    running: usize,
    /// Set when the scatter ends: a job that has not started never will.
    closed: bool,
}

/// Ends a scatter: closes the latch, then waits until no job is running.
struct CloseOnDrop(Arc<Latch>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        let mut s = relock(&self.0.state);
        s.closed = true;
        while s.running > 0 {
            s = self.0.idle.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` worker threads; [`WorkerPool::grow_to`] adds
    /// more.
    pub(crate) fn new(size: usize) -> WorkerPool {
        let pool = WorkerPool {
            inner: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                busy: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.grow_to(size);
        pool
    }

    /// Spawn workers until there are at least `size` of them.
    pub(crate) fn grow_to(&self, size: usize) {
        let mut handles = relock(&self.handles);
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
        relock(&self.handles).len()
    }

    /// Jobs queued but not yet picked up by a worker, revoked ones (whose
    /// fan-out ended before a worker got to them) included. Point-in-time;
    /// only meaningful as a pressure gauge (a scrape-rate signal, not a
    /// count to act on per-value).
    pub fn queue_depth(&self) -> usize {
        relock(&self.inner.queue).len()
    }

    /// Workers currently executing a job. Point-in-time;
    /// `busy_workers() / size()` is the pool's instantaneous utilization.
    /// The pool holds a fan-out's helpers only: its caller, which claims
    /// items beside them, is not counted here or in [`WorkerPool::size`].
    pub fn busy_workers(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    fn submit(&self, job: Job) {
        relock(&self.inner.queue).push_back(job);
        self.inner.available.notify_one();
    }

    /// Offer `n_jobs` runs of `task` to the pool while the caller runs
    /// `meanwhile`, and return what that returned. Jobs may start in any
    /// order and interleave with other callers'; a panicking one is caught
    /// (the worker thread survives). When `meanwhile` returns or unwinds,
    /// the jobs in flight are waited for and a job no worker has started
    /// yet is revoked: it never runs `task` and the caller does not wait
    /// for it. It does stay queued until a worker pops it and finds its
    /// latch closed, so [`WorkerPool::queue_depth`] can count jobs that
    /// will do nothing.
    ///
    /// `task` is borrowed, not `'static`: a job dereferences it only while
    /// it is counted as running on the latch, and this call does not return
    /// before the latch is closed and nothing is running, so the erased
    /// lifetime can never be observed dangling.
    pub(crate) fn scatter<R>(
        &self,
        n_jobs: usize,
        task: &(dyn Fn() + Sync),
        meanwhile: impl FnOnce() -> R,
    ) -> R {
        if n_jobs == 0 {
            return meanwhile();
        }
        // Lifetime erasure for the non-'static task reference; see the
        // latch argument above.
        struct TaskPtr(*const (dyn Fn() + Sync));
        // SAFETY: the pointee is `Sync`, so calling it through a shared
        // pointer from another thread is what `&(dyn Fn + Sync)` allows.
        unsafe impl Send for TaskPtr {}
        impl TaskPtr {
            /// # Safety
            /// The caller must guarantee the pointee is still alive.
            unsafe fn call(&self) {
                (*self.0)()
            }
        }
        let latch = Arc::new(Latch {
            state: Mutex::new(LatchState { running: 0, closed: false }),
            idle: Condvar::new(),
        });
        // Declared before any job exists, so every way out of this function
        // — `meanwhile` returning, `meanwhile` or `submit` unwinding — runs
        // its drop: close, then wait for `running == 0`.
        let _close = CloseOnDrop(Arc::clone(&latch));
        // SAFETY: lifetime erasure only; the pointer is dereferenced under
        // the conditions stated at the dereference below.
        let erased: *const (dyn Fn() + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn() + Sync + '_),
                *const (dyn Fn() + Sync + 'static),
            >(task)
        };
        for _ in 0..n_jobs {
            let latch = Arc::clone(&latch);
            let ptr = TaskPtr(erased);
            self.submit(Box::new(move || {
                {
                    let mut s = relock(&latch.state);
                    if s.closed {
                        return;
                    }
                    s.running += 1;
                }
                // SAFETY: this job found the latch open and counted itself
                // as running under the latch's lock. `_close`'s drop sets
                // `closed` and waits for `running == 0` under the same
                // lock, and runs before `scatter` returns, i.e. while
                // `task` is still borrowed; the decrement below comes
                // strictly after this dereference.
                let _ = catch_unwind(AssertUnwindSafe(|| unsafe { ptr.call() }));
                let mut s = relock(&latch.state);
                s.running -= 1;
                if s.running == 0 {
                    latch.idle.notify_all();
                }
            }));
        }
        meanwhile()
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
    loop {
        let job = {
            let mut q = relock(&shared.queue);
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

/// The process-wide pool [`run_indexed_ctl`] takes its helpers from: created
/// with [`n_workers`]` − 1` threads on first use — the caller of a fan-out
/// is its first worker — grown to `workers − 1` by any fan-out that asks for
/// more (`with_threads(4)` under `AUTOFEAT_THREADS=1` gets three pool
/// threads beside the caller), alive for the rest of the process.
pub fn shared_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(n_workers() - 1))
}

/// Build `n_items` values with `make(i)` across [`n_workers`] threads,
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
    run_indexed_ctl(n_workers(), n_items, None, make, |_, outcome| match outcome {
        ItemOutcome::Done(v) => out.push(v),
        ItemOutcome::Panicked(p) => std::panic::resume_unwind(Box::new(p.to_string())),
        ItemOutcome::Skipped(_) => unreachable!("no control given, nothing can skip"),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    impl<T> ItemOutcome<T> {
        /// The value, if the item completed.
        fn done(self) -> Option<T> {
            match self {
                ItemOutcome::Done(v) => Some(v),
                _ => None,
            }
        }
    }

    /// The fan-out's outcomes as a vector, checking on the way what every
    /// caller relies on: `consume` sees each index once, ascending, on the
    /// calling thread.
    fn collect<T: Send>(
        workers: usize,
        n_items: usize,
        ctl: Option<&Arc<RunControl>>,
        make: impl Fn(usize) -> T + Sync,
    ) -> Vec<ItemOutcome<T>> {
        let caller = std::thread::current().id();
        let mut out = Vec::new();
        run_indexed_ctl(workers, n_items, ctl, make, |i, outcome| {
            assert_eq!(i, out.len(), "outcomes arrive in index order, each once");
            assert_eq!(std::thread::current().id(), caller, "consume runs on the caller");
            out.push(outcome);
        });
        assert_eq!(out.len(), n_items);
        out
    }

    /// Held by the tests whose items rendezvous on the shared pool: two of
    /// them at once could each hold the threads the other is waiting for.
    static RENDEZVOUS: Mutex<()> = Mutex::new(());

    /// Hold the calling item until `n` items are inside this call together,
    /// which takes `n` threads.
    fn arrive_and_wait_for(n: usize, arrived: &(Mutex<usize>, Condvar)) {
        let (count, cv) = arrived;
        let mut c = relock(count);
        *c += 1;
        cv.notify_all();
        drop(cv.wait_while(c, |c| *c < n));
    }

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
    fn consume_sees_every_index_once_ascending_whatever_finishes_first() {
        // Item 2k holds until item 2k + 1 has finished, so each pair
        // completes in reverse order. The hold gives up after 50 ms: with
        // the pool busy under other tests both items of a pair may land on
        // one thread.
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 64] {
                let finished = (Mutex::new(vec![false; n]), Condvar::new());
                let mut order = Vec::new();
                let waited = run_indexed_ctl(
                    workers,
                    n,
                    None,
                    |i| {
                        let (done, cv) = &finished;
                        if workers > 1 && i % 2 == 0 && i + 1 < n {
                            let hold = Duration::from_millis(50);
                            drop(cv.wait_timeout_while(relock(done), hold, |d| !d[i + 1]));
                        }
                        relock(done)[i] = true;
                        cv.notify_all();
                        i * i
                    },
                    |i, outcome| order.push((i, outcome.done())),
                );
                let expected: Vec<_> = (0..n).map(|i| (i, Some(i * i))).collect();
                assert_eq!(order, expected, "workers = {workers}, n = {n}");
                if workers == 1 {
                    assert_eq!(waited, Duration::ZERO, "one worker never waits");
                }
            }
        }
    }

    #[test]
    fn one_worker_interleaves_make_and_consume() {
        let log = Mutex::new(Vec::new());
        run_indexed_ctl(
            1,
            3,
            None,
            |i| relock(&log).push(format!("make {i}")),
            |i, _| relock(&log).push(format!("consume {i}")),
        );
        let log = log.into_inner().unwrap();
        assert_eq!(log, ["make 0", "consume 0", "make 1", "consume 1", "make 2", "consume 2"]);
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
    fn panicking_item_arrives_structured_in_its_place() {
        for workers in [1usize, 4] {
            let outcomes = collect(workers, 8, None, |i| {
                if i == 5 {
                    panic!("injected fault: item five");
                }
                i * 10
            });
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
        // The span the item was in, or the fan-out's own phase if the item
        // had opened none; a panic something caught earlier on the thread
        // (here before the fan-out) leaves no trace in the report.
        let tracer = autofeat_obs::Tracer::enabled();
        for workers in [1usize, 3] {
            let outcomes = autofeat_obs::with_tracer(&tracer, || {
                let _s = autofeat_obs::span("level");
                let _ = catch_unwind(|| {
                    let _s = autofeat_obs::span("stale");
                    panic!("caught before the fan-out");
                });
                collect(workers, 4, None, |i| {
                    if i == 1 {
                        panic!("outside any span of its own");
                    }
                    let _s = autofeat_obs::span("eval");
                    let _s = autofeat_obs::span("join");
                    if i == 3 {
                        panic!("inside two");
                    }
                })
            });
            let reports: Vec<_> = outcomes
                .iter()
                .map(|o| match o {
                    ItemOutcome::Panicked(p) => p.to_string(),
                    _ => String::new(),
                })
                .collect();
            let expected = [
                "",
                "worker panic on item 1 in phase `level`: outside any span of its own",
                "",
                "worker panic on item 3 in phase `level.eval`: inside two",
            ];
            assert_eq!(reports, expected, "workers = {workers}");
        }
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
    fn a_panicking_consume_neither_deadlocks_nor_poisons_the_pool() {
        for workers in [1usize, 4] {
            let made = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_indexed_ctl(
                    workers,
                    64,
                    None,
                    |i| {
                        made.fetch_add(1, Ordering::SeqCst);
                        i
                    },
                    |i, _| assert!(i < 2, "consumer fault at outcome {i}"),
                );
            }));
            let payload = caught.expect_err("the consumer's panic is the caller's");
            assert!(payload_message(payload).contains("consumer fault at outcome 2"));
            // Nothing borrowed is in use once the call has unwound …
            let settled = made.load(Ordering::SeqCst);
            assert!(settled >= 3, "items 0..=2 ran");
            // … and the next fan-out on the same pool runs.
            let again = collect(workers, 16, None, |i| i + 1);
            assert!(again.into_iter().map(ItemOutcome::done).eq((1..=16).map(Some)));
            assert_eq!(made.load(Ordering::SeqCst), settled, "no job outlived its fan-out");
        }
    }

    #[test]
    fn cancelled_control_skips_remaining_items() {
        let ctl = Arc::new(RunControl::new());
        ctl.cancel();
        let outcomes = collect(4, 10, Some(&ctl), |i| i);
        assert!(
            outcomes.iter().all(|o| matches!(o, ItemOutcome::Skipped(Interrupt::Cancelled))),
            "pre-cancelled control skips every item"
        );
    }

    #[test]
    fn a_control_cancelled_mid_way_still_yields_one_outcome_per_index() {
        for workers in [1usize, 4] {
            let ctl = Arc::new(RunControl::new());
            // An item past 9 that started before the cancel holds until it
            // comes, so a thread gets through at most one of them.
            let outcomes = collect(workers, 40, Some(&ctl), |i| {
                if i == 9 {
                    ctl.cancel();
                }
                while i > 9 && ctl.interrupted().is_none() {
                    std::thread::yield_now();
                }
                i
            });
            for (i, o) in outcomes.iter().enumerate() {
                match o {
                    ItemOutcome::Done(v) => assert_eq!(*v, i),
                    ItemOutcome::Skipped(reason) => assert_eq!(*reason, Interrupt::Cancelled),
                    ItemOutcome::Panicked(p) => panic!("{p}"),
                }
            }
            // Item 9 had passed its own poll. Past it, only the items the
            // other `workers − 1` threads were in could have polled before
            // the cancel. Below it anything goes at more than one worker:
            // claiming an item and polling the control are two steps, and a
            // thread that claimed item 8 may get to poll after the cancel.
            assert!(matches!(outcomes[9], ItemOutcome::Done(9)));
            let done_past = outcomes[10..].iter().filter(|o| matches!(o, ItemOutcome::Done(_)));
            assert!(done_past.count() < workers, "workers = {workers}");
            if workers == 1 {
                assert!(outcomes[..9].iter().all(|o| matches!(o, ItemOutcome::Done(_))));
            }
        }
    }

    #[test]
    fn expired_deadline_skips_items() {
        let ctl = Arc::new(RunControl::new()).scoped(Some(std::time::Instant::now()));
        let outcomes = collect(2, 6, Some(&ctl), |i| i);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ItemOutcome::Skipped(Interrupt::DeadlineExceeded))));
    }

    #[test]
    fn a_given_control_is_the_items_control_and_not_the_consumers() {
        let ctl = Arc::new(RunControl::new());
        let sees_it = || RequestScope::capture().ctl.is_some_and(|c| Arc::ptr_eq(&c, &ctl));
        for workers in [1usize, 3] {
            run_indexed_ctl(workers, 6, Some(&ctl), |_| sees_it(), |_, seen| {
                assert_eq!(seen.done(), Some(true));
                assert!(!sees_it(), "consume runs under the caller's own scope");
            });
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
            let outcomes = collect(workers, 4, None, |_| sees_it());
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
        let outcomes = collect(4, 8, None, |_| {
            let scope = RequestScope::capture();
            (scope.recorder.is_some(), scope.faults.is_some_and(|d| Arc::ptr_eq(&d, &dom)))
        });
        for o in outcomes {
            let (has_recorder, same_domain) = o.done().expect("no faults injected");
            assert!(has_recorder, "worker sees the spawner's cache recorder");
            assert!(same_domain, "worker sees the spawner's fault domain");
        }
    }

    #[test]
    fn the_caller_is_a_worker_and_the_pool_grows_to_the_rest() {
        let _alone = relock(&RENDEZVOUS);
        let before = shared_pool().size();
        assert!(before + 1 >= n_workers());
        let caller = std::thread::current().id();
        // Every item holds until all `workers` threads are inside one, so
        // each thread runs exactly one and the caller must be among them.
        let workers = before + 3;
        let arrived = (Mutex::new(0usize), Condvar::new());
        let threads = collect(workers, workers, None, |_| {
            arrive_and_wait_for(workers, &arrived);
            let t = std::thread::current();
            (t.id(), t.name().map(str::to_string))
        });
        assert!(shared_pool().size() >= workers - 1, "`workers − 1` helpers");
        let threads: Vec<_> = threads.into_iter().map(|o| o.done().expect("ran")).collect();
        assert_eq!(threads.iter().filter(|(id, _)| *id == caller).count(), 1);
        for (id, name) in threads {
            if id != caller {
                let name = name.expect("pool threads are named");
                assert!(name.starts_with("autofeat-worker-"), "{name}");
            }
        }
    }

    #[test]
    fn pool_scatter_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        let runs = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let task = || {
            runs.fetch_add(1, Ordering::SeqCst);
            tx.send(()).unwrap();
        };
        assert_eq!(pool.scatter(17, &task, || rx.iter().take(17).count()), 17);
        assert_eq!(pool.scatter(0, &task, || 7), 7, "zero jobs: only `meanwhile` runs");
        assert_eq!(runs.load(Ordering::SeqCst), 17, "one run a job");
    }

    #[test]
    fn pool_survives_panicking_tasks() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        let started = AtomicUsize::new(0);
        let panicking = || {
            tx.send(()).unwrap();
            if started.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
                panic!("injected task fault");
            }
        };
        pool.scatter(6, &panicking, || rx.iter().take(6).count());
        let counting = || tx.send(()).unwrap();
        let ran = pool.scatter(5, &counting, || rx.iter().take(5).count());
        assert_eq!(ran, 5, "workers survive caught task panics");
    }

    #[test]
    fn pool_interleaves_concurrent_scatters() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (tx, rx) = mpsc::channel();
                    let task = || {
                        total.fetch_add(1, Ordering::SeqCst);
                        tx.send(()).unwrap();
                    };
                    pool.scatter(25, &task, || rx.iter().take(25).count());
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 100, "4 concurrent clients × 25 tasks");
    }

    #[test]
    fn a_task_nobody_started_is_dropped_when_the_scatter_ends() {
        // One pool thread, held inside the outer task: the inner scatter's
        // task can only sit in the queue, and the inner scatter returns
        // without waiting for it.
        let pool = WorkerPool::new(1);
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let outer = || {
            started_tx.send(()).unwrap();
            relock(&released).recv().unwrap();
        };
        let inner_ran = AtomicBool::new(false);
        let inner = || inner_ran.store(true, Ordering::SeqCst);
        pool.scatter(1, &outer, || {
            started.recv().unwrap();
            pool.scatter(1, &inner, || ());
            assert_eq!(pool.queue_depth(), 1, "the revoked job is still queued");
            release.send(()).unwrap();
        });
        // The pool thread pops the revoked job, finds its latch closed, and
        // is free again: a fresh scatter runs.
        let (tx, rx) = mpsc::channel();
        let ping = || tx.send(()).unwrap();
        pool.scatter(1, &ping, || rx.recv().unwrap());
        assert!(!inner_ran.load(Ordering::SeqCst), "a closed latch never runs its task");
    }

    #[test]
    fn a_poisoned_queue_lock_still_runs_jobs() {
        // `submit` used to return without queueing on a poisoned lock, and
        // the scatter then waited forever for a job that was never there.
        let poison = |pool: &WorkerPool| {
            let shared = Arc::clone(&pool.inner);
            let died = std::thread::spawn(move || {
                let _q = shared.queue.lock().unwrap();
                panic!("poison the queue lock");
            })
            .join();
            assert!(died.is_err() && pool.inner.queue.is_poisoned());
        };
        let pool = WorkerPool::new(2);
        poison(&pool);
        let (tx, rx) = mpsc::channel();
        let task = || tx.send(()).unwrap();
        assert_eq!(pool.scatter(5, &task, || rx.iter().take(5).count()), 5);
        assert_eq!(pool.queue_depth(), 0);

        // The shared pool too; every lock site recovers, so the other tests
        // of this binary are unaffected. All four threads hold until they
        // are inside an item together, so three of them are pool jobs that
        // went through the poisoned queue.
        let _alone = relock(&RENDEZVOUS);
        shared_pool().grow_to(3);
        poison(shared_pool());
        let arrived = (Mutex::new(0usize), Condvar::new());
        let outcomes = collect(4, 4, None, |i| {
            arrive_and_wait_for(4, &arrived);
            i
        });
        assert!(outcomes.into_iter().map(ItemOutcome::done).eq((0..4).map(Some)));
    }

    #[test]
    fn pool_gauges_track_busy_and_return_to_idle() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.busy_workers(), 0);
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let task = || {
            started_tx.send(()).unwrap();
            relock(&released).recv().unwrap();
        };
        pool.scatter(1, &task, || {
            // The job is running (parked on `released`), so the busy gauge
            // must observe it.
            started.recv().unwrap();
            assert_eq!(pool.busy_workers(), 1, "busy gauge observes an in-flight job");
            release.send(()).unwrap();
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
    fn nested_fan_out_runs_inline_on_the_caller_as_on_a_pool_thread() {
        // A fan-out from inside an item claims and consumes on the item's
        // own thread, whichever thread that is: a request's `workers` bounds
        // its threads, and nothing waits on a pool its own items fill. With
        // one outer worker every item, and so every nested one, is on the
        // caller.
        let here = || std::thread::current().id();
        let caller = here();
        for outer_workers in [1usize, 4] {
            let outcomes = collect(outer_workers, 6, None, |i| {
                let outer = here();
                let inner = collect(4, 3, None, move |j| (here(), i * 10 + j));
                let inner: Vec<(ThreadId, usize)> =
                    inner.into_iter().map(|o| o.done().expect("inner item done")).collect();
                assert!(inner.iter().all(|(t, _)| *t == outer), "inline on the item's thread");
                (outer, inner.into_iter().map(|(_, v)| v).collect::<Vec<_>>())
            });
            for (i, o) in outcomes.into_iter().enumerate() {
                let (outer, inner) = o.done().expect("outer item done");
                assert_eq!(inner, vec![i * 10, i * 10 + 1, i * 10 + 2]);
                assert!(outer_workers > 1 || outer == caller);
            }
        }
    }

    #[test]
    fn two_concurrent_callers_on_the_shared_pool_both_finish() {
        // Both are inside item 0 at the same time, each with helpers asked
        // of the same pool.
        let _alone = relock(&RENDEZVOUS);
        let both_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2usize)
                .map(|c| {
                    let both_in = &both_in;
                    s.spawn(move || {
                        collect(3, 32, None, move |i| {
                            if i == 0 {
                                both_in.wait();
                            }
                            c * 1000 + i
                        })
                    })
                })
                .collect();
            for (c, h) in callers.into_iter().enumerate() {
                let outcomes = h.join().expect("caller finished");
                assert!(outcomes
                    .into_iter()
                    .map(ItemOutcome::done)
                    .eq((0..32).map(|i| Some(c * 1000 + i))));
            }
        });
    }
}
