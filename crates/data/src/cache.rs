//! Lake-wide join-index cache with memory governance.
//!
//! Discovery evaluates many join paths that funnel through the same few
//! satellite tables: every hop that joins against table `T` on column `c`
//! needs the same index, whose pick array holds a representative row per
//! key. The [`LakeIndexCache`] builds each `(table, join column)` index
//! **once**, thread-safely, and serves it to every subsequent join: the
//! hop seed that filled its pick array — the same request served again —
//! then costs one probe and one read per left row, and any other seed a fold
//! over the rows its left keys need.
//!
//! ## Memory governance
//!
//! Resident index bytes are bounded by an optional **byte budget**
//! ([`LakeIndexCache::set_budget`], defaulted from `AUTOFEAT_CACHE_BUDGET`
//! at construction, unbounded when unset). Two mechanisms enforce it:
//!
//! * **Fit-or-deny admission, decided before the build** — an index's
//!   footprint is a pure function of its join column's dictionary (a
//!   pick-array row id per code: `join::index_bytes`), so the first touch
//!   of a cold pair decides: an index that fits the remaining budget gets a
//!   slot with its bytes admitted up front; one that does not gets no slot
//!   at all, and its join is **transient** — it folds only the right rows
//!   its left keys need (`join::fold_unindexed`) and builds no index
//!   (counted in [`CacheStats::rejections`]). Admission never evicts:
//!   under the uniform cyclic access pattern of a discovery sweep,
//!   evict-to-admit degenerates to cache thrash (every entry evicted just
//!   before its reuse — zero hits at *any* budget below the working set),
//!   while pinning the first fitting subset serves that subset on every
//!   revisit.
//! * **LRU eviction on budget shrink** — [`set_budget`](LakeIndexCache::set_budget)
//!   with a budget below current residency evicts coldest-first (per-slot
//!   last-touch clocks, bumped on every probe) until residency fits.
//!
//! Eviction can never invalidate an in-flight join: entries hand out
//! `Arc<JoinIndex>` clones, so an evicted index stays alive until its last
//! borrower drops it — the cache merely stops *retaining* it. And because
//! every join picks by the same rule (see *Determinism* below),
//! denial/eviction can change only *what is rebuilt*, never what any join
//! produces: a cache at any budget, 0 included, is bit-identical to an
//! unbounded one.
//!
//! Accounting is **ownership-accurate**: resident bytes are registered only
//! for slots the map actually holds (admitted entries, counted from the
//! moment the slot is made, while its build is still running), and deducted
//! on eviction, invalidation or a build panic. Transient joins and builds —
//! admission denials, and the degraded path that hands out unowned entries
//! when the governor lock is poisoned — never touch residency, so stats
//! cannot report phantom memory.
//! The dictionary an index reads through, its fingerprints included,
//! follows the same rule. The table owns it — charged to
//! [`Table::key_meta_bytes`](crate::table::Table::key_meta_bytes), shared by
//! every index over the table — so `JoinIndex::resident_bytes` counts only
//! the pick array the cache retains (charged from the build, so a fill
//! never moves residency).
//!
//! ## Resilience
//!
//! Two fault classes degrade gracefully, and both are *counted*, never
//! silently swallowed: a poisoned governor lock falls back to transient
//! entries ([`CacheStats::lock_recoveries`]), and a panic inside an index
//! build or a transient join's fold is isolated with `catch_unwind` —
//! the caller gets a structured [`DataError::BuildPanicked`], an empty slot
//! is dropped so later touches retry, and the event lands in
//! [`CacheStats::build_panics`]. Cold builds also poll the ambient
//! [`control`](crate::control) before starting (a transient fold also
//! between the blocks of its scan), so a cancelled or deadline-expired run
//! never pays for an index it cannot use.
//!
//! ## Concurrency
//!
//! The governor (slot map + accounting) sits behind an [`RwLock`]; each slot
//! holds an `Arc<OnceLock<…>>` cell so that index **construction happens
//! outside the map lock** — two threads racing on the same cold entry
//! serialize only on that entry's `OnceLock` (one builds and counts a miss,
//! the other waits and counts a hit), while joins against other tables
//! proceed untouched. A slot exists only for an index the cache keeps, so a
//! waiter never counts a hit on a build that is then thrown away: each
//! denied join counts its own miss, rejection and build time, at any worker
//! count. The hit path is allocation-free: probes hash the
//! `(table, column)` pair with the repo's FNV [`StableHasher`] and verify
//! within the bucket by `&str` comparison — no key `String`s are built
//! after a slot's first insertion.
//!
//! ## Determinism
//!
//! A join through the cache is [`JoinIndex::build`] then
//! [`join::left_join_with_index`](crate::join::left_join_with_index),
//! whether the index is retained or served from a slot — the composition
//! [`join::left_join_normalized`](crate::join::left_join_normalized) spells
//! out without a cache, and which the tests compare against — or, for a
//! join the budget denies, the fold over only the rows the left keys need.
//! Fingerprints are seed-independent, so one index serves every seed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use autofeat_obs as obs;

use crate::column::Column;
use crate::control;
use crate::error::{DataError, Result};
use crate::join::{
    fold_unindexed, index_bytes, join_through, left_join_with_index, JoinIndex, JoinOutput, Probe,
};
use crate::keydict::KeyDict;
use crate::stable_hash::StableHasher;
use crate::table::Table;

/// Environment variable consulted by [`LakeIndexCache::new`] for a default
/// byte budget. Accepts plain bytes or a binary-suffixed size (`K`/`M`/`G`),
/// e.g. `AUTOFEAT_CACHE_BUDGET=24M`. Unset, empty, or unparsable values
/// leave the cache unbounded.
pub(crate) const CACHE_BUDGET_ENV: &str = "AUTOFEAT_CACHE_BUDGET";

/// Parse a byte-budget string: plain bytes (`"1048576"`) or a number with a
/// case-insensitive binary suffix (`"512K"`, `"24M"`, `"2G"`, optionally
/// `"24MiB"`/`"24MB"`). Returns `None` for empty or malformed input.
pub(crate) fn parse_budget_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let digits_end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (num, suffix) = s.split_at(digits_end);
    let base: u64 = num.parse().ok()?;
    let mult: u64 = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1,
        "k" | "kb" | "kib" => 1 << 10,
        "m" | "mb" | "mib" => 1 << 20,
        "g" | "gb" | "gib" => 1 << 30,
        _ => return None,
    };
    base.checked_mul(mult)
}

/// A point-in-time snapshot of [`LakeIndexCache`] counters, for
/// observability (discovery results, health reports, benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Joins served from an index the cache keeps, built or being built by
    /// another join.
    pub hits: u64,
    /// Joins that had to build first: the build of a kept index (one per
    /// cold entry, however many joins race on it), or a join the budget
    /// denied, which builds for itself on every touch — an index for
    /// `get_or_build`, the fold of only the rows its left keys need for
    /// `left_join_normalized`.
    pub misses: u64,
    /// Total wall time spent in those builds.
    pub build_time: Duration,
    /// Approximate heap footprint of all *retained* indexes, in bytes,
    /// each counted from when its slot is made, before its build finishes.
    /// Transient joins and builds (admission denials, degraded-mode
    /// entries) are never counted.
    pub resident_bytes: u64,
    /// Number of `(table, join column)` indexes resident.
    pub entries: u64,
    /// Indexes evicted by a budget shrink ([`LakeIndexCache::set_budget`]).
    pub evictions: u64,
    /// Total bytes released by those evictions.
    pub evicted_bytes: u64,
    /// Joins whose index did not fit the budget, decided before anything
    /// is built. Each is also a miss.
    pub rejections: u64,
    /// High-water mark of `resident_bytes` since the budget was last
    /// (re)applied — [`set_budget`](LakeIndexCache::set_budget) starts a new
    /// peak epoch, so a budgeted run reports its own peak.
    pub peak_resident_bytes: u64,
    /// The byte budget in force, `None` when unbounded.
    pub budget_bytes: Option<u64>,
    /// Operations that found the governor lock poisoned and degraded
    /// (transient entries, skipped accounting) instead of failing. Always
    /// zero in a healthy process; nonzero means a thread panicked while
    /// holding the governor.
    pub lock_recoveries: u64,
    /// Index builds, and folds of denied joins, that panicked. Each was
    /// isolated (`catch_unwind`) and surfaced to its caller as a structured
    /// error; an empty slot was dropped so later touches retry.
    pub build_panics: u64,
    /// Slots dropped by targeted invalidation
    /// ([`LakeIndexCache::invalidate_table`]) — the lake-mutation path
    /// removes exactly the mutated table's entries, never flushing the rest.
    pub invalidations: u64,
    /// Total resident bytes released by those invalidations.
    pub invalidated_bytes: u64,
}

/// The cache's one counter set: a [`LakeIndexCache`] holds one for its
/// lifetime totals, and each request carries its own in its
/// [`RequestScope`](crate::scope::RequestScope) (which fan-out workers
/// enter).
///
/// Every cache event is counted by one call that bumps the cache's set and
/// the set of the thread doing the work — so a hit is credited to exactly
/// the request that probed, a build to the request whose worker won the
/// build race, an eviction to the request whose budget application
/// triggered it, and the sets of all requests sum to the cache's totals. (A
/// before/after delta of the totals would misattribute the moment two
/// requests overlap.) [`LakeIndexCache::stats`] and
/// [`attributed`](CacheRecorder::attributed) read through one loader.
#[derive(Debug, Default)]
pub struct CacheRecorder {
    hits: AtomicU64,
    misses: AtomicU64,
    build_nanos: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    rejections: AtomicU64,
    lock_recoveries: AtomicU64,
    build_panics: AtomicU64,
    invalidations: AtomicU64,
    invalidated_bytes: AtomicU64,
}

impl CacheRecorder {
    /// A fresh recorder, ready to share with fan-out workers.
    pub fn new() -> Arc<CacheRecorder> {
        Arc::new(CacheRecorder::default())
    }

    /// Admission rejections attributed to this request so far (the
    /// degradation ladder's cache-pressure signal).
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// This request's activity as a [`CacheStats`]: the monotonic counters
    /// are **this request's own work**; the occupancy fields
    /// (resident/entries/peak/budget) are read from `cache`, since
    /// occupancy describes the shared structure, not any one request.
    pub fn attributed(&self, cache: &LakeIndexCache) -> CacheStats {
        self.load(cache.occupancy())
    }

    /// The one loader: these counters beside `occ`.
    fn load(&self, occ: Occupancy) -> CacheStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: get(&self.hits),
            misses: get(&self.misses),
            build_time: Duration::from_nanos(get(&self.build_nanos)),
            resident_bytes: occ.resident,
            entries: occ.entries,
            evictions: get(&self.evictions),
            evicted_bytes: get(&self.evicted_bytes),
            rejections: get(&self.rejections),
            peak_resident_bytes: occ.peak,
            budget_bytes: occ.budget,
            lock_recoveries: get(&self.lock_recoveries),
            build_panics: get(&self.build_panics),
            invalidations: get(&self.invalidations),
            invalidated_bytes: get(&self.invalidated_bytes),
        }
    }
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// What the governor holds beside the counters (all zero when its lock is
/// poisoned).
#[derive(Default)]
struct Occupancy {
    resident: u64,
    peak: u64,
    entries: u64,
    budget: Option<u64>,
}

type Entry = Arc<OnceLock<Arc<JoinIndex>>>;

/// One cached `(table, join column)` pair, admitted when it was made.
#[derive(Debug)]
struct Slot {
    table: String,
    column: String,
    /// The key column this slot's index was (or will be) built from — a
    /// cheap `Arc` clone held for *data-version identity*: probes verify
    /// [`Column::shares_payload`] so a re-added table with the same name but
    /// different contents gets a distinct slot instead of being served a
    /// stale index (and in-flight requests over the old snapshot keep
    /// hitting the old version's slot until it is invalidated).
    key_col: Column,
    cell: Entry,
    /// Logical last-touch time (global probe clock); bumped on every probe,
    /// read by LRU eviction. Atomic so hits can touch it under the governor
    /// *read* lock.
    last_touch: AtomicU64,
    /// Admitted footprint in bytes, fixed by the column's dictionary when
    /// the slot is made: part of governor residency until the slot goes.
    bytes: u64,
}

/// What [`LakeIndexCache::probe`] found for a `(table, column)` pair.
enum Probed {
    /// The pair's slot cell, built or not.
    Slot(Entry),
    /// A cold pair whose index the budget would deny, decided from its
    /// table's dictionary: no slot was made, and the join goes without one.
    Denied(Arc<KeyDict>),
}

/// FNV bucket map: slot key hash → slots verifying to distinct pairs. The
/// hash is a pure function of the strings, so probes never allocate.
type SlotMap = HashMap<u64, Vec<Slot>, BuildHasherDefault<StableHasher>>;

fn slot_hash(table: &str, column: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write(table.as_bytes());
    h.write_u8(0xff); // field terminator: ("ab","c") ≠ ("a","bc")
    h.write(column.as_bytes());
    h.finish()
}

/// `table`'s join column `column`, once the checks every cache join makes
/// first have passed: the column exists, the table is small enough to
/// index, and the run has not been interrupted — a cold build is the
/// costliest single step a join takes, so this is a natural interrupt
/// point. All of them run before any locking, so none poisons an entry.
fn checked_key<'t>(table: &'t Table, column: &str) -> Result<&'t Column> {
    let key_col = table.column(column)?;
    crate::join::check_row_count(table.name(), key_col.len())?;
    control::poll_ambient()?;
    Ok(key_col)
}

/// Mutable cache state: the slot map plus the occupancy that must move
/// atomically with it (residency, peak, the budget itself).
#[derive(Debug, Default)]
struct Governor {
    buckets: SlotMap,
    resident: u64,
    peak_resident: u64,
    budget: Option<u64>,
}

impl Governor {
    /// The invariant, asserted (debug builds) wherever residency changes:
    /// `resident` is the admitted slots' bytes, within the budget if one is set.
    fn check(&self) {
        let admitted = || self.buckets.values().flatten().map(|s| s.bytes).sum::<u64>();
        debug_assert_eq!(self.resident, admitted(), "resident bytes drift from the admitted slots");
        let within = self.budget.is_none_or(|b| self.resident <= b);
        debug_assert!(within, "resident {} bytes over the budget {:?}", self.resident, self.budget);
    }

    /// Evict the coldest admitted slot, returning its bytes; `None` when
    /// nothing is admitted (residency 0).
    fn evict_coldest(&mut self) -> Option<u64> {
        let mut victim: Option<(u64, usize, u64)> = None; // (bucket, idx, touch)
        for (&h, bucket) in &self.buckets {
            for (i, s) in bucket.iter().enumerate() {
                if s.bytes == 0 {
                    continue;
                }
                let touch = s.last_touch.load(Ordering::Relaxed);
                if victim.is_none_or(|(_, _, t)| touch < t) {
                    victim = Some((h, i, touch));
                }
            }
        }
        let (h, i, _) = victim?;
        let bucket = self.buckets.get_mut(&h).expect("victim bucket exists");
        let slot = bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&h);
        }
        self.resident -= slot.bytes;
        // The slot's `cell` (and the Arc'd index inside) drops here; any
        // in-flight join still holding a clone keeps the index alive.
        Some(slot.bytes)
    }
}

/// Thread-safe, lazily-populated, budget-governed cache of [`JoinIndex`]es
/// keyed by `(table name, join column)`.
///
/// Owned (behind an `Arc`) by the search context so that discovery, path
/// materialization, and every baseline share one set of indexes per lake.
/// Indexes are immutable once built; retention is bounded by the byte
/// budget (see the module docs — fit-or-deny admission, LRU eviction on
/// budget shrink, unbounded by default).
#[derive(Debug)]
pub struct LakeIndexCache {
    gov: RwLock<Governor>,
    /// Global probe clock feeding the slots' last-touch stamps.
    clock: AtomicU64,
    /// Lifetime totals of every counted event.
    totals: CacheRecorder,
}

impl Default for LakeIndexCache {
    /// Same as [`LakeIndexCache::new`]: the budget defaults from
    /// `AUTOFEAT_CACHE_BUDGET`.
    fn default() -> LakeIndexCache {
        LakeIndexCache::new()
    }
}

impl LakeIndexCache {
    /// Create an empty cache whose budget defaults from
    /// `AUTOFEAT_CACHE_BUDGET` (unbounded when unset). The env default means
    /// every consumer of a fresh context — discovery, materialization, the
    /// baselines — honors an operator-imposed budget without any config
    /// plumbing. This is the one place the variable is read: after
    /// construction only [`set_budget`](Self::set_budget) changes the budget.
    pub fn new() -> LakeIndexCache {
        let env = std::env::var(CACHE_BUDGET_ENV).ok();
        LakeIndexCache::with_budget(env.as_deref().and_then(parse_budget_bytes))
    }

    /// Create an empty cache with an explicit byte budget (`None` =
    /// unbounded), ignoring the environment.
    pub fn with_budget(budget: Option<u64>) -> LakeIndexCache {
        LakeIndexCache {
            gov: RwLock::new(Governor { budget, ..Governor::default() }),
            clock: AtomicU64::new(0),
            totals: CacheRecorder::default(),
        }
    }

    /// Count one event: into the cache's totals and into the recorder of
    /// the calling thread's scope, if it has one.
    fn count(&self, f: impl Fn(&CacheRecorder)) {
        f(&self.totals);
        crate::scope::with_current(|s| s.recorder.as_deref().map(&f));
    }

    /// Count one poisoned-lock fallback: degraded mode is tolerated, but
    /// never silent.
    fn note_lock_recovery(&self) {
        self.count(|r| add(&r.lock_recoveries, 1));
    }

    /// (Re)apply a byte budget. When the new budget is below current
    /// residency, coldest slots (least-recent last touch) are evicted until
    /// residency fits. Also starts a new `peak_resident_bytes` epoch at the
    /// post-eviction residency, so stats taken after a run report the peak
    /// *under this budget*. In-flight joins are unaffected: they hold
    /// `Arc` clones of any index this call evicts.
    pub fn set_budget(&self, budget: Option<u64>) {
        let Ok(mut gov) = self.gov.write() else {
            self.note_lock_recovery();
            return;
        };
        gov.budget = budget;
        // Evictions run on the thread applying the budget, so they are
        // credited to the request that caused them.
        while budget.is_some_and(|b| gov.resident > b) {
            let Some(bytes) = gov.evict_coldest() else { break };
            self.count(|r| {
                add(&r.evictions, 1);
                add(&r.evicted_bytes, bytes);
            });
        }
        gov.peak_resident = gov.resident;
        gov.check();
    }

    /// The join index for `(table, column)`, building it on first use.
    ///
    /// Errors only when `column` is missing from `table` or the table is
    /// too large to index (both resolved before any locking, so neither
    /// poisons an entry). The first
    /// caller per entry builds and counts a **miss**; every other caller —
    /// including threads that waited on a racing build — counts a **hit**.
    /// Every miss corresponds to exactly one index build. An index the
    /// budget denies is built for this caller alone, without a slot, and
    /// counts a miss and a rejection on every touch.
    pub fn get_or_build(&self, table: &Table, column: &str) -> Result<Arc<JoinIndex>> {
        let key_col = checked_key(table, column)?;
        match self.probe(table, column, key_col) {
            Probed::Slot(entry) => self.serve(table, column, key_col, &entry),
            Probed::Denied(_) => {
                self.denied(table, || Ok(Arc::new(JoinIndex::build(table, key_col)?)))
            }
        }
    }

    /// The index in `entry`, built here if nobody has: the builder counts
    /// the miss, everyone else — threads that waited on its build included
    /// — a hit.
    fn serve(
        &self,
        table: &Table,
        column: &str,
        key_col: &Column,
        entry: &Entry,
    ) -> Result<Arc<JoinIndex>> {
        let mut built = false;
        // Panic isolation: a poisoned table must fail *this* entry, not
        // abort the run. `OnceLock::get_or_init` leaves the cell
        // uninitialized when the initializer panics, so the empty slot is
        // dropped and later touches retry cleanly.
        let build_result = catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(entry.get_or_init(|| {
                built = true;
                let _span = obs::span("index_build");
                let t0 = Instant::now();
                let index = Arc::new(
                    JoinIndex::build(table, key_col).expect("row count checked before the probe"),
                );
                self.note_build(t0.elapsed());
                index
            }))
        }));
        let index = match build_result {
            Ok(index) => index,
            Err(payload) => {
                self.forget_unbuilt(table.name(), column, entry);
                return Err(self.build_panicked(table, payload));
            }
        };
        // Exactly one miss per cold entry even when builders race: the
        // OnceLock winner counts the miss, waiters count hits — so the
        // hit/miss totals are invariant across worker thread counts.
        self.count(|r| add(if built { &r.misses } else { &r.hits }, 1));
        Ok(index)
    }

    /// The build of a join whose index the budget denies: `build` runs
    /// without a slot, under the `index_build` span and the panic isolation
    /// of a retained build, and once it succeeds counts one miss, one
    /// rejection and one build-time observation.
    fn denied<T>(&self, table: &Table, build: impl FnOnce() -> Result<T>) -> Result<T> {
        let _span = obs::span("index_build");
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(build))
            .unwrap_or_else(|payload| Err(self.build_panicked(table, payload)))?;
        self.note_build(t0.elapsed());
        self.count(|r| {
            add(&r.misses, 1);
            add(&r.rejections, 1);
        });
        Ok(built)
    }

    /// Count one build: its `cache.index_build_secs` observation and time.
    fn note_build(&self, elapsed: Duration) {
        obs::record_secs("cache.index_build_secs", elapsed.as_secs_f64());
        self.count(|r| add(&r.build_nanos, elapsed.as_nanos() as u64));
    }

    /// Count an isolated build panic and turn it into the caller's error.
    fn build_panicked(&self, table: &Table, payload: Box<dyn std::any::Any + Send>) -> DataError {
        self.count(|r| add(&r.build_panics, 1));
        DataError::BuildPanicked {
            table: table.name().to_string(),
            message: crate::parallel::payload_message(payload),
        }
    }

    /// Drop the slot owning `entry` if its cell is still unbuilt — the
    /// cleanup path after an isolated build panic, so the poisoned entry
    /// does not pin an empty slot forever and a later touch can retry.
    fn forget_unbuilt(&self, table: &str, column: &str, entry: &Entry) {
        let h = slot_hash(table, column);
        let Ok(mut gov) = self.gov.write() else {
            self.note_lock_recovery();
            return;
        };
        let Some(bucket) = gov.buckets.get_mut(&h) else { return };
        if let Some(i) = bucket.iter().position(|s| {
            s.table == table
                && s.column == column
                && Arc::ptr_eq(&s.cell, entry)
                && s.cell.get().is_none()
        }) {
            let slot = bucket.swap_remove(i);
            if bucket.is_empty() {
                gov.buckets.remove(&h);
            }
            gov.resident -= slot.bytes;
            gov.check();
        }
    }

    /// Cached equivalent of
    /// [`join::left_join_normalized`](crate::join::left_join_normalized):
    /// resolves (or builds) the index for `(right, right_key)` and performs
    /// the indexed join. A join whose index the budget denies builds none:
    /// it folds only the right rows its left keys need
    /// (`join::fold_unindexed`) and probes the result. Bit-identical to the
    /// free function either way.
    pub fn left_join_normalized(
        &self,
        left: &Table,
        right: &Table,
        left_key: &str,
        right_key: &str,
        prefix: &str,
        seed: u64,
    ) -> Result<JoinOutput> {
        let key_col = checked_key(right, right_key)?;
        let index = match self.probe(right, right_key, key_col) {
            Probed::Slot(entry) => self.serve(right, right_key, key_col, &entry)?,
            Probed::Denied(dict) => {
                let lk = left.column(left_key)?;
                let folded = self.denied(right, || fold_unindexed(lk, right, &dict, seed))?;
                return join_through(left, right, lk, &dict, prefix, || Ok(Probe::Folded(folded)));
            }
        };
        left_join_with_index(left, right, &index, left_key, prefix, seed)
    }

    /// Drop every slot belonging to `table` — built, denied-then-recreated,
    /// or still unbuilt — releasing their resident bytes. The lake-mutation
    /// path (`add_table`/`remove_table`) calls this so a mutated table's
    /// stale indexes are released promptly while every other table's
    /// entries stay warm; a full flush is never needed. In-flight joins
    /// holding `Arc` clones of an invalidated index are unaffected.
    ///
    /// Returns the number of slots removed.
    pub fn invalidate_table(&self, table: &str) -> u64 {
        let Ok(mut gov) = self.gov.write() else {
            self.note_lock_recovery();
            return 0;
        };
        let mut removed = 0u64;
        let mut bytes = 0u64;
        gov.buckets.retain(|_, bucket| {
            bucket.retain(|s| {
                if s.table == table {
                    removed += 1;
                    bytes += s.bytes;
                    false
                } else {
                    true
                }
            });
            !bucket.is_empty()
        });
        if removed > 0 {
            gov.resident -= bytes;
            self.count(|r| {
                add(&r.invalidations, removed);
                add(&r.invalidated_bytes, bytes);
            });
        }
        gov.check();
        removed
    }

    /// Point-in-time snapshot: the lifetime totals beside the occupancy.
    pub fn stats(&self) -> CacheStats {
        self.totals.load(self.occupancy())
    }

    fn occupancy(&self) -> Occupancy {
        let Ok(g) = self.gov.read() else {
            self.note_lock_recovery();
            return Occupancy::default();
        };
        let entries = g.buckets.values().flatten().filter(|s| s.cell.get().is_some()).count();
        Occupancy {
            resident: g.resident,
            peak: g.peak_resident,
            entries: entries as u64,
            budget: g.budget,
        }
    }

    /// The slot cell for `(table, column)`, making an empty slot on first
    /// touch — or, for a cold pair whose index the budget would deny, no
    /// slot at all. Allocation-free on the hit path: the pair is FNV-hashed
    /// and verified by `&str` comparison inside the bucket; key `String`s
    /// are cloned only when a new slot is inserted.
    ///
    /// **Admission is decided here, before anything is built**: an index's
    /// footprint follows from the column's dictionary ([`index_bytes`]),
    /// which the first join keyed on the column builds here. A slot that
    /// fits is made with its bytes already admitted, so a thread waiting on
    /// its build waits on an index the cache keeps.
    fn probe(&self, table: &Table, column: &str, key_col: &Column) -> Probed {
        let h = slot_hash(table.name(), column);
        let touch = || self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let verifies = |s: &Slot| {
            s.table == table.name() && s.column == column && s.key_col.shares_payload(key_col)
        };
        // Fast path: shared read lock, atomic LRU touch.
        if let Ok(gov) = self.gov.read() {
            if let Some(slot) = gov.buckets.get(&h).and_then(|b| b.iter().find(|s| verifies(s))) {
                slot.last_touch.store(touch(), Ordering::Relaxed);
                return Probed::Slot(Arc::clone(&slot.cell));
            }
        }
        // The first join keyed on the column builds the dictionary here: a
        // cold index's first step, so it is traced as part of `index_build`.
        let dict = {
            let _span = obs::span("index_build");
            Arc::clone(table.key_dict_for(key_col).expect("`checked_key` takes the table's own"))
        };
        let bytes = index_bytes(&dict) as u64;
        // Slow path: insert a fresh (empty) slot. Index construction
        // happens later, outside this lock, via the entry's OnceLock.
        match self.gov.write() {
            Ok(mut guard) => {
                let gov = &mut *guard;
                let found = gov.buckets.get(&h).and_then(|b| b.iter().find(|s| verifies(s)));
                if let Some(slot) = found {
                    slot.last_touch.store(touch(), Ordering::Relaxed);
                    return Probed::Slot(Arc::clone(&slot.cell));
                }
                if gov.budget.is_some_and(|b| gov.resident + bytes > b) {
                    return Probed::Denied(dict);
                }
                gov.resident += bytes;
                gov.peak_resident = gov.peak_resident.max(gov.resident);
                let slot = Slot {
                    table: table.name().to_string(),
                    column: column.to_string(),
                    key_col: key_col.clone(),
                    cell: Entry::default(),
                    last_touch: AtomicU64::new(touch()),
                    bytes,
                };
                let cell = Arc::clone(&slot.cell);
                gov.buckets.entry(h).or_default().push(slot);
                gov.check();
                Probed::Slot(cell)
            }
            // A poisoned lock means a thread panicked while holding the
            // governor; fall back to an uncached transient entry so callers
            // still make progress. The entry is unowned and its bytes are
            // never registered — degraded mode cannot leak phantom
            // residency into the stats. Counted: degraded, never silent.
            Err(_) => {
                self.note_lock_recovery();
                Probed::Slot(Entry::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::join::left_join_normalized;
    use crate::scope::RequestScope;

    /// The calling thread's scope, recording into `rec`.
    fn recording(rec: &Arc<CacheRecorder>) -> RequestScope {
        RequestScope { recorder: Some(Arc::clone(rec)), ..RequestScope::capture() }
    }

    fn lake_table(name: &str, dup: i64) -> Table {
        let n = 48i64;
        Table::new(
            name,
            vec![
                ("key", Column::from_ints((0..n).map(|i| Some(i / dup)))),
                ("v", Column::from_ints((0..n).map(Some))),
            ],
        )
        .unwrap()
    }

    fn base() -> Table {
        Table::new("base", vec![("id", Column::from_ints((0..8).map(Some)))]).unwrap()
    }

    /// Footprint of one `lake_table` index — every `lake_table` has the
    /// same shape, so budgets can be expressed in index multiples.
    fn one_index_bytes() -> u64 {
        let t = lake_table("probe", 6);
        JoinIndex::build(&t, t.column("key").unwrap()).unwrap().resident_bytes() as u64
    }

    #[test]
    fn recorders_attribute_activity_per_request() {
        let cache = LakeIndexCache::with_budget(None);
        let l = base();
        let r = lake_table("rec_attr_sat", 6);
        let a = CacheRecorder::new();
        let b = CacheRecorder::new();
        {
            let _g = recording(&a).enter();
            cache.left_join_normalized(&l, &r, "id", "key", "s", 1).unwrap(); // miss
            cache.left_join_normalized(&l, &r, "id", "key", "s", 2).unwrap(); // hit
        }
        {
            let _g = recording(&b).enter();
            cache.left_join_normalized(&l, &r, "id", "key", "s", 3).unwrap(); // hit
        }
        let sa = a.attributed(&cache);
        let sb = b.attributed(&cache);
        assert_eq!((sa.hits, sa.misses), (1, 1), "request A built once, hit once");
        assert_eq!((sb.hits, sb.misses), (1, 0), "request B only hit");
        assert!(sa.build_time > Duration::ZERO, "build time lands on the builder");
        assert_eq!(sb.build_time, Duration::ZERO);
        let global = cache.stats();
        assert_eq!(global.hits, sa.hits + sb.hits, "recorders sum to the global delta");
        assert_eq!(global.misses, sa.misses + sb.misses);
        assert_eq!(sa.resident_bytes, global.resident_bytes, "occupancy is shared state");
        assert!(RequestScope::capture().recorder.is_none(), "guards restored");

        // Every other kind of event, split between the two: B's budget
        // evicts A's index, A's next build is denied, B invalidates.
        let r2 = lake_table("rec_attr_sat2", 6);
        {
            let _g = recording(&b).enter();
            cache.left_join_normalized(&l, &r2, "id", "key", "s", 4).unwrap(); // miss
            cache.set_budget(Some(one_index_bytes())); // evicts rec_attr_sat
        }
        {
            let _g = recording(&a).enter();
            cache.left_join_normalized(&l, &r, "id", "key", "s", 5).unwrap(); // denied
        }
        {
            let _g = recording(&b).enter();
            cache.invalidate_table("rec_attr_sat2");
        }
        let monotone = |s: CacheStats| {
            [
                s.hits,
                s.misses,
                s.build_time.as_nanos() as u64,
                s.evictions,
                s.evicted_bytes,
                s.rejections,
                s.lock_recoveries,
                s.build_panics,
                s.invalidations,
                s.invalidated_bytes,
            ]
        };
        let (sa, sb) = (monotone(a.attributed(&cache)), monotone(b.attributed(&cache)));
        let summed: Vec<u64> = sa.iter().zip(&sb).map(|(x, y)| x + y).collect();
        assert_eq!(summed, monotone(cache.stats()), "recorders sum to the totals, field by field");
        assert_eq!([sa[5], sb[3], sb[8]], [1, 1, 1], "rejection on A; eviction, invalidation on B");
    }

    /// One recorder, the only user of a fresh cache, drives every kind of
    /// event: what it holds and what the cache reports are one loader over
    /// the same counts.
    #[test]
    fn sole_recorder_equals_cache_stats() {
        let cache = LakeIndexCache::with_budget(None);
        let (l, one) = (base(), one_index_bytes());
        let rec = CacheRecorder::new();
        let faults = crate::FaultDomain::new();
        let _g = RequestScope { faults: Some(faults.clone()), ..recording(&rec) }.enter();
        let [a, b, c, d] = ["sole_a", "sole_b", "sole_c", "sole_d"].map(|name| lake_table(name, 6));
        let join = |r: &Table| cache.left_join_normalized(&l, r, "id", "key", "p", 1);
        join(&a).unwrap(); // miss
        join(&a).unwrap(); // hit
        cache.set_budget(Some(one));
        join(&b).unwrap(); // miss, admission rejected
        cache.set_budget(Some(0)); // evicts sole_a
        cache.set_budget(None);
        let panic_on_row = Some(2);
        faults.arm("sole_c", crate::faults::TableFaults { panic_on_row, slow_join_ms: None });
        assert!(matches!(join(&c), Err(DataError::BuildPanicked { .. })));
        join(&d).unwrap(); // miss
        assert_eq!(cache.invalidate_table("sole_d"), 1);
        let st = cache.stats();
        assert_eq!(rec.attributed(&cache), st);
        let counts = [st.hits, st.misses, st.rejections, st.evictions];
        assert_eq!(counts, [1, 3, 1, 1], "{st:?}");
        assert_eq!([st.build_panics, st.invalidations], [1, 1], "{st:?}");
    }

    #[test]
    fn recorder_attributes_evictions_to_the_budget_applier() {
        let cache = LakeIndexCache::with_budget(None);
        let l = base();
        for name in ["rec_ev_a", "rec_ev_b"] {
            let r = lake_table(name, 6);
            cache.left_join_normalized(&l, &r, "id", "key", "p", 1).unwrap();
        }
        let rec = CacheRecorder::new();
        {
            let _g = recording(&rec).enter();
            cache.set_budget(Some(one_index_bytes())); // evicts one of the two
        }
        let s = rec.attributed(&cache);
        assert_eq!(s.evictions, 1, "the eviction burst lands on the applying request");
        assert!(s.evicted_bytes > 0);
        assert_eq!((s.hits, s.misses), (0, 0), "no join activity recorded");
    }

    #[test]
    fn second_join_through_same_entry_hits() {
        let cache = LakeIndexCache::with_budget(None);
        let r = lake_table("sat", 6);
        let l = base();
        cache.left_join_normalized(&l, &r, "id", "key", "sat", 1).unwrap();
        let s1 = cache.stats();
        assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));
        cache.left_join_normalized(&l, &r, "id", "key", "sat", 2).unwrap();
        let s2 = cache.stats();
        assert_eq!((s2.hits, s2.misses, s2.entries), (1, 1, 1));
        assert!(s2.resident_bytes > 0);
        assert_eq!(s2.resident_bytes, s1.resident_bytes, "no rebuild on hit");
        assert_eq!(s2.peak_resident_bytes, s2.resident_bytes);
        assert_eq!((s2.evictions, s2.rejections), (0, 0));
    }

    #[test]
    fn distinct_columns_get_distinct_entries() {
        let cache = LakeIndexCache::with_budget(None);
        let t = Table::new(
            "sat",
            vec![
                ("a", Column::from_ints([Some(1), Some(2)])),
                ("b", Column::from_ints([Some(3), Some(3)])),
            ],
        )
        .unwrap();
        cache.get_or_build(&t, "a").unwrap();
        cache.get_or_build(&t, "b").unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cached_join_is_bit_identical_to_uncached() {
        let cache = LakeIndexCache::with_budget(None);
        let r = lake_table("sat", 6);
        let l = base();
        for seed in [1u64, 7, 42] {
            let plain = left_join_normalized(&l, &r, "id", "key", "sat", seed).unwrap();
            let cached = cache.left_join_normalized(&l, &r, "id", "key", "sat", seed).unwrap();
            assert_eq!(plain.table, cached.table, "seed {seed}");
        }
    }

    #[test]
    fn missing_column_errors_without_poisoning() {
        let cache = LakeIndexCache::with_budget(None);
        let r = lake_table("sat", 6);
        assert!(cache.get_or_build(&r, "ghost").is_err());
        assert_eq!(cache.stats().entries, 0);
        cache.get_or_build(&r, "key").unwrap();
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_builders_build_once() {
        use std::sync::Barrier;
        let cache = Arc::new(LakeIndexCache::with_budget(None));
        let r = Arc::new(lake_table("sat", 6));
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (cache, r, barrier) = (Arc::clone(&cache), Arc::clone(&r), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_build(&r, "key").unwrap()
                })
            })
            .collect();
        let indexes: Vec<Arc<JoinIndex>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ix in &indexes[1..] {
            assert!(Arc::ptr_eq(&indexes[0], ix), "all callers share one index");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one build");
        assert_eq!(s.hits, (n as u64) - 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn invalidate_table_removes_only_that_tables_slots() {
        let cache = LakeIndexCache::with_budget(None);
        let l = base();
        let a = lake_table("inv_a", 6);
        let b = lake_table("inv_b", 6);
        cache.left_join_normalized(&l, &a, "id", "key", "p", 1).unwrap();
        cache.left_join_normalized(&l, &b, "id", "key", "p", 1).unwrap();
        let before = cache.stats();
        assert_eq!(before.entries, 2);
        assert_eq!(cache.invalidate_table("inv_a"), 1);
        let st = cache.stats();
        assert_eq!(st.entries, 1, "only inv_a's slot dropped");
        assert_eq!(st.invalidations, 1);
        assert!(st.invalidated_bytes > 0);
        assert_eq!(st.resident_bytes, before.resident_bytes - st.invalidated_bytes);
        // The survivor still hits; the invalidated table rebuilds.
        cache.left_join_normalized(&l, &b, "id", "key", "p", 2).unwrap();
        cache.left_join_normalized(&l, &a, "id", "key", "p", 2).unwrap();
        let st2 = cache.stats();
        assert_eq!(st2.hits, before.hits + 1);
        assert_eq!(st2.misses, before.misses + 1);
        // Unknown tables are a counted-as-zero no-op.
        assert_eq!(cache.invalidate_table("ghost"), 0);
    }

    #[test]
    fn same_name_different_contents_gets_a_distinct_slot() {
        // A re-added table keeps its name but carries new column payloads;
        // slot verification is by data identity, so the new version must
        // never be served the old version's index.
        let cache = LakeIndexCache::with_budget(None);
        let v1 = lake_table("versioned", 6);
        let v2 = lake_table("versioned", 2); // same name, different contents
        let i1 = cache.get_or_build(&v1, "key").unwrap();
        let i2 = cache.get_or_build(&v2, "key").unwrap();
        assert!(!Arc::ptr_eq(&i1, &i2), "distinct versions, distinct indexes");
        let st = cache.stats();
        assert_eq!((st.misses, st.entries), (2, 2), "both versions resident");
        // A clone of v1 shares its payload → still hits v1's slot.
        let v1_clone = v1.clone();
        let i1_again = cache.get_or_build(&v1_clone, "key").unwrap();
        assert!(Arc::ptr_eq(&i1, &i1_again));
        assert_eq!(cache.stats().hits, 1);
        // Invalidating the name drops *all* versions.
        assert_eq!(cache.invalidate_table("versioned"), 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn parse_budget_accepts_plain_and_suffixed() {
        assert_eq!(parse_budget_bytes("1048576"), Some(1 << 20));
        assert_eq!(parse_budget_bytes("512K"), Some(512 << 10));
        assert_eq!(parse_budget_bytes("24m"), Some(24 << 20));
        assert_eq!(parse_budget_bytes("24MiB"), Some(24 << 20));
        assert_eq!(parse_budget_bytes("2GB"), Some(2 << 30));
        assert_eq!(parse_budget_bytes(" 8M "), Some(8 << 20));
        assert_eq!(parse_budget_bytes("0"), Some(0));
        assert_eq!(parse_budget_bytes(""), None);
        assert_eq!(parse_budget_bytes("lots"), None);
        assert_eq!(parse_budget_bytes("12X"), None);
        assert_eq!(parse_budget_bytes("99999999999G"), None, "overflow rejected");
    }

    #[test]
    fn admission_denies_what_does_not_fit_and_joins_still_work() {
        let one = one_index_bytes();
        // Room for exactly two indexes.
        let cache = LakeIndexCache::with_budget(Some(2 * one + one / 2));
        let l = base();
        let sats: Vec<Table> = (0..4).map(|i| lake_table(&format!("sat{i}"), 6)).collect();
        let mut outs = Vec::new();
        for s in &sats {
            outs.push(cache.left_join_normalized(&l, s, "id", "key", "p", 7).unwrap());
        }
        let st = cache.stats();
        assert_eq!(st.entries, 2, "first two fit, rest denied");
        assert_eq!(st.resident_bytes, 2 * one);
        assert_eq!(st.rejections, 2);
        assert_eq!(st.misses, 4);
        assert_eq!(st.evictions, 0, "admission never evicts");
        assert!(st.peak_resident_bytes <= st.budget_bytes.unwrap());
        // Re-touching: admitted entries hit, denied entries rebuild + deny.
        for s in &sats {
            let again = cache.left_join_normalized(&l, s, "id", "key", "p", 7).unwrap();
            let first = &outs[sats.iter().position(|t| t.name() == s.name()).unwrap()];
            assert_eq!(again.table, first.table, "denied path stays bit-identical");
        }
        let st2 = cache.stats();
        assert_eq!(st2.hits, 2);
        assert_eq!(st2.misses, 6);
        assert_eq!(st2.rejections, 4);
        assert!(st2.peak_resident_bytes <= st2.budget_bytes.unwrap());
    }

    #[test]
    fn zero_budget_retains_nothing_but_serves_all_joins() {
        let cache = LakeIndexCache::with_budget(Some(0));
        let l = base();
        let r = lake_table("sat", 6);
        for seed in [1u64, 2, 3] {
            let cached = cache.left_join_normalized(&l, &r, "id", "key", "sat", seed).unwrap();
            let plain = left_join_normalized(&l, &r, "id", "key", "sat", seed).unwrap();
            assert_eq!(cached.table, plain.table);
        }
        let st = cache.stats();
        assert_eq!(st.entries, 0);
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.peak_resident_bytes, 0);
        assert_eq!(st.misses, 3);
        assert_eq!(st.rejections, 3);
    }

    /// An index is admitted or denied before anything is built: a denied
    /// join makes no slot, joins exactly like the free function, and counts
    /// one miss, one rejection and one build; an admitted one holds the
    /// bytes its slot was made with.
    #[test]
    fn indexes_are_admitted_before_the_build() {
        let l = base();
        let [a, b] = ["pre_a", "pre_b"].map(|name| lake_table(name, 6));
        let one = JoinIndex::build(&a, a.column("key").unwrap()).unwrap().resident_bytes() as u64;
        let cache = LakeIndexCache::with_budget(Some(one + one / 2));
        let rec = CacheRecorder::new();
        let tracer = obs::Tracer::enabled();
        obs::with_tracer(&tracer, || {
            let _g = recording(&rec).enter();
            for seed in [1u64, 2] {
                for r in [&a, &b] {
                    let got = cache.left_join_normalized(&l, r, "id", "key", "p", seed).unwrap();
                    let want = left_join_normalized(&l, r, "id", "key", "p", seed).unwrap();
                    assert_eq!((got.table, got.matched), (want.table, want.matched));
                }
            }
        });
        // `pre_a` is admitted on its first join and hit on its second;
        // `pre_b` is denied both times, and no slot is left for it.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.rejections, st.entries), (1, 3, 2, 1), "{st:?}");
        assert_eq!((st.resident_bytes, st.peak_resident_bytes), (one, one));
        assert_eq!(rec.attributed(&cache), st);
        let trace = tracer.snapshot();
        let builds = trace.dists.iter().find(|(n, _)| n == "cache.index_build_secs").unwrap();
        assert_eq!(builds.1.count, 3, "one build-time observation per miss");
        assert_eq!(cache.gov.read().unwrap().buckets.values().flatten().count(), 1);
        // `get_or_build` of a denied pair builds an index for its caller alone.
        let index = cache.get_or_build(&b, "key").unwrap();
        assert_eq!(index.resident_bytes() as u64, one);
        let st = cache.stats();
        assert_eq!((st.misses, st.rejections, st.entries, st.resident_bytes), (4, 3, 1, one));
    }

    /// Only a retained index keeps the picks it fills. The admitted index
    /// fills its pick array on its first join, inside the bytes its slot was
    /// made with, so residency stays the admitted slots' bytes, and reads it
    /// from then on. A join the budget denies builds no index and folds the
    /// rows its left keys need however often it repeats, at a budget of 0
    /// and at one with room for another table's index.
    #[test]
    fn only_a_retained_index_keeps_its_picks() {
        let l = base().take(&[0, 2, 4, 6]);
        let picks = |cache: &LakeIndexCache, r: &Table| {
            let tracer = obs::Tracer::enabled();
            obs::with_tracer(&tracer, || cache.left_join_normalized(&l, r, "id", "key", "p", 9))
                .unwrap();
            tracer.snapshot().counter("join.picks").unwrap_or(0)
        };
        let thrice = |cache: &LakeIndexCache, r: &Table| [(); 3].map(|_| picks(cache, r));
        let kept = lake_table("picks_kept", 6);
        let one = JoinIndex::build(&kept, kept.column("key").unwrap()).unwrap().resident_bytes();
        let one = one as u64;
        let denied = lake_table("picks_denied", 6);
        let zero = LakeIndexCache::with_budget(Some(0));
        let room_for_one = LakeIndexCache::with_budget(Some(one + one / 2));
        assert_eq!(thrice(&room_for_one, &kept), [48, 0, 0], "all 48 rows, then reads");
        for cache in [&zero, &room_for_one] {
            assert_eq!(thrice(cache, &denied), [24; 3], "4 keys × 6 rows");
        }
        let index = room_for_one.get_or_build(&kept, "key").unwrap();
        assert_eq!(index.resident_bytes() as u64, one, "the filled picks were charged up front");
        let st = room_for_one.stats();
        assert_eq!((st.entries, st.rejections, st.resident_bytes), (1, 3, one));
        let gov = room_for_one.gov.read().unwrap();
        let admitted: u64 = gov.buckets.values().flatten().map(|s| s.bytes).sum();
        assert_eq!(admitted, gov.resident);
        gov.check();
        assert_eq!(zero.stats().resident_bytes, 0);
    }

    /// A panic while a denied join folds its rows is isolated and counted
    /// like a build panic, and serves nothing; disarmed, the join runs.
    #[test]
    fn denied_joins_isolate_build_panics() {
        let cache = LakeIndexCache::with_budget(Some(0));
        let (l, r) = (base(), lake_table("denied_panic_sat", 6));
        let faults = crate::FaultDomain::new();
        let _g = RequestScope { faults: Some(faults.clone()), ..RequestScope::capture() }.enter();
        let panic_on_row = Some(40);
        let armed = crate::faults::TableFaults { panic_on_row, slow_join_ms: None };
        faults.arm("denied_panic_sat", armed);
        match cache.left_join_normalized(&l, &r, "id", "key", "p", 1) {
            Err(DataError::BuildPanicked { table, message }) => {
                assert_eq!(table, "denied_panic_sat");
                assert!(message.contains("panic_on_row 40"), "{message}");
            }
            other => panic!("expected BuildPanicked, got {other:?}"),
        }
        let st = cache.stats();
        assert_eq!((st.build_panics, st.misses, st.rejections, st.entries), (1, 0, 0, 0));
        faults.disarm("denied_panic_sat");
        cache.left_join_normalized(&l, &r, "id", "key", "p", 1).unwrap();
        let st = cache.stats();
        assert_eq!((st.build_panics, st.misses, st.rejections, st.entries), (1, 1, 1, 0));
    }

    /// `Governor::check` runs after every admission, budget change and
    /// invalidation in debug builds; this interleaves all three under a
    /// budget and also checks the invariant itself, for release builds.
    #[test]
    fn residency_is_the_admitted_slots_through_admit_shrink_invalidate() {
        let one = one_index_bytes();
        let cache = LakeIndexCache::with_budget(Some(3 * one));
        let l = base();
        let sats: Vec<Table> = (0..4).map(|i| lake_table(&format!("gov_{i}"), 6)).collect();
        let join = |i: usize| cache.left_join_normalized(&l, &sats[i], "id", "key", "p", 1).unwrap();
        for i in 0..4 {
            join(i); // gov_0..2 admitted, gov_3 rejected
        }
        cache.set_budget(Some(2 * one)); // evicts gov_0, the coldest
        assert_eq!(cache.invalidate_table("gov_1"), 1);
        join(3); // re-admitted into the room the invalidation left
        join(0); // rebuilt, and rejected: the budget is full
        let st = cache.stats();
        assert_eq!((st.misses, st.rejections, st.evictions, st.invalidations), (6, 2, 1, 1));
        assert_eq!((st.entries, st.resident_bytes), (2, 2 * one));
        let gov = cache.gov.read().unwrap();
        let admitted: u64 = gov.buckets.values().flatten().map(|s| s.bytes).sum();
        assert_eq!(admitted, gov.resident);
        gov.check();
    }

    #[test]
    fn budget_shrink_evicts_lru_first() {
        let one = one_index_bytes();
        let cache = LakeIndexCache::with_budget(None);
        let l = base();
        let sats: Vec<Table> = (0..3).map(|i| lake_table(&format!("sat{i}"), 6)).collect();
        for s in &sats {
            cache.left_join_normalized(&l, s, "id", "key", "p", 7).unwrap();
        }
        // Touch order now: sat0 coldest. Re-touch sat0 → sat1 coldest.
        cache.left_join_normalized(&l, &sats[0], "id", "key", "p", 7).unwrap();
        cache.set_budget(Some(2 * one));
        let st = cache.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.evicted_bytes, one);
        assert_eq!(st.entries, 2);
        assert_eq!(st.resident_bytes, 2 * one);
        assert_eq!(st.peak_resident_bytes, st.resident_bytes, "new peak epoch");
        let (h0, m0) = (st.hits, st.misses);
        // sat1 was the LRU victim: touching it rebuilds (miss); sat0 and
        // sat2 survived: hits.
        cache.left_join_normalized(&l, &sats[0], "id", "key", "p", 7).unwrap();
        cache.left_join_normalized(&l, &sats[2], "id", "key", "p", 7).unwrap();
        let st = cache.stats();
        assert_eq!(st.hits - h0, 2, "survivors are the recently-touched slots");
        cache.left_join_normalized(&l, &sats[1], "id", "key", "p", 7).unwrap();
        let st = cache.stats();
        assert_eq!(st.misses - m0, 1, "victim rebuilds on next touch");
        // Rebuilt sat1 does not fit (budget full) → denied, not evicting.
        assert_eq!(st.evictions, 1);
        assert_eq!(st.rejections, 1);
    }

    #[test]
    fn evicted_index_stays_valid_for_in_flight_joins() {
        let cache = LakeIndexCache::with_budget(None);
        let l = base();
        let r = lake_table("sat", 6);
        let index = cache.get_or_build(&r, "key").unwrap();
        let before = left_join_with_index(&l, &r, &index, "id", "sat", 42).unwrap();
        cache.set_budget(Some(0)); // evicts everything
        let st = cache.stats();
        assert_eq!((st.entries, st.resident_bytes, st.evictions), (0, 0, 1));
        // The held Arc is untouched by eviction: same index, same result.
        let after = left_join_with_index(&l, &r, &index, "id", "sat", 42).unwrap();
        assert_eq!(before.table, after.table);
        let plain = left_join_normalized(&l, &r, "id", "key", "sat", 42).unwrap();
        assert_eq!(after.table, plain.table);
    }

    /// Concurrent eviction under live joins: worker threads continuously
    /// join through the cache while the main thread flaps the budget
    /// between zero and unbounded. Every join must succeed and residency
    /// must end exactly where the final budget says.
    #[test]
    fn eviction_races_in_flight_joins_safely() {
        let cache = Arc::new(LakeIndexCache::with_budget(None));
        let l = Arc::new(base());
        let sats: Arc<Vec<Table>> =
            Arc::new((0..4).map(|i| lake_table(&format!("sat{i}"), 6)).collect());
        let expected: Vec<_> = sats
            .iter()
            .map(|s| left_join_normalized(&l, s, "id", "key", "p", 9).unwrap().table)
            .collect();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let (cache, l, sats, expected) =
                    (Arc::clone(&cache), Arc::clone(&l), Arc::clone(&sats), expected.clone());
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let i = (w + round) % sats.len();
                        let out = cache
                            .left_join_normalized(&l, &sats[i], "id", "key", "p", 9)
                            .unwrap();
                        assert_eq!(out.table, expected[i], "join stays bit-identical");
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            cache.set_budget(Some(0));
            cache.set_budget(None);
        }
        for w in workers {
            w.join().unwrap();
        }
        cache.set_budget(Some(0));
        let st = cache.stats();
        assert_eq!((st.entries, st.resident_bytes), (0, 0));
        assert_eq!(st.hits + st.misses, 4 * 50, "every join counted once");
    }

    /// Hit/miss/rejection/eviction totals must not depend on how the same
    /// workload is spread over threads. Each thread owns a disjoint set of
    /// uniform-size tables and touches each twice; admission capacity is
    /// fixed, so the totals are fully determined even though *which* tables
    /// win admission depends on timing.
    #[test]
    fn counter_totals_invariant_across_thread_counts() {
        let one = one_index_bytes();
        let n_tables = 12usize;
        let fit = 5u64; // budget admits exactly 5 of the 12
        let sats: Arc<Vec<Table>> =
            Arc::new((0..n_tables).map(|i| lake_table(&format!("sat{i:02}"), 6)).collect());
        let run = |n_threads: usize| -> CacheStats {
            let cache = Arc::new(LakeIndexCache::with_budget(Some(fit * one + one / 2)));
            let l = Arc::new(base());
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let (cache, l, sats) =
                        (Arc::clone(&cache), Arc::clone(&l), Arc::clone(&sats));
                    std::thread::spawn(move || {
                        for pass in 0..2 {
                            for i in (t..sats.len()).step_by(n_threads) {
                                cache
                                    .left_join_normalized(&l, &sats[i], "id", "key", "p", pass)
                                    .unwrap();
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            cache.stats()
        };
        let (s1, s4) = (run(1), run(4));
        assert_eq!(s1.hits, s4.hits, "hits invariant");
        assert_eq!(s1.misses, s4.misses, "misses invariant");
        assert_eq!(s1.rejections, s4.rejections, "rejections invariant");
        assert_eq!(s1.evictions, s4.evictions, "evictions invariant");
        // And the totals themselves are exact: pass 1 = 12 misses with 5
        // admissions; pass 2 = 5 hits + 7 rebuild-misses; every denied
        // build (7 + 7) is a rejection.
        assert_eq!((s1.hits, s1.misses, s1.rejections), (5, 19, 14));
        assert!(s1.peak_resident_bytes <= s1.budget_bytes.unwrap());
        assert!(s4.peak_resident_bytes <= s4.budget_bytes.unwrap());
    }

    /// A panic while holding the governor lock poisons it; the cache must
    /// degrade to transient (unretained, unaccounted) entries rather than
    /// fail — and must not report phantom resident bytes for builds it
    /// does not own.
    #[test]
    fn poisoned_governor_degrades_without_phantom_accounting() {
        let cache = Arc::new(LakeIndexCache::with_budget(None));
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.gov.write().unwrap();
            panic!("poison the governor");
        })
        .join();
        let l = base();
        let r = lake_table("sat", 6);
        let out = cache.left_join_normalized(&l, &r, "id", "key", "sat", 5).unwrap();
        let plain = left_join_normalized(&l, &r, "id", "key", "sat", 5).unwrap();
        assert_eq!(out.table, plain.table, "degraded mode still serves joins");
        let st = cache.stats();
        assert_eq!(st.entries, 0, "nothing owned");
        assert_eq!(st.resident_bytes, 0, "no phantom residency");
        assert_eq!(st.misses, 1, "build still counted as work done");
        assert!(st.lock_recoveries >= 1, "degraded mode is counted, not silent: {st:?}");
    }

    #[test]
    fn build_panic_is_isolated_counted_and_retryable() {
        let cache = LakeIndexCache::with_budget(None);
        let r = lake_table("cache_panic_sat", 6);
        let faults = crate::FaultDomain::new();
        let scope = crate::RequestScope { faults: Some(faults.clone()), ..crate::RequestScope::capture() };
        let _in_domain = scope.enter();
        faults.arm(
            "cache_panic_sat",
            crate::faults::TableFaults { panic_on_row: Some(2), slow_join_ms: None },
        );
        let err = cache.get_or_build(&r, "key").expect_err("armed build must fail");
        match &err {
            DataError::BuildPanicked { table, message } => {
                assert_eq!(table, "cache_panic_sat");
                assert!(message.contains("panic_on_row 2"), "{message}");
            }
            other => panic!("expected BuildPanicked, got {other:?}"),
        }
        let st = cache.stats();
        assert_eq!(st.build_panics, 1);
        assert_eq!(st.entries, 0, "poisoned slot dropped");
        assert_eq!(st.misses, 0, "a panicked build is not a served miss");
        // Disarm and retry: the entry rebuilds cleanly.
        faults.disarm("cache_panic_sat");
        cache.get_or_build(&r, "key").unwrap();
        let st = cache.stats();
        assert_eq!((st.misses, st.entries), (1, 1), "retry succeeds after disarm");
    }

    #[test]
    fn interrupted_control_stops_cold_builds() {
        let cache = LakeIndexCache::with_budget(None);
        let r = lake_table("cache_ctl_sat", 6);
        let ctl = Arc::new(crate::control::RunControl::new());
        ctl.cancel();
        {
            let _g = RequestScope::with_ctl(&ctl).enter();
            let err = cache.get_or_build(&r, "key").expect_err("cancelled run builds nothing");
            assert_eq!(err.interrupt(), Some(crate::control::Interrupt::Cancelled));
        }
        assert_eq!(cache.stats().misses, 0);
        // Outside the scope the same build proceeds.
        cache.get_or_build(&r, "key").unwrap();
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn env_budget_applies_to_new_caches() {
        // Serialize around the env var: tests in this binary run in
        // parallel, but no other test reads CACHE_BUDGET_ENV.
        std::env::set_var(CACHE_BUDGET_ENV, "3M");
        let c = LakeIndexCache::new();
        std::env::remove_var(CACHE_BUDGET_ENV);
        assert_eq!(c.stats().budget_bytes, Some(3 << 20));
        assert_eq!(LakeIndexCache::new().stats().budget_bytes, None);
        assert_eq!(
            LakeIndexCache::with_budget(Some(7)).stats().budget_bytes,
            Some(7),
            "explicit budget ignores the environment"
        );
    }
}
