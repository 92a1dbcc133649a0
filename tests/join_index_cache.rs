//! What the lake-wide join-index cache keeps and counts: a repeat run
//! through the same `(table, join column)` entries hits instead of
//! rebuilding, a byte budget bounds peak residency and evicts
//! deterministically, and racing or uncached joins count what they did.
//! That no cache setting moves a result is the equivalence sweep's business
//! (`common::sweep`); the first three tests run the lake at its points that
//! vary the cache, and `tests/equivalence.rs` every fixture at every point.

use autofeat::prelude::*;

mod common;
use common::sweep::{lake, sweep, Cache};
use common::{assert_bit_identical, lake_ctx, wide_uniform_ctx, Layout};

#[test]
fn cached_discovery_is_bit_identical_across_seeds_threads_and_permutations() {
    sweep(&lake(), |p| p.cache == Cache::Unbounded);
}

#[test]
fn row_permutations_do_not_change_cached_results() {
    sweep(&lake(), |p| p.layout != Layout::Identity && p.cache != Cache::Off);
}

/// A budget below the working set (half of it, or 0) denies and evicts in
/// every run; results must still match the reference bit for bit.
#[test]
fn budgeted_discovery_is_bit_identical_across_seeds_threads_and_permutations() {
    sweep(&lake(), |p| matches!(p.cache, Cache::Half | Cache::Zero));
}

/// A seed-42 cached run at `threads` workers, applying `budget` if given.
fn discover(ctx: &SearchContext, threads: usize, budget: Option<u64>) -> DiscoveryResult {
    let cfg = AutoFeatConfig { cache_budget_bytes: budget, ..AutoFeatConfig::default() };
    AutoFeat::new(cfg.with_seed(42).with_threads(threads)).discover(ctx).unwrap()
}

#[test]
fn second_run_hits_cache_without_rebuilding() {
    let ctx = lake_ctx(100);
    let engine = AutoFeat::new(AutoFeatConfig::default());
    let first = engine.discover(&ctx).unwrap();
    let s1 = first.cache;
    assert!(s1.misses > 0, "cold run must build indexes");
    assert_eq!(s1.hits, 0, "nothing resident on the first run");
    assert!(s1.entries > 0);
    assert!(s1.resident_bytes > 0);

    let second = engine.discover(&ctx).unwrap();
    let s2 = second.cache;
    assert_eq!(s2.misses, 0, "warm run must not rebuild anything");
    assert!(s2.hits > 0, "warm run must hit the cache");
    assert_eq!(s2.entries, s1.entries, "occupancy unchanged");
    assert_eq!(s2.resident_bytes, s1.resident_bytes);
    assert_bit_identical(&first, &second, "cold vs warm run");
}

/// The working-set footprint of a lake: resident bytes after one unbounded
/// cached run on a fresh clone of the context.
fn working_set_bytes(ctx: &SearchContext) -> u64 {
    let r = discover(ctx, 1, None);
    let stats = r.cache;
    assert!(stats.resident_bytes > 0, "unbounded run must retain indexes");
    stats.resident_bytes
}

#[test]
fn budgeted_peak_resident_never_exceeds_budget() {
    let full = working_set_bytes(&lake_ctx(120));
    for budget in [full / 4, full / 2, 3 * full / 4] {
        for threads in [1usize, 4] {
            let ctx = lake_ctx(120);
            // Two runs: the first faces a cold cache, the second re-applies
            // the budget to a populated one — the peak must hold in both.
            for run in 0..2 {
                let r = discover(&ctx, threads, Some(budget));
                let stats = r.cache;
                assert_eq!(stats.budget_bytes, Some(budget));
                assert!(
                    stats.peak_resident_bytes <= budget,
                    "run {run}, budget {budget}, {threads} thread(s): peak \
                     {} exceeds budget",
                    stats.peak_resident_bytes
                );
                assert!(stats.resident_bytes <= budget);
            }
        }
    }
}

#[test]
fn budget_application_evicts_deterministically_across_thread_counts() {
    // Uniform satellite sizes make governance arithmetic schedule-free:
    // how many indexes fit a budget — and how many evictions a budget
    // application needs — cannot depend on the worker count, even though
    // *which* indexes win admission may. Joins-served totals are exact.
    let mut per_threads = Vec::new();
    for threads in [1usize, 4] {
        let ctx = wide_uniform_ctx(10, 60, 3);
        // Unbounded run fills the cache with every satellite's index.
        let full = discover(&ctx, threads, None);
        let full_stats = full.cache;
        // Budgeted run on the now-populated cache: applying the budget
        // evicts coldest-first down to it, then the run serves survivors.
        let budget = full_stats.resident_bytes / 2;
        let budgeted = discover(&ctx, threads, Some(budget));
        let stats = budgeted.cache;
        assert!(stats.evictions > 0, "{threads} thread(s): shrink must evict");
        assert!(stats.peak_resident_bytes <= budget);
        assert_bit_identical(&full, &budgeted, &format!("{threads} thread(s)"));
        per_threads.push((
            full_stats.hits,
            full_stats.misses,
            full_stats.evictions,
            stats.hits + stats.misses,
            stats.evictions,
            stats.evicted_bytes,
        ));
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "governance counters must be invariant across thread counts"
    );
}

/// Workers released together onto one cold table that a zero budget
/// denies: each of their joins counts a miss and a rejection — none waits on
/// another worker's build, which the budget then throws away, and counts a
/// hit — so the totals are the same at 1 and at 4 workers.
#[test]
fn racing_joins_of_a_denied_table_each_count_a_miss() {
    use std::sync::{Arc, Barrier};
    let n = 200_000i64;
    let raced = Table::new(
        "raced",
        vec![
            ("k", Column::from_ints((0..n).map(|i| Some(i / 4)))),
            ("f", Column::from_ints((0..n).map(Some))),
        ],
    )
    .unwrap();
    // Metadata first, so the race is over the grouping alone: an index build
    // hashes the dictionary's fingerprints.
    autofeat::data::join::JoinIndex::build(&raced, raced.column("k").unwrap()).unwrap();
    let base = Table::new("base", vec![("k", Column::from_ints((0..64).map(Some)))]).unwrap();
    for workers in [1usize, 4] {
        let cache = LakeIndexCache::with_budget(Some(0));
        let barrier = Arc::new(Barrier::new(workers));
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (cache, barrier, raced, base) = (&cache, &barrier, &raced, &base);
                s.spawn(move || {
                    barrier.wait();
                    for seed in 0..2 {
                        cache.left_join_normalized(base, raced, "k", "k", "r", seed).unwrap();
                    }
                });
            }
        });
        let st = cache.stats();
        let joins = 2 * workers as u64;
        let counts = (st.hits, st.misses, st.rejections, st.entries);
        assert_eq!(counts, (0, joins, joins, 0), "{workers} worker(s)");
    }
}

/// `cache: false` joins through a private budget-0 cache: against a warm,
/// budgeted shared cache it changes nothing there — not a counter, not the
/// budget, not a resident byte, whatever budget the run itself names —
/// reports a cache that kept nothing and refused every build, and finds
/// what the cached run found.
#[test]
fn uncached_run_leaves_the_shared_cache_untouched() {
    let ctx = lake_ctx(120);
    let budget = working_set_bytes(&lake_ctx(120)) / 2;
    let cached = discover(&ctx, 2, Some(budget));
    let before = ctx.lake_cache().stats();
    assert_eq!(before.budget_bytes, Some(budget));
    assert!(before.resident_bytes > 0, "the shared cache is warm");
    let uncached = AutoFeatConfig::default().with_seed(42).with_threads(2).with_cache(false);
    for cfg in [uncached.clone(), uncached.with_cache_budget_bytes(budget / 2)] {
        let r = AutoFeat::new(cfg).discover(&ctx).unwrap();
        assert_eq!(ctx.lake_cache().stats(), before, "shared cache untouched");
        assert_eq!(r.cache.budget_bytes, Some(0));
        assert_eq!((r.cache.resident_bytes, r.cache.peak_resident_bytes), (0, 0));
        assert!(r.cache.misses > 0);
        assert_eq!(r.cache.misses, r.cache.rejections, "every build refused");
        assert_bit_identical(&cached, &r, "uncached vs cached");
    }
}

/// A budget applied on the shared cache stays until something applies
/// another: a run whose config names no budget leaves it as it is, also
/// under `AUTOFEAT_CACHE_BUDGET`, which is read once, when the cache is
/// built.
#[test]
fn a_budget_set_on_the_cache_survives_runs_without_one() {
    let ctx = lake_ctx(120);
    let budget = 1_234_567;
    ctx.lake_cache().set_budget(Some(budget));
    for threads in [1usize, 2] {
        let r = discover(&ctx, threads, None);
        assert_eq!(r.cache.budget_bytes, Some(budget), "{threads} thread(s)");
        assert_eq!(ctx.lake_cache().stats().budget_bytes, Some(budget));
    }
}

#[test]
fn second_join_through_same_table_column_hits() {
    // Unit-level check straight on the cache: two joins through the same
    // (table, column) build once and hit once.
    let ctx = lake_ctx(60);
    let cache = LakeIndexCache::new();
    let base = ctx.base_table();
    let sat = ctx.table("s1").unwrap();
    let a = cache
        .left_join_normalized(base, sat, "k", "k", "s1", 7)
        .unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
    let b = cache
        .left_join_normalized(base, sat, "k", "k", "s1", 7)
        .unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    assert_eq!(a.table, b.table, "hit must reproduce the miss bit-for-bit");
}

/// A retained index keeps the representatives of the first hop seed joined
/// through it: that join fills its pick array. On a star every satellite is
/// joined with one hop seed per request, so the rows a request orders by the
/// pick rule (`join.picks`) go: every row of each satellite on the first
/// request (the fill scans them), none from the second on — and a request at
/// another run seed, which no pick array serves, folds the rows its sampled
/// left keys meet. Results are bit-identical throughout.
#[test]
fn a_recurring_hop_seed_stops_picking_from_the_second_request() {
    let (n_sat, n_rows, dup, sample) = (6, 80, 4, 40);
    let ctx = wide_uniform_ctx(n_sat, n_rows, dup);
    let service = DiscoveryService::new(ctx, AutoFeatConfig::default());
    // The picks live on the indexes a cache keeps: keep all of them, whatever
    // budget the environment gives a new cache.
    service.context().lake_cache().set_budget(None);
    let submit = |seed: u64| {
        let cfg = AutoFeatConfig { sample_rows: Some(sample), ..AutoFeatConfig::default() };
        let cfg = cfg.with_seed(seed).with_trace(true);
        let result = service.submit(&DiscoveryRequest::new().with_config(cfg)).unwrap();
        let picks = result.trace.as_ref().expect("traced").counter("join.picks").unwrap_or(0);
        (result, picks)
    };
    let (first, p1) = submit(7);
    let (second, p2) = submit(7);
    let (third, p3) = submit(7);
    let (_, other) = submit(8);
    assert_eq!(first.n_joins_evaluated, n_sat, "one join per satellite");
    assert_eq!(p1, (n_sat * n_rows * dup) as u64, "the fill orders every keyed row once");
    assert_eq!((p2, p3), (0, 0), "reads order nothing");
    assert_eq!(other, (n_sat * sample * dup) as u64, "each sampled key's rows are folded");
    assert_bit_identical(&first, &second, "filled vs read");
    assert_bit_identical(&first, &third, "read vs read");
    let st = service.context().lake_cache().stats();
    assert_eq!((st.entries, st.misses, st.rejections), (n_sat as u64, n_sat as u64, 0));
}
