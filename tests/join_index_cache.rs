//! The tentpole guarantee of the lake-wide join-index cache: discovery with
//! the cache on is **bit-identical** to discovery with it off — across
//! seeds, worker-thread counts, right-table row permutations, and **byte
//! budgets** (memory governance changes what the cache retains, never what
//! any join produces) — and a repeat run through the same `(table, join
//! column)` entries actually hits the cache instead of rebuilding.

use autofeat::prelude::*;

mod common;
use common::{assert_bit_identical, lake_ctx, lake_ctx_permuted, wide_uniform_ctx};

fn discover(ctx: &SearchContext, seed: u64, threads: usize, cache: bool) -> DiscoveryResult {
    AutoFeat::new(
        AutoFeatConfig::default()
            .with_seed(seed)
            .with_threads(threads)
            .with_cache(cache),
    )
    .discover(ctx)
    .unwrap()
}

fn discover_budgeted(
    ctx: &SearchContext,
    seed: u64,
    threads: usize,
    budget: u64,
) -> DiscoveryResult {
    AutoFeat::new(
        AutoFeatConfig::default()
            .with_seed(seed)
            .with_threads(threads)
            .with_cache_budget_bytes(budget),
    )
    .discover(ctx)
    .unwrap()
}

#[test]
fn cached_discovery_is_bit_identical_across_seeds_threads_and_permutations() {
    // Strides are odd ⇒ coprime to the satellite row counts (3n and n,
    // n = 120): three distinct physical layouts of the same logical lake.
    for stride in [1usize, 7, 113] {
        let ctx = lake_ctx_permuted(120, stride);
        for seed in [7u64, 42, 1234] {
            let reference = discover(&ctx, seed, 1, false);
            assert!(
                !reference.ranked.is_empty(),
                "stride {stride}, seed {seed}: search must rank paths for the \
                 comparison to mean anything"
            );
            for threads in [1usize, 2, 4] {
                let cached = discover(&ctx, seed, threads, true);
                assert_bit_identical(
                    &reference,
                    &cached,
                    &format!("stride {stride}, seed {seed}, {threads} thread(s), cached"),
                );
            }
        }
    }
}

#[test]
fn row_permutations_do_not_change_cached_results() {
    // Representative picks are content-addressed and the cache memoizes
    // per-(table, column) indexes — neither may couple results to the
    // physical row order of the satellites.
    let reference = discover(&lake_ctx(120), 42, 2, true);
    for stride in [7usize, 113] {
        let permuted = discover(&lake_ctx_permuted(120, stride), 42, 2, true);
        assert_bit_identical(&reference, &permuted, &format!("stride {stride}"));
    }
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
fn working_set_bytes(ctx: &SearchContext, seed: u64) -> u64 {
    let r = discover(ctx, seed, 1, true);
    let stats = r.cache;
    assert!(stats.resident_bytes > 0, "unbounded run must retain indexes");
    stats.resident_bytes
}

#[test]
fn budgeted_discovery_is_bit_identical_across_seeds_threads_and_permutations() {
    // A budget below the working set forces real governance decisions
    // (denials, partial retention) in every run; results must still match
    // the uncached reference bit-for-bit. Note each discover() call gets a
    // fresh context: budgets govern retention *within* a shared cache, and
    // a fresh cache makes every run face the same governance pressure.
    let full = working_set_bytes(&lake_ctx(120), 42);
    for budget in [full / 2, 0] {
        for stride in [1usize, 7] {
            for seed in [7u64, 42] {
                let reference = discover(&lake_ctx_permuted(120, stride), seed, 1, false);
                assert!(!reference.ranked.is_empty(), "discovery must rank paths");
                for threads in [1usize, 4] {
                    let budgeted = discover_budgeted(
                        &lake_ctx_permuted(120, stride),
                        seed,
                        threads,
                        budget,
                    );
                    assert_bit_identical(
                        &reference,
                        &budgeted,
                        &format!(
                            "budget {budget}, stride {stride}, seed {seed}, \
                             {threads} thread(s)"
                        ),
                    );
                    let unbounded = discover(&lake_ctx_permuted(120, stride), seed, threads, true);
                    assert_bit_identical(
                        &unbounded,
                        &budgeted,
                        &format!("unbounded vs budget {budget}, stride {stride}, seed {seed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn budgeted_peak_resident_never_exceeds_budget() {
    let full = working_set_bytes(&lake_ctx(120), 42);
    for budget in [full / 4, full / 2, 3 * full / 4] {
        for threads in [1usize, 4] {
            let ctx = lake_ctx(120);
            // Two runs: the first faces a cold cache, the second re-applies
            // the budget to a populated one — the peak must hold in both.
            for run in 0..2 {
                let r = discover_budgeted(&ctx, 42, threads, budget);
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
        let full = discover(&ctx, 42, threads, true);
        let full_stats = full.cache;
        // Budgeted run on the now-populated cache: applying the budget
        // evicts coldest-first down to it, then the run serves survivors.
        let budget = full_stats.resident_bytes / 2;
        let budgeted = discover_budgeted(&ctx, 42, threads, budget);
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
    .unwrap()
    .with_key_dicts();
    // Metadata first, so the race is over the grouping alone.
    raced.key_dict_at(0).unwrap();
    raced.row_fingerprints().unwrap();
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
    let budget = working_set_bytes(&lake_ctx(120), 42) / 2;
    let cached = discover_budgeted(&ctx, 42, 2, budget);
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
        let r = discover(&ctx, 42, threads, true);
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

/// A retained index remembers the representatives of the first hop seed
/// joined through it once a second join with that seed has filled its memo.
/// On a star every satellite is joined with one hop seed per request, so the
/// candidate rows a request orders by the pick rule (`join.picks`) go: every
/// duplicate a sampled left key meets on the first request, every row of
/// each satellite on the second (the fill scans them), none from the third
/// on — and a request at another run seed, which no memo serves, orders what
/// the first did. Results are bit-identical throughout.
#[test]
fn a_recurring_hop_seed_stops_picking_from_the_third_request() {
    let (n_sat, n_rows, dup, sample) = (6, 80, 4, 40);
    let ctx = wide_uniform_ctx(n_sat, n_rows, dup);
    let service = DiscoveryService::new(ctx, AutoFeatConfig::default());
    // The memo lives on the indexes a cache keeps: keep all of them, whatever
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
    assert_eq!(p1, (n_sat * sample * dup) as u64, "each sampled key meets its duplicates");
    assert_eq!(p2, (n_sat * n_rows * dup) as u64, "the fill orders every keyed row once");
    assert_eq!((p3, other), (0, p1), "memo reads order nothing; another seed falls back");
    assert_bit_identical(&first, &second, "recorded vs filled");
    assert_bit_identical(&first, &third, "filled vs read");
    let st = service.context().lake_cache().stats();
    assert_eq!((st.entries, st.misses, st.rejections), (n_sat as u64, n_sat as u64, 0));
}
