//! The tentpole guarantee of the parallel frontier evaluation: a full
//! AutoFeat search is **bit-identical at any worker-thread count** — the
//! same ranked paths, the same score bits, the same selected features, the
//! same report counters — for any seed, in any process.

use autofeat::prelude::*;

mod common;
use common::{assert_bit_identical, lake_ctx};

#[test]
fn search_is_bit_identical_across_thread_counts_and_seeds() {
    let ctx = lake_ctx(150);
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1usize, 2, avail];
    counts.sort_unstable();
    counts.dedup();
    for seed in [7u64, 42, 1234] {
        let reference = AutoFeat::new(
            AutoFeatConfig::default().with_seed(seed).with_threads(1),
        )
        .discover(&ctx)
        .unwrap();
        assert!(
            !reference.ranked.is_empty(),
            "seed {seed}: search must find paths for the comparison to mean anything"
        );
        assert!(reference.n_pruned_unjoinable >= 1, "orphan must be pruned");
        for &threads in &counts {
            let r = AutoFeat::new(
                AutoFeatConfig::default().with_seed(seed).with_threads(threads),
            )
            .discover(&ctx)
            .unwrap();
            assert_eq!(r.threads_used, threads);
            assert_bit_identical(&reference, &r, &format!("seed {seed}, {threads} thread(s)"));
        }
    }
}

#[test]
fn auto_thread_resolution_matches_explicit_config() {
    // `threads == 0` defers to the process-wide worker count (AUTOFEAT_THREADS
    // or the available parallelism, resolved once and cached) — and whatever
    // it resolves to, the result is bit-identical to asking for that count
    // explicitly. The CI resilience job runs the suite under
    // AUTOFEAT_THREADS=1 and =4, so both env paths are covered there.
    let ctx = lake_ctx(100);
    let resolved = autofeat::data::parallel::n_workers();
    let explicit = AutoFeat::new(AutoFeatConfig::default().with_threads(resolved))
        .discover(&ctx)
        .unwrap();
    let auto = AutoFeat::new(AutoFeatConfig::default()).discover(&ctx).unwrap();
    assert_eq!(auto.threads_used, resolved);
    assert_bit_identical(&explicit, &auto, "auto resolution vs explicit");
}

#[test]
fn truncated_search_is_thread_count_independent_too() {
    // max_joins truncation happens on the deterministic enumeration order,
    // before the parallel fan-out — so even a truncated search is
    // bit-identical across thread counts.
    let ctx = lake_ctx(120);
    let cfg = |t: usize| AutoFeatConfig {
        max_joins: 3,
        ..AutoFeatConfig::default().with_threads(t)
    };
    let one = AutoFeat::new(cfg(1)).discover(&ctx).unwrap();
    assert!(one.truncated, "max_joins=3 must truncate this lake");
    for threads in [2usize, 4] {
        let r = AutoFeat::new(cfg(threads)).discover(&ctx).unwrap();
        assert_bit_identical(&one, &r, &format!("truncated, {threads} thread(s)"));
    }
}

/// base — `wide` (twenty candidate columns, three rows a key) — `deep`, and
/// base — six one-column satellites. `wide` is the first candidate of level
/// 1 and by far the slowest to evaluate, so at several workers every other
/// hop's outcome is there before the one the merge needs first.
fn lopsided_ctx(n: usize) -> SearchContext {
    let ints = |m: usize, f: &dyn Fn(usize) -> i64| {
        Column::from_ints((0..m).map(|i| Some(f(i))).collect::<Vec<_>>())
    };
    let floats = |m: usize, f: &dyn Fn(usize) -> f64| {
        Column::from_floats((0..m).map(|i| Some(f(i))).collect::<Vec<_>>())
    };
    let label = |i: usize| ((i * 7) % 2) as f64;
    let base = Table::new(
        "base",
        vec![
            ("k", ints(n, &|i| i as i64)),
            ("b0", floats(n, &|i| ((i * 29) % 23) as f64)),
            ("target", ints(n, &|i| label(i) as i64)),
        ],
    )
    .unwrap();
    let m3 = n * 3;
    let mut wide_cols = vec![
        ("k".to_string(), ints(m3, &|i| (i / 3) as i64)),
        ("k2".to_string(), ints(m3, &|i| 500 + (i / 3) as i64)),
    ];
    for j in 0..20usize {
        let noisy = move |i: usize| label(i / 3) * (j % 4) as f64 + ((i * (11 + j)) % (17 + j)) as f64;
        wide_cols.push((format!("w{j:02}"), floats(m3, &noisy)));
    }
    let mut tables = vec![
        base,
        Table::new("a_wide", wide_cols).unwrap(),
        Table::new(
            "deep",
            vec![("k2", ints(n, &|i| 500 + i as i64)), ("d", floats(n, &|i| label(i) + (i % 5) as f64 * 0.1))],
        )
        .unwrap(),
    ];
    let mut kfk: Vec<(String, String, String, String)> = vec![
        ("base".into(), "k".into(), "a_wide".into(), "k".into()),
        ("a_wide".into(), "k2".into(), "deep".into(), "k2".into()),
    ];
    for j in 0..6usize {
        let name = format!("sat{j}");
        let feature = move |i: usize| label(i) * j as f64 + ((i * (5 + j)) % 13) as f64;
        tables.push(
            Table::new(name.clone(), vec![("k", ints(n, &|i| i as i64)), ("s", floats(n, &feature))])
                .unwrap(),
        );
        kfk.push(("base".into(), "k".into(), name, "k".into()));
    }
    SearchContext::from_kfk(tables, &kfk, "base", "target").unwrap()
}

#[test]
fn hops_merged_as_they_finish_leave_results_and_trace_shape_unchanged() {
    // The level's fan-out merges hop `i` while later hops are still being
    // evaluated, and the hop it needs first finishes last. Neither the
    // result nor anything about the trace but its timings may show it.
    fn phase_paths(nodes: &[autofeat::obs::PhaseNode], out: &mut Vec<String>) {
        for n in nodes {
            out.push(n.path.clone());
            phase_paths(&n.children, out);
        }
    }
    let run = |threads: usize| {
        // A fresh context per run, so cache counters start from cold.
        let ctx = lopsided_ctx(240);
        let cfg = AutoFeatConfig::default().with_seed(11).with_threads(threads).with_trace(true);
        AutoFeat::new(cfg).discover(&ctx).unwrap()
    };
    let reference = run(1);
    assert_eq!(reference.ranked.len(), 8, "seven hops from the base, one from `a_wide`");
    assert_eq!(reference.ranked.iter().filter(|p| p.path.len() == 2).count(), 1);
    let ref_trace = reference.trace.as_ref().expect("traced");
    let mut ref_paths = Vec::new();
    phase_paths(&ref_trace.phases, &mut ref_paths);
    for stage in ["eval.join", "eval.relevance", "merge.redundancy"] {
        let path = format!("discover.level.{stage}");
        assert!(ref_paths.contains(&path), "{path} missing from {ref_paths:?}");
    }
    let dist_names =
        |t: &autofeat::obs::RunTrace| t.dists.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert!(dist_names(ref_trace).contains(&"discover.merge_wait_secs".to_string()));
    let waited = |t: &autofeat::obs::RunTrace| {
        let (_, d) = t.dists.iter().find(|(n, _)| n == "discover.merge_wait_secs").unwrap();
        (d.count, d.sum_secs)
    };
    assert_eq!(waited(ref_trace), (3, 0.0), "one reading a level, and one worker never waits");

    for threads in [2usize, 3, 8] {
        let r = run(threads);
        let what = format!("{threads} thread(s)");
        assert_bit_identical(&reference, &r, &what);
        let trace = r.trace.as_ref().expect("traced");
        let mut paths = Vec::new();
        phase_paths(&trace.phases, &mut paths);
        assert_eq!(ref_paths, paths, "{what}: span paths");
        assert_eq!(ref_trace.counters, trace.counters, "{what}: counters");
        assert_eq!(ref_trace.events, trace.events, "{what}: event log");
        assert_eq!(dist_names(ref_trace), dist_names(trace), "{what}: distribution names");
        assert_eq!(waited(trace).0, 3, "{what}");
    }
}
