//! Incremental lake mutation: any add/remove sequence over a live
//! discovery-built [`SearchContext`] must leave the lake — DRG and
//! discovery results alike — **bit-identical** to a fresh
//! [`SearchContext::from_discovery`] over the final table set, and a
//! resident [`DiscoveryService`] must keep serving coherent snapshots
//! while the mutations land. Runs under both `AUTOFEAT_THREADS=1` and
//! `=4` in CI's `threads` job, in debug and in release.

mod common;

use std::sync::Barrier;
use std::thread;

use autofeat::graph::Drg;
use autofeat::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures: a base table plus a pool of candidate satellites covering every
// edge-provenance flavour — value+name joinable, value-only (different
// name, overlapping domain), name-driven (same name, thin overlap), and
// unjoinable noise.
// ---------------------------------------------------------------------------

const N: i64 = 30;

fn base_table() -> Table {
    Table::new(
        "base",
        vec![
            ("k", Column::from_ints((0..N).map(Some).collect::<Vec<_>>())),
            (
                "target",
                Column::from_ints((0..N).map(|i| Some((i * 7) % 2)).collect::<Vec<_>>()),
            ),
        ],
    )
    .unwrap()
}

/// The mutation pool, indexed 0..6. Each entry is a distinct table name.
fn pool_table(i: usize) -> Table {
    let ints = |lo: i64, hi: i64| Column::from_ints((lo..hi).map(Some).collect::<Vec<_>>());
    let feats =
        |mul: i64| Column::from_floats((0..N).map(|v| Some((v * mul) as f64)).collect::<Vec<_>>());
    match i {
        // Name + value joinable to base.k.
        0 => Table::new("p0", vec![("k", ints(0, N)), ("a", feats(3))]).unwrap(),
        // Partial value overlap, same name.
        1 => Table::new("p1", vec![("k", ints(5, N + 5)), ("b", feats(5))]).unwrap(),
        // Different name, overlapping value domain: instance-driven edge.
        2 => Table::new("p2", vec![("key_id", ints(0, N)), ("c", feats(7))]).unwrap(),
        // Same name, tiny value overlap (5/30, jaccard ≈ 0.09): a
        // name-driven edge its values alone could not carry.
        3 => Table::new("p3", vec![("k", ints(25, 25 + N)), ("d", feats(11))]).unwrap(),
        // Unjoinable noise: different name AND disjoint domain.
        4 => Table::new("p4", vec![("z", ints(5000, 5000 + N)), ("e", feats(13))]).unwrap(),
        // Joins p2's domain through its own key column name.
        5 => Table::new("p5", vec![("key_id", ints(10, N + 10)), ("f", feats(17))]).unwrap(),
        _ => panic!("pool index out of range: {i}"),
    }
}

fn pool_name(i: usize) -> &'static str {
    ["p0", "p1", "p2", "p3", "p4", "p5"][i]
}

fn fresh_ctx(members: &[usize]) -> SearchContext {
    let mut tables = vec![base_table()];
    tables.extend(members.iter().map(|&i| pool_table(i)));
    SearchContext::from_discovery(tables, &SchemaMatcher::paper_default(), "base", "target")
        .unwrap()
}

/// Canonical edge multiset: endpoints by *name* (node ids are
/// order-sensitive), weights by bit pattern.
fn canonical_edges(drg: &Drg) -> Vec<(String, String, String, String, u64)> {
    let mut out: Vec<_> = drg
        .edges()
        .iter()
        .map(|e| {
            (
                drg.table_name(e.a).to_string(),
                e.a_column.clone(),
                drg.table_name(e.b).to_string(),
                e.b_column.clone(),
                e.weight.to_bits(),
            )
        })
        .collect();
    out.sort();
    out
}

fn assert_drg_identical(mutated: &Drg, fresh: &Drg) {
    let mut a: Vec<_> = mutated.nodes().map(|n| mutated.table_name(n).to_string()).collect();
    let mut b: Vec<_> = fresh.nodes().map(|n| fresh.table_name(n).to_string()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "node sets differ");
    assert_eq!(canonical_edges(mutated), canonical_edges(fresh), "edge multisets differ");
}

fn results_equal(a: &DiscoveryResult, b: &DiscoveryResult) -> bool {
    a.ranked.len() == b.ranked.len()
        && a.selected_features == b.selected_features
        && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
            x.path == y.path
                && x.score.to_bits() == y.score.to_bits()
                && x.features == y.features
        })
}

/// Replay `ops` against a live mutable context, tracking the expected
/// member set. Returns the context and the final members.
fn replay(ops: &[(bool, usize)]) -> (SearchContext, Vec<usize>) {
    let ctx = fresh_ctx(&[]);
    let mut members: Vec<usize> = Vec::new();
    for &(add, i) in ops {
        if add {
            if members.contains(&i) {
                assert!(ctx.add_table(pool_table(i)).is_err(), "duplicate add must error");
            } else {
                ctx.add_table(pool_table(i)).unwrap();
                members.push(i);
            }
        } else if members.contains(&i) {
            ctx.remove_table(pool_name(i)).unwrap();
            members.retain(|&m| m != i);
        } else {
            assert!(ctx.remove_table(pool_name(i)).is_err(), "missing remove must error");
        }
    }
    (ctx, members)
}

proptest! {
    /// THE mutation invariant: any interleaving of adds and removes lands
    /// on a DRG bit-identical to building fresh over the final set.
    #[test]
    fn any_mutation_sequence_converges_to_fresh_build(
        raw_ops in prop::collection::vec((0usize..2, 0usize..6), 0..14),
    ) {
        let ops: Vec<(bool, usize)> = raw_ops.iter().map(|&(a, i)| (a == 1, i)).collect();
        let (ctx, members) = replay(&ops);
        let latest = ctx.latest();
        let fresh = fresh_ctx(&members);
        assert_drg_identical(latest.drg(), fresh.drg());
        prop_assert_eq!(latest.n_tables(), members.len() + 1);
    }
}

/// Full-pipeline flavour of the invariant: discovery results (ranked
/// paths, scores, selected features) over the mutated lake are
/// bit-identical to a fresh build. Scripted (not proptest) because each
/// case runs the whole pipeline.
#[test]
fn mutated_discovery_results_match_fresh_build() {
    let scripts: &[&[(bool, usize)]] = &[
        &[(true, 0), (true, 3), (true, 4)],
        &[(true, 0), (true, 1), (false, 0), (true, 2), (true, 5), (false, 2)],
        &[(true, 3), (false, 3), (true, 3), (true, 0)],
        &[(true, 2), (true, 5), (true, 4), (false, 4), (true, 1)],
    ];
    let cfg = AutoFeatConfig::default();
    for ops in scripts {
        let (ctx, members) = replay(ops);
        let mutated = AutoFeat::new(cfg.clone()).discover(&ctx.latest()).unwrap();
        let fresh = AutoFeat::new(cfg.clone()).discover(&fresh_ctx(&members)).unwrap();
        assert!(
            results_equal(&mutated, &fresh),
            "discovery diverged after {ops:?}: {} vs {} ranked paths",
            mutated.ranked.len(),
            fresh.ranked.len()
        );
    }
}

/// A name-driven edge end-to-end: p3 shares base's key *name* but only
/// 5/30 values, and the edge must appear both fresh and incrementally.
#[test]
fn name_only_edges_survive_both_paths() {
    let fresh = fresh_ctx(&[3]);
    assert!(
        canonical_edges(fresh.drg()).iter().any(|e| e.0 == "base" && e.2 == "p3"),
        "fresh build lost the name-driven edge: {:?}",
        canonical_edges(fresh.drg())
    );
    let ctx = fresh_ctx(&[]);
    ctx.add_table(pool_table(3)).unwrap();
    assert_drg_identical(ctx.latest().drg(), fresh.drg());
}

/// Removing a table invalidates exactly its cache entries — the counter
/// moves and the rest of the cache survives. The run sets a budget that
/// keeps every index, so the test owns the cache it asserts on whatever
/// budget the environment names.
#[test]
fn remove_table_invalidates_only_its_cache_slots() {
    let ctx = fresh_ctx(&[0, 2]);
    let cfg = AutoFeatConfig::default().with_cache_budget_bytes(64 << 20);
    AutoFeat::new(cfg.clone()).discover(&ctx.latest()).unwrap();
    let before = ctx.lake_cache().stats();
    assert!(before.entries > 0, "discovery should have populated the cache");
    ctx.remove_table("p0").unwrap();
    let after = ctx.lake_cache().stats();
    assert!(
        after.invalidations > before.invalidations,
        "removing a joined table must invalidate its slots ({} vs {})",
        after.invalidations,
        before.invalidations
    );
    assert!(after.invalidated_bytes > before.invalidated_bytes);
    assert!(after.entries < before.entries, "only p0's entries drop, others survive");
}

/// A live service keeps serving while the lake mutates underneath it:
/// every request served strictly before/after a mutation matches the
/// corresponding reference exactly, and requests racing the mutation
/// match either the pre- or post-mutation reference — never a torn view.
#[test]
fn live_service_serves_coherent_snapshots_across_mutations() {
    let cfg = AutoFeatConfig::default();
    let ref_pre = AutoFeat::new(cfg.clone()).discover(&fresh_ctx(&[0])).unwrap();
    let ref_post = AutoFeat::new(cfg.clone()).discover(&fresh_ctx(&[0, 2])).unwrap();

    let service = DiscoveryService::new(fresh_ctx(&[0]), cfg);
    let req = DiscoveryRequest::new();

    // Phase 1: stable pre-mutation serving.
    let r = service.submit(&req).unwrap();
    assert!(results_equal(&r, &ref_pre), "pre-mutation request diverged from reference");

    // Phase 2: requests race the mutation. Each must equal one of the two
    // references — a torn half-mutated view would match neither.
    let workers = 4;
    let barrier = Barrier::new(workers + 1);
    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                barrier.wait();
                service.submit(&req).unwrap()
            }));
        }
        barrier.wait();
        service.add_table(pool_table(2)).unwrap();
        for h in handles {
            let r = h.join().unwrap();
            assert!(
                results_equal(&r, &ref_pre) || results_equal(&r, &ref_post),
                "request racing add_table matched neither reference ({} ranked)",
                r.ranked.len()
            );
        }
    });

    // Phase 3: stable post-mutation serving.
    let r = service.submit(&req).unwrap();
    assert!(results_equal(&r, &ref_post), "post-mutation request diverged from reference");

    // And back again via remove.
    service.remove_table("p2").unwrap();
    let r = service.submit(&req).unwrap();
    assert!(results_equal(&r, &ref_pre), "remove did not restore the pre-mutation lake");
}
