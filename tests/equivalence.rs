//! One equivalence sweep. Representatives are picked by key identity
//! (§IV-B), so five execution axes must never move a bit of a discovery
//! result: workers, cache budget, row layout, tracing and concurrent
//! serving. Every fixture × config × seed runs at each point of a pairwise
//! covering array over the five, and each result is compared with one
//! reference (`common::sweep`). Counter, governance, race, cancel and
//! lifecycle checks stay in the suites of their own; `tests/mutants/` holds
//! bugs this sweep must catch.

use autofeat::datagen::registry::{dataset, DatasetSpec};
use autofeat::prelude::*;

mod common;
use common::sweep::{paper_default, sweep, Fixture, Point, POINTS, WORKERS};
use common::{lake_ctx, lopsided_ctx, sparse_ctx, wide_uniform_ctx};

/// Every point of the array.
fn all(_: &Point) -> bool {
    true
}

#[test]
fn points_cover_every_pair() {
    let axes = |p: &Point| {
        [
            WORKERS.iter().position(|&w| w == p.workers).unwrap(),
            p.cache as usize,
            p.layout as usize,
            usize::from(p.traced),
            usize::from(p.served),
        ]
    };
    let sizes = [WORKERS.len(), 4, 3, 2, 2];
    for a in 0..sizes.len() {
        for b in a + 1..sizes.len() {
            for (x, y) in (0..sizes[a]).flat_map(|x| (0..sizes[b]).map(move |y| (x, y))) {
                let covered = POINTS.iter().map(axes).any(|v| (v[a], v[b]) == (x, y));
                assert!(covered, "axes {a} and {b}: no point has values {x} and {y}");
            }
        }
    }
}

#[test]
fn lake_ctx_under_every_axis() {
    let configs = vec![
        ("default", AutoFeatConfig::default()),
        ("max_joins 3", AutoFeatConfig { max_joins: 3, ..AutoFeatConfig::default() }),
        ("sample 60", AutoFeatConfig { sample_rows: Some(60), ..AutoFeatConfig::default() }),
    ];
    for (what, r) in sweep(&Fixture { name: "lake_ctx(120)", ctx: lake_ctx(120), configs }, all) {
        assert!(r.n_pruned_unjoinable >= 1, "{what}: `orphan` is pruned");
        assert_eq!(r.truncated, what.contains("max_joins"), "{what}: only max_joins 3 truncates");
    }
}

#[test]
fn wide_uniform_ctx_under_every_axis() {
    sweep(&paper_default("wide_uniform_ctx(10, 60, 3)", wide_uniform_ctx(10, 60, 3)), all);
}

#[test]
fn sparse_ctx_under_every_axis() {
    sweep(&paper_default("sparse_ctx(200)", sparse_ctx(200)), all);
}

/// At several workers the hop the merge needs first finishes last.
#[test]
fn lopsided_ctx_under_every_axis() {
    for (what, r) in sweep(&paper_default("lopsided_ctx(240)", lopsided_ctx(240)), all) {
        assert_eq!(r.ranked.len(), 8, "{what}: seven hops from the base, one from `a_wide`");
        assert_eq!(r.ranked.iter().filter(|p| p.path.len() == 2).count(), 1, "{what}");
    }
}

#[test]
fn discovered_lake_under_every_axis() {
    let lake = DatasetSpec { rows: 120, ..dataset("credit").unwrap() }.build_lake();
    let ctx = autofeat::context_from_lake(&lake, &SchemaMatcher::paper_default()).unwrap();
    sweep(&paper_default("credit lake (120 rows)", ctx), all);
}
