//! A search is bit-identical at any worker count: the same ranked paths,
//! score bits, selected features and report counters, for any seed. Each
//! test runs the lake at the equivalence sweep's solo points that vary the
//! workers (`common::sweep`); `tests/equivalence.rs` runs every fixture at
//! every point.

use autofeat::prelude::*;

mod common;
use common::lake_ctx;
use common::sweep::{lake, sweep, Fixture};

#[test]
fn search_is_bit_identical_across_thread_counts_and_seeds() {
    for (what, r) in sweep(&lake(), |p| p.workers > 1 && !p.served) {
        assert!(r.n_pruned_unjoinable >= 1, "{what}: `orphan` is pruned");
    }
}

/// `threads: 0` defers to the process-wide worker count; the sweep asserts
/// `threads_used == n_workers()` there, and CI runs this suite at 1 and 4.
#[test]
fn auto_thread_resolution_matches_explicit_config() {
    sweep(&lake(), |p| p.workers == 0);
}

/// `max_joins` truncates the deterministic enumeration before the fan-out,
/// so a truncated search is worker-count independent too.
#[test]
fn truncated_search_is_thread_count_independent_too() {
    let configs = vec![("max_joins 3", AutoFeatConfig { max_joins: 3, ..AutoFeatConfig::default() })];
    let fixture = Fixture { name: "lake_ctx(120)", ctx: lake_ctx(120), configs };
    for (what, r) in sweep(&fixture, |p| p.workers != 1 && !p.served) {
        assert!(r.truncated, "{what}: max_joins 3 truncates this lake");
    }
}
