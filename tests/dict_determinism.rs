//! The dictionary-encoded key domain is layout-blind: code assignment is a
//! pure function of column *content*, and what discovery produces over the
//! coded indexes is bit-identical across physical row permutations,
//! worker-thread counts, and cached vs. uncached execution. (That the joins
//! themselves are right is `tests/join_oracle.rs`' business, against a
//! reference that shares no code with them.)

use autofeat::prelude::*;

mod common;
use common::{assert_bit_identical, lake_ctx_permuted};

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

#[test]
fn dict_codes_are_permutation_stable() {
    // The same multiset of keys in three physical orders must get the same
    // value → code mapping: codes are assigned by content (stable hash with
    // a total-order tiebreak), not by first appearance.
    let vals: Vec<Option<i64>> = (0..120).map(|i| Some(i % 37)).collect();
    let strides = [1usize, 7, 113];
    let dicts: Vec<KeyDict> = strides
        .iter()
        .map(|&s| {
            let permuted: Vec<Option<i64>> =
                (0..vals.len()).map(|i| vals[(i * s) % vals.len()]).collect();
            let t = Table::new("t", vec![("k", Column::from_ints(permuted))])
                .unwrap()
                .with_key_dicts();
            t.key_dict_at(0).unwrap().as_ref().clone()
        })
        .collect();
    for d in &dicts[1..] {
        assert_eq!(d.len(), dicts[0].len(), "distinct-key count must match");
        for code in 0..dicts[0].len() as u32 {
            assert_eq!(
                d.key_at(code),
                dicts[0].key_at(code),
                "code {code} must map to the same key in every layout"
            );
        }
    }
}

#[test]
fn threads_and_cache_do_not_change_coded_results() {
    // Strides are odd ⇒ coprime to the satellite row counts: distinct
    // physical layouts of the same logical lake. The one-thread uncached
    // run of each context is its reference.
    for stride in [1usize, 7, 113] {
        let ctx = lake_ctx_permuted(120, stride);
        for seed in [7u64, 42] {
            let reference = discover(&ctx, seed, 1, false);
            assert!(
                !reference.ranked.is_empty(),
                "stride {stride}, seed {seed}: search must rank paths for the \
                 comparison to mean anything"
            );
            for (threads, cache) in [(1usize, true), (4, false), (4, true)] {
                let other = discover(&ctx, seed, threads, cache);
                assert_bit_identical(
                    &reference,
                    &other,
                    &format!("stride {stride}, seed {seed}, {threads} thread(s), cache={cache}"),
                );
            }
        }
    }
}

#[test]
fn coded_results_are_layout_independent() {
    // Same logical lake, different physical row orders: representative
    // picks are content-addressed, so nothing may move.
    let reference = discover(&lake_ctx_permuted(120, 1), 42, 2, true);
    for stride in [7usize, 113] {
        let permuted = discover(&lake_ctx_permuted(120, stride), 42, 2, true);
        assert_bit_identical(&reference, &permuted, &format!("stride {stride}, coded"));
    }
}
