//! The join against an independent oracle (`common::join_oracle`): a
//! nested-loop left join that shares nothing with the program but the
//! public fingerprint and mix functions. The determinism suites compare
//! the optimized stack with itself; this one would catch a bug both sides
//! share. Generated inputs stress what the curated fixtures lack: null and
//! all-null keys on either side, int / integral-float / string / bool key
//! mixes, `-0.0` and `NaN` keys, empty and single-row tables, dup-heavy
//! and sparse key domains, self-joins that hit `#2` names, and multi-hop
//! chains whose left key is a view.

mod common;

use autofeat::data::join::{left_join_normalized, left_join_with_index, JoinIndex, JoinOutput};
use autofeat::data::LakeIndexCache;
use autofeat::prelude::*;
use common::join_oracle;
use proptest::prelude::*;

/// A key column of one `kind` from small cell codes: code 0 is always a
/// null, so every kind carries null keys, and small codes repeat, so keys
/// are dup-heavy. Kind 1 mixes `NaN`, both zeros, a non-integral value and
/// integral floats that must join with kind 0's ints; kind 4 is an integer
/// domain too sparse for direct addressing.
fn key_column(kind: usize, codes: &[i64]) -> Column {
    match kind % 5 {
        0 => Column::from_ints(codes.iter().map(|&c| (c != 0).then_some(c - 3))),
        1 => Column::from_floats(codes.iter().map(|&c| match c {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(-0.0),
            4 => Some(2.5),
            c => Some((c - 3) as f64),
        })),
        2 => Column::from_strs(codes.iter().map(|&c| (c != 0).then(|| (c - 3).to_string()))),
        3 => Column::from_bools(codes.iter().map(|&c| (c != 0).then_some(c % 2 == 0))),
        _ => Column::from_ints(codes.iter().map(|&c| (c != 0).then_some((c - 3) * 1000))),
    }
}

/// `name(k, n, s, v)`: the key, an onward key for the next hop, a string
/// and a float payload with nulls of their own.
fn table(name: &str, kind: usize, codes: &[i64], all_null: bool) -> Table {
    let zeros = vec![0; codes.len()];
    let key = key_column(kind, if all_null { &zeros } else { codes });
    let onward: Vec<i64> = codes.iter().enumerate().map(|(i, &c)| (c + i as i64) % 9).collect();
    let strs = codes.iter().enumerate().map(|(i, &c)| (c % 4 != 1).then(|| format!("s{}", i % 3)));
    let vals = codes.iter().enumerate().map(|(i, &c)| (c % 5 != 2).then_some(i as f64 * 0.5));
    Table::new(
        name,
        vec![
            ("k", key),
            ("n", key_column(0, &onward)),
            ("s", Column::from_strs(strs)),
            ("v", Column::from_floats(vals)),
        ],
    )
    .unwrap()
}

/// `out` must equal the oracle's join of the same inputs: names, match
/// count, and every cell — as tables in both directions (a view on either
/// side of `==`) and cell by cell.
fn check(
    out: &JoinOutput,
    left: &Table,
    right: &Table,
    lk: &str,
    prefix: &str,
    seed: u64,
) -> Result<Table, String> {
    let (want, names, matched) = join_oracle::left_join(left, right, lk, "k", prefix, seed);
    prop_assert_eq!(&out.right_columns, &names);
    prop_assert_eq!(out.matched, matched);
    prop_assert_eq!(out.table.column_names(), want.column_names());
    for c in 0..want.n_cols() {
        for i in 0..want.n_rows() {
            let (got, cell) = (out.table.column_at(c).get(i), want.column_at(c).get(i));
            prop_assert!(got == cell, "column {c} row {i}: {got:?}, oracle says {cell:?}");
        }
        prop_assert_eq!(out.table.column_at(c).null_count(), want.column_at(c).null_count());
    }
    prop_assert!(out.table == want, "view == dense");
    prop_assert!(want == out.table, "dense == view");
    Ok(want)
}

proptest! {
    /// One hop through every entry point — transient index, prebuilt index,
    /// the lake cache — over a bare right table (the index builds its own
    /// dictionary) and a keyed copy (it borrows the table's), group tables
    /// addressed by code and by integer value.
    #[test]
    fn one_hop_matches_the_oracle(
        lcodes in prop::collection::vec(0i64..9, 0..24),
        rcodes in prop::collection::vec(0i64..9, 0..40),
        kinds in (0usize..5, 0usize..5),
        nulls in 0usize..8,
        seed in 0u64..1000,
    ) {
        let left = table("base", kinds.0, &lcodes, nulls == 0);
        let right = table("ext", kinds.1, &rcodes, nulls == 1);
        let keyed = right.clone().with_key_dicts();
        let plain = left_join_normalized(&left, &right, "k", "k", "ext", seed).unwrap();
        check(&plain, &left, &right, "k", "ext", seed)?;
        for r in [&right, &keyed] {
            let index = JoinIndex::build(r, r.column("k").unwrap()).unwrap();
            prop_assert_eq!(index.validate(r.column("k").unwrap()), Ok(()));
            let out = left_join_with_index(&left, r, &index, "k", "ext", seed).unwrap();
            check(&out, &left, &right, "k", "ext", seed)?;
            let cached = LakeIndexCache::new()
                .left_join_normalized(&left, r, "k", "k", "ext", seed)
                .unwrap();
            prop_assert!(cached.table == plain.table && cached.matched == plain.matched);
        }
    }

    /// Chains of two and three hops, the later ones keyed on a view the hop
    /// before produced, ending in a self-join of a table already on the
    /// path (its columns come back under `#2` names). Every intermediate
    /// table is checked against the oracle run over the oracle's own dense
    /// tables, and `take` of the final view table against `take` of the
    /// dense one.
    #[test]
    fn chains_keyed_on_views_match_the_oracle(
        bcodes in prop::collection::vec(0i64..9, 1..20),
        acodes in prop::collection::vec(0i64..9, 0..30),
        ccodes in prop::collection::vec(0i64..9, 1..30),
        kinds in (0usize..5, 0usize..5, 0usize..5),
        seed in 0u64..1000,
    ) {
        let base = table("base", kinds.0, &bcodes, false);
        let a = table("a", kinds.1, &acodes, false).with_key_dicts();
        let c = table("c", kinds.2, &ccodes, false);
        let hop1 = left_join_normalized(&base, &a, "k", "k", "a", seed).unwrap();
        let dense1 = check(&hop1, &base, &a, "k", "a", seed)?;
        // Keyed on `a.n`, an int view; then on `c.k`, a view of any kind.
        let hop2 = left_join_normalized(&hop1.table, &c, "a.n", "k", "c", seed + 1).unwrap();
        let dense2 = check(&hop2, &dense1, &c, "a.n", "c", seed + 1)?;
        let hop3 = left_join_normalized(&hop2.table, &c, "c.k", "k", "c", seed + 2).unwrap();
        let dense3 = check(&hop3, &dense2, &c, "c.k", "c", seed + 2)?;
        prop_assert!(hop3.right_columns.iter().all(|n| n.ends_with("#2")));
        let rows: Vec<usize> = (0..dense3.n_rows()).rev().step_by(2).collect();
        prop_assert_eq!(hop3.table.take(&rows), dense3.take(&rows));
        // A join output as the *right* side: its views are read through,
        // and views of views compose.
        let back = left_join_normalized(&base, &hop2.table, "k", "k", "r", seed).unwrap();
        check(&back, &base, &dense2, "k", "r", seed)?;
    }
}
