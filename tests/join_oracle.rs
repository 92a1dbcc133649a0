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
use autofeat::obs;
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

/// A right side whose key code `c` sits on `dups[c]` rows (code 0: null
/// keys), laid out by the permutation `i ↦ i × stride mod rows` when `stride`
/// is coprime to the row count, with a `row` column that makes every row's
/// content distinct and shows the row map in the output.
fn dup_heavy(kind: usize, dups: &[usize], stride: usize) -> Table {
    let runs = dups.iter().enumerate();
    let mut codes: Vec<i64> = runs.flat_map(|(c, &d)| std::iter::repeat_n(c as i64, d)).collect();
    let m = codes.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    if gcd(stride, m) == 1 {
        codes = (0..m).map(|i| codes[i * stride % m]).collect();
    }
    let rows = Column::from_ints((0..m as i64).map(Some));
    table("ext", kind, &codes, false).with_column("row", rows).unwrap()
}

/// The candidate rows one call ordered by the pick rule (`join.picks`).
fn picks_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let tracer = obs::Tracer::enabled();
    let out = obs::with_tracer(&tracer, f);
    (out, tracer.snapshot().counter("join.picks").unwrap_or(0))
}

/// How many right rows carry a key equal to `key`, by the oracle's rule.
fn matches(key: &Value, right_key: &Column) -> usize {
    (0..right_key.len()).filter(|&j| join_oracle::keys_match(key, &right_key.get(j))).count()
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

    /// A join whose index the budget denies collects only the right rows
    /// its left keys need and picks among them; it must equal the free
    /// `left_join_normalized`, which indexes every row — the map (read off a
    /// row-id column), `matched` and every right column — and the oracle.
    /// Keys repeat 1–40 times, left keys miss the right side, and the second
    /// hop is keyed on a view.
    #[test]
    fn denied_joins_match_the_indexed_join(
        dups in prop::collection::vec(0usize..41, 1..10),
        lcodes in prop::collection::vec(0i64..13, 0..30),
        kinds in (0usize..5, 0usize..5),
        stride in 1usize..50,
        seeds in prop::collection::vec(0u64..1000, 1..4),
    ) {
        let right = dup_heavy(kinds.1, &dups, stride);
        let keyed = right.clone().with_key_dicts();
        let base = table("base", kinds.0, &lcodes, false);
        let cache = LakeIndexCache::with_budget(Some(0));
        for &seed in &seeds {
            let denied = cache.left_join_normalized(&base, &keyed, "k", "k", "ext", seed).unwrap();
            let indexed = left_join_normalized(&base, &right, "k", "k", "ext", seed).unwrap();
            prop_assert_eq!(denied.matched, indexed.matched);
            prop_assert_eq!(&denied.right_columns, &indexed.right_columns);
            prop_assert!(denied.table == indexed.table, "seed {}", seed);
            check(&denied, &base, &right, "k", "ext", seed)?;
            // The second hop, keyed on the view `ext.k`, back into `ext`.
            let (lk, left) = ("ext.k", &denied.table);
            let denied2 = cache.left_join_normalized(left, &keyed, lk, "k", "ext", seed).unwrap();
            let indexed2 = left_join_normalized(left, &right, lk, "k", "ext", seed).unwrap();
            prop_assert_eq!(denied2.matched, indexed2.matched);
            prop_assert!(denied2.table == indexed2.table, "second hop, seed {}", seed);
        }
        // Only an index of no bytes (a right side without keys) fits.
        let st = cache.stats();
        prop_assert_eq!((st.hits + st.misses, st.resident_bytes), (2 * seeds.len() as u64, 0));
        prop_assert_eq!(st.misses, st.rejections + st.entries);
    }

    /// A retained index remembers the representatives of the first hop seed
    /// joined through it. Joined with seeds `[s, s, s, t, s]` it records `s`,
    /// fills its memo, reads it, picks per left row for `t`, and reads again
    /// — through the index itself and through an unbounded cache, over a
    /// keyed right side and a bare one, with a sampled left side. Every join
    /// equals the free `left_join_normalized` (held to the oracle), and the
    /// candidates each ordered say which of the five it did: every duplicate
    /// a left key meets, by the oracle's key rule, then every right row with
    /// a key (the fill scans them all), then none.
    #[test]
    fn a_recurring_seed_reads_its_memo_and_matches_the_oracle(
        dups in prop::collection::vec(0usize..41, 1..10),
        lcodes in prop::collection::vec(0i64..13, 0..30),
        kinds in (0usize..5, 0usize..5),
        stride in 1usize..50,
        sampled in prop::collection::vec(0usize..3, 30..31),
        seeds in (0u64..1000, 1u64..1000),
    ) {
        let right = dup_heavy(kinds.1, &dups, stride);
        let keyed = right.clone().with_key_dicts();
        let base = table("base", kinds.0, &lcodes, false);
        let rows: Vec<usize> = (0..base.n_rows()).filter(|&i| sampled[i] > 0).collect();
        let left = base.take(&rows);
        let (s, t) = (seeds.0, seeds.0 + seeds.1);
        let mut want = std::collections::HashMap::new();
        for seed in [s, t] {
            let free = left_join_normalized(&left, &right, "k", "k", "ext", seed).unwrap();
            check(&free, &left, &right, "k", "ext", seed)?;
            want.insert(seed, free);
        }
        let (lk, rk) = (left.column("k").unwrap(), right.column("k").unwrap());
        let repeated = |n: usize| if n >= 2 { n as u64 } else { 0 };
        let per_row: u64 = (0..lk.len()).map(|i| repeated(matches(&lk.get(i), rk))).sum();
        let fill = (0..rk.len()).filter(|&j| matches(&rk.get(j), rk) > 0).count() as u64;
        for r in [&keyed, &right] {
            let index = JoinIndex::build(r, r.column("k").unwrap()).unwrap();
            let cache = LakeIndexCache::with_budget(None);
            let through_index = |seed| left_join_with_index(&left, r, &index, "k", "ext", seed);
            let through_cache = |seed| cache.left_join_normalized(&left, r, "k", "k", "ext", seed);
            for join in [&through_index as &dyn Fn(u64) -> _, &through_cache] {
                let mut counted = Vec::new();
                for seed in [s, s, s, t, s] {
                    let (out, picks) = picks_of(|| join(seed));
                    let (out, want) = (out.unwrap(), &want[&seed]);
                    prop_assert_eq!(out.matched, want.matched);
                    prop_assert_eq!(&out.right_columns, &want.right_columns);
                    prop_assert!(out.table == want.table, "seed {} of [s, s, s, t, s]", seed);
                    counted.push(picks);
                }
                prop_assert_eq!(counted, vec![per_row, fill, 0, per_row, 0]);
            }
        }
    }
}

/// Four workers, released together by a barrier, race the first joins of a
/// fresh index — two with one seed and two with another, three joins each —
/// so the seed recorded and the fill of its memo are both contested. Every
/// output equals the free function's; afterwards the recorded seed orders
/// no candidate and the other orders every duplicate its left keys meet.
#[test]
fn racing_seeds_record_one_memo_and_every_join_matches() {
    let right = dup_heavy(0, &[0, 3, 7, 1, 12, 2, 40, 5], 3).with_key_dicts();
    let codes: Vec<i64> = (0..64).map(|i| i % 10).collect();
    let left = table("base", 0, &codes, false);
    let (lk, rk) = (left.column("k").unwrap(), right.column("k").unwrap());
    let repeats = (0..lk.len()).map(|i| matches(&lk.get(i), rk)).filter(|&n| n >= 2);
    let per_row = repeats.sum::<usize>() as u64;
    for round in 0..24u64 {
        let (s, t) = (2 * round, 2 * round + 1);
        let free = |seed| left_join_normalized(&left, &right, "k", "k", "e", seed).unwrap();
        let want = [s, t].map(free);
        let index = JoinIndex::build(&right, rk).unwrap();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (index, barrier, want, left, right) = (&index, &barrier, &want, &left, &right);
                scope.spawn(move || {
                    let seed = [s, t][w % 2];
                    barrier.wait();
                    for _ in 0..3 {
                        let out = left_join_with_index(left, right, index, "k", "e", seed).unwrap();
                        assert!(out.table == want[w % 2].table, "round {round}, seed {seed}");
                    }
                });
            }
        });
        let after = [s, t].map(|seed| {
            let join = || left_join_with_index(&left, &right, &index, "k", "e", seed);
            let (out, picks) = picks_of(join);
            assert!(out.unwrap().table == want[(seed - s) as usize].table);
            picks
        });
        assert!(after == [0, per_row] || after == [per_row, 0], "round {round}: {after:?}");
    }
}
