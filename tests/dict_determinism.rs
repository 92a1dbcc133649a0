//! The dictionary-encoded key domain is layout-blind: code assignment is a
//! pure function of column *content*, and the by-value layout follows its
//! density rule. (That the joins themselves are right is
//! `tests/join_oracle.rs`' business, against a reference that shares no code
//! with them; the by-value dictionary's joins are held to the same reference
//! here. That discovery over the coded indexes does not move with the row
//! layout, the workers or the cache is the equivalence sweep's business:
//! two tests here run the lake at its solo points that vary them, and
//! `tests/equivalence.rs` every fixture at every point.)

use autofeat::data::join::{left_join_with_index, JoinIndex};
use autofeat::data::Key;
use autofeat::prelude::*;

mod common;
use common::join_oracle;
use common::sweep::{lake, sweep};
use common::Layout;

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
            let t = Table::new("t", vec![("k", Column::from_ints(permuted))]).unwrap();
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

/// The untraced solo points: every worker count with every cache setting.
#[test]
fn threads_and_cache_do_not_change_coded_results() {
    sweep(&lake(), |p| !p.traced && !p.served);
}

/// Same logical lake, other physical row orders: representative picks are
/// content-addressed, so nothing may move.
#[test]
fn coded_results_are_layout_independent() {
    sweep(&lake(), |p| p.layout != Layout::Identity && !p.served);
}

/// A key column's keys by row: the `keys` cycled over `rows` rows, and a
/// null after every `null_every`-th of them (0: none).
fn rows_of(keys: &[i64], rows: usize, null_every: usize) -> Vec<Option<i64>> {
    let nulls = |r: usize| (null_every > 0 && r.is_multiple_of(null_every)).then_some(None);
    (0..rows).flat_map(|r| [Some(Some(keys[r % keys.len()])), nulls(r)]).flatten().collect()
}

/// Integer key sets around the by-value rule `hi − lo < 2 × distinct`:
/// dense, with gaps up to just inside the boundary, just outside it, sparse,
/// and against `i64::MIN` and `i64::MAX`.
fn key_sets() -> Vec<(&'static str, Vec<i64>)> {
    let (min, max) = (i64::MIN, i64::MAX);
    // `d` keys from `lo` in steps of two, the last one `last` past `lo`.
    let stepped = |lo: i64, d: i64, last: i64| -> Vec<i64> {
        (0..d - 1).map(|j| lo + 2 * j).chain([lo + last]).collect()
    };
    vec![
        ("dense", (0..25).collect()),
        ("dense, negative", (-40..-10).rev().collect()),
        ("one key", vec![7]),
        ("span 2d − 1", stepped(100, 12, 23)),
        ("span 2d", stepped(100, 12, 24)),
        ("sparse", (0..20).map(|i| i * 1_000 - 7).collect()),
        ("from i64::MIN", (0..9).map(|i| min + i * 3 / 2).collect()),
        ("to i64::MAX", (0..9).map(|i| max - i * 3 / 2).collect()),
        ("i64::MIN alone", vec![min]),
        ("both ends", vec![min, max, 0]),
    ]
}

/// The layout the rule names for `keys`: by value from their least, when
/// dense in their range.
fn rule(keys: &[i64]) -> Option<i64> {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let (lo, hi) = (*distinct.first()?, *distinct.last()?);
    (hi.abs_diff(lo) < 2 * distinct.len() as u64).then_some(lo)
}

/// The probe side: every key of the set, the keys next to each (gaps and
/// both ends of the range), the extremes, nulls — as ints, as floats
/// (integral where the key is one, halves in between) and as strings.
fn probes(keys: &[i64]) -> Vec<Column> {
    let near: Vec<i64> = keys
        .iter()
        .flat_map(|&k| [k.checked_sub(1), Some(k), k.checked_add(1)])
        .flatten()
        .chain([i64::MIN, i64::MAX, 0])
        .collect();
    let cells: Vec<Option<i64>> = near.iter().map(|&k| Some(k)).chain([None]).collect();
    vec![
        Column::from_ints(cells.clone()),
        Column::from_floats(cells.iter().map(|c| c.map(|k| k as f64))),
        Column::from_floats(cells.iter().map(|c| c.map(|k| k as f64 + 0.5))),
        Column::from_strs(cells.iter().map(|c| c.map(|k| k.to_string()))),
    ]
}

/// `col`'s dictionary under three row strides (those coprime to its rows):
/// each gets the layout the rule names for `keys`, the codes do not move
/// with the rows, row → code → key is the row's key, one code is one key,
/// and a by-value code is its key's offset from the base.
fn check_dictionary(case: &str, col: &Column, keys: &[i64]) -> bool {
    let n = col.len();
    let dicts: Vec<(Vec<usize>, KeyDict)> = [1usize, 7, 113]
        .into_iter()
        .filter(|&s| s == 1 || !n.is_multiple_of(s))
        .map(|s| {
            let order: Vec<usize> = (0..n).map(|i| i * s % n).collect();
            let t = Table::new("t", vec![("k", col.take(&order))]).unwrap();
            let dict = t.key_dict_at(0).unwrap().as_ref().clone();
            (order, dict)
        })
        .collect();
    let d = &dicts[0].1;
    assert_eq!(d.value_base(), rule(keys), "{case}: the layout");
    for (order, other) in &dicts[1..] {
        let at = format!("{case}: codes moved with the row order");
        assert_eq!(other.value_base(), d.value_base(), "{at}");
        assert_eq!(other.n_codes(), d.n_codes(), "{at}");
        for code in 0..d.n_codes() as u32 {
            assert_eq!(other.key_at(code), d.key_at(code), "{at}");
        }
        for (i, &row) in order.iter().enumerate() {
            assert_eq!(other.row_codes()[i], d.row_codes()[row], "{at}");
        }
    }
    let mut key_of_code = std::collections::HashMap::new();
    for (row, &code) in d.row_codes().iter().enumerate() {
        let Some(key) = col.key(row) else {
            assert!(code as usize >= d.n_codes(), "{case}: null row {row} has a code");
            continue;
        };
        assert_eq!(d.key_at(code), key, "{case}: row {row}");
        assert_eq!(key_of_code.entry(code).or_insert(key.clone()), &key, "{case}");
    }
    assert_eq!(key_of_code.len(), distinct(keys), "{case}: one code per key");
    assert_eq!(d.len(), distinct(keys), "{case}");
    if let Some(lo) = d.value_base() {
        for code in 0..d.n_codes() as u32 {
            assert_eq!(d.key_at(code), Key::Num(lo + i64::from(code)), "{case}");
        }
    }
    d.value_base().is_some()
}

/// Joins into a table keyed on `col` — through a retained `JoinIndex`, and
/// through the fold of a join the cache denies an index — from every
/// probe column of `keys`, equal to the reference's nested loop.
fn check_joins(case: &str, col: &Column, keys: &[i64]) {
    let rows = Column::from_ints((0..col.len() as i64).map(Some));
    let right = Table::new("ext", vec![("k", col.clone()), ("row", rows)]).unwrap();
    let index = JoinIndex::build(&right, right.column("k").unwrap()).unwrap();
    for (p, probe) in probes(keys).into_iter().enumerate() {
        let left = Table::new("base", vec![("k", probe)]).unwrap();
        for seed in [3u64, 11] {
            let (want, names, matched) =
                join_oracle::left_join(&left, &right, "k", "k", "ext", seed);
            let indexed = left_join_with_index(&left, &right, &index, "k", "ext", seed).unwrap();
            let denied = LakeIndexCache::with_budget(Some(0))
                .left_join_normalized(&left, &right, "k", "k", "ext", seed)
                .unwrap();
            for (how, out) in [("index", &indexed), ("fold", &denied)] {
                let at = format!("{case}, probe {p}, seed {seed}, through {how}");
                assert_eq!(out.matched, matched, "{at}");
                assert_eq!(out.right_columns, names, "{at}");
                assert!(out.table == want, "{at}: view == dense");
                assert!(want == out.table, "{at}: dense == view");
            }
        }
    }
}

/// The by-value dictionary over generated int and integral-float key
/// columns — dense and sparse ones on both sides of the density rule, with
/// nulls and repeats, at `i64::MIN` and `i64::MAX`: [`check_dictionary`] and
/// [`check_joins`] for each.
#[test]
fn by_value_dictionaries_follow_the_rule_and_join_as_the_reference() {
    let mut by_value = 0;
    for (what, keys) in key_sets() {
        // Floats only where every key is one exactly.
        let floats_hold = keys.iter().all(|&k| (k as f64) < 2f64.powi(63) && k as f64 as i64 == k);
        for (rows, null_every) in [(keys.len(), 0), (3 * keys.len() + 2, 4)] {
            let cells = rows_of(&keys, rows, null_every);
            let mut columns = vec![("ints", Column::from_ints(cells.clone()))];
            if floats_hold {
                let floats = cells.iter().map(|c| c.map(|k| k as f64));
                columns.push(("floats", Column::from_floats(floats)));
            }
            for (kind, col) in columns {
                let case = format!("{what}, {kind}, {rows} keyed rows");
                by_value += usize::from(check_dictionary(&case, &col, &keys));
                check_joins(&case, &col, &keys);
            }
        }
    }
    assert!(by_value >= 10, "{by_value} by-value columns");
}

/// The distinct keys of a set.
fn distinct(keys: &[i64]) -> usize {
    keys.iter().collect::<std::collections::HashSet<_>>().len()
}
