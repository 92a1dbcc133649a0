//! `Column` against a model of itself (`common::column_model`): an
//! `Option<T>` per row, which is what a column stored before its nulls moved
//! into a validity bitmap beside typed values. Every dtype, at no / some /
//! all nulls, 0–300 rows, is held against the model through every accessor
//! — as the dense column, as a join's view of it, as a view of that view,
//! and as views whose map has rows with no source — so a wrong bit index, a
//! stale null count or a copy that forgets the bitmap shows up as a cell
//! that differs from the obvious implementation.

mod common;

use std::hash::Hasher;

use autofeat::data::join::left_join_normalized;
use autofeat::data::stable_hash::StableHasher;
use autofeat::data::DataError;
use autofeat::prelude::*;
use common::column_model::Model;
use proptest::prelude::*;

/// Whether row `i` of a column generated at null mode `nulls` (0 none,
/// 1 some, 2 all) is a null.
fn is_null(nulls: usize, i: usize, code: i64) -> bool {
    match nulls {
        0 => false,
        1 => (code as usize + i).is_multiple_of(3),
        _ => true,
    }
}

/// The model of a column of one `kind` from small cell codes. Ints reach
/// both ends of `i64`; floats carry `NaN` (a null whatever the mode), both
/// zeros, a non-integral value, an infinity and integral values; strings
/// repeat and include the empty string, which is present, not null.
fn model(kind: usize, nulls: usize, codes: &[i64]) -> Model {
    let cell = |i: usize, c: i64| (!is_null(nulls, i, c)).then_some(c);
    let cells = || codes.iter().enumerate().map(|(i, &c)| cell(i, c));
    match kind % 4 {
        0 => Model::Int(
            cells()
                .map(|c| {
                    c.map(|c| match c {
                        1 => i64::MIN,
                        2 => i64::MAX,
                        c => c - 6,
                    })
                })
                .collect(),
        ),
        1 => Model::floats(
            cells()
                .map(|c| {
                    c.map(|c| match c {
                        1 => f64::NAN,
                        2 => -0.0,
                        3 => 0.0,
                        4 => 2.5,
                        5 => f64::INFINITY,
                        c => (c - 8) as f64,
                    })
                })
                .collect(),
        ),
        2 => Model::Str(
            cells().map(|c| c.map(|c| if c == 3 { String::new() } else { format!("s{}", c % 5) })).collect(),
        ),
        _ => Model::Bool(cells().map(|c| c.map(|c| c % 2 == 0)).collect()),
    }
}

/// A row map over `n` source rows from arbitrary codes: one row in `n + 1`
/// has no source (all of them when there is no source row).
fn row_map(codes: &[usize], n: usize) -> Vec<Option<usize>> {
    codes.iter().map(|&c| Some(c % (n + 1)).filter(|&r| r < n)).collect()
}

/// `col` read through `map`, made the way the program makes views: as the
/// right-hand side of a join keyed on the row number, which tells the view
/// its null count when the source has no null. Joining onto a table whose
/// columns are views composes the maps: a view of a view.
fn view_through(col: &Column, map: &[Option<usize>]) -> Column {
    let rows = Column::from_ints((0..col.len() as i64).map(Some));
    let right = Table::new("r", vec![("rk", rows), ("v", col.clone())]).unwrap();
    let ids = Column::from_ints(map.iter().map(|r| r.map(|r| r as i64)));
    let left = Table::new("l", vec![("lk", ids)]).unwrap();
    let out = left_join_normalized(&left, &right, "lk", "rk", "r", 7).unwrap();
    out.table.column("r.v").unwrap().clone()
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `prop_assert_eq!` that says where.
macro_rules! same {
    ($got:expr, $want:expr, $($what:tt)+) => {{
        let (got, want) = (&$got, &$want);
        prop_assert!(got == want, "{}: {got:?}, the model says {want:?}", format!($($what)+));
    }};
}

/// Every read accessor of `col` against `model`.
fn check_reads(col: &Column, model: &Model, what: &str) -> Result<(), String> {
    let n = model.len();
    same!(col.len(), n, "{what}: len");
    prop_assert_eq!(col.is_empty(), n == 0);
    prop_assert_eq!(col.dtype(), model.dtype());
    same!(col.null_count(), model.null_count(), "{what}: null_count");
    let ratio = if n == 0 { 0.0 } else { model.null_count() as f64 / n as f64 };
    prop_assert_eq!(col.null_ratio(), ratio);
    prop_assert!(
        matches!(col.try_get(n), Err(DataError::RowOutOfBounds { index, len }) if index == n && len == n),
        "{what}: try_get past the end"
    );

    let (mut got, mut want) = (StableHasher::new(), StableHasher::new());
    for row in 0..n {
        let cell = model.get(row);
        prop_assert!(col.get(row) == cell, "{what}: get({row}) = {:?}, model {cell:?}", col.get(row));
        prop_assert!(col.try_get(row).ok() == Some(cell));
        let (x, y) = (col.get_f64(row), model.get_f64(row));
        prop_assert!(
            x.is_some() == y.is_some() && same_f64(x.unwrap_or(0.0), y.unwrap_or(0.0)),
            "{what}: get_f64({row}) = {x:?}, model {y:?}"
        );
        same!(col.key(row), model.key(row), "{what}: key({row})");
        col.hash_cell_into(row, &mut got);
        want.write(&model.cell_bytes(row));
        same!(got.finish(), want.finish(), "{what}: fingerprint through row {row}");
    }
    prop_assert!(col.iter().eq((0..n).map(|row| model.get(row))), "{what}: iter");

    // Blocks of keys: the whole column, nothing, and sub-ranges that start
    // inside one word of a bitmap and end inside another.
    for (a, b) in [(0, n), (n / 2, n / 2), (n / 3, n - n / 3), (63, 130), (64, 65), (1, 64), (129, 300)] {
        let (a, b) = (a.min(n), b.min(n));
        if a <= b {
            let mut keys = Vec::new();
            col.keys_in(a..b, |k| keys.push(k));
            same!(keys, (a..b).map(|row| model.key(row)).collect::<Vec<_>>(), "{what}: keys_in({a}..{b})");
        }
    }

    // The numeric view, into a buffer that already holds something.
    let lossy: Vec<f64> = (0..n).map(|row| model.get_f64(row).unwrap_or(f64::NAN)).collect();
    let mut out = vec![1.0; 3];
    col.write_f64_lossy(&mut out);
    prop_assert!(
        out.len() == n && out.iter().zip(&lossy).all(|(&x, &y)| same_f64(x, y)),
        "{what}: write_f64_lossy {out:?}, model {lossy:?}"
    );
    prop_assert!(col.to_f64_lossy().iter().zip(&lossy).all(|(&x, &y)| same_f64(x, y)));
    Ok(())
}

/// `==` against the dense column of the same cells and of cells that differ
/// in one place; `take`; and `push` / `push_null` on a clone that shares the
/// payload, which must leave `col` as it was.
fn check_writes(col: &Column, model: &Model, picks: &[usize], what: &str) -> Result<(), String> {
    let n = model.len();
    let dense = model.column();
    prop_assert!(*col == dense, "{what}: == the dense column of the same cells");
    prop_assert!(dense == *col, "{what}: the dense column of the same cells == it");
    prop_assert!(*col == col.clone(), "{what}: a column equals itself");
    if n > 0 {
        // One cell nulled, or one null filled.
        let at = picks.first().map_or(0, |&p| p % n);
        let mut other = model.clone();
        match &mut other {
            Model::Int(v) => v[at] = v[at].map_or(Some(0), |_| None),
            Model::Float(v) => v[at] = v[at].map_or(Some(0.5), |_| None),
            Model::Str(v) => v[at] = v[at].take().map_or(Some("x".into()), |_| None),
            Model::Bool(v) => v[at] = v[at].map_or(Some(true), |_| None),
        }
        prop_assert!(*col != other.column(), "{what}: != with row {at} changed");
        prop_assert!(other.column() != *col, "{what}: with row {at} changed, != it");
        let shorter = model.read_through(&(1..n).map(Some).collect::<Vec<_>>());
        prop_assert!(*col != shorter.column(), "{what}: != a shorter column");
    }

    let indices: Vec<usize> = if n == 0 { Vec::new() } else { picks.iter().map(|&p| p % n).collect() };
    let taken = col.take(&indices);
    let taken_model = model.read_through(&indices.iter().map(|&i| Some(i)).collect::<Vec<_>>());
    check_reads(&taken, &taken_model, &format!("{what}, taken"))?;
    prop_assert!(taken == taken_model.column());

    // Copy-on-write: pushes onto a clone, a fitting value, a null, a
    // misfit (refused, nothing appended), a `NaN`, an int into anything.
    let mut pushed = col.clone();
    let mut pushed_model = model.clone();
    prop_assert!(pushed.shares_payload(col));
    let fitting = (0..n).map(|row| model.get(row)).find(|v| !v.is_null());
    let misfit = if model.dtype() == DType::Str { Value::Bool(true) } else { Value::str("no") };
    for value in [fitting.unwrap_or(Value::Null), Value::Null, misfit, Value::Float(f64::NAN), Value::Int(4)] {
        let fits = pushed_model.push(&value);
        same!(pushed.push(value.clone()).is_ok(), fits, "{what}: push({value:?})");
        pushed.push_null();
        pushed_model.push(&Value::Null);
    }
    check_reads(&pushed, &pushed_model, &format!("{what}, pushed"))?;
    prop_assert!(!pushed.shares_payload(col));
    check_reads(col, model, &format!("{what}, after its clone was pushed to"))
}

proptest! {
    /// The dense column.
    #[test]
    fn dense_columns_match_the_model(
        codes in prop::collection::vec(0i64..14, 0..300),
        picks in prop::collection::vec(0usize..1000, 0..40),
        shape in (0usize..4, 0usize..3),
    ) {
        let m = model(shape.0, shape.1, &codes);
        let col = m.column();
        check_reads(&col, &m, "dense")?;
        check_writes(&col, &m, &picks, "dense")?;
    }

    /// A view and a view of it.
    #[test]
    fn views_match_the_model(
        codes in prop::collection::vec(0i64..14, 0..300),
        maps in (prop::collection::vec(0usize..1000, 0..300), prop::collection::vec(0usize..1000, 0..300)),
        picks in prop::collection::vec(0usize..1000, 0..40),
        shape in (0usize..4, 0usize..3),
    ) {
        let m = model(shape.0, shape.1, &codes);
        let col = m.column();
        let map = row_map(&maps.0, m.len());
        let (view, view_model) = (view_through(&col, &map), m.read_through(&map));
        check_reads(&view, &view_model, "view")?;
        check_writes(&view, &view_model, &picks, "view")?;
        prop_assert!(!view.shares_payload(&col));

        let outer = row_map(&maps.1, view_model.len());
        let (nested, nested_model) = (view_through(&view, &outer), view_model.read_through(&outer));
        check_reads(&nested, &nested_model, "view of a view")?;
        check_writes(&nested, &nested_model, &picks, "view of a view")?;
        check_reads(&col, &m, "the source, after its views were read and pushed to")?;
    }
}

/// A float column with a null equals itself, dense or not: its null slots
/// hold `NaN`, which a derived `==` over the values would find unequal.
#[test]
fn a_float_column_with_a_null_equals_itself() {
    let col = Column::from_floats([Some(1.5), None, Some(-0.0), Some(f64::NAN)]);
    assert_eq!(col, col.clone());
    assert_eq!(col, Column::from_floats([Some(1.5), None, Some(0.0), None]), "-0.0 == 0.0, NaN is a null");
    assert_ne!(col, Column::from_floats([Some(1.5), Some(0.0), Some(0.0), None]));
    let view = view_through(&col, &[Some(3), Some(2), None, Some(0)]);
    assert_eq!(view, Column::from_floats([None, Some(0.0), None, Some(1.5)]));
    assert_eq!(view, view.clone());
    // Null and both zeros fingerprint as they always did.
    let fingerprint = |c: &Column, row| {
        let mut h = StableHasher::new();
        c.hash_cell_into(row, &mut h);
        h.finish()
    };
    let mut null = StableHasher::new();
    null.write_u8(0);
    assert_eq!(fingerprint(&col, 1), null.finish());
    assert_eq!(fingerprint(&col, 3), null.finish());
    assert_eq!(fingerprint(&col, 2), fingerprint(&Column::from_floats([Some(0.0)]), 0));
}

/// What the cells cost: eight bytes a row for ints and floats, an eighth of
/// a byte more once a row is null, nothing for a view or a second handle on
/// the same payload.
#[test]
fn payload_bytes_are_eight_a_cell_plus_a_bitmap_when_there_are_nulls() {
    let n = 10_000usize;
    let table = |col: Column| Table::new("t", vec![("c", col)]).unwrap();
    let full = [
        Column::from_ints((0..n as i64).map(Some)),
        Column::from_floats((0..n).map(|i| Some(i as f64 * 0.5))),
    ];
    for col in &full {
        let bytes = table(col.clone()).payload_bytes();
        assert!((8 * n..=8 * n + 64).contains(&bytes), "null-free {:?}: {bytes}", col.dtype());
    }
    let holed = [
        Column::from_ints((0..n as i64).map(|i| (i % 7 != 0).then_some(i))),
        Column::from_floats((0..n).map(|i| (i % 7 != 3).then_some(i as f64))),
        Column::from_ints((0..n).map(|_| None)),
    ];
    for col in &holed {
        let bytes = table(col.clone()).payload_bytes();
        assert!(bytes > 8 * n && bytes <= 8 * n + n / 8 + 64, "with nulls {:?}: {bytes}", col.dtype());
    }

    // One payload under two names is counted once; a join's views of the
    // right table count nothing, so the joined table costs what its left
    // side does.
    let left = Table::new("l", vec![("k", full[0].clone()), ("again", full[0].clone())]).unwrap();
    assert_eq!(left.payload_bytes(), table(full[0].clone()).payload_bytes());
    let right = Table::new("r", vec![("k", full[0].clone()), ("f", full[1].clone())]).unwrap();
    let joined = left_join_normalized(&left, &right, "k", "k", "r", 1).unwrap().table;
    assert_eq!(joined.n_cols(), 4);
    assert_eq!(joined.payload_bytes(), left.payload_bytes());
    // Once its cells are copied out, a view's column owns them.
    assert!(joined.take(&[0, 1, 2]).payload_bytes() >= 4 * 3 * 8);
}
