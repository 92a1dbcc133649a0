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
use autofeat::data::{DataError, Key};
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

/// What the cells cost: an int the width its column's span needs, a float
/// eight bytes, an eighth of a byte more once a row is null, nothing for a
/// view or a second handle on the same payload.
#[test]
fn payload_bytes_are_the_width_a_cell_plus_a_bitmap_when_there_are_nulls() {
    let n = 10_000usize;
    let table = |col: Column| Table::new("t", vec![("c", col)]).unwrap();
    // 10 000 ints span 9 999: 2 bytes a cell.
    let full = [
        (Column::from_ints((0..n as i64).map(Some)), 2),
        (Column::from_floats((0..n).map(|i| Some(i as f64 * 0.5))), 8),
    ];
    for (col, width) in &full {
        let bytes = table(col.clone()).payload_bytes();
        assert!((width * n..=width * n + 64).contains(&bytes), "null-free {:?}: {bytes}", col.dtype());
    }
    let holed = [
        (Column::from_ints((0..n as i64).map(|i| (i % 7 != 0).then_some(i))), 2),
        (Column::from_floats((0..n).map(|i| (i % 7 != 3).then_some(i as f64))), 8),
        (Column::from_ints((0..n).map(|_| None)), 1),
    ];
    for (col, width) in &holed {
        let bytes = table(col.clone()).payload_bytes();
        assert!(bytes > width * n && bytes <= width * n + n / 8 + 64, "with nulls {:?}: {bytes}", col.dtype());
    }

    // One payload under two names is counted once; a join's views of the
    // right table count nothing, so the joined table costs what its left
    // side does.
    let left = Table::new("l", vec![("k", full[0].0.clone()), ("again", full[0].0.clone())]).unwrap();
    assert_eq!(left.payload_bytes(), table(full[0].0.clone()).payload_bytes());
    let right = Table::new("r", vec![("k", full[0].0.clone()), ("f", full[1].0.clone())]).unwrap();
    let joined = left_join_normalized(&left, &right, "k", "k", "r", 1).unwrap().table;
    assert_eq!(joined.n_cols(), 4);
    assert_eq!(joined.payload_bytes(), left.payload_bytes());
    // Once its cells are copied out, each column owns them: three ints of
    // 2 bytes and a float of 8 a row.
    assert!(joined.take(&[0, 1, 2]).payload_bytes() >= 3 * (3 * 2 + 8));
}

/// The bytes an int column's cells take, one row to a cell: the `take` of
/// its present rows, which keeps the width, sizes its cells exactly and
/// needs no bitmap.
fn int_width(col: &Column) -> usize {
    let present: Vec<usize> = (0..col.len()).filter(|&row| !col.get(row).is_null()).collect();
    let bytes = Table::new("t", vec![("c", col.take(&present))]).unwrap().payload_bytes();
    assert_eq!(bytes % present.len(), 0, "{bytes} bytes for {} cells", present.len());
    bytes / present.len()
}

/// The width the rule gives a span.
fn width_of_span(span: u64) -> usize {
    match span {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Every cell's fingerprint and the keys of every row, as the join index
/// and the dictionaries read them.
fn fingerprints_and_keys(col: &Column) -> (Vec<u64>, Vec<Option<Key>>) {
    let prints = (0..col.len())
        .map(|row| {
            let mut h = StableHasher::new();
            col.hash_cell_into(row, &mut h);
            h.finish()
        })
        .collect();
    let mut keys = Vec::new();
    col.keys_in(0..col.len(), |k| keys.push(k));
    (prints, keys)
}

/// `cells` as an int column, held to the model at every step a join or a
/// gather takes it through — dense, a view, a view of that view and their
/// `take`s, inside `check_writes` — and to the same cells at 8 bytes a
/// cell: the `take` of a column that also holds both ends of `i64`, which
/// keeps that column's width. The two are `==` both ways and fingerprint
/// and key alike.
fn check_ints(cells: &[Option<i64>], what: &str) -> Result<(), String> {
    let m = Model::Int(cells.to_vec());
    let col = m.column();
    check_reads(&col, &m, what)?;
    check_writes(&col, &m, &[0, 7, 3, 3, 999], what)?;
    let map: Vec<Option<usize>> = (0..cells.len()).rev().map(Some).chain([None]).collect();
    let (view, view_model) = (view_through(&col, &map), m.read_through(&map));
    check_reads(&view, &view_model, &format!("{what}, view"))?;
    check_writes(&view, &view_model, &[1, 4], &format!("{what}, view"))?;
    let outer: Vec<Option<usize>> = (0..view_model.len()).step_by(2).map(Some).chain([None]).collect();
    let (nested, nested_model) = (view_through(&view, &outer), view_model.read_through(&outer));
    check_reads(&nested, &nested_model, &format!("{what}, view of a view"))?;
    check_writes(&nested, &nested_model, &[2, 5], &format!("{what}, view of a view"))?;

    let ends = [Some(i64::MIN), Some(i64::MAX)].into_iter().chain(cells.iter().copied());
    let wide = Column::from_ints(ends).take(&(2..cells.len() + 2).collect::<Vec<_>>());
    check_reads(&wide, &m, &format!("{what}, at 8 bytes"))?;
    prop_assert!(col == wide, "{what}: == the same cells at 8 bytes");
    prop_assert!(wide == col, "{what}: the same cells at 8 bytes == it");
    same!(fingerprints_and_keys(&col), fingerprints_and_keys(&wide), "{what}: against 8 bytes");
    Ok(())
}

/// Int columns on each side of every width boundary: spans 0, 255, 256,
/// 65 535, 65 536, 2³² − 1 and 2³² from a base of 0, a negative base,
/// `i64::MIN`, and up to `i64::MAX`; the full `i64` range; all nulls. Each
/// column holds both ends of its span, null-free and holed, and takes the
/// width the rule gives it (`int_width`). 58 columns of 130 rows.
#[test]
fn int_columns_match_the_model_at_every_width() -> Result<(), String> {
    let spans = [0u64, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32];
    let mut cases: Vec<(i64, u64)> = vec![(i64::MIN, u64::MAX)];
    for span in spans {
        let top = i64::MAX.wrapping_sub(span as i64);
        cases.extend([(0, span), (-1_000_003, span), (i64::MIN, span), (top, span)]);
    }
    for (base, span) in cases {
        // Both ends, the middle, one in from each end.
        let picks = [0, span, span / 2, span.saturating_sub(1), span.min(1)];
        let values: Vec<i64> = (0..130).map(|i| base.wrapping_add(picks[i % 5] as i64)).collect();
        let what = format!("span {span} from {base}");
        let col = Column::from_ints(values.iter().copied().map(Some));
        same!(int_width(&col), width_of_span(span), "{what}: bytes a cell");
        check_ints(&values.iter().copied().map(Some).collect::<Vec<_>>(), &what)?;
        let holed: Vec<Option<i64>> =
            values.iter().enumerate().map(|(i, &v)| (i % 7 != 3).then_some(v)).collect();
        check_ints(&holed, &format!("{what}, holed"))?;
    }
    let nulls = Column::from_ints((0..130).map(|_| None));
    same!(Table::new("t", vec![("c", nulls)]).unwrap().payload_bytes(), 130 + 3 * 8, "all nulls: 1 byte a cell");
    check_ints(&[None; 130], "all nulls")
}

/// Pushes onto a column of `start` that each must leave the column at the
/// width it is paired with, between nulls: each that does not fit rebuilds
/// the column, which must still read as the model after every push.
fn check_pushes(start: &[i64], pushes: &[(i64, usize)]) -> Result<(), String> {
    let mut col = Column::from_ints(start.iter().copied().map(Some));
    let mut m = Model::Int(start.iter().copied().map(Some).collect());
    for &(value, width) in pushes {
        let what = format!("{start:?} after pushing {value}");
        col.push(Value::Int(value)).map_err(|e| e.to_string())?;
        m.push(&Value::Int(value));
        same!(int_width(&col), width, "{what}: bytes a cell");
        check_reads(&col, &m, &what)?;
        col.push_null();
        m.push(&Value::Null);
        check_reads(&col, &m, &format!("{what} and a null"))?;
    }
    Ok(())
}

/// Pushes that cross every width boundary in turn (1 → 2 → 4 → 8 bytes),
/// and pushes below the base.
#[test]
fn pushes_across_width_boundaries_match_the_model() -> Result<(), String> {
    check_pushes(&[], &[(0, 1), (255, 1), (256, 2), (65_536, 4), (1 << 32, 8), (i64::MIN, 8)])?;
    check_pushes(&[100, 200], &[(50, 1), (0, 1), (-3, 1), (-40_000, 2), (i64::MAX, 8)])
}
