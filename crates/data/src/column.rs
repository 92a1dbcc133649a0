//! Typed, null-aware columns. Floats, strings and bools take one cell per
//! row; an int column stores offsets from its least present value at the
//! narrowest of 1, 2, 4 or 8 bytes that holds its span (`Ints`), and every
//! read widens them back to the same `i64`. SQL NULLs sit in a validity
//! bitmap beside the cells; a join's right-hand side is a view over them.

use std::ops::Range;
use std::sync::Arc;

use autofeat_obs as obs;

use crate::error::{DataError, Result};
use crate::value::{float_key, DType, Key, Value};

/// Row-map entry of a base row with no right-hand row: it reads as null.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// A cell type, and what its null slots hold.
trait Cell: Clone + PartialEq {
    const NULL: Self;
}

/// An int column's cells are offsets from its base; a null slot holds 0.
macro_rules! zero_null {
    ($($t:ty),*) => {$(impl Cell for $t { const NULL: Self = 0; })*};
}
zero_null!(i64, u8, u16, u32, u64);

/// An int cell as it is stored: an offset from its column's base, at one of
/// the widths 1, 2, 4 or 8 bytes.
trait Offset: Cell + Copy + TryFrom<u64> + Into<u64> {
    /// The value the offset stands for.
    #[inline]
    fn widen(self, base: i64) -> i64 {
        base.wrapping_add(self.into() as i64)
    }
}
impl<T: Cell + Copy + TryFrom<u64> + Into<u64>> Offset for T {}

/// `NaN` is no present float — `from_floats` and `push` turn it into a null
/// before it is stored — so the numeric read of a float column is its
/// values as they lie, with no validity test.
impl Cell for f64 {
    const NULL: Self = f64::NAN;
}

impl Cell for bool {
    const NULL: Self = false;
}

/// A string cell stays an `Option`: the pointer's niche makes it no wider
/// than the `Arc<str>` alone, and `None` is a placeholder that needs no
/// allocation and no shared reference count.
impl Cell for Option<Arc<str>> {
    const NULL: Self = None;
}

/// The dense storage of a column: one `T` per row — eight bytes for a
/// float, one to eight for an int ([`Ints`]) — and the SQL NULLs kept
/// beside them as a validity bitmap (bit `r` set: row `r` is present) and a
/// count. The bitmap exists only once a row is null, so a null-free column
/// costs its values and nothing else, and its reads test nothing.
#[derive(Debug, Clone)]
struct Cells<T> {
    values: Vec<T>,
    valid: Option<Vec<u64>>,
    nulls: usize,
}

#[inline]
fn bit(bits: &[u64], row: usize) -> bool {
    bits[row / 64] >> (row % 64) & 1 == 1
}

impl<T: Cell> Cells<T> {
    fn with_capacity(cap: usize) -> Self {
        Cells { values: Vec::with_capacity(cap), valid: None, nulls: 0 }
    }

    fn push(&mut self, cell: Option<T>) {
        let row = self.values.len();
        if cell.is_none() && self.valid.is_none() {
            // Every row so far is present.
            let mut bits = Vec::with_capacity(self.values.capacity().div_ceil(64).max(row / 64 + 1));
            bits.resize(row / 64 + 1, !0);
            self.valid = Some(bits);
        }
        if let Some(bits) = &mut self.valid {
            if row / 64 == bits.len() {
                bits.push(0);
            }
            let mask = 1 << (row % 64);
            if cell.is_some() {
                bits[row / 64] |= mask;
            } else {
                bits[row / 64] &= !mask;
                self.nulls += 1;
            }
        }
        self.values.push(cell.unwrap_or(T::NULL));
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn nulls(&self) -> usize {
        self.nulls
    }

    #[inline]
    fn get(&self, row: usize) -> Option<&T> {
        let value = &self.values[row];
        self.valid.as_ref().is_none_or(|bits| bit(bits, row)).then_some(value)
    }

    /// The one read-through loop: hand `f` every cell of `rows` in order —
    /// straight off the values when `map` is `None`, through the row map
    /// when the column is a view. The representation (dense or view, with a
    /// bitmap or without) is matched once, outside the loop.
    #[inline]
    fn each<'a>(
        &'a self,
        rows: Range<usize>,
        map: Option<&[u32]>,
        mut f: impl FnMut(Option<&'a T>),
    ) {
        let v = &self.values;
        match (map, &self.valid) {
            (None, None) => v[rows].iter().for_each(|c| f(Some(c))),
            (None, Some(bits)) => {
                let first = rows.start;
                v[rows].iter().enumerate().for_each(|(i, c)| f(bit(bits, first + i).then_some(c)))
            }
            (Some(map), None) => map[rows]
                .iter()
                .for_each(|&r| f(if r == NO_ROW { None } else { Some(&v[r as usize]) })),
            (Some(map), Some(bits)) => map[rows].iter().for_each(|&r| {
                f(if r == NO_ROW || !bit(bits, r as usize) { None } else { Some(&v[r as usize]) })
            }),
        }
    }

    /// Heap bytes held, by capacity.
    fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<T>()
            + self.valid.as_ref().map_or(0, |bits| bits.capacity() * 8)
    }
}

impl<T: Cell> FromIterator<Option<T>> for Cells<T> {
    /// Sized by the iterator's upper bound where that can be had, so that
    /// one which may stop early (a parse that gives up at its first miss)
    /// still fills in place; what it leaves unused is handed back.
    fn from_iter<I: IntoIterator<Item = Option<T>>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let (lower, upper) = iter.size_hint();
        let mut cells = Cells::with_capacity(lower);
        let _ = cells.values.try_reserve_exact(upper.unwrap_or(lower));
        iter.for_each(|cell| cells.push(cell));
        cells.values.shrink_to_fit();
        cells
    }
}

/// An int column's cells: offsets from `base` at the narrowest of 1, 2 or 4
/// bytes that holds the present values' span, else the plain `i64` bits at
/// base 0. A read widens back with `base.wrapping_add`: the very `i64` given.
#[derive(Debug, Clone)]
struct Ints {
    base: i64,
    cells: Width,
}

#[derive(Debug, Clone)]
enum Width {
    W1(Cells<u8>),
    W2(Cells<u16>),
    W4(Cells<u32>),
    W8(Cells<u64>),
}

/// Run one expression over an int column's cells; `(c, width)` binds the variant too.
macro_rules! widths {
    ($cells:expr, $c:ident => $e:expr) => {
        widths!($cells, ($c, _width) => $e)
    };
    ($cells:expr, ($c:ident, $w:ident) => $e:expr) => {
        match $cells {
            Width::W1($c) => { let $w = Width::W1; $e }
            Width::W2($c) => { let $w = Width::W2; $e }
            Width::W4($c) => { let $w = Width::W4; $e }
            Width::W8($c) => { let $w = Width::W8; $e }
        }
    };
}

impl Ints {
    /// `plain` at the narrowest width that holds its present values' span
    /// (none: 1 byte at base 0), from the least of them — or, `centred`, half
    /// the spare room below, so pushes past an end rebuild O(log) times a width.
    fn narrow(plain: Cells<i64>, centred: bool) -> Self {
        fn at<T: Offset>(plain: Cells<i64>, lo: i64, span: u64, centred: bool, width: fn(Cells<T>) -> Width) -> Ints {
            let spare = (u64::MAX >> (64 - 8 * std::mem::size_of::<T>())) - span;
            let base = if centred { lo.wrapping_sub((spare / 2) as i64) } else { lo };
            let off = |r: usize, v: i64| match &plain.valid {
                Some(bits) if !bit(bits, r) => T::NULL,
                _ => T::try_from(v.wrapping_sub(base) as u64).ok().expect("the width holds the span"),
            };
            let values = plain.values.iter().enumerate().map(|(r, &v)| off(r, v)).collect();
            Ints { base, cells: width(Cells { values, valid: plain.valid, nulls: plain.nulls }) }
        }
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        plain.each(0..plain.len(), None, |c| {
            if let Some(&v) = c {
                (lo, hi) = (lo.min(v), hi.max(v));
            }
        });
        let (lo, span) = if lo > hi { (0, 0) } else { (lo, hi.wrapping_sub(lo) as u64) };
        match span {
            0..=0xff => at(plain, lo, span, centred, Width::W1),
            0x100..=0xffff => at(plain, lo, span, centred, Width::W2),
            0x1_0000..=0xffff_ffff => at(plain, lo, span, centred, Width::W4),
            _ => at(plain, 0, u64::MAX, centred, Width::W8),
        }
    }

    fn len(&self) -> usize {
        widths!(&self.cells, c => c.len())
    }

    fn nulls(&self) -> usize {
        widths!(&self.cells, c => c.nulls)
    }

    fn heap_bytes(&self) -> usize {
        widths!(&self.cells, c => c.heap_bytes())
    }

    #[inline]
    fn get(&self, row: usize) -> Option<i64> {
        widths!(&self.cells, c => c.get(row).map(|&o| o.widen(self.base)))
    }

    /// [`Cells::each`], widened: the width is matched once, outside the loop.
    #[inline]
    fn each(&self, rows: Range<usize>, map: Option<&[u32]>, mut f: impl FnMut(Option<i64>)) {
        let base = self.base;
        widths!(&self.cells, c => c.each(rows, map, |o| f(o.map(|&o| o.widen(base)))))
    }

    /// Push at the width while the value fits; otherwise rebuild the column
    /// at the width that holds it, keeping the capacity it had.
    fn push(&mut self, cell: Option<i64>) {
        let off = cell.map(|i| i.wrapping_sub(self.base) as u64);
        let fits = widths!(&mut self.cells, c => match off.map(TryFrom::try_from) {
            Some(Err(_)) => false,
            off => {
                c.push(off.and_then(|o| o.ok()));
                true
            }
        });
        if !fits {
            let cap = widths!(&self.cells, c => c.values.capacity());
            let mut plain: Cells<i64> = (0..self.len()).map(|r| self.get(r)).collect();
            plain.push(cell);
            *self = Ints::narrow(plain, true);
            widths!(&mut self.cells, c => c.values.reserve_exact(cap.saturating_sub(c.len())));
        }
    }
}

#[derive(Debug, Clone)]
enum Payload {
    Int(Arc<Ints>),
    Float(Arc<Cells<f64>>),
    Str(Arc<Cells<Option<Arc<str>>>>),
    Bool(Arc<Cells<bool>>),
}

/// Run one expression over whichever typed cells a payload holds.
macro_rules! each {
    ($payload:expr, $v:ident => $e:expr) => {
        match $payload {
            Payload::Int($v) => $e,
            Payload::Float($v) => $e,
            Payload::Str($v) => $e,
            Payload::Bool($v) => $e,
        }
    };
}

/// What makes a column a view: row `i` reads `payload[map[i]]`, or null
/// where `map[i]` is [`NO_ROW`].
#[derive(Debug, Clone)]
struct View {
    /// One source row per row of the column; shared by every right-hand
    /// column of one join.
    map: Arc<[u32]>,
    /// The null count when the join could tell it without reading a cell
    /// (a null-free source has exactly `rows − matched`).
    nulls: Option<usize>,
}

/// A typed column of nullable values, in one of two representations.
///
/// A **dense** column owns one cell per row. A **view** is what a join
/// returns for its right-hand side: the source column's payload plus a row
/// map, read through on every access and never copied until something
/// needs the cells in place ([`Column::take`], [`Column::push`]). The two
/// are indistinguishable through the accessors, and `==` is value equality
/// across them.
///
/// Payload and map sit behind [`Arc`]s, so **cloning a column is O(1)**:
/// tables produced by joins share their left-hand columns with the input
/// table instead of deep-copying them. Mutating operations
/// ([`Column::push`], [`Column::push_null`]) copy-on-write, so sharing is
/// never observable.
#[derive(Debug, Clone)]
pub struct Column {
    payload: Payload,
    view: Option<View>,
}

impl PartialEq for Column {
    /// Value equality, cell by cell: null equals null, present cells
    /// compare by their type's `==` (so `-0.0 == 0.0`), and a view equals
    /// the dense column holding the same cells, in either order.
    fn eq(&self, other: &Self) -> bool {
        fn same<T: Cell>(a: &Column, x: &Cells<T>, b: &Column, y: &Cells<T>) -> bool {
            a.len() == b.len() && (0..a.len()).all(|row| a.cell(x, row) == b.cell(y, row))
        }
        match (&self.payload, &other.payload) {
            (Payload::Int(_), Payload::Int(_)) => self.iter().eq(other.iter()),
            (Payload::Float(x), Payload::Float(y)) => same(self, x, other, y),
            (Payload::Str(x), Payload::Str(y)) => same(self, x, other, y),
            (Payload::Bool(x), Payload::Bool(y)) => same(self, x, other, y),
            _ => false,
        }
    }
}

impl Column {
    fn dense(payload: Payload) -> Self {
        Column { payload, view: None }
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DType) -> Self {
        Column::with_capacity(dtype, 0)
    }

    /// An empty column of the given type with pre-reserved capacity.
    pub fn with_capacity(dtype: DType, cap: usize) -> Self {
        Column::dense(match dtype {
            DType::Int => Payload::Int(Arc::new(Ints { base: 0, cells: Width::W1(Cells::with_capacity(cap)) })),
            DType::Float => Payload::Float(Arc::new(Cells::with_capacity(cap))),
            DType::Str => Payload::Str(Arc::new(Cells::with_capacity(cap))),
            DType::Bool => Payload::Bool(Arc::new(Cells::with_capacity(cap))),
        })
    }

    /// Build an int column from an iterator of optional values, at the
    /// narrowest width that holds their span.
    pub fn from_ints<I: IntoIterator<Item = Option<i64>>>(iter: I) -> Self {
        Column::dense(Payload::Int(Arc::new(Ints::narrow(iter.into_iter().collect(), false))))
    }

    /// Build a float column; `NaN`s become nulls.
    pub fn from_floats<I: IntoIterator<Item = Option<f64>>>(iter: I) -> Self {
        Column::dense(Payload::Float(Arc::new(
            iter.into_iter().map(|v| v.filter(|f| !f.is_nan())).collect(),
        )))
    }

    /// Build a string column from anything string-like.
    pub fn from_strs<S: AsRef<str>, I: IntoIterator<Item = Option<S>>>(iter: I) -> Self {
        Column::dense(Payload::Str(Arc::new(
            iter.into_iter().map(|v| v.map(|s| Some(Arc::from(s.as_ref())))).collect(),
        )))
    }

    /// Build a bool column.
    pub fn from_bools<I: IntoIterator<Item = Option<bool>>>(iter: I) -> Self {
        Column::dense(Payload::Bool(Arc::new(iter.into_iter().collect())))
    }

    /// This column read through `map`: row `i` of the result is row
    /// `map[i]` of `self`, null at [`NO_ROW`]. No cell is copied. `nulls`
    /// is the result's null count when the caller knows it. A view of a
    /// view composes the two maps, so reads stay one hop deep.
    pub(crate) fn view(&self, map: &Arc<[u32]>, nulls: Option<usize>) -> Column {
        let map = match &self.view {
            None => Arc::clone(map),
            Some(inner) => map
                .iter()
                .map(|&r| if r == NO_ROW { NO_ROW } else { inner.map[r as usize] })
                .collect(),
        };
        Column { payload: self.payload.clone(), view: Some(View { map, nulls }) }
    }

    /// Whether two columns share the same underlying allocations — payload
    /// **and**, for views, row map: true after an O(1) clone, false once
    /// either side has been mutated (copy-on-write) or was built
    /// independently. Two views of one source through different joins
    /// answer `false`.
    pub fn shares_payload(&self, other: &Column) -> bool {
        let same_map = match (&self.view, &other.view) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(&a.map, &b.map),
            _ => false,
        };
        same_map
            && match (&self.payload, &other.payload) {
                (Payload::Int(a), Payload::Int(b)) => Arc::ptr_eq(a, b),
                (Payload::Float(a), Payload::Float(b)) => Arc::ptr_eq(a, b),
                (Payload::Str(a), Payload::Str(b)) => Arc::ptr_eq(a, b),
                (Payload::Bool(a), Payload::Bool(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }

    /// Heap bytes of the cells this column owns, by capacity, and the
    /// address they sit at (columns cloned from one another report the same
    /// address, so a caller can count a shared payload once). A view owns
    /// none: its cells are its source's. String bodies live behind their
    /// own `Arc`s and are not counted.
    pub(crate) fn owned_payload(&self) -> Option<(usize, usize)> {
        if self.view.is_some() {
            return None;
        }
        Some(each!(&self.payload, v => (Arc::as_ptr(v) as usize, v.heap_bytes())))
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self.payload {
            Payload::Int(_) => DType::Int,
            Payload::Float(_) => DType::Float,
            Payload::Str(_) => DType::Str,
            Payload::Bool(_) => DType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.view {
            Some(view) => view.map.len(),
            None => each!(&self.payload, v => v.len()),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row map, when the column is a view.
    #[inline]
    fn map(&self) -> Option<&[u32]> {
        self.view.as_ref().map(|view| &*view.map)
    }

    /// The payload row behind `row`, or `None` where a view reads null.
    #[inline]
    fn source_row(&self, row: usize) -> Option<usize> {
        match &self.view {
            None => Some(row),
            Some(view) => Some(view.map[row] as usize).filter(|&r| r != NO_ROW as usize),
        }
    }

    /// The cell of `v`, this column's payload, at `row`.
    #[inline]
    fn cell<'a, T: Cell>(&self, v: &'a Cells<T>, row: usize) -> Option<&'a T> {
        self.source_row(row).and_then(|r| v.get(r))
    }

    /// [`Column::cell`] of an int payload, widened.
    #[inline]
    fn int(&self, v: &Ints, row: usize) -> Option<i64> {
        self.source_row(row).and_then(|r| v.get(r))
    }

    /// Number of null entries. O(1) for a dense column, which keeps the
    /// count, and for a view whose join knew the answer; otherwise one
    /// counting pass over `(map, source)` that copies nothing.
    pub fn null_count(&self) -> usize {
        match &self.view {
            None => each!(&self.payload, v => v.nulls()),
            Some(View { nulls: Some(nulls), .. }) => *nulls,
            Some(view) => {
                let (mut nulls, all) = (0usize, 0..view.map.len());
                each!(&self.payload, v => v.each(all, Some(&view.map), |c| nulls += usize::from(c.is_none())));
                nulls
            }
        }
    }

    /// Fraction of null entries in `[0, 1]`; zero for an empty column.
    pub fn null_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.len() as f64
        }
    }

    /// Get the value at `row` (panics if out of bounds — use
    /// [`Column::try_get`] for a checked variant).
    pub fn get(&self, row: usize) -> Value {
        match &self.payload {
            Payload::Int(v) => self.int(v, row).map(Value::Int),
            Payload::Float(v) => self.cell(v, row).map(|&f| Value::Float(f)),
            Payload::Str(v) => self.cell(v, row).and_then(|s| s.clone()).map(Value::Str),
            Payload::Bool(v) => self.cell(v, row).map(|&b| Value::Bool(b)),
        }
        .unwrap_or(Value::Null)
    }

    /// Checked access.
    pub fn try_get(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(DataError::RowOutOfBounds { index: row, len: self.len() });
        }
        Ok(self.get(row))
    }

    /// Numeric view of a row: ints/floats/bools coerce to f64, strings and
    /// nulls are `None`.
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match &self.payload {
            Payload::Int(v) => self.int(v, row).map(|i| i as f64),
            Payload::Float(v) => self.cell(v, row).copied(),
            Payload::Bool(v) => self.cell(v, row).map(|&b| b.into()),
            Payload::Str(_) => None,
        }
    }

    /// Join key of a row (`None` when null).
    pub fn key(&self, row: usize) -> Option<Key> {
        let mut key = None;
        self.keys_in(row..row + 1, |k| key = k);
        key
    }

    /// The join keys of `rows`, in order, handed to `f` (`None` for nulls):
    /// [`Column::key`] for a whole block, built straight from the typed
    /// payload — no [`Value`] per row — and read through the map when the
    /// column is a view. The one typed row pass: the probe side of a join,
    /// a dictionary build and a column profile all walk it.
    pub fn keys_in(&self, rows: Range<usize>, mut f: impl FnMut(Option<Key>)) {
        let map = self.map();
        match &self.payload {
            Payload::Int(v) => v.each(rows, map, |c| f(c.map(Key::Num))),
            Payload::Float(v) => v.each(rows, map, |c| f(c.and_then(|&x| float_key(x)))),
            Payload::Str(v) => v.each(rows, map, |c| f(c.and_then(|s| s.clone()).map(Key::Str))),
            Payload::Bool(v) => v.each(rows, map, |c| f(c.map(|&b| Key::Bool(b)))),
        }
    }

    /// Feed one cell's stable fingerprint into `h` without materializing a
    /// [`Value`] (no `Arc` bump for strings, no enum construction) — the
    /// hot path of join-index builds, where every duplicate-key row hashes
    /// every cell. Byte-for-byte identical to hashing [`Column::get`]'s
    /// value: nulls write tag 0, `-0.0` hashes as `0.0`.
    pub fn hash_cell_into(&self, row: usize, h: &mut crate::stable_hash::StableHasher) {
        use std::hash::Hasher as _;
        match &self.payload {
            Payload::Int(v) => match self.int(v, row) {
                None => h.write_u8(0),
                Some(i) => {
                    h.write_u8(1);
                    h.write_i64(i);
                }
            },
            Payload::Float(v) => match self.cell(v, row) {
                None => h.write_u8(0),
                Some(&f) => {
                    h.write_u8(2);
                    let f = if f == 0.0 { 0.0 } else { f };
                    h.write_u64(f.to_bits());
                }
            },
            Payload::Str(v) => match self.cell(v, row).and_then(Option::as_ref) {
                None => h.write_u8(0),
                Some(s) => {
                    h.write_u8(3);
                    h.write(s.as_bytes());
                    h.write_u8(0xff);
                }
            },
            Payload::Bool(v) => match self.cell(v, row) {
                None => h.write_u8(0),
                Some(&b) => {
                    h.write_u8(4);
                    h.write_u8(u8::from(b));
                }
            },
        }
    }

    /// Append a value; coerces ints→floats into float columns, errors on any
    /// other type mismatch. Nulls (and float NaNs) append as null.
    ///
    /// Copy-on-write: a column still sharing its payload with a clone
    /// detaches (deep-copies) before the append, and a view is gathered
    /// into a dense column first.
    pub fn push(&mut self, value: Value) -> Result<()> {
        self.make_dense();
        match (&mut self.payload, value) {
            (_, Value::Null) => self.push_null(),
            (Payload::Int(v), Value::Int(i)) => Arc::make_mut(v).push(Some(i)),
            (Payload::Float(v), Value::Float(f)) => {
                Arc::make_mut(v).push(Some(f).filter(|f| !f.is_nan()))
            }
            (Payload::Float(v), Value::Int(i)) => Arc::make_mut(v).push(Some(i as f64)),
            (Payload::Str(v), Value::Str(s)) => Arc::make_mut(v).push(Some(Some(s))),
            (Payload::Bool(v), Value::Bool(b)) => Arc::make_mut(v).push(Some(b)),
            (_, value) => {
                return Err(DataError::TypeMismatch {
                    expected: self.dtype().name(),
                    got: value.dtype().map_or("null", DType::name),
                })
            }
        }
        Ok(())
    }

    /// Append a null (copy-on-write, as [`Column::push`]).
    pub fn push_null(&mut self) {
        self.make_dense();
        each!(&mut self.payload, v => Arc::make_mut(v).push(None));
    }

    fn make_dense(&mut self) {
        if self.view.is_some() {
            *self = self.gather((0..self.len()).map(|row| self.source_row(row)));
        }
    }

    /// The one gather: a dense column holding payload row `r` for every
    /// `Some(r)` of `rows` and null for every `None`. Every copy out of a
    /// view comes through here and is counted.
    fn gather(&self, rows: impl ExactSizeIterator<Item = Option<usize>>) -> Column {
        fn pick<T: Cell>(v: &Cells<T>, rows: impl Iterator<Item = Option<usize>>) -> Cells<T> {
            rows.map(|r| r.and_then(|r| v.get(r).cloned())).collect()
        }
        if self.view.is_some() {
            obs::add("join.cells_materialized", rows.len() as u64);
        }
        Column::dense(match &self.payload {
            // A subset of the rows fits the source's base and width.
            Payload::Int(v) => {
                let cells = widths!(&v.cells, (c, width) => width(pick(c, rows)));
                Payload::Int(Arc::new(Ints { base: v.base, cells }))
            }
            Payload::Float(v) => Payload::Float(Arc::new(pick(v, rows))),
            Payload::Str(v) => Payload::Str(Arc::new(pick(v, rows))),
            Payload::Bool(v) => Payload::Bool(Arc::new(pick(v, rows))),
        })
    }

    /// Gather rows by index (all present) into a dense column.
    pub fn take(&self, indices: &[usize]) -> Column {
        self.gather(indices.iter().map(|&i| self.source_row(i)))
    }

    /// Iterate values as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The numeric view of every row in order, `NaN` at nulls and for
    /// string cells. A float column is read as it lies: its null slots
    /// already hold `NaN`.
    fn each_f64(&self, mut f: impl FnMut(f64)) {
        let (all, map) = (0..self.len(), self.map());
        match &self.payload {
            Payload::Int(v) => v.each(all, map, |c| f(c.map_or(f64::NAN, |i| i as f64))),
            Payload::Float(v) => match map {
                None => v.values.iter().for_each(|&x| f(x)),
                Some(map) => map
                    .iter()
                    .for_each(|&r| f(if r == NO_ROW { f64::NAN } else { v.values[r as usize] })),
            },
            Payload::Bool(v) => v.each(all, map, |c| f(c.map_or(f64::NAN, |&b| b.into()))),
            Payload::Str(_) => all.for_each(|_| f(f64::NAN)),
        }
    }

    /// Extract the numeric view as a dense vector, with `f64::NAN` at nulls
    /// and for string cells.
    pub fn to_f64_lossy(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.write_f64_lossy(&mut out);
        out
    }

    /// [`Column::to_f64_lossy`] into a caller-owned buffer (cleared first),
    /// so hot loops extracting one column after another reuse a single
    /// warm allocation instead of growing a fresh vec per column. A view is
    /// read through its map here — this is where a joined column's cells
    /// are first touched — and a dense float column is one slice copy.
    pub fn write_f64_lossy(&self, out: &mut Vec<f64>) {
        out.clear();
        match (&self.payload, &self.view) {
            (Payload::Float(v), None) => out.extend_from_slice(&v.values),
            _ => {
                out.reserve(self.len());
                self.each_f64(|x| out.push(x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col() -> Column {
        Column::from_ints([Some(1), None, Some(3), Some(3)])
    }

    #[test]
    fn len_and_nulls() {
        let c = int_col();
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 1);
        assert!((c.null_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_column_null_ratio_is_zero() {
        assert_eq!(Column::empty(DType::Int).null_ratio(), 0.0);
    }

    #[test]
    fn nan_is_normalized_to_null() {
        let c = Column::from_floats([Some(1.0), Some(f64::NAN), None]);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn a_float_column_with_a_null_equals_itself() {
        // Its null slots hold `NaN`, which no `==` over the values survives.
        let c = Column::from_floats([Some(1.0), None, Some(-0.0)]);
        assert_eq!(c, c.clone());
        assert_eq!(c, Column::from_floats([Some(1.0), Some(f64::NAN), Some(0.0)]));
        assert_ne!(c, Column::from_floats([Some(1.0), Some(0.0), Some(0.0)]));
        assert_ne!(c, Column::from_ints([Some(1), None, Some(0)]));
    }

    #[test]
    fn the_bitmap_appears_with_the_first_null_and_spans_words() {
        let n = 200usize;
        let mut c = Column::from_ints((0..n as i64).map(Some));
        assert_eq!(c.owned_payload().map(|(_, bytes)| bytes), Some(n), "values only, 1 B each: the span is 199");
        c.push_null();
        for i in n + 1..2 * n {
            c.push(if i % 64 < 2 { Value::Null } else { Value::Int(i as i64) }).unwrap();
        }
        let nulls: Vec<usize> = (0..2 * n).filter(|&i| c.get(i).is_null()).collect();
        assert_eq!(nulls, [200, 256, 257, 320, 321, 384, 385]);
        assert_eq!(c.null_count(), nulls.len());
        assert_eq!(c.take(&[199, 200, 201, 256]), Column::from_ints([Some(199), None, Some(201), None]));
        let holed = Column::from_ints((0..n as i64).map(|i| (i != 70).then_some(i)));
        let bytes = holed.owned_payload().unwrap().1;
        assert!(bytes > n && bytes <= n + n.div_ceil(64) * 8, "{bytes}");
    }

    #[test]
    fn push_coerces_int_into_float_column() {
        let mut c = Column::empty(DType::Float);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn push_type_mismatch_errors() {
        let mut c = Column::empty(DType::Int);
        let err = c.push(Value::str("x")).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn view_reads_through_its_map_and_equals_the_dense_gather() {
        let c = int_col(); // 1, null, 3, 3
        let map: Arc<[u32]> = vec![0, NO_ROW, 2, 1].into();
        let v = c.view(&map, None);
        let dense = Column::from_ints([Some(1), None, Some(3), None]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(0), Value::Int(1));
        assert_eq!(v.get(1), Value::Null);
        assert_eq!(v.null_count(), 2, "one unmatched row, one null source cell");
        assert_eq!(v.to_f64_lossy()[2], 3.0);
        assert_eq!(v, dense, "value equality across representations");
        assert_eq!(dense, v);
        assert!(v != c && !v.shares_payload(&c) && v.shares_payload(&v.clone()));
        // Taking and pushing turn the view dense; the source is untouched.
        assert_eq!(v.take(&[3, 2, 0]), Column::from_ints([None, Some(3), Some(1)]));
        let mut pushed = v.clone();
        pushed.push(Value::Int(9)).unwrap();
        assert_eq!(pushed.len(), 5);
        assert_eq!((c.len(), v.len()), (4, 4));
        // A view of a view composes the maps.
        let outer: Arc<[u32]> = vec![3, 0, NO_ROW].into();
        assert_eq!(v.view(&outer, None), Column::from_ints([None, Some(1), None]));
        // A known null count is trusted, not recounted.
        assert_eq!(c.view(&map, Some(7)).null_count(), 7);
    }

    #[test]
    fn keys_in_is_key_row_by_row() {
        let map: Arc<[u32]> = vec![2, NO_ROW, 0, 1].into();
        for c in [
            int_col(),
            Column::from_floats([Some(2.0), Some(-0.0), None, Some(0.5)]),
            Column::from_strs([Some("a"), None, Some("b"), Some("a")]),
            Column::from_bools([Some(true), None, Some(false), Some(true)]),
        ] {
            for c in [c.view(&map, None), c] {
                let mut keys = Vec::new();
                c.keys_in(1..4, |k| keys.push(k));
                assert_eq!(keys, (1..4).map(|row| c.key(row)).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn take_preserves_order() {
        let c = int_col();
        let t = c.take(&[3, 0]);
        assert_eq!(t.get(0), Value::Int(3));
        assert_eq!(t.get(1), Value::Int(1));
    }

    #[test]
    fn try_get_bounds() {
        let c = int_col();
        assert!(c.try_get(10).is_err());
        assert_eq!(c.try_get(0).unwrap(), Value::Int(1));
    }

    #[test]
    fn to_f64_lossy_marks_nulls_nan() {
        let v = int_col().to_f64_lossy();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
    }

    #[test]
    fn bool_numeric_view() {
        let c = Column::from_bools([Some(true), Some(false), None]);
        assert_eq!(c.get_f64(0), Some(1.0));
        assert_eq!(c.get_f64(1), Some(0.0));
        assert_eq!(c.get_f64(2), None);
    }

    #[test]
    fn clone_is_zero_copy() {
        let c = int_col();
        let d = c.clone();
        assert!(c.shares_payload(&d), "clone must share the payload Arc");
        // Independent builds never share, even with equal contents.
        assert!(!c.shares_payload(&int_col()));
    }

    #[test]
    fn mutation_detaches_shared_payload() {
        let c = int_col();
        let mut d = c.clone();
        d.push(Value::Int(99)).unwrap();
        assert!(!c.shares_payload(&d), "push must copy-on-write");
        assert_eq!(c.len(), 4, "original untouched by clone's mutation");
        assert_eq!(d.len(), 5);
        assert_eq!(d.get(4), Value::Int(99));

        let mut e = c.clone();
        e.push_null();
        assert_eq!(c.len(), 4);
        assert_eq!(e.null_count(), c.null_count() + 1);
    }
}
