//! A model of `Column`: an `Option<T>` per row, the representation the
//! column itself had until it packed its nulls into a bitmap beside typed
//! values. It answers every accessor the obvious way — index the vector,
//! look at the `Option` — and restates keys, the numeric view and the cell
//! fingerprint from their documented semantics, so `tests/column_model.rs`
//! can hold any column, dense or view, against it.

use autofeat::data::Key;
use autofeat::prelude::*;

/// One column's cells, null as `None`. A float `NaN` is a null.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
    Bool(Vec<Option<bool>>),
}

/// Run one expression over whichever vector the model holds.
macro_rules! each {
    ($model:expr, $v:ident => $e:expr) => {
        match $model {
            Model::Int($v) => $e,
            Model::Float($v) => $e,
            Model::Str($v) => $e,
            Model::Bool($v) => $e,
        }
    };
}

impl Model {
    /// A float model; `NaN`s become nulls, as they do in a column.
    pub fn floats(cells: Vec<Option<f64>>) -> Model {
        Model::Float(cells.into_iter().map(|c| c.filter(|f| !f.is_nan())).collect())
    }

    /// The dense column holding these cells.
    pub fn column(&self) -> Column {
        match self {
            Model::Int(v) => Column::from_ints(v.iter().copied()),
            Model::Float(v) => Column::from_floats(v.iter().copied()),
            Model::Str(v) => Column::from_strs(v.iter().map(|c| c.as_deref())),
            Model::Bool(v) => Column::from_bools(v.iter().copied()),
        }
    }

    pub fn dtype(&self) -> DType {
        match self {
            Model::Int(_) => DType::Int,
            Model::Float(_) => DType::Float,
            Model::Str(_) => DType::Str,
            Model::Bool(_) => DType::Bool,
        }
    }

    pub fn len(&self) -> usize {
        each!(self, v => v.len())
    }

    pub fn null_count(&self) -> usize {
        each!(self, v => v.iter().filter(|c| c.is_none()).count())
    }

    pub fn get(&self, row: usize) -> Value {
        match self {
            Model::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Model::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Model::Str(v) => v[row].as_ref().map_or(Value::Null, Value::str),
            Model::Bool(v) => v[row].map_or(Value::Null, Value::Bool),
        }
    }

    /// The numeric view: ints, floats and bools as `f64`, nothing for a
    /// null or a string.
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match self {
            Model::Int(v) => v[row].map(|i| i as f64),
            Model::Float(v) => v[row],
            Model::Bool(v) => v[row].map(|b| if b { 1.0 } else { 0.0 }),
            Model::Str(_) => None,
        }
    }

    /// The join key: integral floats join with ints, other floats by their
    /// bits, nulls never.
    pub fn key(&self, row: usize) -> Option<Key> {
        match self {
            Model::Int(v) => v[row].map(Key::Num),
            Model::Float(v) => v[row].map(|f| {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Key::Num(f as i64)
                } else {
                    Key::FloatBits(f.to_bits())
                }
            }),
            Model::Str(v) => v[row].as_deref().map(|s| Key::Str(s.into())),
            Model::Bool(v) => v[row].map(Key::Bool),
        }
    }

    /// What `Column::hash_cell_into` feeds the hasher for this cell: tag 0
    /// for a null, else the type's tag and the value's bytes — `-0.0` as
    /// `0.0`, a string closed by `0xff`.
    pub fn cell_bytes(&self, row: usize) -> Vec<u8> {
        let tagged = |tag: u8, bytes: &[u8]| [&[tag][..], bytes].concat();
        match self {
            Model::Int(v) => v[row].map(|i| tagged(1, &i.to_ne_bytes())),
            Model::Float(v) => v[row].map(|f| {
                let canonical = if f == 0.0 { 0.0f64 } else { f };
                tagged(2, &canonical.to_bits().to_ne_bytes())
            }),
            Model::Str(v) => v[row].as_ref().map(|s| [&[3][..], s.as_bytes(), &[0xff]].concat()),
            Model::Bool(v) => v[row].map(|b| tagged(4, &[u8::from(b)])),
        }
        .unwrap_or(vec![0])
    }

    /// The rows a view shows: row `i` is row `map[i]`, or a null.
    pub fn read_through(&self, map: &[Option<usize>]) -> Model {
        fn pick<T: Clone>(v: &[Option<T>], map: &[Option<usize>]) -> Vec<Option<T>> {
            map.iter().map(|r| r.and_then(|r| v[r].clone())).collect()
        }
        match self {
            Model::Int(v) => Model::Int(pick(v, map)),
            Model::Float(v) => Model::Float(pick(v, map)),
            Model::Str(v) => Model::Str(pick(v, map)),
            Model::Bool(v) => Model::Bool(pick(v, map)),
        }
    }

    /// Append what `Column::push` would: the value where it fits the type
    /// (an int into a float column too, a `NaN` as a null), `false` and no
    /// change where it does not.
    pub fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (m, Value::Null) => each!(m, v => v.push(None)),
            (Model::Int(v), Value::Int(i)) => v.push(Some(*i)),
            (Model::Float(v), Value::Float(f)) => v.push(Some(*f).filter(|f| !f.is_nan())),
            (Model::Float(v), Value::Int(i)) => v.push(Some(*i as f64)),
            (Model::Str(v), Value::Str(s)) => v.push(Some(s.to_string())),
            (Model::Bool(v), Value::Bool(b)) => v.push(Some(*b)),
            _ => return false,
        }
        true
    }
}
