//! Scalar values, data types, and hashable join keys.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl DType {
    /// Human-readable name of the type.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Bool => "bool",
        }
    }

    /// Whether the type is numeric (int or float).
    pub(crate) fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single (possibly null) cell value.
///
/// Strings use `Arc<str>` so that cloning values during joins is cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL / missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value. `NaN` is treated as null when stored into a column.
    Float(f64),
    /// String value.
    Str(Arc<str>),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether the value is null (including a float `NaN`).
    pub fn is_null(&self) -> bool {
        match self {
            Value::Null => true,
            Value::Float(f) => f.is_nan(),
            _ => false,
        }
    }

    /// The data type of the value, if non-null.
    pub(crate) fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DType::Int),
            Value::Float(_) => Some(DType::Float),
            Value::Str(_) => Some(DType::Str),
            Value::Bool(_) => Some(DType::Bool),
        }
    }

    /// Numeric view: ints, floats and bools coerce to `f64`; strings and
    /// nulls yield `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) if !f.is_nan() => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The equi-join key for this value, or `None` when null (nulls never
    /// match in joins).
    pub fn key(&self) -> Option<Key> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(Key::Num(*i)),
            Value::Float(f) => float_key(*f),
            Value::Str(s) => Some(Key::Str(Arc::clone(s))),
            Value::Bool(b) => Some(Key::Bool(*b)),
        }
    }
}

/// The join key of a float cell — the one normalisation [`Value::key`] and
/// the typed probe (`Column::keys_in`) share. `NaN` has no key.
pub(crate) fn float_key(f: f64) -> Option<Key> {
    if f.is_nan() {
        None
    } else if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 {
        // Integral floats join with ints: 5.0 == 5. `i64::MAX as f64` rounds
        // up to 2⁶³, which no `i64` holds, so that bound is strict; −2⁶³ is
        // `i64::MIN` exactly.
        Some(Key::Num(f as i64))
    } else {
        // Normalize -0.0 to 0.0 so the bit patterns agree.
        let f = if f == 0.0 { 0.0 } else { f };
        Some(Key::FloatBits(f.to_bits()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// A hashable, equality-comparable join key.
///
/// Integral values (ints and integral floats) share the [`Key::Num`] variant
/// so that `5` joins with `5.0`, which is common when CSV type inference
/// disagrees between two files describing the same entity.
///
/// The derived total order (variant tag, then payload) carries no semantic
/// meaning; it exists so dictionary encoding can break stable-hash ties
/// deterministically when assigning permutation-stable codes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Integral numeric key.
    Num(i64),
    /// Non-integral float key, by normalized bit pattern.
    FloatBits(u64),
    /// String key.
    Str(Arc<str>),
    /// Boolean key.
    Bool(bool),
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Num(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Key::FloatBits(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Key::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Key::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn null_detection() {
        assert!(Value::Null.is_null());
        assert!(Value::Float(f64::NAN).is_null());
        assert!(!Value::Int(0).is_null());
        assert!(!Value::str("").is_null());
    }

    #[test]
    fn as_f64_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn int_and_integral_float_share_key() {
        assert_eq!(Value::Int(5).key(), Value::Float(5.0).key());
        assert_ne!(Value::Int(5).key(), Value::Float(5.5).key());
    }

    /// 2⁶³ is integral but past `i64::MAX`: it keeps its bits instead of
    /// saturating into the key of `i64::MAX`, while −2⁶³ is `i64::MIN`.
    #[test]
    fn two_to_the_63_is_not_i64_max() {
        let two_63 = 2f64.powi(63);
        assert_eq!(two_63, i64::MAX as f64);
        assert_eq!(Value::Float(two_63).key(), Some(Key::FloatBits(two_63.to_bits())));
        assert_ne!(Value::Float(two_63).key(), Value::Int(i64::MAX).key());
        assert_eq!(Value::Float(-two_63).key(), Value::Int(i64::MIN).key());
        let below = f64::from_bits(two_63.to_bits() - 1);
        assert_eq!(Value::Float(below).key(), Some(Key::Num(below as i64)));
    }

    #[test]
    fn negative_zero_key_normalized() {
        assert_eq!(Value::Float(-0.0).key(), Value::Float(0.0).key());
    }

    #[test]
    fn nan_has_no_key() {
        assert_eq!(Value::Float(f64::NAN).key(), None);
        assert_eq!(Value::Null.key(), None);
    }

    #[test]
    fn keys_hash_distinctly_across_variants() {
        let mut set = HashSet::new();
        set.insert(Value::Int(1).key().unwrap());
        set.insert(Value::str("1").key().unwrap());
        set.insert(Value::Bool(true).key().unwrap());
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_roundtrip_ints() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn from_option() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }

    #[test]
    fn dtype_reporting() {
        assert_eq!(Value::Int(1).dtype(), Some(DType::Int));
        assert_eq!(Value::Null.dtype(), None);
        assert!(DType::Int.is_numeric());
        assert!(DType::Float.is_numeric());
        assert!(!DType::Str.is_numeric());
    }
}
