//! Field descriptors: a table column's name and type.

use crate::value::DType;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a table.
    pub name: String,
    /// Logical type.
    pub dtype: DType,
}

impl Field {
    /// Construct a field.
    pub(crate) fn new(name: impl Into<String>, dtype: DType) -> Self {
        Field { name: name.into(), dtype }
    }
}
