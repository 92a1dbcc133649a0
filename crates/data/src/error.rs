//! Error types for the table engine.

use std::fmt;

use crate::control::Interrupt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;

/// Errors produced by table-engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A column name was not found in a table.
    ColumnNotFound { table: String, column: String },
    /// Two columns in the same table share a name.
    DuplicateColumn { table: String, column: String },
    /// Columns of a table have differing lengths.
    LengthMismatch { expected: usize, got: usize, column: String },
    /// A value of an unexpected type was pushed into a typed column.
    TypeMismatch { expected: &'static str, got: &'static str },
    /// A row index was out of bounds.
    RowOutOfBounds { index: usize, len: usize },
    /// CSV input could not be parsed.
    Csv { line: usize, message: String },
    /// A CSV data row had a different field count than the header
    /// (structured so callers can report expected vs got precisely).
    CsvRagged { line: usize, expected: usize, got: usize },
    /// An I/O error (message-only so the error stays `Clone + Eq`).
    Io(String),
    /// A generic invalid-argument error.
    Invalid(String),
    /// The label column has more distinct classes than the scoring kernels
    /// can code (a regression-like target handed to a classification run).
    TooManyClasses { column: String, classes: usize, max: usize },
    /// A table has more rows than a join index's `u32` row ids can address.
    TooManyRows { table: String, rows: usize },
    /// The operation was stopped cooperatively (cancel or deadline) before
    /// completing. Not a failure: callers wind down and keep partials.
    Interrupted(Interrupt),
    /// An isolated panic inside a join-index build (message-only so the
    /// error stays `Clone + Eq`).
    BuildPanicked { table: String, message: String },
}

impl DataError {
    /// The interrupt reason, when this error is a cooperative stop rather
    /// than a real failure.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            DataError::Interrupted(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ColumnNotFound { table, column } => {
                write!(f, "column `{column}` not found in table `{table}`")
            }
            DataError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column `{column}` in table `{table}`")
            }
            DataError::LengthMismatch { expected, got, column } => write!(
                f,
                "column `{column}` has length {got}, expected {expected}"
            ),
            DataError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            DataError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for table with {len} rows")
            }
            DataError::Csv { line, message } => write!(f, "csv parse error at line {line}: {message}"),
            DataError::CsvRagged { line, expected, got } => write!(
                f,
                "csv parse error at line {line}: ragged row has {got} fields, header has {expected}"
            ),
            DataError::Io(msg) => write!(f, "io error: {msg}"),
            DataError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
            DataError::TooManyClasses { column, classes, max } => write!(
                f,
                "label column `{column}` has {classes} distinct classes, more than the {max} supported"
            ),
            DataError::TooManyRows { table, rows } => write!(
                f,
                "table `{table}` has {rows} rows, more than the {} a join index can address",
                u32::MAX
            ),
            DataError::Interrupted(reason) => write!(f, "interrupted: {reason}"),
            DataError::BuildPanicked { table, message } => {
                write!(f, "join-index build for table `{table}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = DataError::ColumnNotFound { table: "t".into(), column: "c".into() };
        assert_eq!(e.to_string(), "column `c` not found in table `t`");
    }

    #[test]
    fn display_length_mismatch() {
        let e = DataError::LengthMismatch { expected: 3, got: 2, column: "x".into() };
        assert!(e.to_string().contains("length 2"));
        assert!(e.to_string().contains("expected 3"));
    }

    #[test]
    fn display_csv_ragged_has_expected_vs_got() {
        let e = DataError::CsvRagged { line: 7, expected: 4, got: 2 };
        let s = e.to_string();
        assert!(s.contains("line 7"), "{s}");
        assert!(s.contains('4') && s.contains('2'), "{s}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: DataError = io.into();
        assert!(matches!(e, DataError::Io(_)));
    }
}
