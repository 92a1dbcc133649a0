//! Data-quality statistics.
//!
//! The τ pruning rule (§IV-C / Algorithm 1, line 15) measures the
//! *completeness* of a join result: the fraction of non-null values. A join
//! whose completeness falls below τ is pruned.

use crate::error::Result;
use crate::table::Table;

/// Completeness of a set of columns: fraction of **non-null** cells, in
/// `[0, 1]`. An empty column set (or empty table) is defined as complete.
pub fn completeness(table: &Table, columns: &[&str]) -> Result<f64> {
    let mut cells = 0usize;
    let mut nulls = 0usize;
    for &c in columns {
        let col = table.column(c)?;
        cells += col.len();
        nulls += col.null_count();
    }
    if cells == 0 {
        return Ok(1.0);
    }
    Ok(1.0 - nulls as f64 / cells as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("a", Column::from_ints([Some(1), None, Some(1), Some(2)])),
                ("b", Column::from_strs([Some("x"), None, None, None])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn completeness_over_selected_columns() {
        let t = table();
        assert!((completeness(&t, &["a"]).unwrap() - 0.75).abs() < 1e-12);
        assert!((completeness(&t, &["a", "b"]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(completeness(&t, &[]).unwrap(), 1.0);
    }

    #[test]
    fn completeness_missing_column_errors() {
        assert!(completeness(&table(), &["ghost"]).is_err());
    }
}
