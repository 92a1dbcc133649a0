//! Missing-value imputation.
//!
//! The paper (§V-B) handles missing values "by imputation with the most
//! common value corresponding to the feature" — the default here. Mean
//! imputation is provided for numeric columns as an alternative used in
//! ablations.

use crate::column::Column;
use crate::error::Result;
use crate::table::Table;
use crate::value::{DType, Value};

/// Imputation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Replace nulls with the column mode (paper default).
    #[default]
    MostFrequent,
    /// Replace nulls with the column mean (numeric columns only; non-numeric
    /// columns fall back to the mode).
    Mean,
}

/// Fill nulls in a single column according to the strategy. Columns that are
/// entirely null are returned unchanged (there is nothing to impute from).
pub fn impute_column(col: &Column, strategy: Strategy) -> Column {
    let fill: Option<Value> = match strategy {
        Strategy::MostFrequent => col.mode(),
        // Keep ints integral under mean imputation.
        Strategy::Mean => match (col.dtype(), col.mean()) {
            (DType::Str, _) => col.mode(),
            (_, None) => None,
            (DType::Int, Some(m)) => Some(Value::Int(m.round() as i64)),
            (DType::Bool, Some(m)) => Some(Value::Bool(m >= 0.5)),
            (DType::Float, Some(m)) => Some(Value::Float(m)),
        },
    };
    let Some(fill) = fill else {
        return col.clone();
    };
    let mut out = Column::with_capacity(col.dtype(), col.len());
    for i in 0..col.len() {
        let v = col.get(i);
        let v = if v.is_null() { fill.clone() } else { v };
        out.push(v).expect("fill value matches column type");
    }
    out
}

/// Impute every column of a table.
pub fn impute_table(table: &Table, strategy: Strategy) -> Result<Table> {
    let mut t = table.clone();
    let names: Vec<String> = table.column_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let col = impute_column(table.column(&name)?, strategy);
        t = t.replace_column(&name, col)?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_frequent_fills_mode() {
        let c = Column::from_ints([Some(5), Some(5), None, Some(2)]);
        let f = impute_column(&c, Strategy::MostFrequent);
        assert_eq!(f.get(2), Value::Int(5));
        assert_eq!(f.null_count(), 0);
    }

    #[test]
    fn mean_fills_numeric() {
        let c = Column::from_floats([Some(1.0), None, Some(3.0)]);
        let f = impute_column(&c, Strategy::Mean);
        assert_eq!(f.get(1), Value::Float(2.0));
    }

    #[test]
    fn mean_on_ints_rounds() {
        let c = Column::from_ints([Some(1), None, Some(4)]);
        let f = impute_column(&c, Strategy::Mean);
        assert_eq!(f.get(1), Value::Int(3)); // 2.5 rounds to 3
    }

    #[test]
    fn mean_on_strings_falls_back_to_mode() {
        let c = Column::from_strs([Some("x"), Some("x"), None]);
        let f = impute_column(&c, Strategy::Mean);
        assert_eq!(f.get(2), Value::str("x"));
    }

    #[test]
    fn all_null_column_unchanged() {
        let c = Column::from_ints([None, None]);
        let f = impute_column(&c, Strategy::MostFrequent);
        assert_eq!(f.null_count(), 2);
    }

    #[test]
    fn table_imputation_covers_all_columns() {
        let t = Table::new(
            "t",
            vec![
                ("a", Column::from_ints([Some(1), None])),
                ("b", Column::from_strs([None, Some("y")])),
            ],
        )
        .unwrap();
        let f = impute_table(&t, Strategy::MostFrequent).unwrap();
        assert_eq!(f.null_ratio(), 0.0);
    }

    #[test]
    fn non_null_values_untouched() {
        let c = Column::from_floats([Some(9.0), None]);
        let f = impute_column(&c, Strategy::Mean);
        assert_eq!(f.get(0), Value::Float(9.0));
    }
}
