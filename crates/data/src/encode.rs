//! Encoding tables into numeric form for metrics and ML.
//!
//! * [`label_encode`] maps string/bool columns to dense integer codes
//!   (deterministic: codes assigned by first appearance).
//! * [`to_matrix`] extracts a column-major `f64` matrix plus a label vector,
//!   the input format of the `autofeat-ml` learners and `autofeat-metrics`
//!   estimators. Nulls become `NaN` (impute first if that matters).

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::keydict::{KeyDict, NULL_CODE};
use crate::table::Table;
use crate::value::{DType, Key};

/// Label-encode one column: non-numeric values become integer codes in order
/// of first appearance; numeric columns are returned unchanged.
pub fn label_encode_column(col: &Column) -> Column {
    label_encode_column_with_dict(col, None)
}

/// [`label_encode_column`] with an optional [`KeyDict`] for the column.
/// With a dictionary the per-row work collapses to an array lookup:
/// a dense `dict code → label code` remap table is filled in order of first
/// appearance, so the **output is byte-identical** to the dictionary-less
/// path (same first-appearance code assignment) without hashing a single
/// cell. Callers obtain the dictionary via `Table::key_dict_for`, which
/// already guarantees freshness.
pub(crate) fn label_encode_column_with_dict(col: &Column, dict: Option<&KeyDict>) -> Column {
    match col.dtype() {
        // Unchanged, and for a join's view still unread: the cells are
        // first touched by whoever extracts the numbers.
        DType::Int | DType::Float => col.clone(),
        DType::Bool => {
            Column::from_ints((0..col.len()).map(|i| col.get_f64(i).map(|b| b as i64)))
        }
        DType::Str => {
            if let Some(d) = dict.filter(|d| d.n_rows() == col.len()) {
                let mut remap: Vec<i64> = vec![-1; d.n_codes()];
                let mut next = 0i64;
                return Column::from_ints(d.row_codes().iter().map(|&c| {
                    if c == NULL_CODE {
                        return None;
                    }
                    let slot = &mut remap[c as usize];
                    if *slot < 0 {
                        *slot = next;
                        next += 1;
                    }
                    Some(*slot)
                }));
            }
            let mut codes: HashMap<Key, i64> = HashMap::new();
            Column::from_ints((0..col.len()).map(|i| {
                col.key(i).map(|k| {
                    let next = codes.len() as i64;
                    *codes.entry(k).or_insert(next)
                })
            }))
        }
    }
}

/// Label-encode `col` of `table` through the table's key dictionary when
/// the encoding reads one: string columns only, so no other column's
/// dictionary is built on the way.
fn label_encode_in(table: &Table, col: &Column) -> Column {
    let dict = (col.dtype() == DType::Str).then(|| table.key_dict_for(col)).flatten();
    label_encode_column_with_dict(col, dict.map(|d| d.as_ref()))
}

/// Label-encode every non-numeric column of a table, through the key
/// dictionaries of its string columns where the table carries them.
pub fn label_encode(table: &Table) -> Result<Table> {
    let mut t = table.clone();
    let names: Vec<String> = table.column_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        let col = table.column(&name)?;
        if !col.dtype().is_numeric() {
            t = t.replace_column(&name, label_encode_in(table, col))?;
        }
    }
    Ok(t)
}

/// A column-major numeric matrix with named features and a label vector.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Feature names, parallel to `cols`.
    pub feature_names: Vec<String>,
    /// Column-major data: `cols[j][i]` is feature `j` of row `i`. Nulls are
    /// `NaN`.
    pub cols: Vec<Vec<f64>>,
    /// Integer class labels per row.
    pub labels: Vec<i64>,
    /// Number of rows.
    pub n_rows: usize,
}

impl Matrix {
    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// Restrict to a subset of features by index.
    pub fn select_features(&self, idx: &[usize]) -> Matrix {
        Matrix {
            feature_names: idx.iter().map(|&j| self.feature_names[j].clone()).collect(),
            cols: idx.iter().map(|&j| self.cols[j].clone()).collect(),
            labels: self.labels.clone(),
            n_rows: self.n_rows,
        }
    }
}

/// Extract a numeric matrix from `table`.
///
/// `features` lists the columns to use (label-encoded when non-numeric);
/// `label` is the class column (must not appear in `features`), encoded to
/// integer codes. Rows whose label is null are dropped.
pub fn to_matrix(table: &Table, features: &[&str], label: &str) -> Result<Matrix> {
    if features.contains(&label) {
        return Err(DataError::Invalid(format!(
            "label column `{label}` must not be among the features"
        )));
    }
    let raw_label = table.column(label)?;
    let label_col = label_encode_in(table, raw_label);
    // Keep rows with a non-null label.
    let keep: Vec<usize> = (0..label_col.len())
        .filter(|&i| label_col.get_f64(i).is_some())
        .collect();
    let labels: Vec<i64> = keep
        .iter()
        .map(|&i| label_col.get_f64(i).expect("filtered non-null") as i64)
        .collect();

    let mut cols = Vec::with_capacity(features.len());
    let mut names = Vec::with_capacity(features.len());
    for &f in features {
        let col = label_encode_in(table, table.column(f)?);
        cols.push(
            keep.iter()
                .map(|&i| col.get_f64(i).unwrap_or(f64::NAN))
                .collect::<Vec<f64>>(),
        );
        names.push(f.to_string());
    }
    Ok(Matrix { feature_names: names, cols, labels, n_rows: keep.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("num", Column::from_floats([Some(1.0), Some(2.0), None, Some(4.0)])),
                ("cat", Column::from_strs([Some("a"), Some("b"), Some("a"), None])),
                ("flag", Column::from_bools([Some(true), Some(false), Some(true), Some(true)])),
                ("y", Column::from_strs([Some("yes"), Some("no"), Some("yes"), None])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn string_codes_by_first_appearance() {
        let c = label_encode_column(&Column::from_strs([Some("b"), Some("a"), Some("b")]));
        assert_eq!(c.get(0), Value::Int(0));
        assert_eq!(c.get(1), Value::Int(1));
        assert_eq!(c.get(2), Value::Int(0));
    }

    #[test]
    fn dict_reuse_matches_hashed_encoding_exactly() {
        // Same column, with and without a key dictionary: the
        // dictionary path must reproduce the first-appearance codes
        // byte for byte, whatever order the dictionary assigned its own.
        let vals = [Some("b"), Some("a"), None, Some("b"), Some("c"), Some("a")];
        let col = Column::from_strs(vals);
        let keyed = Table::new("t", vec![("cat", col.clone())]).unwrap().with_key_dicts();
        let kcol = keyed.column("cat").unwrap();
        let dict = keyed.key_dict_for(kcol).expect("a keyed table's own column");
        let plain = label_encode_column(&col);
        let via_dict = label_encode_column_with_dict(kcol, Some(dict));
        assert_eq!(plain, via_dict);
        assert_eq!(plain.get(0), Value::Int(0)); // b first
        assert_eq!(plain.get(1), Value::Int(1)); // a second
        assert_eq!(plain.get(2), Value::Null);
        // A stale dictionary (row count mismatch) is ignored, not trusted.
        let shorter = Column::from_strs([Some("b"), Some("a")]);
        let enc = label_encode_column_with_dict(&shorter, Some(dict));
        assert_eq!(enc, label_encode_column(&shorter));
    }

    #[test]
    fn table_encoding_reuses_dicts() {
        let plain = label_encode(&table()).unwrap();
        let source = table().with_key_dicts();
        let keyed = label_encode(&source).unwrap();
        assert_eq!(plain, keyed);
        // Only the string columns' dictionaries were read, so only they exist.
        assert_eq!(source.built_dicts().map(|(i, _)| i).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn matrix_is_identical_with_and_without_dicts() {
        let a = to_matrix(&table(), &["num", "cat", "flag"], "y").unwrap();
        let b = to_matrix(&table().with_key_dicts(), &["num", "cat", "flag"], "y").unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.cols.len(), b.cols.len());
        for (ca, cb) in a.cols.iter().zip(&b.cols) {
            assert_eq!(
                ca.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                cb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bool_encoding() {
        let c = label_encode_column(&Column::from_bools([Some(true), Some(false), None]));
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Int(0));
        assert_eq!(c.get(2), Value::Null);
    }

    #[test]
    fn numeric_columns_untouched() {
        let c = Column::from_floats([Some(1.5)]);
        assert_eq!(label_encode_column(&c), c);
    }

    #[test]
    fn table_encoding_leaves_numeric() {
        let t = label_encode(&table()).unwrap();
        assert_eq!(t.column("num").unwrap().dtype(), crate::value::DType::Float);
        assert_eq!(t.column("cat").unwrap().dtype(), crate::value::DType::Int);
    }

    #[test]
    fn matrix_drops_null_label_rows() {
        let m = to_matrix(&table(), &["num", "cat", "flag"], "y").unwrap();
        assert_eq!(m.n_rows, 3); // last row has null label
        assert_eq!(m.labels, vec![0, 1, 0]);
        assert_eq!(m.n_features(), 3);
    }

    #[test]
    fn matrix_nulls_become_nan() {
        let m = to_matrix(&table(), &["num"], "y").unwrap();
        assert!(m.cols[0][2].is_nan());
    }

    #[test]
    fn label_in_features_rejected() {
        assert!(to_matrix(&table(), &["y"], "y").is_err());
    }

    #[test]
    fn select_features() {
        let m = to_matrix(&table(), &["num", "cat"], "y").unwrap();
        let mf = m.select_features(&[1]);
        assert_eq!(mf.feature_names, vec!["cat"]);
    }

    #[test]
    fn missing_feature_errors() {
        assert!(to_matrix(&table(), &["ghost"], "y").is_err());
    }
}
