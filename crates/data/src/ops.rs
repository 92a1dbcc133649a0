//! Relational operations on tables: filter, sort, group-aggregate, and
//! vertical concatenation. These complement the join engine when preparing
//! lakes (deduplication, per-key aggregation) and when examples slice data.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::table::Table;
use crate::value::{Key, Value};

/// Keep only the rows where `predicate(row_index)` is true.
pub fn filter_rows(table: &Table, predicate: impl Fn(usize) -> bool) -> Table {
    let keep: Vec<usize> = (0..table.n_rows()).filter(|&i| predicate(i)).collect();
    table.take(&keep)
}

/// Keep only the rows where `column`'s value satisfies `predicate`.
pub fn filter(
    table: &Table,
    column: &str,
    predicate: impl Fn(&Value) -> bool,
) -> Result<Table> {
    let col = table.column(column)?.clone();
    Ok(filter_rows(table, |i| predicate(&col.get(i))))
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending (nulls last).
    Ascending,
    /// Descending (nulls last).
    Descending,
}

/// Stable sort by one column. Nulls sort last in either direction; string
/// columns sort lexicographically, numeric columns numerically.
pub fn sort_by(table: &Table, column: &str, order: Order) -> Result<Table> {
    let col = table.column(column)?;
    let mut idx: Vec<usize> = (0..table.n_rows()).collect();
    let key = |i: usize| -> (bool, Option<f64>, Option<String>) {
        let v = col.get(i);
        match &v {
            Value::Null => (true, None, None),
            Value::Str(s) => (false, None, Some(s.to_string())),
            _ => (false, v.as_f64(), None),
        }
    };
    idx.sort_by(|&a, &b| {
        let (na, fa, sa) = key(a);
        let (nb, fb, sb) = key(b);
        // Nulls last regardless of direction.
        let ord = na
            .cmp(&nb)
            .then_with(|| match (&fa, &fb) {
                // total_cmp: NaN cells must not panic the sort.
                (Some(x), Some(y)) => x.total_cmp(y),
                _ => std::cmp::Ordering::Equal,
            })
            .then_with(|| sa.cmp(&sb));
        if order == Order::Descending && !na && !nb {
            ord.reverse()
        } else {
            ord
        }
    });
    Ok(table.take(&idx))
}

/// An aggregate function over a group's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count of the group (ignores the target column's nulls).
    Count,
    /// Sum of the numeric view.
    Sum,
    /// Mean of the numeric view.
    Mean,
    /// Minimum of the numeric view.
    Min,
    /// Maximum of the numeric view.
    Max,
    /// First non-null value in row order.
    First,
}

/// Group `table` by `key_column` and compute one aggregate per `(column,
/// aggregate)` pair. Output columns are named `{column}_{agg}` (and the key
/// keeps its name). Null keys form their own group, keyed first.
pub fn group_by(
    table: &Table,
    key_column: &str,
    aggregates: &[(&str, Aggregate)],
) -> Result<Table> {
    let key_col = table.column(key_column)?;
    // Group rows by key, deterministic order by first appearance.
    let mut order: Vec<Option<Key>> = Vec::new();
    let mut groups: HashMap<Option<Key>, Vec<usize>> = HashMap::new();
    for i in 0..table.n_rows() {
        let k = key_col.key(i);
        let entry = groups.entry(k.clone()).or_default();
        if entry.is_empty() {
            order.push(k);
        }
        entry.push(i);
    }

    // Key output column: representative value per group.
    let mut key_out = Column::empty(key_col.dtype());
    for k in &order {
        let rows = &groups[k];
        key_out.push(key_col.get(rows[0]))?;
    }
    let mut cols: Vec<(String, Column)> = vec![(key_column.to_string(), key_out)];

    for &(cname, agg) in aggregates {
        let col = table.column(cname)?;
        let numbers = |k: &Option<Key>| groups[k].iter().filter_map(|&i| col.get_f64(i));
        let out_col = match agg {
            Aggregate::Count => Column::from_floats(order.iter().map(|k| Some(numbers(k).count() as f64))),
            Aggregate::Sum => Column::from_floats(order.iter().map(|k| Some(numbers(k).sum()))),
            Aggregate::Mean => Column::from_floats(order.iter().map(|k| {
                // Seeded as `Sum` seeds it, so the mean is `sum / count` to the bit.
                let (n, sum) = numbers(k).fold((0usize, -0.0), |(n, sum), x| (n + 1, sum + x));
                (n > 0).then(|| sum / n as f64)
            })),
            Aggregate::Min => Column::from_floats(order.iter().map(|k| numbers(k).reduce(f64::min))),
            Aggregate::Max => Column::from_floats(order.iter().map(|k| numbers(k).reduce(f64::max))),
            Aggregate::First => {
                let mut firsts = Column::with_capacity(col.dtype(), order.len());
                for k in &order {
                    let first = groups[k].iter().map(|&i| col.get(i)).find(|v| !v.is_null());
                    firsts.push(first.unwrap_or(Value::Null))?;
                }
                firsts
            }
        };
        let suffix = match agg {
            Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Mean => "mean",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
            Aggregate::First => "first",
        };
        let out_name = format!("{cname}_{suffix}");
        cols.push((out_name, out_col));
    }
    Table::new(format!("{}_by_{key_column}", table.name()), cols)
}

/// Vertically concatenate tables with identical schemas (names and types,
/// in order).
pub fn concat(tables: &[&Table]) -> Result<Table> {
    let Some(first) = tables.first() else {
        return Ok(Table::empty("concat"));
    };
    let schema = first.schema();
    for t in &tables[1..] {
        if t.schema() != schema {
            return Err(DataError::Invalid(format!(
                "schema mismatch: `{}` differs from `{}`",
                t.name(),
                first.name()
            )));
        }
    }
    let mut cols: Vec<(String, Column)> = Vec::with_capacity(first.n_cols());
    for c in 0..first.n_cols() {
        let field = first.field_at(c);
        let mut col = Column::with_capacity(
            field.dtype,
            tables.iter().map(|t| t.n_rows()).sum(),
        );
        for t in tables {
            let src = t.column_at(c);
            for i in 0..src.len() {
                col.push(src.get(i))?;
            }
        }
        cols.push((field.name.clone(), col));
    }
    Table::new(first.name().to_string(), cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("g", Column::from_strs([Some("a"), Some("b"), Some("a"), None, Some("b")])),
                ("x", Column::from_floats([Some(1.0), Some(2.0), Some(3.0), Some(4.0), None])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_by_value() {
        let t = filter(&table(), "g", |v| *v == Value::str("a")).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value("x", 1).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn filter_rows_by_index() {
        let t = filter_rows(&table(), |i| i % 2 == 0);
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn sort_ascending_nulls_last() {
        let t = sort_by(&table(), "x", Order::Ascending).unwrap();
        assert_eq!(t.value("x", 0).unwrap(), Value::Float(1.0));
        assert_eq!(t.value("x", 3).unwrap(), Value::Float(4.0));
        assert_eq!(t.value("x", 4).unwrap(), Value::Null);
    }

    #[test]
    fn sort_descending_nulls_still_last() {
        let t = sort_by(&table(), "x", Order::Descending).unwrap();
        assert_eq!(t.value("x", 0).unwrap(), Value::Float(4.0));
        assert_eq!(t.value("x", 4).unwrap(), Value::Null);
    }

    #[test]
    fn sort_strings_lexicographically() {
        let t = sort_by(&table(), "g", Order::Ascending).unwrap();
        assert_eq!(t.value("g", 0).unwrap(), Value::str("a"));
        assert_eq!(t.value("g", 4).unwrap(), Value::Null);
    }

    #[test]
    fn group_by_aggregates() {
        let g = group_by(
            &table(),
            "g",
            &[("x", Aggregate::Sum), ("x", Aggregate::Count), ("x", Aggregate::Mean)],
        )
        .unwrap();
        assert_eq!(g.n_rows(), 3); // a, b, null
        // Group "a": rows 0,2 → sum 4.
        assert_eq!(g.value("x_sum", 0).unwrap(), Value::Float(4.0));
        assert_eq!(g.value("x_count", 0).unwrap(), Value::Float(2.0));
        assert_eq!(g.value("x_mean", 0).unwrap(), Value::Float(2.0));
        // Group "b": rows 1,4 → x = {2.0, null} → count 1.
        assert_eq!(g.value("x_count", 1).unwrap(), Value::Float(1.0));
        assert_eq!(g.value("x_sum", 1).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn group_by_min_max_first() {
        let g = group_by(
            &table(),
            "g",
            &[("x", Aggregate::Min), ("x", Aggregate::Max), ("x", Aggregate::First)],
        )
        .unwrap();
        assert_eq!(g.value("x_min", 0).unwrap(), Value::Float(1.0));
        assert_eq!(g.value("x_max", 0).unwrap(), Value::Float(3.0));
        assert_eq!(g.value("x_first", 0).unwrap(), Value::Float(1.0));
        // Group "b"'s mean over {2.0} only.
        assert_eq!(g.value("x_max", 1).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn group_null_keys_form_a_group() {
        let g = group_by(&table(), "g", &[("x", Aggregate::Count)]).unwrap();
        // Third group is the null key (row 3).
        assert_eq!(g.value("g", 2).unwrap(), Value::Null);
        assert_eq!(g.value("x_count", 2).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn concat_stacks_rows() {
        let t = table();
        let c = concat(&[&t, &t]).unwrap();
        assert_eq!(c.n_rows(), 10);
        assert_eq!(c.n_cols(), 2);
        assert_eq!(c.value("x", 5).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn concat_schema_mismatch_rejected() {
        let t = table();
        let other = t.rename_column("x", "y").unwrap();
        assert!(concat(&[&t, &other]).is_err());
    }

    #[test]
    fn concat_empty_is_empty() {
        let c = concat(&[]).unwrap();
        assert_eq!(c.n_rows(), 0);
    }
}
