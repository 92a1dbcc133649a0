//! Column profiles: the per-column summaries the matcher scores against.
//!
//! A profile is computed once per column, at ingest or when a table joins
//! the lake, and every later stage — LSH banding, candidate gating, exact
//! scoring — reads the profile, never the column.

use autofeat_data::{Column, KeyDict, Table};

use crate::value_sim::{hash_value, MinHash, ValueRun};

/// Default MinHash sketch size.
pub const DEFAULT_SKETCH_K: usize = 128;

/// Cap on the exact value set retained per column; columns with more
/// distinct values rely on the MinHash estimate instead.
pub const EXACT_SET_CAP: usize = 100_000;

/// A profile of one column: identity, type, and value-set summaries.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Owning table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Logical type.
    pub dtype: autofeat_data::DType,
    /// Fraction of nulls.
    pub null_ratio: f64,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Exact hashes of distinct values (present iff `distinct <= EXACT_SET_CAP`).
    pub value_hashes: Option<ValueRun>,
    /// MinHash sketch of the value set.
    pub sketch: MinHash,
}

impl ColumnProfile {
    /// Profile one column from its rows — what a column of a table without
    /// key metadata gets.
    pub fn build(table_name: &str, column_name: &str, col: &Column) -> Self {
        let hashes = (0..col.len()).filter_map(|row| col.key(row)).map(|k| hash_value(&k));
        Self::from_hashes(table_name, column_name, col, hashes.collect())
    }

    /// Profile one column from its key dictionary, which already holds the
    /// column's distinct keys: no cell is read and no key is built.
    fn build_keyed(table_name: &str, column_name: &str, col: &Column, dict: &KeyDict) -> Self {
        let hashes = (0..dict.len() as u32).map(|code| hash_value(dict.key_at(code)));
        Self::from_hashes(table_name, column_name, col, hashes.collect())
    }

    /// The profile of a column whose non-null keys hash to `hashes`, in any
    /// order and with repeats: sort, deduplicate, map, sketch. The hashes
    /// must be sorted here — a dictionary's code order follows another hash
    /// (`StableHasher`'s FNV prime, not [`hash_value`]'s multiplier).
    fn from_hashes(table_name: &str, column_name: &str, col: &Column, hashes: Vec<u64>) -> Self {
        let run = ValueRun::from_unsorted(hashes);
        let distinct = run.len();
        ColumnProfile {
            table: table_name.to_string(),
            column: column_name.to_string(),
            dtype: col.dtype(),
            // The column's null cells, whichever way its keys arrived.
            null_ratio: col.null_ratio(),
            distinct,
            sketch: MinHash::from_hashes(DEFAULT_SKETCH_K, run.hashes().iter().copied()),
            value_hashes: (distinct <= EXACT_SET_CAP).then_some(run),
        }
    }

    /// Profile every column of a table: from its key dictionaries when it
    /// carries them (every resident lake table does), from its rows
    /// otherwise.
    pub fn build_all(table: &Table) -> Vec<ColumnProfile> {
        autofeat_obs::add("match.profiles_built", table.n_cols() as u64);
        (0..table.n_cols())
            .map(|i| {
                let (name, col) = (&table.field_at(i).name, table.column_at(i));
                match table.key_dict_at(i) {
                    Some(dict) => ColumnProfile::build_keyed(table.name(), name, col, dict),
                    None => ColumnProfile::build(table.name(), name, col),
                }
            })
            .collect()
    }

    /// The MinHash sketch's raw slots (for LSH banding).
    pub fn sketch_slots(&self) -> &[u64] {
        self.sketch.slots()
    }

    /// Whether this column looks like a feasible join key: it has at least
    /// one distinct value and is not overwhelmingly null.
    pub fn is_joinable_candidate(&self) -> bool {
        self.distinct > 0 && self.null_ratio < 0.9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::{Column, Table};

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("id", Column::from_ints([Some(1), Some(2), Some(2), None])),
                ("name", Column::from_strs([Some("a"), Some("b"), Some("c"), Some("d")])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn profile_counts_distinct_and_nulls() {
        let t = table();
        let p = ColumnProfile::build("t", "id", t.column("id").unwrap());
        assert_eq!(p.distinct, 2);
        assert!((p.null_ratio - 0.25).abs() < 1e-12);
        assert_eq!(p.value_hashes.as_ref().unwrap().len(), 2);
    }

    /// Field-for-field equality; `ColumnProfile` has no `PartialEq` because
    /// nothing outside tests compares whole profiles.
    fn assert_same(a: &ColumnProfile, b: &ColumnProfile) {
        assert_eq!((&a.table, &a.column, a.dtype), (&b.table, &b.column, b.dtype));
        assert_eq!(a.null_ratio.to_bits(), b.null_ratio.to_bits(), "{}", a.column);
        assert_eq!(a.distinct, b.distinct, "{}", a.column);
        assert_eq!(a.value_hashes, b.value_hashes, "{}", a.column);
        assert_eq!(a.sketch, b.sketch, "{}", a.column);
    }

    #[test]
    fn dictionary_and_row_walk_build_the_same_profile() {
        let n = 500;
        let bare = Table::new(
            "t",
            vec![
                ("id", Column::from_ints((0..n).map(|i| (i % 7 != 0).then_some(i / 3)))),
                // Non-integral, integral (keyed like the ints they equal),
                // null and NaN cells.
                (
                    "x",
                    Column::from_floats((0..n).map(|i| match i % 5 {
                        0 => None,
                        1 => Some(f64::NAN),
                        2 => Some(i as f64),
                        _ => Some(i as f64 + 0.5),
                    })),
                ),
                ("s", Column::from_strs((0..n).map(|i| Some(format!("v{}", i % 40))))),
                ("b", Column::from_bools((0..n).map(|i| (i % 3 != 0).then_some(i % 2 == 0)))),
                ("void", Column::from_ints((0..n).map(|_| None))),
            ],
        )
        .unwrap();
        let keyed = bare.clone().with_key_dicts();
        assert!(keyed.key_dict_at(0).is_some() && bare.key_dict_at(0).is_none());
        let (from_dict, from_rows) =
            (ColumnProfile::build_all(&keyed), ColumnProfile::build_all(&bare));
        assert_eq!(from_dict.len(), from_rows.len());
        for (a, b) in from_dict.iter().zip(&from_rows) {
            assert_same(a, b);
        }
        assert_eq!(from_dict[1].null_ratio, 0.4, "a NaN is stored as a null");
        assert_eq!(from_dict[4].distinct, 0);
    }

    #[test]
    fn exact_set_is_dropped_past_the_cap() {
        let wide = Column::from_ints((0..=EXACT_SET_CAP as i64).map(Some));
        let p = ColumnProfile::build("t", "wide", &wide);
        assert_eq!(p.distinct, EXACT_SET_CAP + 1);
        assert!(p.value_hashes.is_none());
        assert_eq!(p.sketch.n_values(), EXACT_SET_CAP + 1);
    }

    #[test]
    fn build_all_covers_every_column() {
        let ps = ColumnProfile::build_all(&table());
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].column, "id");
        assert_eq!(ps[1].table, "t");
    }

    #[test]
    fn joinable_candidate_gate() {
        let all_null = Column::from_ints([None, None]);
        let p = ColumnProfile::build("t", "x", &all_null);
        assert!(!p.is_joinable_candidate());
        let ok = ColumnProfile::build("t", "id", table().column("id").unwrap());
        assert!(ok.is_joinable_candidate());
    }

    #[test]
    fn identical_columns_share_sketch() {
        let c = Column::from_ints((0..100).map(Some).collect::<Vec<_>>());
        let p1 = ColumnProfile::build("a", "x", &c);
        let p2 = ColumnProfile::build("b", "y", &c);
        assert_eq!(p1.sketch.jaccard(&p2.sketch), 1.0);
    }
}
