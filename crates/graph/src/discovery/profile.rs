//! Column profiles: the per-column summaries the matcher scores against.
//!
//! A profile is computed once per column, at ingest or when a table joins
//! the lake, and every later stage — the occupancy bound, exact scoring —
//! reads the profile, never the column.

use std::sync::OnceLock;

use autofeat_data::{Column, Table};

use crate::discovery::value_sim::{hash_value, MinHash, ValueRun};

/// MinHash sketch size.
const SKETCH_K: usize = 128;

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
    /// MinHash sketch of the value set: made by `build` when the run is
    /// dropped, otherwise by the first [`sketch`](Self::sketch) call.
    sketch: OnceLock<MinHash>,
}

impl ColumnProfile {
    /// Profile one column: one typed pass over its rows hashing every
    /// non-null key, then sort, deduplicate, map. It reads the cells, never
    /// a key dictionary — a profile is wanted for every column of the lake,
    /// a dictionary only for the few a join is keyed on. A column past
    /// [`EXACT_SET_CAP`] keeps a sketch in place of its run.
    pub fn build(table_name: &str, column_name: &str, col: &Column) -> Self {
        let mut hashes = Vec::with_capacity(col.len());
        col.keys_in(0..col.len(), |key| hashes.extend(key.map(|k| hash_value(&k))));
        let run = ValueRun::from_unsorted(hashes);
        let distinct = run.len();
        let (value_hashes, sketch) = if distinct <= EXACT_SET_CAP {
            (Some(run), OnceLock::new())
        } else {
            (None, OnceLock::from(sketch_of(&run)))
        };
        ColumnProfile {
            table: table_name.to_string(),
            column: column_name.to_string(),
            dtype: col.dtype(),
            null_ratio: col.null_ratio(),
            distinct,
            value_hashes,
            sketch,
        }
    }

    /// Profile every column of a table. A pure function of the table's
    /// cells, so tables can be profiled in any order or side by side.
    pub fn build_all(table: &Table) -> Vec<ColumnProfile> {
        autofeat_obs::add("match.profiles_built", table.n_cols() as u64);
        (0..table.n_cols())
            .map(|i| ColumnProfile::build(table.name(), &table.field_at(i).name, table.column_at(i)))
            .collect()
    }

    /// The MinHash sketch of the value set. Only a pair with a column past
    /// [`EXACT_SET_CAP`] reads one, so a column that keeps its run builds
    /// its sketch from the run here, the first time such a pair asks, and
    /// keeps it for the next.
    pub(crate) fn sketch(&self) -> &MinHash {
        self.sketch.get_or_init(|| {
            sketch_of(self.value_hashes.as_ref().expect("a profile without a sketch keeps its run"))
        })
    }

    /// Whether this column looks like a feasible join key: it has at least
    /// one distinct value and is not overwhelmingly null.
    pub(crate) fn is_joinable_candidate(&self) -> bool {
        self.distinct > 0 && self.null_ratio < 0.9
    }
}

fn sketch_of(run: &ValueRun) -> MinHash {
    MinHash::from_hashes(SKETCH_K, run.hashes().iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::SchemaMatcher;
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

    #[test]
    fn profiling_a_keyed_table_builds_no_dictionary() {
        let keyed = table().with_key_dicts();
        let (a, b) = (ColumnProfile::build_all(&keyed), ColumnProfile::build_all(&table()));
        assert_eq!(keyed.built_dicts().count(), 0);
        assert!(!keyed.has_row_fingerprints());
        for (a, b) in a.iter().zip(&b) {
            assert_eq!((a.distinct, &a.value_hashes), (b.distinct, &b.value_hashes));
        }
    }

    #[test]
    fn profiling_columns_under_the_cap_builds_no_sketch() {
        for p in ColumnProfile::build_all(&table()) {
            assert!(p.value_hashes.is_some() && p.sketch.get().is_none(), "{}", p.column);
        }
    }

    /// A column's distinct key hashes, walked row by row.
    fn hashes_of(col: &Column) -> Vec<u64> {
        (0..col.len()).filter_map(|row| col.key(row)).map(|k| hash_value(&k)).collect()
    }

    #[test]
    fn a_past_cap_pair_scores_with_a_sketch_built_once_on_first_use() {
        let wide = |from: i64| Column::from_ints((from..=from + EXACT_SET_CAP as i64).map(Some));
        let (wide_a, wide_b) = (wide(0), wide(50_000));
        let small_col = Column::from_ints((99_000..101_000).map(Some));
        let (a, b) = (ColumnProfile::build("t", "a", &wide_a), ColumnProfile::build("u", "b", &wide_b));
        let small = ColumnProfile::build("v", "s", &small_col);
        assert!(small.sketch.get().is_none());
        let m = SchemaMatcher::paper_default();
        let mut kept = Vec::new();
        for (wide_col, wide) in [(&wide_a, &a), (&wide_b, &b)] {
            let want = MinHash::from_hashes(SKETCH_K, hashes_of(wide_col))
                .jaccard(&MinHash::from_hashes(SKETCH_K, hashes_of(&small_col)));
            assert_eq!(m.instance_similarity(wide, &small).to_bits(), want.to_bits());
            assert_eq!(m.instance_similarity(&small, wide).to_bits(), want.to_bits());
            kept.push(small.sketch.get().expect("a past-cap pair builds the sketch") as *const MinHash);
        }
        assert_eq!(kept[0], kept[1], "the second pair reads the sketch the first one built");
        assert_eq!(*small.sketch(), MinHash::from_hashes(SKETCH_K, hashes_of(&small_col)));
    }

    #[test]
    fn nan_and_integral_floats_profile_like_their_keys() {
        let x = Column::from_floats([None, Some(f64::NAN), Some(2.0), Some(3.5), Some(3.5)]);
        let p = ColumnProfile::build("t", "x", &x);
        assert_eq!((p.distinct, p.null_ratio), (2, 0.4), "a NaN is stored as a null");
        let two = ColumnProfile::build("t", "i", &Column::from_ints([Some(2)]));
        assert!(p.value_hashes.unwrap().hashes().contains(&two.value_hashes.unwrap().hashes()[0]));
    }

    #[test]
    fn exact_set_is_dropped_past_the_cap() {
        let wide = Column::from_ints((0..=EXACT_SET_CAP as i64).map(Some));
        let p = ColumnProfile::build("t", "wide", &wide);
        assert_eq!(p.distinct, EXACT_SET_CAP + 1);
        assert!(p.value_hashes.is_none());
        assert_eq!(p.sketch.get().expect("sketched at build").n_values(), EXACT_SET_CAP + 1);
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
        assert_eq!(p1.sketch().jaccard(p2.sketch()), 1.0);
    }
}
