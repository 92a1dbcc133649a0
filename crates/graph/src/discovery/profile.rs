//! Column profiles: the per-column summaries the matcher scores against.
//!
//! A profile is computed once per column, at ingest or when a table joins
//! the lake, and every later stage — the range test, the occupancy bound,
//! exact scoring — reads the profile, never the column.
//!
//! Besides its value set a profile records where its keys lie, its key
//! span: the least and greatest numeric key, and whether any key is a string
//! or a bool. Two columns whose spans cannot meet share no value,
//! which the matcher reads before it reads either value set.

use autofeat_data::{Column, Key, Table};

use crate::discovery::value_sim::{value_hash, ValueRun};

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
    /// The distinct keys' hashes (`value_sim::value_hash`) as a sorted run
    /// with its occupancy map, at any number of distinct keys.
    pub value_hashes: ValueRun,
    /// Where the keys lie.
    span: KeySpan,
}

/// Where a column's keys lie, coarsely enough to be kept per column and
/// exactly enough that two columns whose spans cannot meet share no key.
///
/// Numeric keys are placed on the `f64` line: a non-integral float as
/// itself, an integer (an int, or a float holding one) rounded to the
/// nearest `f64`. Rounding is monotone, so a key inside one range lands
/// inside it, and equal keys land on one point — an integral float on the
/// very point of its integer. Strings and bools are not placed at all: any
/// one of them sets `other`, which meets any other `other`.
#[derive(Debug, Clone, Copy)]
struct KeySpan {
    /// The least and greatest numeric key on the `f64` line; `lo > hi` (the
    /// empty span's `+∞` and `−∞`) when there is none.
    lo: f64,
    hi: f64,
    /// Whether some key is a string or a bool.
    other: bool,
}

impl KeySpan {
    const EMPTY: KeySpan = KeySpan { lo: f64::INFINITY, hi: f64::NEG_INFINITY, other: false };

    /// Widen the span by one key: no branch on a numeric key, where the
    /// profile's row loop spends its time.
    #[inline(always)]
    fn add(&mut self, key: &Key) {
        let x = match *key {
            Key::Num(i) => i as f64,
            Key::FloatBits(bits) => f64::from_bits(bits),
            Key::Str(_) | Key::Bool(_) => {
                self.other = true;
                return;
            }
        };
        (self.lo, self.hi) = (self.lo.min(x), self.hi.max(x));
    }

    /// Whether a key could lie in both spans.
    fn may_meet(&self, other: &KeySpan) -> bool {
        let numeric = self.lo <= self.hi && other.lo <= other.hi;
        (numeric && self.lo <= other.hi && other.lo <= self.hi) || (self.other && other.other)
    }
}

impl ColumnProfile {
    /// Profile one column: one typed pass over its rows hashing every
    /// non-null key and widening the key span by it, then sort,
    /// deduplicate, map. It reads the cells, never
    /// a key dictionary — a profile is wanted for every column of the lake,
    /// a dictionary only for the few a join is keyed on.
    pub fn build(table_name: &str, column_name: &str, col: &Column) -> Self {
        let mut hashes = Vec::with_capacity(col.len());
        let mut span = KeySpan::EMPTY;
        // Inlined into the typed row loop, as `KeyDict::build` is, so the key
        // stays in registers.
        col.keys_in(0..col.len(), #[inline(always)] |key| {
            if let Some(key) = key {
                span.add(&key);
                hashes.push(value_hash(&key));
            }
        });
        let value_hashes = ValueRun::from_unsorted(hashes);
        ColumnProfile {
            table: table_name.to_string(),
            column: column_name.to_string(),
            dtype: col.dtype(),
            null_ratio: col.null_ratio(),
            value_hashes,
            span,
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

    /// Number of distinct non-null values: the length of the value run.
    pub fn distinct(&self) -> usize {
        self.value_hashes.len()
    }

    /// Whether the two columns could share a key: `false` decides that they
    /// share none, without reading a value set.
    pub(crate) fn may_share_keys(&self, other: &ColumnProfile) -> bool {
        self.span.may_meet(&other.span)
    }

    /// Whether this column looks like a feasible join key: it has at least
    /// one distinct value and is not overwhelmingly null.
    pub(crate) fn is_joinable_candidate(&self) -> bool {
        self.distinct() > 0 && self.null_ratio < 0.9
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
        assert_eq!(p.distinct(), 2);
        assert!((p.null_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn profiling_a_table_builds_no_dictionary() {
        let t = table();
        ColumnProfile::build_all(&t);
        assert_eq!(t.built_dicts().count(), 0);
    }

    #[test]
    fn nan_and_integral_floats_profile_like_their_keys() {
        let x = Column::from_floats([None, Some(f64::NAN), Some(2.0), Some(3.5), Some(3.5)]);
        let p = ColumnProfile::build("t", "x", &x);
        assert_eq!((p.distinct(), p.null_ratio), (2, 0.4), "a NaN is stored as a null");
        let two = ColumnProfile::build("t", "i", &Column::from_ints([Some(2)]));
        assert!(p.value_hashes.hashes().contains(&two.value_hashes.hashes()[0]));
    }

    /// The span of a column is where its keys lie, and two columns whose
    /// spans cannot meet share no value, down to the rounding of integers
    /// past 2⁵³ and at 2⁶³.
    #[test]
    fn spans_that_cannot_meet_share_no_value() {
        let two_53 = 1i64 << 53;
        let columns = [
            Column::from_ints([Some(1), Some(5), None]),
            Column::from_ints([Some(6), Some(9)]),
            Column::from_floats([Some(5.0), Some(5.5)]),
            Column::from_floats([Some(5.25), Some(5.75)]),
            Column::from_floats([Some(-0.5), Some(0.75)]),
            Column::from_ints([Some(two_53 + 1), Some(two_53 + 3)]),
            Column::from_ints([Some(two_53 + 2)]),
            Column::from_floats([Some(two_53 as f64)]),
            Column::from_ints([Some(i64::MAX)]),
            Column::from_floats([Some(i64::MAX as f64)]),
            Column::from_ints([Some(i64::MIN), Some(-1)]),
            Column::from_strs([Some("5"), Some("a")]),
            Column::from_strs([Some("b")]),
            Column::from_bools([Some(true)]),
            Column::from_ints([None, None]),
        ];
        let profiles: Vec<ColumnProfile> =
            columns.iter().map(|c| ColumnProfile::build("t", "c", c)).collect();
        let mut disjoint = 0;
        let shared =
            |a: &ColumnProfile, b: &ColumnProfile| a.value_hashes.intersection_len(&b.value_hashes);
        for (a, pa) in columns.iter().zip(&profiles) {
            for (b, pb) in columns.iter().zip(&profiles) {
                let shared = shared(pa, pb);
                let meets = pa.may_share_keys(pb);
                assert_eq!(meets, pb.may_share_keys(pa));
                assert!(meets || shared == 0, "{a:?} and {b:?} share {shared} values apart");
                disjoint += usize::from(!meets && pa.distinct() > 0 && pb.distinct() > 0);
            }
        }
        assert!(disjoint > 100, "{disjoint} disjoint pairs");
        // 2⁶³ is no integer key: it shares no value with `i64::MAX`, though
        // both sit on one point of the `f64` line.
        let (max, two_63) = (&profiles[8], &profiles[9]);
        assert!(max.may_share_keys(two_63));
        assert_eq!(shared(max, two_63), 0);
        // An integral float meets its integer.
        assert!(profiles[0].may_share_keys(&profiles[2]));
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
}
