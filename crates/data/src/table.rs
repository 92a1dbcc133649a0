//! Tables: named collections of equal-length columns.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use autofeat_obs as obs;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::keydict::KeyDict;
use crate::schema::Field;
use crate::stable_hash::StableHasher;
use crate::value::Value;

/// An immutable-by-convention, in-memory table.
///
/// Column names are unique within a table. Most operations return new
/// tables; columns are `Clone` (strings are `Arc`-backed) so projections are
/// cheap.
///
/// ## Key metadata
///
/// Every table owns its **key metadata**: a cell per column for its
/// [`KeyDict`] (dense `u32` join-key codes) and a cell for the per-row
/// content fingerprints. (A column's null-key count is its
/// [`Column::null_count`], which a dense column keeps.) The cells start
/// empty and are **filled by their first reader** ([`Table::key_dict_at`],
/// [`Table::key_dict_for`], [`Table::row_fingerprints`]), which hands out the
/// same `Arc` ever after — through every clone and rename of the table,
/// which share the cells. It is a derived cache — equality ([`PartialEq`])
/// ignores it — and it is kept or shed whole: every operation that changes
/// a cell, a row or the column set (`select`, `drop_columns`, `take`,
/// `with_column`, `replace_column`, …) returns a table with empty cells of
/// its own; renames keep them. What a table hands out is therefore always
/// fresh.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    fields: Vec<Field>,
    columns: Vec<Column>,
    index: HashMap<String, usize>,
    key_meta: Arc<KeyMeta>,
}

/// A table's key metadata. The cells are filled on first use; a builder
/// that panics leaves its cell empty (`OnceLock` does not poison), so the
/// next reader retries.
#[derive(Debug, Default)]
struct KeyMeta {
    /// One cell per column, in column order, made by the first reader.
    dicts: OnceLock<Box<[OnceLock<Arc<KeyDict>>]>>,
    /// One content fingerprint per row.
    row_fps: OnceLock<Arc<Vec<u64>>>,
}

impl PartialEq for Table {
    /// Data equality: name, schema, and cell contents. Key metadata is a
    /// derived cache and never participates — bit-identity assertions across
    /// cached/uncached/dictionary-coded execution paths compare *data*.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.fields == other.fields && self.columns == other.columns
    }
}

impl Table {
    /// Build a table from `(name, column)` pairs, validating uniqueness and
    /// equal lengths.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(impl Into<String>, Column)>,
    ) -> Result<Self> {
        let name = name.into();
        let mut fields = Vec::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        let mut index = HashMap::with_capacity(columns.len());
        let mut n_rows: Option<usize> = None;
        for (cname, col) in columns {
            let cname = cname.into();
            if index.contains_key(&cname) {
                return Err(DataError::DuplicateColumn { table: name, column: cname });
            }
            match n_rows {
                None => n_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(DataError::LengthMismatch {
                        expected: n,
                        got: col.len(),
                        column: cname,
                    })
                }
                _ => {}
            }
            index.insert(cname.clone(), cols.len());
            fields.push(Field::new(cname, col.dtype()));
            cols.push(col);
        }
        Ok(Table { name, fields, columns: cols, index, key_meta: Arc::default() })
    }

    /// The table itself: every table owns its key metadata. Kept only
    /// because the benchmark's generator and its ingest layer call it.
    pub fn with_key_dicts(self) -> Table {
        self
    }

    /// Drop the key metadata — what every operation that changes a cell, a
    /// row or the column set does. Cells no other table shares are emptied
    /// in place, so appending columns one by one allocates nothing here.
    fn shed_key_meta(&mut self) {
        match Arc::get_mut(&mut self.key_meta) {
            Some(meta) => *meta = KeyMeta::default(),
            None => self.key_meta = Arc::default(),
        }
    }

    /// Seed-independent content fingerprint of one row: a hash of every
    /// cell in column order (per-cell semantics live in
    /// [`Column::hash_cell_into`]: NaN floats hash like nulls, `-0.0` like
    /// `0.0`). Rows of identical content fingerprint identically wherever
    /// they sit, and the seed is not part of it, so one pass serves every
    /// seed. The join key is not hashed separately: fingerprints are only
    /// compared within one key's group, and the key is one of the cells.
    fn row_fingerprint(&self, row: usize) -> u64 {
        let mut h = StableHasher::new();
        for c in &self.columns {
            c.hash_cell_into(row, &mut h);
        }
        h.finish()
    }

    /// The key dictionary for `col`, resolved **positionally**: `col` must
    /// be one of this table's columns (payload-pointer identity, not name
    /// lookup, so a borrowed `&Column` from any accessor resolves). `None`
    /// when the column is not its own. Builds the dictionary if nobody has
    /// yet.
    pub fn key_dict_for(&self, col: &Column) -> Option<&Arc<KeyDict>> {
        self.key_dict_at(self.columns.iter().position(|c| c.shares_payload(col))?)
    }

    /// The key dictionary of the column at position `i` (`None` past the
    /// last column), built by the first call (concurrent first callers wait
    /// for the one build) and shared by every later one. The build polls no
    /// run control: ≈ 100 ns per row.
    pub fn key_dict_at(&self, i: usize) -> Option<&Arc<KeyDict>> {
        let new_cells = || self.columns.iter().map(|_| OnceLock::new()).collect();
        let cells = self.key_meta.dicts.get_or_init(new_cells);
        Some(cells.get(i)?.get_or_init(|| {
            let _span = obs::span("key_dict_build");
            let dict = KeyDict::build(&self.columns[i]);
            obs::incr("keymeta.dicts_built");
            obs::add("keymeta.rows_coded", dict.n_rows() as u64);
            Arc::new(dict)
        }))
    }

    /// Per-row content fingerprints (hash of every cell in column order),
    /// computed by the first call.
    pub fn row_fingerprints(&self) -> &[u64] {
        self.row_fps_arc()
    }

    /// The shared fingerprint vector itself — a join index over this table
    /// holds an `Arc` clone instead of copying fingerprints per duplicate
    /// row (the vector is charged to
    /// [`key_meta_bytes`](Table::key_meta_bytes), not the cache budget).
    pub(crate) fn row_fps_arc(&self) -> &Arc<Vec<u64>> {
        self.key_meta.row_fps.get_or_init(|| {
            obs::add("keymeta.fingerprint_rows", self.n_rows() as u64);
            Arc::new((0..self.n_rows()).map(|row| self.row_fingerprint(row)).collect())
        })
    }

    /// Heap footprint in bytes of the key metadata built so far, for
    /// lake-level observability (dictionaries are the table's and shared, so
    /// they are accounted here, not against the join-index cache budget).
    /// O(columns): a dictionary recorded its size when it was built.
    pub fn key_meta_bytes(&self) -> usize {
        let fps = self.key_meta.row_fps.get().map_or(0, |v| v.capacity() * size_of::<u64>());
        self.built_dicts().map(|(_, d)| d.resident_bytes()).sum::<usize>() + fps
    }

    /// Heap bytes of the cells this table's columns own, by capacity: what
    /// keeping the table resident costs. A payload several columns share is
    /// counted once, a view counts nothing for the cells it borrows, and
    /// string bodies (behind their own `Arc`s) are not counted. O(columns).
    pub fn payload_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        self.columns
            .iter()
            .filter_map(Column::owned_payload)
            .filter(|&(at, _)| seen.insert(at))
            .map(|(_, bytes)| bytes)
            .sum()
    }

    /// The dictionaries built so far, with their column positions — what
    /// joins and encodes have actually read. Builds nothing.
    pub fn built_dicts(&self) -> impl Iterator<Item = (usize, &Arc<KeyDict>)> {
        let cells = self.key_meta.dicts.get().map_or(&[][..], |c| &c[..]);
        cells.iter().enumerate().filter_map(|(i, cell)| Some((i, cell.get()?)))
    }

    /// Whether the row fingerprints have been computed.
    pub fn has_row_fingerprints(&self) -> bool {
        self.key_meta.row_fps.get().is_some()
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| DataError::ColumnNotFound {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// A column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Field by position.
    pub fn field_at(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// A single cell.
    pub fn value(&self, column: &str, row: usize) -> Result<Value> {
        self.column(column)?.try_get(row)
    }

    /// Project to a subset of columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            cols.push((n.to_string(), self.column(n)?.clone()));
        }
        Table::new(self.name.clone(), cols)
    }

    /// Drop a set of columns (ignores names that do not exist).
    pub fn drop_columns(&self, names: &[&str]) -> Table {
        let keep: Vec<(String, Column)> = self
            .fields
            .iter()
            .zip(&self.columns)
            .filter(|(f, _)| !names.contains(&f.name.as_str()))
            .map(|(f, c)| (f.name.clone(), c.clone()))
            .collect();
        Table::new(self.name.clone(), keep).expect("dropping columns preserves invariants")
    }

    /// Append a column.
    pub fn with_column(&self, name: impl Into<String>, col: Column) -> Result<Table> {
        let name = name.into();
        if self.has_column(&name) {
            return Err(DataError::DuplicateColumn { table: self.name.clone(), column: name });
        }
        let mut t = self.clone();
        t.push_disambiguated(name, col)?;
        Ok(t)
    }

    /// Append `col` under the name `base`, or the first free `base#k`
    /// (k = 2, 3, …) when that name is taken, and return the name used —
    /// how a join adds its right-hand columns, resolving names against the
    /// one name index the result keeps.
    pub(crate) fn push_disambiguated(&mut self, base: String, col: Column) -> Result<String> {
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(DataError::LengthMismatch {
                expected: self.n_rows(),
                got: col.len(),
                column: base,
            });
        }
        let name = if self.has_column(&base) {
            (2usize..)
                .map(|k| format!("{base}#{k}"))
                .find(|cand| !self.has_column(cand))
                .expect("an unbounded range of suffixes holds a free one")
        } else {
            base
        };
        self.index.insert(name.clone(), self.columns.len());
        self.fields.push(Field::new(name.clone(), col.dtype()));
        self.columns.push(col);
        self.shed_key_meta();
        Ok(name)
    }

    /// Rename a column.
    pub fn rename_column(&self, from: &str, to: impl Into<String>) -> Result<Table> {
        let to = to.into();
        let i = *self.index.get(from).ok_or_else(|| DataError::ColumnNotFound {
            table: self.name.clone(),
            column: from.to_string(),
        })?;
        if self.has_column(&to) && to != from {
            return Err(DataError::DuplicateColumn { table: self.name.clone(), column: to });
        }
        let mut t = self.clone();
        t.index.remove(from);
        t.index.insert(to.clone(), i);
        t.fields[i].name = to;
        Ok(t)
    }

    /// Gather rows by index into a new table.
    pub fn take(&self, indices: &[usize]) -> Table {
        let cols: Vec<(String, Column)> = self
            .fields
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| (f.name.clone(), c.take(indices)))
            .collect();
        Table::new(self.name.clone(), cols).expect("take preserves invariants")
    }

    /// Replace a column's data in place (same length required).
    pub fn replace_column(&self, name: &str, col: Column) -> Result<Table> {
        let i = *self.index.get(name).ok_or_else(|| DataError::ColumnNotFound {
            table: self.name.clone(),
            column: name.to_string(),
        })?;
        if col.len() != self.n_rows() {
            return Err(DataError::LengthMismatch {
                expected: self.n_rows(),
                got: col.len(),
                column: name.to_string(),
            });
        }
        let mut t = self.clone();
        t.fields[i].dtype = col.dtype();
        t.columns[i] = col;
        t.shed_key_meta();
        Ok(t)
    }
}

impl std::fmt::Display for Table {
    /// Render the first rows as an aligned text table (up to 10 rows and 8
    /// columns; wider/longer tables are elided with `…`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MAX_ROWS: usize = 10;
        const MAX_COLS: usize = 8;
        const MAX_WIDTH: usize = 18;
        let n_cols = self.n_cols().min(MAX_COLS);
        let n_rows = self.n_rows().min(MAX_ROWS);
        let clip = |s: String| {
            if s.len() > MAX_WIDTH {
                format!("{}…", &s[..MAX_WIDTH - 1])
            } else {
                s
            }
        };
        // Column widths from header + shown cells.
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n_rows + 1);
        let mut header: Vec<String> = (0..n_cols)
            .map(|c| clip(self.fields[c].name.clone()))
            .collect();
        if self.n_cols() > MAX_COLS {
            header.push("…".into());
        }
        cells.push(header);
        for r in 0..n_rows {
            let mut row: Vec<String> = (0..n_cols)
                .map(|c| clip(self.columns[c].get(r).to_string()))
                .collect();
            if self.n_cols() > MAX_COLS {
                row.push("…".into());
            }
            cells.push(row);
        }
        let widths: Vec<usize> = (0..cells[0].len())
            .map(|c| cells.iter().map(|row| row[c].len()).max().unwrap_or(1))
            .collect();
        writeln!(f, "{} [{} rows x {} cols]", self.name, self.n_rows(), self.n_cols())?;
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            writeln!(f, "  {}", line.join("  "))?;
            if i == 0 {
                writeln!(f, "  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "))?;
            }
        }
        if self.n_rows() > MAX_ROWS {
            writeln!(f, "  … ({} more rows)", self.n_rows() - MAX_ROWS)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DType;

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                ("id", Column::from_ints([Some(1), Some(2), Some(3)])),
                ("x", Column::from_floats([Some(0.5), None, Some(1.5)])),
                ("s", Column::from_strs([Some("a"), Some("b"), None])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.column_names(), vec!["id", "x", "s"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = Table::new(
            "t",
            vec![
                ("a", Column::from_ints([Some(1)])),
                ("a", Column::from_ints([Some(2)])),
            ],
        );
        assert!(matches!(r, Err(DataError::DuplicateColumn { .. })));
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = Table::new(
            "t",
            vec![
                ("a", Column::from_ints([Some(1)])),
                ("b", Column::from_ints([Some(1), Some(2)])),
            ],
        );
        assert!(matches!(r, Err(DataError::LengthMismatch { .. })));
    }

    #[test]
    fn select_projects_in_order() {
        let t = sample().select(&["s", "id"]).unwrap();
        assert_eq!(t.column_names(), vec!["s", "id"]);
    }

    #[test]
    fn select_missing_column_errors() {
        assert!(sample().select(&["nope"]).is_err());
    }

    #[test]
    fn drop_columns_ignores_missing() {
        let t = sample().drop_columns(&["x", "ghost"]);
        assert_eq!(t.column_names(), vec!["id", "s"]);
    }

    #[test]
    fn with_column_appends() {
        let t = sample()
            .with_column("y", Column::from_bools([Some(true), None, Some(false)]))
            .unwrap();
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.column("y").unwrap().dtype(), DType::Bool);
    }

    #[test]
    fn with_column_rejects_duplicates_and_bad_length() {
        let t = sample();
        assert!(t.with_column("id", Column::from_ints([Some(1), Some(2), Some(3)])).is_err());
        assert!(t.with_column("z", Column::from_ints([Some(1)])).is_err());
    }

    #[test]
    fn rename_column_works() {
        let t = sample().rename_column("x", "feature_x").unwrap();
        assert!(t.has_column("feature_x"));
        assert!(!t.has_column("x"));
        // Index still resolves after rename.
        assert_eq!(t.column("feature_x").unwrap().len(), 3);
    }

    #[test]
    fn take_gathers_in_order() {
        let t = sample().take(&[2, 0]);
        assert_eq!(t.value("id", 0).unwrap(), Value::Int(3));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn display_shows_header_and_rows() {
        let s = sample().to_string();
        assert!(s.contains("t [3 rows x 3 cols]"));
        assert!(s.contains("id"));
        assert!(s.contains("alice") || s.contains('a')); // cell content
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn display_elides_wide_and_long_tables() {
        let cols: Vec<(String, Column)> = (0..12)
            .map(|c| {
                (
                    format!("col{c}"),
                    Column::from_ints((0..20).map(Some).collect::<Vec<_>>()),
                )
            })
            .collect();
        let t = Table::new("wide", cols).unwrap();
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.contains("more rows"));
    }

    #[test]
    fn key_meta_fills_on_first_use_and_is_ignored_by_equality() {
        let t = sample();
        assert_eq!((t.key_meta_bytes(), t.built_dicts().count()), (0, 0), "nothing built");
        assert!(!t.has_row_fingerprints());
        let dict = t.key_dict_for(t.column("id").unwrap()).expect("id column has a dictionary");
        assert_eq!(dict.len(), 3);
        assert_eq!(t.built_dicts().map(|(i, _)| i).collect::<Vec<_>>(), [0]);
        assert_eq!(t.key_meta_bytes(), dict.resident_bytes());
        assert_eq!(t.row_fingerprints().len(), 3);
        assert!(t.has_row_fingerprints());
        assert_eq!(t.key_meta_bytes(), dict.resident_bytes() + 3 * 8);
        assert_eq!(t, sample(), "key metadata must not affect data equality");
        // A column from a different table never resolves.
        assert!(t.key_dict_for(sample().column("id").unwrap()).is_none());
        assert!(t.key_dict_at(3).is_none());
    }

    /// A table from plain `Table::new` shares its cells with its clones and
    /// renames, whoever fills them; whatever changes a cell, a row or the
    /// column set gets empty cells of its own.
    #[test]
    fn key_meta_is_shed_whole_and_shared_whole() {
        let t = sample();
        let renamed = t.rename_column("id", "key").unwrap().with_name("u");
        let clone = t.clone();
        let dict = renamed.key_dict_for(renamed.column("key").unwrap()).unwrap();
        assert!(Arc::ptr_eq(dict, t.key_dict_at(0).unwrap()));
        assert!(Arc::ptr_eq(clone.key_dict_at(2).unwrap(), renamed.key_dict_at(2).unwrap()));
        assert_eq!(clone.row_fingerprints().as_ptr(), t.row_fingerprints().as_ptr());
        assert_eq!(renamed.key_meta_bytes(), t.key_meta_bytes());
        let ints = || Column::from_ints([Some(7), Some(8), Some(9)]);
        let changed = [
            ("with_column", t.with_column("y", ints()).unwrap()),
            ("replace_column", t.replace_column("x", ints()).unwrap()),
            ("select", t.select(&["id", "x", "s"]).unwrap()),
            ("drop_columns", t.drop_columns(&["x"])),
            ("take", t.take(&[0, 1, 2])),
        ];
        for (op, c) in &changed {
            assert_eq!((c.key_meta_bytes(), c.built_dicts().count()), (0, 0), "{op}");
            assert!(!c.has_row_fingerprints(), "{op}");
            assert!(!Arc::ptr_eq(c.key_dict_at(0).unwrap(), t.key_dict_at(0).unwrap()), "{op}");
        }
        // Alone in its cells, a table sheds them in place.
        let mut pushed = t.take(&[0, 1, 2]);
        pushed.key_dict_at(0).unwrap();
        let cells = Arc::as_ptr(&pushed.key_meta);
        pushed.push_disambiguated("id".into(), ints()).unwrap();
        assert_eq!((pushed.key_meta_bytes(), Arc::as_ptr(&pushed.key_meta)), (0, cells));
        assert_eq!(pushed.key_dict_at(3).unwrap().len(), 3, "sized for the new column set");
    }

    /// A clone that gains or replaces a column never shares cells with its
    /// source, whether or not anything in them was built first.
    #[test]
    fn a_changed_clone_never_shares_cells_with_its_source() {
        let ints = || Column::from_ints([Some(7), Some(7), Some(9)]);
        for built in [false, true] {
            let source = sample();
            if built {
                source.key_dict_at(0).unwrap();
            }
            let mut pushed = source.clone();
            pushed.push_disambiguated("id".into(), ints()).unwrap();
            let changed = [
                source.with_column("y", ints()).unwrap(),
                source.replace_column("id", ints()).unwrap(),
                pushed,
            ];
            for c in &changed {
                assert!(!Arc::ptr_eq(&c.key_meta, &source.key_meta), "built {built}");
                c.key_dict_at(0).unwrap();
                c.row_fingerprints();
            }
            assert_eq!(source.built_dicts().count(), usize::from(built));
            assert!(!source.has_row_fingerprints());
        }
    }

    #[test]
    fn replace_column_changes_dtype() {
        let t = sample()
            .replace_column("id", Column::from_strs([Some("a"), Some("b"), Some("c")]))
            .unwrap();
        assert_eq!(t.column("id").unwrap().dtype(), DType::Str);
        assert!(sample().replace_column("id", Column::from_ints([Some(1)])).is_err());
    }
}
