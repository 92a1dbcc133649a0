//! Left joins with join-cardinality normalization (§IV-B of the paper).
//!
//! AutoFeat only ever performs **left joins** so that the base table keeps
//! its exact row count and label distribution. To prevent row duplication on
//! 1:n and m:n joins, the right-hand table is first *normalized*: rows are
//! grouped by the join column and one **pseudo-random representative row**
//! is kept per key (the strategy ARDA uses, which the AutoFeat paper
//! adopts).
//!
//! ## A join is a row map
//!
//! A hop does not gather the right table. It resolves, per base row, **one
//! right row** (`u32`, `NO_ROW` = no match) through a **pick array**: the
//! representative row per code of the right column's dictionary (a column of
//! dense integer keys is its own code, see [`KeyDict`]). Every join ends in
//! the same probe — left key → code → row — and returns the right-hand
//! columns as *views* `(source payload, row map)` that are read through the
//! map (see [`Column`]). Left joins keep the base rows, so the map of every
//! hop of a path is indexed by base row and maps never need composing;
//! nothing is copied until something asks for the cells in place
//! (`Table::take`, `Column::push`).
//!
//! A pick array comes from one of two places. A [`JoinIndex`] keeps one:
//! over a column whose keys never repeat it is each key's only row, for
//! every seed; otherwise the first join through the index fills it for its
//! seed. A join with any other seed, and one whose index a cache budget
//! denies, takes it from the **fold**, which reads only the codes the left
//! side carries: each one's rows and their fingerprints lie side by side in
//! the dictionary's postings (see [`KeyDict`]). A folded join codes each
//! left key once: the pass that marks the codes to fold keeps every row's
//! code, and the probe maps those codes (`Probe`); a join through a pick
//! array codes each key as it probes it.
//!
//! ## Determinism model
//!
//! Representative picks are a pure function of `(seed, key, row content)`:
//! each row carries a **seed-independent** stable content fingerprint, and
//! for each duplicated key the row minimizing `(mix(seed, fingerprint), row)`
//! wins. This makes the pick independent of
//!
//! * **hash-map iteration order** — the old implementation drew from a
//!   shared RNG while iterating a `HashMap`, so which key consumed which
//!   draw depended on the map's randomized iteration order and results
//!   differed across *processes* for the same seed;
//! * **row insertion order** — permuting the right table's rows permutes
//!   the candidate indices but not their contents, so the same physical row
//!   is picked;
//! * **traversal order** — there is no shared RNG stream, so evaluating
//!   joins in a different order (or in parallel) cannot perturb the picks
//!   of unrelated joins;
//! * **caching** — fingerprints do not bake the seed in, so one
//!   [`JoinIndex`] built per `(table, join column)` serves every seed, and
//!   the fill and the fold order rows by the same rule: which one a join
//!   takes changes what it costs, never its rows. [`left_join_normalized`]
//!   is literally [`left_join_with_index`] over a transient index.

use std::sync::{Arc, OnceLock};

use autofeat_obs as obs;

use crate::column::{Column, NO_ROW};
use crate::error::{DataError, Result};
use crate::keydict::{KeyDict, NULL_CODE};
use crate::stable_hash::mix_u64;
use crate::table::Table;

/// Output of a left join: the joined table plus match statistics used by
/// the data-quality pruning rule.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// The joined table. Left columns keep their names; right columns are
    /// prefixed with `{prefix}.` and deduplicated with `#k` suffixes when
    /// needed.
    pub table: Table,
    /// Number of left rows that found a match.
    pub matched: usize,
    /// Names of the columns contributed by the right table (post renaming).
    pub right_columns: Vec<String>,
}

impl JoinOutput {
    /// Fraction of left rows that found a match, in `[0, 1]` — or `None`
    /// when the left table has no rows.
    ///
    /// The distinction matters for pruning diagnostics: an **empty base**
    /// is *vacuous* (there was nothing to match), not *unjoinable* (keys
    /// exist but none overlap). Callers that count unjoinable paths should
    /// only do so when this returns `Some(0.0)`.
    pub fn match_ratio(&self) -> Option<f64> {
        if self.table.n_rows() == 0 {
            None
        } else {
            Some(self.matched as f64 / self.table.n_rows() as f64)
        }
    }
}

/// A reusable join index for one `(right table, join column)` pair: the
/// column's dictionary — its rows by code, and the fingerprints a pick
/// orders them by — and a **pick array**: one right row per dictionary code
/// ([`NO_ROW`] for a code no row carries).
///
/// Over a column whose keys never repeat the build sets the pick array, and
/// it serves every seed. Otherwise the first join through the index fills it
/// for that join's seed — on a warm service, the hop seed every request
/// joins the index with — and later joins with that seed read their rows
/// from it; a join with any other seed folds (see the module docs). The
/// array is set once and never changes, so indexes are shareable across
/// threads ([`Send`]`+`[`Sync`]) without a lock, which is what lets a
/// lake-wide cache serve the parallel discovery fan-out.
///
/// The dictionary is the table's own key metadata, shared by `Arc`.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// Join key → code, for every probe, and the rows by code a fill folds.
    dict: Arc<KeyDict>,
    n_rows: usize,
    /// The pick array, once the build or the first join has set it.
    picks: OnceLock<Picks>,
}

/// A [`JoinIndex`]'s pick array: a right row per dictionary code, under
/// `seed`, or under every seed (`None`) when no key repeats.
#[derive(Debug, Clone)]
struct Picks {
    seed: Option<u64>,
    rows: Box<[u32]>,
}

/// Rows are stored as `u32` and [`NO_ROW`] is `u32::MAX`, so an index can
/// address at most `u32::MAX` rows; larger tables are refused, not wrapped.
pub(crate) fn check_row_count(table: &str, rows: usize) -> Result<()> {
    if rows > NO_ROW as usize {
        return Err(DataError::TooManyRows { table: table.to_string(), rows });
    }
    Ok(())
}

/// Left rows are probed, and right rows folded, this many at a time, with
/// a cooperative interrupt poll between blocks.
const BLOCK: usize = 4096;

/// What [`JoinIndex::resident_bytes`] reports, worked out from the
/// dictionary alone: its pick array, a row id per code of the domain,
/// charged from the build whether or not a join has filled it yet. A cache
/// decides admission from it before building anything.
pub(crate) fn index_bytes(dict: &KeyDict) -> usize {
    dict.n_codes() * std::mem::size_of::<u32>()
}

/// The order a key's representative is picked in: of its candidate rows,
/// the one minimizing `(mix_u64(seed, fingerprint), row)` wins. The one pick
/// rule, which [`least`] applies.
#[inline]
fn pick_order(seed: u64, fp: u64, row: u32) -> (u64, u32) {
    (mix_u64(seed, fp), row)
}

/// The least of one code's `rows` by the pick order under `seed`, `fps`
/// holding their fingerprints in the same order.
#[inline]
fn least(rows: &[u32], fps: &[u64], seed: u64) -> u32 {
    let order = rows.iter().zip(fps).map(|(&row, &fp)| pick_order(seed, fp, row));
    order.min().map_or(NO_ROW, |(_, row)| row)
}

/// The one fold: the pick under `seed` of each of `codes`, ascending, handed
/// to `put` with its code — [`NO_ROW`] for a code no row carries, a lone row
/// as it is, and of several rows the [`least`], their fingerprints read from
/// the same place in the dictionary's posting order. A dictionary with a
/// repeated key must have hashed its fingerprints first (the index build
/// and [`fold_unindexed`] do). It counts the rows it folds in the
/// `join.picks` trace counter, and polls the ambient control before the
/// first code and then after about every [`BLOCK`] rows.
fn fold(
    dict: &KeyDict,
    seed: u64,
    codes: impl IntoIterator<Item = u32>,
    mut put: impl FnMut(u32, u32),
) -> Result<()> {
    crate::control::poll_ambient()?;
    let fps = dict.fingerprints().unwrap_or_default();
    let mut postings = dict.postings();
    let (mut folded, mut unpolled) = (0, 0);
    for code in codes {
        if unpolled >= BLOCK {
            crate::control::poll_ambient()?;
            unpolled = 0;
        }
        let (rows, at) = postings.seek(code);
        put(code, match rows {
            [] => NO_ROW,
            &[row] => row,
            _ => least(rows, &fps[at..at + rows.len()], seed),
        });
        folded += rows.len();
        unpolled += rows.len();
    }
    obs::add("join.picks", folded as u64);
    Ok(())
}

/// A fold's pick array and the code of every left row's key it was folded
/// for ([`NULL_CODE`] for a null key or one the dictionary lacks): the probe
/// maps these codes rather than coding the left keys a second time.
#[derive(Debug)]
pub(crate) struct Folded {
    picks: Vec<u32>,
    codes: Vec<u32>,
}

/// Where a join's probe finds each left row's right row.
pub(crate) enum Probe<'p> {
    /// A pick array by code: the probe codes each left key and reads it.
    Picks(&'p [u32]),
    /// A fold's picks, with the left keys already coded.
    Folded(Folded),
}

/// The picks of the codes `left_key` carries, under `seed`. One pass codes
/// every left row, a [`BLOCK`] of rows between polls, keeps the codes, and
/// marks each carried code in a bit set; the [`fold`] then takes the marked
/// codes in ascending order, a word of 64 codes at a time, so the postings
/// are read front to back. Every other code maps to [`NO_ROW`].
fn fold_for(left_key: &Column, dict: &KeyDict, seed: u64) -> Result<Folded> {
    let n = left_key.len();
    let mut carried = vec![0u64; dict.n_codes().div_ceil(64)];
    let mut codes = Vec::with_capacity(n);
    for start in (0..n).step_by(BLOCK) {
        crate::control::poll_ambient()?;
        dict.codes_in(left_key, start..(start + BLOCK).min(n), |code| {
            if code != NULL_CODE {
                carried[code as usize / 64] |= 1 << (code % 64);
            }
            codes.push(code);
        });
    }
    let marked = carried.iter().enumerate().flat_map(|(word, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            let bit = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(word as u32 * 64 + bit)
        })
    });
    let mut picks = vec![NO_ROW; dict.n_codes()];
    fold(dict, seed, marked, |code, row| picks[code as usize] = row)?;
    Ok(Folded { picks, codes })
}

/// The fold of a join whose index a cache budget denies, over `right`'s key
/// metadata: `dict`, the dictionary it holds for the join column, whose
/// fingerprints it hashes if no join has yet. An armed `panic_on_row` fault
/// fires first, as in [`JoinIndex::build`].
pub(crate) fn fold_unindexed(
    left_key: &Column,
    right: &Table,
    dict: &KeyDict,
    seed: u64,
) -> Result<Folded> {
    panic_on_row_fault(right);
    dict.fingerprints_by(|row| right.row_fingerprint(row));
    fold_for(left_key, dict, seed)
}

/// Resilience-test hook: an armed `slow_join_ms` fault simulates a
/// pathological join. The sleep is chunked so a cancel or deadline cuts it
/// short through the request scope's control.
fn slow_join_fault(right: &Table) -> Result<()> {
    if let Some(ms) = crate::faults::lookup(right.name()).and_then(|f| f.slow_join_ms) {
        let until = std::time::Instant::now() + std::time::Duration::from_millis(ms);
        while std::time::Instant::now() < until {
            crate::control::poll_ambient()?;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    Ok(())
}

/// Resilience-test hook: an armed `panic_on_row` fault simulates a poisoned
/// table mid-build — a panic when `right` has that row. One relaxed atomic
/// load when disarmed.
fn panic_on_row_fault(right: &Table) {
    let armed = crate::faults::lookup(right.name()).and_then(|f| f.panic_on_row);
    if let Some(row) = armed.filter(|&row| row < right.n_rows()) {
        panic!("injected fault: panic_on_row {row} building index for table `{}`", right.name());
    }
}

impl JoinIndex {
    /// Build the index for `right` joined on its `right_key` column.
    ///
    /// The index shares the table's dictionary for the column (an `Arc`
    /// clone), built here, once, if this is the first join keyed on the
    /// column. When no key repeats, the pick array is the dictionary's one
    /// row per code, copied, for every seed; otherwise the build hashes the
    /// dictionary's fingerprints if no join has yet, reads no row, and the
    /// first join fills it.
    ///
    /// Errors for a `right_key` that is not one of `right`'s own columns
    /// ([`DataError::Invalid`]) and for a table with more rows than a `u32`
    /// row id can address ([`DataError::TooManyRows`]).
    pub fn build(right: &Table, right_key: &Column) -> Result<JoinIndex> {
        check_row_count(right.name(), right_key.len())?;
        let dict = Arc::clone(right.key_dict_for(right_key).ok_or_else(|| {
            DataError::Invalid(format!("join key column is not one of table `{}`'s", right.name()))
        })?);
        panic_on_row_fault(right);
        let picks = OnceLock::new();
        match dict.unique_rows() {
            Some(rows) => {
                let _ = picks.set(Picks { seed: None, rows: rows.into() });
            }
            None => {
                dict.fingerprints_by(|row| right.row_fingerprint(row));
            }
        }
        let index = JoinIndex { dict, n_rows: right.n_rows(), picks };
        debug_assert_eq!(index.validate(right_key), Ok(()));
        Ok(index)
    }

    /// The pick array a join with `seed` reads, or `None` when it must fold:
    /// the index's own when it serves `seed` — every seed when no key
    /// repeats, else the first join's, which fills it here over every code.
    /// An interrupted fill sets nothing, so a later join fills again; two
    /// first joins may fill at once, and the first fill set is kept.
    fn picks(&self, seed: u64) -> Result<Option<&[u32]>> {
        if self.picks.get().is_none() {
            let mut rows = vec![NO_ROW; self.dict.n_codes()];
            let codes = 0..self.dict.n_codes() as u32;
            fold(&self.dict, seed, codes, |code, row| rows[code as usize] = row)?;
            let _ = self.picks.set(Picks { seed: Some(seed), rows: rows.into() });
            debug_assert_eq!(self.check_picks(), Ok(()));
        }
        let picks = self.picks.get().expect("set above");
        Ok(picks.seed.is_none_or(|s| s == seed).then_some(&picks.rows[..]))
    }

    /// Check the invariants a probe trusts, against the column the index
    /// was built over: the dictionary codes the column's rows as it holds
    /// them, and the pick array, once set, has a slot per code, every filled
    /// slot's row carries that slot's code, and every code a row carries has
    /// a pick. Returns the first violation.
    pub fn validate(&self, right_key: &Column) -> std::result::Result<(), String> {
        if right_key.len() != self.n_rows {
            return Err(format!("built over {} rows, column has {}", self.n_rows, right_key.len()));
        }
        let held = self.dict.row_codes();
        let mut row = 0;
        let mut first_bad = None;
        self.dict.codes_in(right_key, 0..self.n_rows, |code| {
            if code != held[row] && first_bad.is_none() {
                let held = held[row];
                first_bad = Some(format!("row {row} codes as {code}, the dictionary holds {held}"));
            }
            row += 1;
        });
        first_bad.map_or_else(|| self.check_picks(), Err)
    }

    /// The pick array's half of [`JoinIndex::validate`], against the
    /// dictionary's row codes.
    fn check_picks(&self) -> std::result::Result<(), String> {
        let Some(Picks { rows, .. }) = self.picks.get() else { return Ok(()) };
        let codes = self.dict.row_codes();
        if rows.len() != self.dict.n_codes() {
            return Err(format!("{} picks for {} codes", rows.len(), self.dict.n_codes()));
        }
        for (code, &row) in rows.iter().enumerate() {
            if row != NO_ROW && codes.get(row as usize) != Some(&(code as u32)) {
                return Err(format!("code {code} picks row {row}, which does not carry it"));
            }
        }
        match codes.iter().position(|&c| c != NULL_CODE && rows[c as usize] == NO_ROW) {
            Some(row) => Err(format!("row {row} carries code {}, which has no pick", codes[row])),
            None => Ok(()),
        }
    }

    /// Number of distinct non-null join keys.
    pub fn n_keys(&self) -> usize {
        self.dict.len()
    }

    /// Number of right-table rows indexed (including null-key rows, which
    /// are never indexed but were scanned).
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Approximate heap footprint in bytes, for cache accounting and
    /// observability: the pick array, charged from the build whether or not
    /// a join has filled it (`index_bytes`). The dictionary, fingerprints
    /// included, is the table's, shared by every index and encode over it,
    /// so it is charged to the table ([`Table::key_meta_bytes`]), not to
    /// this index or the cache budget.
    pub fn resident_bytes(&self) -> usize {
        index_bytes(&self.dict)
    }
}

/// Left join `left` with `right` on `left.left_key = right.right_key`,
/// normalizing join cardinality so the result has exactly `left.n_rows()`
/// rows.
///
/// `seed` drives the representative-row picks for duplicated keys (see the
/// module docs for the determinism model); callers performing a sequence of
/// joins should derive a distinct seed per join from a stable identity
/// (e.g. the join path) rather than reusing one value, so that picks stay
/// decoupled across joins.
///
/// Right-hand columns are renamed to `{prefix}.{col}` (idempotently — a
/// column already carrying the prefix keeps it) and deduplicated against the
/// left schema. Null keys on either side never match, so a join between
/// unrelated columns yields an all-null right-hand side, which the τ pruning
/// rule then discards.
pub fn left_join_normalized(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    prefix: &str,
    seed: u64,
) -> Result<JoinOutput> {
    let rk = right.column(right_key)?;
    let index = {
        let _span = obs::span("index_build");
        JoinIndex::build(right, rk)?
    };
    left_join_with_index(left, right, &index, left_key, prefix, seed)
}

/// [`left_join_normalized`] with a prebuilt [`JoinIndex`] for the right
/// table's join column.
///
/// The index must have been built over `right`'s join column (the caller —
/// typically a lake-wide cache — owns that association); one built over a
/// table of another row count is refused. Output is **bit-identical** to
/// [`left_join_normalized`] with the same arguments: the uncached entry
/// point is a thin wrapper that builds a transient index and calls this
/// function.
pub fn left_join_with_index(
    left: &Table,
    right: &Table,
    index: &JoinIndex,
    left_key: &str,
    prefix: &str,
    seed: u64,
) -> Result<JoinOutput> {
    let lk = left.column(left_key)?;
    if index.n_rows() != right.n_rows() {
        return Err(DataError::Invalid(format!(
            "join index covers {} rows, table `{}` has {}",
            index.n_rows(),
            right.name(),
            right.n_rows()
        )));
    }
    join_through(left, right, lk, &index.dict, prefix, || match index.picks(seed)? {
        Some(picks) => Ok(Probe::Picks(picks)),
        None => fold_for(lk, &index.dict, seed).map(Probe::Folded),
    })
}

/// Every join's last step: `probe` yields the pick array by `dict` code —
/// with the left keys' codes when a fold made it — and [`row_map`] maps each
/// left row to its right row. Then the output: all left columns, and all
/// right columns (renamed) as views through the row map. Columns are
/// Arc-backed, so the clones here are O(1) pointer bumps — the accumulated
/// frontier is shared across hops, not deep-copied — and no right-hand cell
/// is read.
pub(crate) fn join_through<'p>(
    left: &Table,
    right: &Table,
    lk: &Column,
    dict: &KeyDict,
    prefix: &str,
    probe: impl FnOnce() -> Result<Probe<'p>>,
) -> Result<JoinOutput> {
    let _span = obs::span("join");
    slow_join_fault(right)?;
    let map = row_map(lk, dict, probe()?)?;
    let n = map.len();
    obs::incr("join.calls");
    obs::add("join.left_rows", n as u64);
    let matched = map.iter().filter(|&&r| r != NO_ROW).count();
    debug_assert!(map.iter().all(|&r| r == NO_ROW || (r as usize) < right.n_rows()));
    let map: Arc<[u32]> = map.into();
    let mut table = left.clone();
    let prefix_dot = format!("{prefix}.");
    let mut right_columns = Vec::with_capacity(right.n_cols());
    for i in 0..right.n_cols() {
        let rname = &right.field_at(i).name;
        let base = if rname.starts_with(&prefix_dot) {
            rname.clone()
        } else {
            format!("{prefix_dot}{rname}")
        };
        // τ from the map alone: a null-free source (a dense column keeps its
        // null count) has exactly one null per unmatched row.
        let null_free = right.column_at(i).null_count() == 0;
        let column = right.column_at(i).view(&map, null_free.then_some(n - matched));
        right_columns.push(table.push_disambiguated(base, column)?);
    }
    Ok(JoinOutput { table, matched, right_columns })
}

/// Each row of `lk`'s right row, [`NO_ROW`] where its key is null or has
/// no pick, a block of rows at a time with a cooperative poll between blocks
/// (one thread-local read when no request scope is entered, and never
/// result-affecting: an interrupt abandons the join rather than truncating
/// it). Through a pick array, each left key is coded by `dict` as it is
/// mapped — typed per column, and read through the map when the left key is
/// itself a view (every second hop); a fold's codes are mapped in place.
fn row_map(lk: &Column, dict: &KeyDict, probe: Probe<'_>) -> Result<Vec<u32>> {
    // `NULL_CODE` lies past the end of any pick array.
    let row_of = |picks: &[u32], code: u32| picks.get(code as usize).map_or(NO_ROW, |&row| row);
    match probe {
        Probe::Picks(picks) => {
            let n = lk.len();
            let mut map = Vec::with_capacity(n);
            for start in (0..n).step_by(BLOCK) {
                crate::control::poll_ambient()?;
                dict.codes_in(lk, start..(start + BLOCK).min(n), |code| {
                    map.push(row_of(picks, code));
                });
            }
            Ok(map)
        }
        Probe::Folded(Folded { picks, mut codes }) => {
            debug_assert_eq!(codes.len(), lk.len(), "a fold codes every left row");
            for block in codes.chunks_mut(BLOCK) {
                crate::control::poll_ambient()?;
                for code in block {
                    *code = row_of(&picks, *code);
                }
            }
            Ok(codes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn left() -> Table {
        Table::new(
            "base",
            vec![
                ("id", Column::from_ints([Some(1), Some(2), Some(3), None])),
                ("label", Column::from_bools([Some(true), Some(false), Some(true), Some(false)])),
            ],
        )
        .unwrap()
    }

    fn right() -> Table {
        Table::new(
            "ext",
            vec![
                ("key", Column::from_ints([Some(1), Some(1), Some(3), Some(9)])),
                ("feat", Column::from_floats([Some(10.0), Some(20.0), Some(30.0), Some(99.0)])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn preserves_left_row_count() {
        let out = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        assert_eq!(out.table.n_rows(), 4);
    }

    #[test]
    fn unmatched_and_null_keys_get_nulls() {
        let out = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        // id=2 has no match; id=None never matches.
        assert_eq!(out.table.value("ext.feat", 1).unwrap(), Value::Null);
        assert_eq!(out.table.value("ext.feat", 3).unwrap(), Value::Null);
        assert_eq!(out.matched, 2);
        assert_eq!(out.match_ratio(), Some(0.5));
    }

    #[test]
    fn empty_left_table_is_vacuous_not_unjoinable() {
        let empty = Table::new(
            "base",
            vec![("id", Column::from_ints(Vec::<Option<i64>>::new()))],
        )
        .unwrap();
        let out = left_join_normalized(&empty, &right(), "id", "key", "ext", 42).unwrap();
        assert_eq!(out.matched, 0);
        // No rows ⇒ no ratio — distinct from a populated table with zero
        // matches, which reports Some(0.0).
        assert_eq!(out.match_ratio(), None);
    }

    #[test]
    fn duplicate_keys_are_normalized_to_one_representative() {
        let out = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        // id=1 matches exactly one of the two candidate rows (10.0 or 20.0),
        // never duplicating the left row.
        let v = out.table.value("ext.feat", 0).unwrap();
        assert!(v == Value::Float(10.0) || v == Value::Float(20.0));
        assert_eq!(out.table.n_rows(), 4);
    }

    #[test]
    fn representative_choice_is_deterministic_per_seed() {
        let a = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        let b = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn representative_choice_varies_with_seed() {
        // With many duplicates per key, different seeds must (for at least
        // one key) pick different representatives — the pick is seeded, not
        // a fixed "first row wins".
        let n = 64i64;
        let rkeys: Vec<Option<i64>> = (0..n).map(|i| Some(i / 8)).collect();
        let rvals: Vec<Option<i64>> = (0..n).map(Some).collect();
        let r = Table::new(
            "ext",
            vec![("key", Column::from_ints(rkeys)), ("v", Column::from_ints(rvals))],
        )
        .unwrap();
        let lkeys: Vec<Option<i64>> = (0..n / 8).map(Some).collect();
        let l = Table::new("base", vec![("id", Column::from_ints(lkeys))]).unwrap();
        let a = left_join_normalized(&l, &r, "id", "key", "ext", 1).unwrap();
        let b = left_join_normalized(&l, &r, "id", "key", "ext", 2).unwrap();
        assert_ne!(a.table, b.table, "seed must influence representative picks");
    }

    #[test]
    fn representative_picks_survive_row_permutation() {
        // Regression for the HashMap-iteration-order bug: permuting the
        // right table's row order must not change which representative each
        // key gets — picks are content-addressed, not index- or
        // RNG-stream-addressed.
        let rkeys = [3i64, 1, 1, 9, 3, 1, 3, 9];
        let rvals = [30i64, 10, 11, 90, 31, 12, 32, 91];
        let make_right = |order: &[usize]| {
            Table::new(
                "ext",
                vec![
                    (
                        "key",
                        Column::from_ints(order.iter().map(|&i| Some(rkeys[i])).collect::<Vec<_>>()),
                    ),
                    (
                        "feat",
                        Column::from_ints(order.iter().map(|&i| Some(rvals[i])).collect::<Vec<_>>()),
                    ),
                ],
            )
            .unwrap()
        };
        let l = Table::new(
            "base",
            vec![("id", Column::from_ints([Some(1), Some(3), Some(9)]))],
        )
        .unwrap();
        let identity: Vec<usize> = (0..rkeys.len()).collect();
        let baseline = left_join_normalized(&l, &make_right(&identity), "id", "key", "ext", 7)
            .unwrap();
        // Try several permutations, including full reversal.
        let perms: Vec<Vec<usize>> = vec![
            identity.iter().rev().copied().collect(),
            vec![4, 0, 6, 2, 5, 1, 7, 3],
            vec![1, 5, 2, 0, 3, 7, 4, 6],
        ];
        for p in perms {
            let permuted = left_join_normalized(&l, &make_right(&p), "id", "key", "ext", 7)
                .unwrap();
            assert_eq!(
                baseline.table, permuted.table,
                "row insertion order {p:?} changed representative picks"
            );
        }
    }

    #[test]
    fn right_columns_are_prefixed() {
        let out = left_join_normalized(&left(), &right(), "id", "key", "ext", 42).unwrap();
        assert_eq!(out.right_columns, vec!["ext.key".to_string(), "ext.feat".to_string()]);
        assert!(out.table.has_column("ext.key"));
        assert!(out.table.has_column("label"));
    }

    #[test]
    fn self_join_disambiguates_names() {
        let l = left();
        let out1 = left_join_normalized(&l, &right(), "id", "key", "ext", 42).unwrap();
        let out2 =
            left_join_normalized(&out1.table, &right(), "id", "key", "ext", 43).unwrap();
        assert!(out2.table.has_column("ext.feat"));
        assert!(out2.table.has_column("ext.feat#2"));
    }

    #[test]
    fn mismatched_types_yield_all_null_right_side() {
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_strs([Some("a"), Some("b")])),
                ("feat", Column::from_ints([Some(1), Some(2)])),
            ],
        )
        .unwrap();
        let out = left_join_normalized(&left(), &r, "id", "key", "ext", 42).unwrap();
        assert_eq!(out.matched, 0);
        assert_eq!(out.match_ratio(), Some(0.0));
        assert_eq!(out.table.column("ext.feat").unwrap().null_count(), 4);
    }

    #[test]
    fn int_joins_integral_float_keys() {
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_floats([Some(1.0), Some(2.0)])),
                ("feat", Column::from_ints([Some(100), Some(200)])),
            ],
        )
        .unwrap();
        let out = left_join_normalized(&left(), &r, "id", "key", "ext", 42).unwrap();
        assert_eq!(out.table.value("ext.feat", 0).unwrap(), Value::Int(100));
        assert_eq!(out.table.value("ext.feat", 1).unwrap(), Value::Int(200));
    }

    /// The float 2⁶³ is no `i64`: it used to saturate into the key of
    /// `i64::MAX` and join it.
    #[test]
    fn two_to_the_63_does_not_join_i64_max() {
        let two_63 = i64::MAX as f64;
        let ids = Column::from_ints([Some(i64::MAX), Some(i64::MIN)]);
        let l = Table::new("base", vec![("id", ids)]).unwrap();
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_floats([Some(two_63), Some(-two_63)])),
                ("feat", Column::from_ints([Some(1), Some(2)])),
            ],
        )
        .unwrap();
        let out = left_join_normalized(&l, &r, "id", "key", "ext", 42).unwrap();
        assert_eq!(out.matched, 1, "only −2⁶³ = i64::MIN matches");
        assert_eq!(out.table.value("ext.feat", 0).unwrap(), Value::Null);
        assert_eq!(out.table.value("ext.feat", 1).unwrap(), Value::Int(2));
    }

    #[test]
    fn missing_key_column_errors() {
        assert!(left_join_normalized(&left(), &right(), "nope", "key", "p", 1).is_err());
        assert!(left_join_normalized(&left(), &right(), "id", "nope", "p", 1).is_err());
    }

    #[test]
    fn indexed_join_is_bit_identical_to_uncached() {
        let l = left();
        let r = right();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        for seed in [1u64, 7, 42, 0xdead_beef] {
            let plain = left_join_normalized(&l, &r, "id", "key", "ext", seed).unwrap();
            let indexed = left_join_with_index(&l, &r, &index, "id", "ext", seed).unwrap();
            assert_eq!(plain.table, indexed.table, "seed {seed}");
            assert_eq!(plain.matched, indexed.matched);
            assert_eq!(plain.right_columns, indexed.right_columns);
        }
    }

    #[test]
    fn one_index_serves_many_seeds() {
        // The whole point of seed-independent fingerprints: a single index
        // must reproduce every seed's picks, including seeds that differ.
        let n = 64i64;
        let rkeys: Vec<Option<i64>> = (0..n).map(|i| Some(i / 8)).collect();
        let rvals: Vec<Option<i64>> = (0..n).map(Some).collect();
        let r = Table::new(
            "ext",
            vec![("key", Column::from_ints(rkeys)), ("v", Column::from_ints(rvals))],
        )
        .unwrap();
        let lkeys: Vec<Option<i64>> = (0..n / 8).map(Some).collect();
        let l = Table::new("base", vec![("id", Column::from_ints(lkeys))]).unwrap();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        let a = left_join_with_index(&l, &r, &index, "id", "ext", 1).unwrap();
        let b = left_join_with_index(&l, &r, &index, "id", "ext", 2).unwrap();
        assert_ne!(a.table, b.table, "seed must influence picks through the index");
        for seed in [1u64, 2, 99] {
            let plain = left_join_normalized(&l, &r, "id", "key", "ext", seed).unwrap();
            let indexed = left_join_with_index(&l, &r, &index, "id", "ext", seed).unwrap();
            assert_eq!(plain.table, indexed.table, "seed {seed}");
        }
    }

    #[test]
    fn index_counts_keys_and_rows() {
        let r = right(); // keys 1,1,3,9 → 3 distinct
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        assert_eq!(index.n_keys(), 3);
        assert_eq!(index.n_rows(), 4);
        assert!(index.resident_bytes() > 0);
    }

    #[test]
    fn coded_index_survives_row_permutation() {
        let rkeys = [3i64, 1, 1, 9, 3, 1, 3, 9];
        let rvals = [30i64, 10, 11, 90, 31, 12, 32, 91];
        let make_right = |order: &[usize]| {
            Table::new(
                "ext",
                vec![
                    (
                        "key",
                        Column::from_ints(order.iter().map(|&i| Some(rkeys[i])).collect::<Vec<_>>()),
                    ),
                    (
                        "feat",
                        Column::from_ints(order.iter().map(|&i| Some(rvals[i])).collect::<Vec<_>>()),
                    ),
                ],
            )
            .unwrap()
        };
        let l = Table::new(
            "base",
            vec![("id", Column::from_ints([Some(1), Some(3), Some(9)]))],
        )
        .unwrap();
        let identity: Vec<usize> = (0..rkeys.len()).collect();
        let baseline =
            left_join_normalized(&l, &make_right(&identity), "id", "key", "ext", 7).unwrap();
        let perms: Vec<Vec<usize>> = vec![
            identity.iter().rev().copied().collect(),
            vec![4, 0, 6, 2, 5, 1, 7, 3],
        ];
        for p in perms {
            let permuted =
                left_join_normalized(&l, &make_right(&p), "id", "key", "ext", 7).unwrap();
            assert_eq!(
                baseline.table, permuted.table,
                "row order {p:?} changed coded representative picks"
            );
        }
    }

    #[test]
    fn index_ignores_null_keys() {
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_ints([Some(1), None, Some(2)])),
                ("v", Column::from_ints([Some(10), Some(20), Some(30)])),
            ],
        )
        .unwrap();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        assert_eq!(index.n_keys(), 2);
        let l = Table::new("base", vec![("id", Column::from_ints([Some(1), Some(2), Some(77), None]))])
            .unwrap();
        let out = left_join_with_index(&l, &r, &index, "id", "ext", 42).unwrap();
        let v: Vec<Value> = (0..4).map(|i| out.table.value("ext.v", i).unwrap()).collect();
        assert_eq!(v, [Value::Int(10), Value::Int(30), Value::Null, Value::Null]);
    }

    #[test]
    fn mismatched_index_and_oversized_tables_are_refused() {
        let r = right();
        let other = Table::new("ext", vec![("key", Column::from_ints([Some(1)]))]).unwrap();
        let index = JoinIndex::build(&other, other.column("key").unwrap()).unwrap();
        let err = left_join_with_index(&left(), &r, &index, "id", "ext", 1).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "{err}");
        assert!(check_row_count("t", u32::MAX as usize).is_ok());
        let err = check_row_count("t", u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, DataError::TooManyRows { .. }), "{err}");
        // A key column that is not the table's own, of another length or
        // of the same: refused, and nothing of the table is built for it.
        for foreign in [[1, 2, 3, 3, 3].map(Some).to_vec(), vec![Some(1); 4]] {
            let err = JoinIndex::build(&r, &Column::from_ints(foreign)).unwrap_err();
            assert!(matches!(err, DataError::Invalid(_)), "{err}");
        }
        assert_eq!(r.built_dicts().count(), 0);
    }

    #[test]
    fn validate_catches_a_broken_index() {
        let table = right(); // keys 1,1,3,9
        let key = table.column("key").unwrap();
        let good = JoinIndex::build(&table, key).unwrap();
        assert_eq!(good.validate(key), Ok(()));
        left_join_with_index(&left(), &table, &good, "id", "ext", 42).unwrap();
        assert!(good.picks.get().is_some(), "the first join filled the picks");
        assert_eq!(good.validate(key), Ok(()));
        // Built over other data of the same length: row 1 carries another
        // key there.
        let keys = Column::from_ints([Some(1), Some(2), Some(3), None]);
        assert!(good.validate(&keys).unwrap_err().contains("row 1 codes as"));
        let rows = &good.picks.get().unwrap().rows;
        let with = |f: &dyn Fn(&mut Vec<u32>)| {
            let mut rows = rows.to_vec();
            f(&mut rows);
            let bad = good.clone();
            let picks = OnceLock::from(Picks { seed: Some(42), rows: rows.into() });
            JoinIndex { picks, ..bad }.validate(key).unwrap_err()
        };
        let code_of_row = |row: usize| good.dict.row_codes()[row] as usize;
        let (one, three) = (code_of_row(0), code_of_row(2));
        assert!(with(&|rows| rows[one] = 2).contains("does not carry it"));
        assert!(with(&|rows| rows[three] = NO_ROW).contains("row 2 carries code"));
        assert!(with(&|rows| rows.push(NO_ROW)).contains("picks for 3 codes"));
    }

    /// The footprint a cache admits a lake table's index on, worked out from
    /// the dictionary alone, is what the build then holds, for both
    /// dictionary layouts, before and after a join fills the picks.
    #[test]
    fn index_bytes_is_the_built_footprint() {
        let n = 300i64;
        let cases = [
            ("dense ints", Column::from_ints((0..n).map(|i| (i % 11 != 0).then_some(i / 3))), true),
            ("sparse ints", Column::from_ints((0..n).map(|i| Some(i / 3 * 1000))), false),
            ("strings", Column::from_strs((0..n).map(|i| Some(format!("s{}", i % 40)))), false),
            ("bools", Column::from_bools((0..n).map(|i| Some(i % 2 == 0))), false),
            ("all null", Column::from_ints((0..n).map(|_| None)), false),
            ("all unique", Column::from_ints((0..n).map(|i| Some(n - i))), true),
        ];
        for (what, key, by_value) in cases {
            let t = Table::new("t", vec![("k", key), ("v", Column::from_ints((0..n).map(Some)))])
                .unwrap();
            let index = JoinIndex::build(&t, t.column("k").unwrap()).unwrap();
            let dict = t.key_dict_at(0).unwrap();
            assert_eq!(index_bytes(dict), index.resident_bytes(), "{what}");
            assert_eq!(index.resident_bytes(), 4 * dict.n_codes(), "{what}");
            assert_eq!(dict.value_base().is_some(), by_value, "{what}");
            left_join_with_index(&t, &t, &index, "k", "t", 1).unwrap();
            assert_eq!(index_bytes(dict), index.resident_bytes(), "{what}: filled");
        }
    }

    /// The fold of a denied join polls the ambient control in its scan,
    /// and both fault hooks fire on the unindexed path.
    #[test]
    fn unindexed_folds_poll_the_control_and_fire_the_fault_hooks() {
        use crate::control::{Interrupt, RunControl};
        use crate::faults::TableFaults;
        use crate::scope::RequestScope;
        let (l, r) = (left(), right());
        let (lk, dict) = (l.column("id").unwrap(), Arc::clone(r.key_dict_at(0).unwrap()));
        let cancelled = Arc::new(RunControl::new());
        cancelled.cancel();
        {
            let _g = RequestScope::with_ctl(&cancelled).enter();
            let err = fold_unindexed(lk, &r, &dict, 42).err().and_then(|e| e.interrupt());
            assert_eq!(err, Some(Interrupt::Cancelled));
        }
        let faults = crate::FaultDomain::new();
        let in_domain = RequestScope { faults: Some(faults.clone()), ..RequestScope::capture() };
        let _g = in_domain.enter();
        faults.arm("ext", TableFaults { panic_on_row: Some(3), slow_join_ms: None });
        let panicked = std::panic::catch_unwind(|| fold_unindexed(lk, &r, &dict, 42).is_ok());
        assert!(panicked.is_err(), "panic_on_row fires");
        faults.arm("ext", TableFaults { panic_on_row: Some(4), slow_join_ms: Some(60_000) });
        let picks = fold_unindexed(lk, &r, &dict, 42).expect("row 4 is past the table's end");
        let expired = Arc::new(RunControl::new()).scoped(Some(std::time::Instant::now()));
        let _g = RequestScope { ctl: Some(expired), ..RequestScope::capture() }.enter();
        let err = join_through(&l, &r, lk, &dict, "ext", || Ok(Probe::Folded(picks))).unwrap_err();
        assert_eq!(err.interrupt(), Some(Interrupt::DeadlineExceeded), "slow_join_ms yields");
    }

    /// The candidate rows one call orders by the pick rule, from its trace.
    fn picks_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let tracer = obs::Tracer::enabled();
        let out = obs::with_tracer(&tracer, f);
        (out, tracer.snapshot().counter("join.picks").unwrap_or(0))
    }

    /// The pick array's life: the first join fills it for its seed over
    /// every keyed row (an interrupted fill sets nothing, and the next join
    /// fills it), later joins with that seed read it and order no row, and
    /// any other seed folds the rows of the keys its left side carries. Over
    /// keys that never repeat the build sets it, for every seed.
    #[test]
    fn the_first_join_fills_the_picks_and_other_seeds_fold() {
        use crate::control::{Interrupt, RunControl};
        use crate::scope::RequestScope;
        let n = 64i64;
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_ints((0..n).map(|i| Some(i / 8)))),
                ("v", Column::from_ints((0..n).map(Some))),
            ],
        )
        .unwrap();
        // Keys 0..4 carry 8 rows each; 20 is absent; one is null; 3 repeats.
        let keys = (0..4).map(Some).chain([Some(20), None, Some(3)]);
        let l = Table::new("base", vec![("id", Column::from_ints(keys))]).unwrap();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        let bytes = index.resident_bytes();
        let join = |seed| picks_of(|| left_join_with_index(&l, &r, &index, "id", "ext", seed));
        let want = |seed| left_join_normalized(&l, &r, "id", "key", "ext", seed).unwrap().table;

        assert!(index.picks.get().is_none(), "the build reads no row");
        let cancelled = Arc::new(RunControl::new());
        cancelled.cancel();
        {
            let _g = RequestScope::with_ctl(&cancelled).enter();
            let err = join(5).0.unwrap_err();
            assert_eq!(err.interrupt(), Some(Interrupt::Cancelled));
        }
        assert!(index.picks.get().is_none(), "an interrupted fill sets nothing");
        let (out, picks) = join(5);
        assert_eq!((out.unwrap().table, picks), (want(5), 64), "filled: every keyed row");
        assert_eq!(index.picks.get().map(|p| (p.seed, p.rows.len())), Some((Some(5), 8)));
        for seed in [5, 6, 5] {
            let (out, picks) = join(seed);
            let folded = if seed == 5 { 0 } else { 32 };
            assert_eq!((out.unwrap().table, picks), (want(seed), folded), "seed {seed}");
        }
        assert_eq!(index.resident_bytes(), bytes, "the picks were charged from the build");

        let unique = right().take(&[0, 2, 3]);
        let index = JoinIndex::build(&unique, unique.column("key").unwrap()).unwrap();
        assert_eq!(index.picks.get().map(|p| p.seed), Some(None), "set by the build");
        for seed in [1, 2, 1] {
            let (out, picks) = picks_of(|| left_join_with_index(&l, &unique, &index, "id", "e", seed));
            assert_eq!((out.unwrap().matched, picks), (3, 0));
        }
    }

    /// The row-order scan the postings replaced, kept as the reference their
    /// folds are held to: every right row in row order, its fingerprint read
    /// by row, kept when `slot_of` gives its code a slot, and each slot's
    /// least row by the pick order. Returns the picks and the rows kept.
    fn row_order_scan(
        right: &Table,
        dict: &KeyDict,
        seed: u64,
        n_slots: usize,
        slot_of: impl Fn(u32) -> u32,
    ) -> (Vec<u32>, u64) {
        let codes = dict.row_codes();
        let row_fps: Vec<u64> = (0..codes.len()).map(|row| right.row_fingerprint(row)).collect();
        let mut least = vec![(u64::MAX, NO_ROW); n_slots];
        let mut kept = vec![0u64; BLOCK];
        let mut folded = 0;
        for start in (0..codes.len()).step_by(BLOCK) {
            let end = (start + BLOCK).min(codes.len());
            let mut n = 0;
            for (row, &code) in (start..end).zip(&codes[start..end]) {
                let slot = slot_of(code);
                kept[n] = u64::from(slot) << 32 | row as u64;
                n += usize::from(slot != NO_ROW);
            }
            for &k in &kept[..n] {
                let (slot, row) = ((k >> 32) as usize, k as u32);
                least[slot] = least[slot].min(pick_order(seed, row_fps[row as usize], row));
            }
            folded += n as u64;
        }
        (least.into_iter().map(|(_, row)| row).collect(), folded)
    }

    /// Draws for the generated cases: SplitMix64 steps.
    struct Draw(u64);

    impl Draw {
        /// Uniform below `k`.
        fn below(&mut self, k: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::stable_hash::mix_u64(self.0, 0) % k
        }
    }

    /// A right table of `n` rows keyed by `kind` (0: dense ints, by value;
    /// 1: sparse ints and 2: strings, hashed; 3: integral floats, by value),
    /// its keys drawn from `domain` values — unique when `domain` is `None`
    /// — with a share of nulls, plus a payload column of few values, so
    /// some rows are identical and tie on their fingerprint; and a left key
    /// column of the same kind, of `left` rows.
    fn generated(d: &mut Draw, kind: u64, n: usize, domain: Option<u64>, left: usize) -> (Table, Column) {
        let null_pct = d.below(4) * 10;
        // Ids from a shuffled range half as large again as the keys drawn
        // from it, so dense keys keep gaps and mostly stay by value.
        let drawn = domain.unwrap_or(n as u64);
        let mut pool: Vec<u64> = (0..drawn + drawn / 2 + 1).collect();
        for i in (1..pool.len()).rev() {
            pool.swap(i, d.below(i as u64 + 1) as usize);
        }
        let right: Vec<Option<u64>> = (0..n)
            .map(|row| {
                let id = match domain {
                    Some(m) => pool[d.below(m) as usize],
                    None => pool[row],
                };
                (d.below(100) >= null_pct).then_some(id)
            })
            .collect();
        let probes: Vec<Option<u64>> =
            (0..left).map(|_| (d.below(8) != 0).then(|| d.below(pool.len() as u64 + 2))).collect();
        let column = |ids: &[Option<u64>]| match kind {
            0 => Column::from_ints(ids.iter().map(|id| id.map(|i| i as i64 - 40))),
            1 => Column::from_ints(ids.iter().map(|id| id.map(|i| i as i64 * 1_000_003))),
            2 => Column::from_strs(ids.iter().map(|id| id.map(|i| format!("k{i}")))),
            _ => Column::from_floats(ids.iter().map(|id| id.map(|i| i as f64))),
        };
        let payload = Column::from_ints((0..n).map(|_| Some(d.below(3) as i64)));
        let right = Table::new("ext", vec![("key", column(&right)), ("v", payload)]).unwrap();
        (right, column(&probes))
    }

    proptest::proptest! {
        /// Over generated right tables — by value and hashed, with nulls,
        /// gaps, unique and repeated keys — the postings are the rows of
        /// each code as the dictionary codes the column, their fingerprints
        /// are those rows' in the same order, and a fill and a fold for
        /// random seeds and left keys pick, and count, what the row-order
        /// scan does.
        #[test]
        fn postings_fold_as_the_row_order_scan(case in 0u64..u64::MAX) {
            let d = &mut Draw(case);
            for _ in 0..8 {
                let (kind, n) = (d.below(4), d.below(300) as usize);
                let domain = (d.below(3) != 0).then(|| d.below(n as u64 + 2) + 1);
                let left = d.below(120) as usize;
                let (right, left_key) = generated(d, kind, n, domain, left);
                let key = right.column("key").unwrap();
                let dict = Arc::clone(right.key_dict_at(0).unwrap());
                let mut coded = Vec::new();
                dict.codes_in(key, 0..n, |code| coded.push(code));
                assert_eq!(dict.row_codes(), coded);
                let index = JoinIndex::build(&right, key).unwrap();
                let fps = dict.fingerprints().unwrap_or_default();
                let (mut postings, mut posted, mut ordered) = (dict.postings(), 0, 0);
                for code in 0..dict.n_codes() as u32 {
                    let (rows, at) = postings.seek(code);
                    let want: Vec<u32> = (0..n as u32).filter(|&r| coded[r as usize] == code).collect();
                    assert_eq!(rows, want, "code {code}");
                    if rows.len() > 1 {
                        assert_eq!(at, ordered, "code {code}");
                        let by_row: Vec<u64> = rows.iter().map(|&r| right.row_fingerprint(r as usize)).collect();
                        assert_eq!(fps[at..at + rows.len()], by_row, "code {code}");
                        ordered += rows.len();
                    }
                    posted += rows.len();
                }
                assert_eq!((posted, ordered), (n - dict.null_rows(), fps.len()));
                assert_eq!(dict.unique_rows().is_some(), fps.is_empty());

                let seed = d.below(u64::MAX);
                let every = |code: u32| if code == NULL_CODE { NO_ROW } else { code };
                let (filled, _) = row_order_scan(&right, &dict, seed, dict.n_codes(), every);
                assert_eq!(index.picks(seed).unwrap(), Some(&filled[..]));
                let mut carried = vec![false; dict.n_codes()];
                dict.codes_in(&left_key, 0..left, |code| {
                    if let Some(c) = carried.get_mut(code as usize) {
                        *c = true;
                    }
                });
                let of_left = |code: u32| match carried.get(code as usize) {
                    Some(true) => code,
                    _ => NO_ROW,
                };
                let (want, kept) = row_order_scan(&right, &dict, seed, dict.n_codes(), of_left);
                let (folded, counted) = picks_of(|| fold_for(&left_key, &dict, seed).unwrap());
                assert_eq!((folded.picks, counted), (want, kept));
            }
        }
    }

    /// The two-pass fold the one-pass fold replaced, kept as its reference:
    /// the codes the left side carries collected once each and sorted,
    /// folded through the postings, and then the left keys coded a second
    /// time, by the probe through the pick array. Returns the picks and the
    /// row map.
    fn two_pass_fold(left_key: &Column, dict: &KeyDict, seed: u64) -> Result<(Vec<u32>, Vec<u32>)> {
        let mut picks = vec![NO_ROW; dict.n_codes()];
        let mut wanted = Vec::new();
        dict.codes_in(left_key, 0..left_key.len(), |code| {
            if let Some(pick) = picks.get_mut(code as usize).filter(|pick| **pick == NO_ROW) {
                *pick = 0;
                wanted.push(code);
            }
        });
        wanted.sort_unstable();
        crate::control::poll_ambient()?;
        let fps = dict.fingerprints().unwrap_or_default();
        let (mut postings, mut folded) = (dict.postings(), 0);
        for code in wanted {
            let (rows, at) = postings.seek(code);
            picks[code as usize] = match rows {
                [] => NO_ROW,
                &[row] => row,
                _ => least(rows, &fps[at..at + rows.len()], seed),
            };
            folded += rows.len();
        }
        obs::add("join.picks", folded as u64);
        let map = row_map(left_key, dict, Probe::Picks(&picks))?;
        Ok((picks, map))
    }

    proptest::proptest! {
        /// A fold codes the left keys once. Over generated right tables —
        /// by value and hashed — and left keys with nulls and keys the
        /// dictionary lacks, read as they are and through a view, both
        /// folds — another seed on a filled index, and a join the budget
        /// denies — give the picks, the row map, the output and the
        /// `join.picks` count of the two-pass fold.
        #[test]
        fn one_pass_folds_as_the_two_pass_fold(case in 0u64..u64::MAX) {
            let d = &mut Draw(case);
            for _ in 0..4 {
                let (kind, n) = (d.below(4), d.below(300) as usize);
                let domain = (d.below(3) != 0).then(|| d.below(n as u64 + 2) + 1);
                let left = d.below(120) as usize;
                let (right, probes) = generated(d, kind, n, domain, left);
                let key = right.column("key").unwrap();
                // The same keys read backwards through a map that misses a
                // sixth of the rows, as a second hop's key is.
                let map: Arc<[u32]> = (0..left as u32)
                    .rev()
                    .map(|row| if d.below(6) == 0 { NO_ROW } else { row })
                    .collect();
                let viewed = probes.view(&map, None);
                let (fill, seed) = (d.below(u64::MAX), d.below(u64::MAX));
                for lk in [probes, viewed] {
                    let l = Table::new("base", vec![("id", lk)]).unwrap();
                    let lk = l.column("id").unwrap();
                    let index = JoinIndex::build(&right, key).unwrap();
                    left_join_with_index(&l, &right, &index, "id", "ext", fill).unwrap();
                    let dict = &index.dict;
                    let ((picks, map), counted) = picks_of(|| two_pass_fold(lk, dict, seed).unwrap());
                    let want = join_through(&l, &right, lk, dict, "ext", || Ok(Probe::Picks(&picks)));
                    let want = want.unwrap();
                    let folds = index.picks.get().is_some_and(|p| p.seed.is_some());
                    let want_count = if folds { counted } else { 0 };

                    let (folded, count) = picks_of(|| fold_for(lk, dict, seed).unwrap());
                    assert_eq!((&folded.picks, count), (&picks, counted));
                    assert_eq!(row_map(lk, dict, Probe::Folded(folded)).unwrap(), map);
                    let (folded, count) = picks_of(|| fold_unindexed(lk, &right, dict, seed).unwrap());
                    assert_eq!((&folded.picks, count), (&picks, counted));
                    assert_eq!(row_map(lk, dict, Probe::Folded(folded)).unwrap(), map);

                    let (out, count) = picks_of(|| left_join_with_index(&l, &right, &index, "id", "ext", seed));
                    let out = out.unwrap();
                    assert_eq!((&out.table, out.matched, count), (&want.table, want.matched, want_count));
                    let denied = crate::cache::LakeIndexCache::with_budget(Some(0));
                    let (out, count) = picks_of(|| denied.left_join_normalized(&l, &right, "id", "key", "ext", seed));
                    let out = out.unwrap();
                    assert_eq!((&out.table, out.matched, count), (&want.table, want.matched, counted));
                }
            }
        }
    }

    /// An interrupt in a fold's coding pass returns the interrupt, counts no
    /// pick and sets no pick array: a filled index keeps its first seed's,
    /// and a denied join leaves the cache empty.
    #[test]
    fn an_interrupted_fold_sets_no_picks() {
        use crate::control::{Interrupt, RunControl};
        use crate::scope::RequestScope;
        let n = 3 * BLOCK as i64;
        let r = Table::new(
            "ext",
            vec![
                ("key", Column::from_ints((0..n).map(|i| Some(i / 4)))),
                ("v", Column::from_ints((0..n).map(Some))),
            ],
        )
        .unwrap();
        let l = Table::new("base", vec![("id", Column::from_ints((0..n).map(Some)))]).unwrap();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        left_join_with_index(&l, &r, &index, "id", "ext", 1).unwrap();
        let filled = index.picks.get().map(|p| (p.seed, p.rows.clone()));
        let denied = crate::cache::LakeIndexCache::with_budget(Some(0));
        let cancelled = Arc::new(RunControl::new());
        cancelled.cancel();
        let _g = RequestScope::with_ctl(&cancelled).enter();
        let lk = l.column("id").unwrap();
        let (err, picked) = picks_of(|| fold_for(lk, &index.dict, 2).unwrap_err());
        assert_eq!((err.interrupt(), picked), (Some(Interrupt::Cancelled), 0));
        let (err, picked) = picks_of(|| left_join_with_index(&l, &r, &index, "id", "ext", 2).unwrap_err());
        assert_eq!((err.interrupt(), picked), (Some(Interrupt::Cancelled), 0));
        assert_eq!(index.picks.get().map(|p| (p.seed, p.rows.clone())), filled);
        let (err, picked) = picks_of(|| denied.left_join_normalized(&l, &r, "id", "key", "ext", 2).unwrap_err());
        assert_eq!((err.interrupt(), picked), (Some(Interrupt::Cancelled), 0));
        assert_eq!(denied.stats().entries, 0);
    }

    #[test]
    fn right_columns_are_views_and_tau_needs_no_read() {
        let r = right();
        let out = left_join_normalized(&left(), &r, "id", "key", "ext", 42).unwrap();
        let feat = out.table.column("ext.feat").unwrap();
        // Same cells as a dense gather, none of them copied.
        assert!(!feat.shares_payload(r.column("feat").unwrap()));
        assert_eq!(feat.null_count(), 2);
        assert_eq!(crate::stats::completeness(&out.table, &["ext.key", "ext.feat"]).unwrap(), 0.5);
        // Second hop keyed on a view: reads through the first hop's map.
        let out2 = left_join_normalized(&out.table, &r, "ext.key", "key", "ext", 43).unwrap();
        assert_eq!(out2.matched, 2);
        assert_eq!(out2.table.value("ext.key#2", 2).unwrap(), Value::Int(3));
        assert_eq!(out2.table.value("ext.key#2", 1).unwrap(), Value::Null);
    }
}
