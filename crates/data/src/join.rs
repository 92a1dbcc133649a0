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
//! right row** (`u32`, `NO_ROW` = no match) in two passes over dense
//! arrays — key → key group, addressed by the key's code in the right
//! column's dictionary (a column of dense integer keys is its own code, see
//! [`KeyDict`]), then group → representative — and returns the right-hand
//! columns as *views* `(source payload, row map)` that are read through the
//! map (see [`Column`]). Left joins keep the base rows, so the
//! map of every hop of a path is indexed by base row and maps never need
//! composing; nothing is copied until something asks for the cells in place
//! (`Table::take`, `Column::push`).
//!
//! ## Determinism model
//!
//! Representative picks are a pure function of `(seed, key, row content)`:
//! each row carries a **seed-independent** stable content fingerprint, and
//! for each duplicated key the row minimizing `mix(seed, fingerprint)` wins.
//! This makes the pick independent of
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
//! * **caching** — because fingerprints do not bake the seed in, a
//!   [`JoinIndex`] built once per `(table, join column)` serves every seed:
//!   the per-seed work degrades from re-hashing every duplicate row's full
//!   content to one [`mix_u64`] per candidate — and, for the one hop seed a
//!   retained index keeps meeting, to nothing: the index remembers that
//!   seed's representative per key (its memo, see [`JoinIndex`]). Cached
//!   and uncached joins are bit-identical by construction —
//!   [`left_join_normalized`] is literally [`left_join_with_index`] over a
//!   transient index — and so is the join a cache budget denies an index,
//!   which collects only the rows its left keys need (`KeyRuns`) and picks
//!   among them in the same order.

use std::sync::{Arc, OnceLock};

use autofeat_obs as obs;

use crate::column::{Column, NO_ROW};
use crate::error::{DataError, Result};
use crate::keydict::{KeyDict, NULL_CODE};
use crate::stable_hash::mix_u64;
use crate::table::Table;
use crate::value::Key;

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

/// The candidate rows of one join key inside a [`JoinIndex`].
///
/// Duplicated keys do not own their candidate list: they hold a range into
/// the index's single `dup_rows` array. Keeping the per-key variant at two
/// words (instead of an owned `Vec` per key) is what lets a *retained* index
/// consist of two heap blocks — see [`JoinIndex::build`] — and a third, its
/// memo, once a recurring seed fills it.
#[derive(Debug, Clone, Copy)]
enum KeyGroup {
    /// Exactly one row carries this key: no fingerprint needed, the pick is
    /// forced for every seed.
    Unique(u32),
    /// Duplicated key: `dup_rows[start..start + len]` holds the candidate
    /// rows. The per-seed representative minimizes
    /// `(mix(seed, fingerprint), row)`.
    Dups { start: u32, len: u32 },
}

/// The group of a key no row carries: probing it finds [`NO_ROW`]. A group
/// table holds it at the codes of a by-value dictionary no row carries (the
/// gaps of its key range), and the probe's first pass writes it for keys
/// without a code.
const NO_GROUP: KeyGroup = KeyGroup::Unique(NO_ROW);

/// A reusable join index for one `(right table, join column)` pair: join key
/// → candidate row group, addressed by the column's dictionary codes.
///
/// Building the index does all the per-row work a normalized left join needs
/// from the right table — grouping rows by key — **once**, as a counting
/// sort over the `u32` row codes. Resolving a seed's representative for a key
/// is then one group lookup plus one cheap [`mix_u64`] per duplicate
/// candidate. Indexes are shareable across threads ([`Send`]`+`[`Sync`]),
/// which is what lets a lake-wide cache serve the parallel discovery
/// fan-out; their groups never change.
///
/// For a fixed seed a key's pick never changes either, and a warm service
/// joins each index it keeps with the same hop seed on every request. So an
/// index whose keys repeat records the first seed joined through it, the
/// second join with that seed fills a **memo** — the seed's representative
/// per group slot — and every later join with it reads its rows from there:
/// left key → code → row. Any other seed picks as above. An index joined once
/// (a transient one, a cold start's) records a seed and allocates nothing.
///
/// There is one layout: the group table and the memo are addressed by
/// dictionary code, and a probe reads codes through the dictionary
/// ([`KeyDict::codes_in`]) — for a column of dense integer keys, whose codes
/// are `key − min`, that is one subtraction and one array read a row, with
/// no hash of the key. What varies is who owns the two inputs it reads
/// through: a lake table's dictionary and fingerprint vector are the table's
/// own key metadata, shared by `Arc`; a table without metadata (a join
/// output used as a right side, an ad-hoc table) gets a dictionary for this
/// one column and fingerprints for its duplicate rows built here, owned —
/// and charged — by the index.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// Join key → code, for every probe.
    dict: Arc<KeyDict>,
    /// The key groups, by dictionary code: one per code of the domain
    /// ([`KeyDict::n_codes`]).
    groups: Vec<KeyGroup>,
    /// Duplicate candidates, row ids only (each `KeyGroup::Dups` range
    /// indexes here, in-key row order): a retained index pins 4 bytes per
    /// duplicate row — the lake-wide cache holds dozens of these.
    dup_rows: Vec<u32>,
    /// Content fingerprints by row, read at duplicate rows only: empty when
    /// no key repeats; else the table's vector when it carries key metadata,
    /// otherwise the index's own, filled at the duplicate rows.
    row_fps: Arc<Vec<u64>>,
    n_rows: usize,
    /// Bytes of `dict` and `row_fps` this index built for itself (zero over
    /// a table with key metadata, where the lake owns both).
    own_meta_bytes: usize,
    /// The recurring seed's representatives, unused while no key repeats.
    memo: Memo,
}

/// One hop seed's representatives, remembered per group slot of a
/// [`JoinIndex`]: the first seed joined through the index, and — once a
/// second join with it has filled them — `pick(group, seed)` for every slot.
/// Both are set once and never change, so a reader needs no lock.
#[derive(Debug, Clone, Default)]
struct Memo {
    seed: OnceLock<u64>,
    picks: OnceLock<Box<[u32]>>,
}

/// Rows are stored as `u32` and [`NO_ROW`] is `u32::MAX`, so an index can
/// address at most `u32::MAX` rows; larger tables are refused, not wrapped.
pub(crate) fn check_row_count(table: &str, rows: usize) -> Result<()> {
    if rows > NO_ROW as usize {
        return Err(DataError::TooManyRows { table: table.to_string(), rows });
    }
    Ok(())
}

/// Left rows are probed, and right rows scanned, this many at a time, with
/// a cooperative interrupt poll between blocks.
const BLOCK: usize = 4096;

/// What [`JoinIndex::resident_bytes`] reports for an index over a table with
/// key metadata, which lends it `dict` and its fingerprints — worked out from
/// the dictionary alone: a group-table slot per code of its domain, a memo
/// slot beside each when some key repeats, and one row id per row whose key
/// repeats. A cache decides admission from it before building anything.
pub(crate) fn index_bytes(dict: &KeyDict) -> usize {
    let repeated = dict.repeated_rows();
    slot_bytes(dict.n_codes(), repeated > 0) + repeated * std::mem::size_of::<u32>()
}

/// Bytes of `slots` group-table slots, each with its memo entry — one row id,
/// charged from the build on, filled or not — when some key repeats.
fn slot_bytes(slots: usize, repeats: bool) -> usize {
    let memo = if repeats { std::mem::size_of::<u32>() } else { 0 };
    slots * (std::mem::size_of::<KeyGroup>() + memo)
}

/// The order a key's representative is picked in: of its candidate rows,
/// the one minimizing `(mix_u64(seed, fingerprint), row)` wins. The one pick
/// rule; both join paths and the memo fill order by it, and count the rows
/// they order in the `join.picks` trace counter.
#[inline]
fn pick_order(seed: u64, fp: u64, row: u32) -> (u64, u32) {
    (mix_u64(seed, fp), row)
}

/// Probe pass 2 for one group: its representative row under `seed`
/// ([`NO_ROW`] for [`NO_GROUP`]), given the index's `dup_rows` and `row_fps`
/// (resolved to slices once per join, not per row).
#[inline]
fn pick(group: KeyGroup, seed: u64, dup_rows: &[u32], row_fps: &[u64]) -> u32 {
    let (start, len) = match group {
        KeyGroup::Unique(row) => return row,
        KeyGroup::Dups { start, len } => (start as usize, len as usize),
    };
    dup_rows[start..start + len]
        .iter()
        .map(|&row| pick_order(seed, row_fps[row as usize], row))
        .min()
        .map_or(NO_ROW, |(_, row)| row)
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
/// table mid-build — a panic once a scan of `right`'s rows reaches `row`.
fn injected_panic(right: &Table, row: usize) -> ! {
    panic!("injected fault: panic_on_row {row} building index for table `{}`", right.name())
}

impl JoinIndex {
    /// Build the index for `right` grouped by its `right_key` column: a
    /// counting sort over the column's dictionary codes. One histogram pass
    /// sizes every group, a second scatters rows into exactly-sized storage
    /// — no per-row key materialization, hashing or map insertion — and
    /// per-key duplicate lists come out in row order. A *retained* index
    /// therefore pins two uniform heap blocks (group table, `dup_rows`).
    /// Codes no row carries (the gaps of a by-value dictionary's range) keep
    /// [`NO_GROUP`].
    ///
    /// A table with key metadata ([`Table::with_key_dicts`] — every table a
    /// `SearchContext` holds) lends its dictionary and, when a key repeats,
    /// its fingerprint vector (`Arc` clones) — built here, once, if this is
    /// the first join keyed on the column. One without gets a transient
    /// dictionary for this column ([`KeyDict::build`]: one hash per row) and
    /// fingerprints for its duplicate rows only. Either way a unique-key
    /// table fingerprints nothing; then the same sort runs.
    ///
    /// Errors for a `right_key` that is not as long as `right`
    /// ([`DataError::Invalid`]) and for a table with more rows than a `u32`
    /// row id can address ([`DataError::TooManyRows`]).
    pub fn build(right: &Table, right_key: &Column) -> Result<JoinIndex> {
        check_row_count(right.name(), right_key.len())?;
        if right_key.len() != right.n_rows() {
            return Err(DataError::Invalid(format!(
                "join key column has {} rows, table `{}` has {}",
                right_key.len(),
                right.name(),
                right.n_rows()
            )));
        }
        // Resilience-test hook: an armed `panic_on_row` fault simulates a
        // poisoned table mid-build. One relaxed atomic load when disarmed.
        let panic_row = crate::faults::lookup(right.name()).and_then(|f| f.panic_on_row);
        let lent = right.key_dict_for(right_key);
        let mut own_meta_bytes = 0;
        let dict = match lent {
            Some(dict) => Arc::clone(dict),
            None => {
                let dict = KeyDict::build(right_key);
                own_meta_bytes += dict.resident_bytes();
                Arc::new(dict)
            }
        };
        let codes = dict.row_codes();
        let n_codes = dict.n_codes();
        // Pass 1: rows per code (the counting-sort histogram).
        let mut counts = vec![0u32; n_codes];
        for (row, &c) in codes.iter().enumerate() {
            if panic_row == Some(row) {
                injected_panic(right, row);
            }
            if c != NULL_CODE {
                counts[c as usize] += 1;
            }
        }
        // Lay out groups: unique codes resolve in place, duplicated codes
        // reserve disjoint ranges of `dup_rows`.
        let mut groups = vec![NO_GROUP; n_codes];
        let mut cursor = vec![0u32; n_codes];
        let mut n_dup_rows = 0usize;
        for (code, &cnt) in counts.iter().enumerate() {
            if cnt >= 2 {
                cursor[code] = n_dup_rows as u32;
                groups[code] = KeyGroup::Dups { start: n_dup_rows as u32, len: cnt };
                n_dup_rows += cnt as usize;
            }
        }
        // Pass 2: scatter rows.
        let mut dup_rows = vec![0u32; n_dup_rows];
        for (row, &c) in codes.iter().enumerate() {
            if c == NULL_CODE {
                continue;
            }
            let code = c as usize;
            if counts[code] == 1 {
                groups[code] = KeyGroup::Unique(row as u32);
            } else {
                dup_rows[cursor[code] as usize] = row as u32;
                cursor[code] += 1;
            }
        }
        // Fingerprints are only read at duplicate rows.
        let row_fps = if dup_rows.is_empty() {
            Arc::default()
        } else if let Some(shared) = right.row_fps_arc() {
            Arc::clone(shared)
        } else {
            let mut fps = vec![0u64; codes.len()];
            for &row in &dup_rows {
                fps[row as usize] = right.row_fingerprint(row as usize);
            }
            own_meta_bytes += fps.capacity() * std::mem::size_of::<u64>();
            Arc::new(fps)
        };
        let n_rows = codes.len();
        let memo = Memo::default();
        let index = JoinIndex { dict, groups, dup_rows, row_fps, n_rows, own_meta_bytes, memo };
        debug_assert_eq!(index.validate(right_key), Ok(()));
        // A cache admits a lake table's index on this figure before building.
        debug_assert!(
            lent.is_none() || index.resident_bytes() == index_bytes(&index.dict),
            "`index_bytes` drifted from the build: {} predicted, {} built",
            index_bytes(&index.dict),
            index.resident_bytes()
        );
        Ok(index)
    }

    /// The representative row for `key` under `seed`, or `None` when the key
    /// is absent. For duplicated keys the row minimizing
    /// `(mix(seed, fingerprint), row)` wins: deterministic per seed,
    /// independent of row insertion order (ties on the mix imply identical
    /// row content, where any pick is value-equivalent; the lower row index
    /// breaks them for full in-table determinism).
    pub fn representative(&self, key: &Key, seed: u64) -> Option<usize> {
        let row = pick(self.group(key)?, seed, &self.dup_rows, &self.row_fps);
        (row != NO_ROW).then_some(row as usize)
    }

    /// The group of `key`, if it has a code.
    fn group(&self, key: &Key) -> Option<KeyGroup> {
        self.dict.code(key).map(|code| self.groups[code as usize])
    }

    /// The memo a join with `seed` reads its rows from, by code: filled here when this
    /// is the second join with the seed the index recorded, `None` for the
    /// first, for any other seed, and when no key repeats (each pick is the
    /// key's only row). The fill polls the ambient control between the blocks
    /// of its scan; an interrupted fill sets nothing, so a later join fills
    /// again.
    fn memo(&self, seed: u64) -> Result<Option<&[u32]>> {
        if self.dup_rows.is_empty() {
            return Ok(None);
        }
        let mut recorded = false;
        let first = *self.memo.seed.get_or_init(|| {
            recorded = true;
            seed
        });
        if recorded || first != seed {
            return Ok(None);
        }
        if let Some(picks) = self.memo.picks.get() {
            return Ok(Some(picks));
        }
        // Every keyed row once, in row order: row codes and fingerprints are
        // read in sequence and each row is folded into its key's least order
        // so far — tables the size of the keys, where a fill group by group
        // would load each candidate's fingerprint from wherever its row lies.
        let (codes, row_fps) = (self.dict.row_codes(), self.row_fps.as_slice());
        let mut least = vec![u64::MAX; self.groups.len()];
        let mut by_code = vec![NO_ROW; self.groups.len()];
        for start in (0..codes.len()).step_by(BLOCK) {
            crate::control::poll_ambient()?;
            let end = (start + BLOCK).min(codes.len());
            for (row, &code) in (start..end).zip(&codes[start..end]) {
                // `NULL_CODE` lies past the end of both tables.
                let Some(least) = least.get_mut(code as usize) else { continue };
                let best = &mut by_code[code as usize];
                let order = pick_order(seed, row_fps[row], row as u32);
                if order < (*least, *best) {
                    (*least, *best) = order;
                }
            }
        }
        obs::add("join.picks", (codes.len() - self.dict.null_rows()) as u64);
        // Two joins may fill at once; both fills are equal, the first is kept.
        Ok(Some(self.memo.picks.get_or_init(|| by_code.into_boxed_slice())))
    }

    /// Check the invariants a probe trusts, against the column the index
    /// was built over: every row with a non-null key sits in exactly one
    /// group and no other row in any, and every duplicated key's candidates
    /// are in bounds and in ascending row order. Returns the first
    /// violation.
    pub fn validate(&self, right_key: &Column) -> std::result::Result<(), String> {
        if right_key.len() != self.n_rows {
            return Err(format!("built over {} rows, column has {}", self.n_rows, right_key.len()));
        }
        let mut claims = vec![0u32; self.n_rows];
        for group in &self.groups {
            let rows = match *group {
                KeyGroup::Unique(NO_ROW) => continue,
                KeyGroup::Unique(ref row) => std::slice::from_ref(row),
                KeyGroup::Dups { start, len } => self
                    .dup_rows
                    .get(start as usize..start as usize + len as usize)
                    .filter(|r| r.len() >= 2 && r.windows(2).all(|w| w[0] < w[1]))
                    .ok_or(format!("dups {start}+{len}: not ≥ 2 ascending rows in bounds"))?,
            };
            for &row in rows {
                *claims.get_mut(row as usize).ok_or(format!("row {row} out of bounds"))? += 1;
            }
        }
        match (0..self.n_rows).find(|&r| claims[r] != u32::from(right_key.key(r).is_some())) {
            Some(r) => Err(format!("row {r} sits in {} group(s), its key disagrees", claims[r])),
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

    /// Number of rows belonging to duplicated keys.
    pub fn n_dup_rows(&self) -> usize {
        self.dup_rows.len()
    }

    /// Approximate heap footprint in bytes, for cache accounting and
    /// observability: the group table, its memo when some key repeats
    /// (allocated by the memo's fill, charged from the build), and `dup_rows`
    /// (capacity-based; all are built at their final size). A lake table's
    /// dictionary and fingerprint vector are shared by every index and
    /// encode over the table, so they are charged to the lake
    /// ([`Table::key_meta_bytes`]), not to this index or the cache budget;
    /// the ones an index built for itself are charged here.
    pub fn resident_bytes(&self) -> usize {
        slot_bytes(self.groups.capacity(), !self.dup_rows.is_empty())
            + self.dup_rows.capacity() * std::mem::size_of::<u32>()
            + self.own_meta_bytes
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
    let _span = obs::span("join");
    let lk = left.column(left_key)?;
    if index.n_rows() != right.n_rows() {
        return Err(DataError::Invalid(format!(
            "join index covers {} rows, table `{}` has {}",
            index.n_rows(),
            right.name(),
            right.n_rows()
        )));
    }

    slow_join_fault(right)?;

    let n = left.n_rows();
    let memo = index.memo(seed)?;
    // The probe, a block of rows at a time, as tight passes over dense
    // arrays rather than one chain per row. Between blocks: a cooperative
    // poll — one thread-local read when no request scope is entered,
    // and never result-affecting (an interrupt abandons the join entirely
    // rather than truncating it).
    let (dup_rows, row_fps) = (index.dup_rows.as_slice(), index.row_fps.as_slice());
    let mut groups: Vec<KeyGroup> = Vec::with_capacity(n.min(BLOCK));
    let mut map: Vec<u32> = Vec::with_capacity(n);
    let mut picks = 0u64;
    for start in (0..n).step_by(BLOCK) {
        crate::control::poll_ambient()?;
        // Left keys are coded by the right dictionary, typed per column and
        // read through the map when the left key is itself a view (every
        // second hop). `NULL_CODE` lies past the end of the group table and
        // the memo.
        let rows = start..(start + BLOCK).min(n);
        if let Some(memo) = memo {
            // One pass: left key → code → the memo's row.
            index.dict.codes_in(lk, rows, |code| {
                map.push(memo.get(code as usize).map_or(NO_ROW, |&row| {
                    debug_assert_eq!(
                        row,
                        pick(index.groups[code as usize], seed, dup_rows, row_fps),
                        "memo slot {code} under seed {seed}"
                    );
                    row
                }));
            });
            continue;
        }
        // Pass 1: left key → code → key group.
        groups.clear();
        index.dict.codes_in(lk, rows, |code| {
            groups.push(index.groups.get(code as usize).map_or(NO_GROUP, |&group| group));
        });
        // Pass 2: key group → representative right row.
        for &group in &groups {
            if let KeyGroup::Dups { len, .. } = group {
                picks += u64::from(len);
            }
            map.push(pick(group, seed, dup_rows, row_fps));
        }
    }
    obs::add("join.picks", picks);
    assemble(left, right, map, prefix)
}

/// Run id of a left row whose key is null or absent on the right.
const NO_RUN: u32 = u32::MAX;

/// The right rows one join needs: what a [`JoinIndex`] holds, for the keys
/// the left side carries only. A cache builds it for a join whose index its
/// budget will not keep
/// ([`LakeIndexCache::left_join_normalized`](crate::cache::LakeIndexCache::left_join_normalized)),
/// and it lives as long as that join. When the left side is a sample, it
/// holds a fraction of the rows a full index would.
pub(crate) struct KeyRuns {
    /// Per left row, the run of its key (the distinct right keys the left
    /// side carries, numbered in order of appearance), or [`NO_RUN`].
    run_of_row: Vec<u32>,
    /// Number of runs.
    n_runs: usize,
    /// Every right row of a run's key, in row order, as `(fingerprint, row,
    /// run)`. When no key of the table repeats, each run has one row and no
    /// fingerprint is read (0).
    cands: Vec<(u64, u32, u32)>,
}

impl KeyRuns {
    /// Collect `right`'s rows for the keys of `left_key`, given `dict`, the
    /// dictionary `right`'s key metadata holds for its join column (a table
    /// without key metadata takes the index path): each left key is coded
    /// through `dict` ([`KeyDict::codes_in`]), and one pass over the right row codes keeps the
    /// rows of those codes, in row order, with their fingerprints read
    /// once, from the table's shared vector.
    ///
    /// Polls the ambient control before the scan and between its blocks; an
    /// armed `panic_on_row` fault fires when the scan reaches its row, as in
    /// [`JoinIndex::build`].
    pub(crate) fn build(left_key: &Column, right: &Table, dict: &KeyDict) -> Result<KeyRuns> {
        let mut run_of_code = vec![NO_RUN; dict.n_codes()];
        let mut n_runs = 0u32;
        let mut run_of_row = Vec::with_capacity(left_key.len());
        dict.codes_in(left_key, 0..left_key.len(), |code| {
            // `NULL_CODE` lies past the end of `run_of_code`.
            let run = run_of_code.get_mut(code as usize).map_or(NO_RUN, |run| {
                if *run == NO_RUN {
                    *run = n_runs;
                    n_runs += 1;
                }
                *run
            });
            run_of_row.push(run);
        });

        // The scan is branch-free: each row is written at the end of the
        // block's kept rows, which move past it only when its code is
        // needed — a small share of the rows, in no order a branch could
        // predict.
        let panic_row = crate::faults::lookup(right.name()).and_then(|f| f.panic_on_row);
        let codes = dict.row_codes();
        let mut kept: Vec<u64> = Vec::new();
        let mut block = vec![0u64; BLOCK];
        for start in (0..codes.len()).step_by(BLOCK) {
            crate::control::poll_ambient()?;
            let end = (start + BLOCK).min(codes.len());
            if let Some(row) = panic_row.filter(|row| (start..end).contains(row)) {
                injected_panic(right, row);
            }
            let mut n = 0;
            for (row, &code) in (start..end).zip(&codes[start..end]) {
                // `NULL_CODE` lies past the end of `run_of_code`.
                let run = run_of_code.get(code as usize).map_or(NO_RUN, |&run| run);
                block[n] = u64::from(run) << 32 | row as u64;
                n += usize::from(run != NO_RUN);
            }
            kept.extend_from_slice(&block[..n]);
        }

        // The table's shared fingerprint vector, built here if no join has
        // needed it yet; read only when some key repeats; else each
        // candidate is its key's only row.
        let fps = if dict.repeated_rows() > 0 { right.row_fingerprints() } else { None };
        debug_assert!(fps.is_some() || dict.repeated_rows() == 0, "`right` has key metadata");
        let cands = kept
            .iter()
            .map(|&k| {
                let (run, row) = ((k >> 32) as u32, k as u32);
                (fps.map_or(0, |fps| fps[row as usize]), row, run)
            })
            .collect();
        Ok(KeyRuns { run_of_row, n_runs: n_runs as usize, cands })
    }
}

/// [`left_join_with_index`] over [`KeyRuns`] instead of an index: each run's
/// representative by the same rule as a key group's, and the same output.
pub(crate) fn left_join_with_runs(
    left: &Table,
    right: &Table,
    runs: &KeyRuns,
    prefix: &str,
    seed: u64,
) -> Result<JoinOutput> {
    let _span = obs::span("join");
    slow_join_fault(right)?;
    obs::add("join.picks", runs.cands.len() as u64);
    let mut best = vec![(u64::MAX, NO_ROW); runs.n_runs];
    for &(fp, row, run) in &runs.cands {
        let best = &mut best[run as usize];
        *best = (*best).min(pick_order(seed, fp, row));
    }
    // `NO_RUN` lies past the end of `best`.
    let map = runs.run_of_row.iter().map(|&run| best.get(run as usize).map_or(NO_ROW, |b| b.1));
    assemble(left, right, map.collect(), prefix)
}

/// A join's output from its row map (one right row per left row, [`NO_ROW`]
/// for none): all left columns, then all right columns (renamed) as views
/// through the map. Columns are Arc-backed, so the clones here are O(1)
/// pointer bumps — the accumulated frontier is shared across hops, not
/// deep-copied — and no right-hand cell is read.
fn assemble(left: &Table, right: &Table, map: Vec<u32>, prefix: &str) -> Result<JoinOutput> {
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
        for r in [r.clone(), r.with_key_dicts()] {
            let out = left_join_normalized(&l, &r, "id", "key", "ext", 42).unwrap();
            assert_eq!(out.matched, 1, "only −2⁶³ = i64::MIN matches");
            assert_eq!(out.table.value("ext.feat", 0).unwrap(), Value::Null);
            assert_eq!(out.table.value("ext.feat", 1).unwrap(), Value::Int(2));
        }
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
    fn index_counts_keys_and_dups() {
        let r = right(); // keys 1,1,3,9 → 3 distinct, one dup group of 2
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        assert_eq!(index.n_keys(), 3);
        assert_eq!(index.n_rows(), 4);
        assert_eq!(index.n_dup_rows(), 2);
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
            .with_key_dicts()
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
        assert_eq!(index.representative(&Key::Num(1), 42), Some(0));
        assert_eq!(index.representative(&Key::Num(2), 42), Some(2));
        assert_eq!(index.representative(&Key::Num(77), 42), None);
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
        // A key column that is not the table's own: refused before any row
        // of `other` is fingerprinted at an index taken from it.
        let foreign = Column::from_ints([1, 2, 3, 3, 3].map(Some));
        for table in [other.clone(), other.with_key_dicts()] {
            let err = JoinIndex::build(&table, &foreign).unwrap_err();
            assert!(matches!(err, DataError::Invalid(_)), "{err}");
        }
    }

    #[test]
    fn validate_catches_a_broken_index() {
        let r = right(); // keys 1,1,3,9
        for table in [r.clone(), r.with_key_dicts()] {
            let key = table.column("key").unwrap();
            let good = JoinIndex::build(&table, key).unwrap();
            assert_eq!(good.validate(key), Ok(()));
            // Built over other data of the same length: row 1 is claimed
            // as unique here but duplicated there.
            let keys = Column::from_ints([Some(1), Some(2), Some(3), None]);
            assert!(good.validate(&keys).is_err());
            let mut bad = good.clone();
            bad.dup_rows.swap(0, 1); // candidates out of row order
            assert!(bad.validate(key).unwrap_err().contains("ascending"));
            bad.dup_rows.truncate(1);
            assert!(bad.validate(key).unwrap_err().contains("in bounds"));
            let mut bad = good.clone();
            bad.dup_rows[1] = 2; // row 2 claimed twice, row 1 by nobody
            assert!(bad.validate(key).unwrap_err().contains("row 1 sits in 0"));
        }
    }

    /// The footprint a cache admits a lake table's index on, worked out from
    /// the dictionary alone, is what the build then holds, for every layout
    /// a group table takes.
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
                .unwrap()
                .with_key_dicts();
            let index = JoinIndex::build(&t, t.column("k").unwrap()).unwrap();
            let dict = t.key_dict_at(0).unwrap();
            assert_eq!(index_bytes(dict), index.resident_bytes(), "{what}");
            assert_eq!(dict.repeated_rows(), index.n_dup_rows(), "{what}");
            assert_eq!(dict.value_base().is_some(), by_value, "{what}");
        }
    }

    /// The transient grouping polls the ambient control before its scan,
    /// and both fault hooks fire on the transient path.
    #[test]
    fn key_runs_poll_the_control_and_fire_the_fault_hooks() {
        use crate::control::{Interrupt, RunControl};
        use crate::faults::TableFaults;
        use crate::scope::RequestScope;
        let (l, r) = (left(), right().with_key_dicts());
        let (lk, dict) = (l.column("id").unwrap(), Arc::clone(r.key_dict_at(0).unwrap()));
        let cancelled = Arc::new(RunControl::new());
        cancelled.cancel();
        {
            let _g = RequestScope::with_ctl(&cancelled).enter();
            let err = KeyRuns::build(lk, &r, &dict).err().and_then(|e| e.interrupt());
            assert_eq!(err, Some(Interrupt::Cancelled));
        }
        let faults = crate::FaultDomain::new();
        let in_domain = RequestScope { faults: Some(faults.clone()), ..RequestScope::capture() };
        let _g = in_domain.enter();
        faults.arm("ext", TableFaults { panic_on_row: Some(3), slow_join_ms: None });
        let panicked = std::panic::catch_unwind(|| KeyRuns::build(lk, &r, &dict).is_ok());
        assert!(panicked.is_err(), "panic_on_row fires in the scan");
        faults.arm("ext", TableFaults { panic_on_row: Some(4), slow_join_ms: Some(60_000) });
        let runs = KeyRuns::build(lk, &r, &dict).expect("row 4 is past the table's end");
        let expired = Arc::new(RunControl::new()).scoped(Some(std::time::Instant::now()));
        let _g = RequestScope { ctl: Some(expired), ..RequestScope::capture() }.enter();
        let err = left_join_with_runs(&l, &r, &runs, "ext", 42).unwrap_err();
        assert_eq!(err.interrupt(), Some(Interrupt::DeadlineExceeded), "slow_join_ms yields");
    }

    /// The candidate rows one call orders by the pick rule, from its trace.
    fn picks_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let tracer = obs::Tracer::enabled();
        let out = obs::with_tracer(&tracer, f);
        (out, tracer.snapshot().counter("join.picks").unwrap_or(0))
    }

    /// The memo's life: the first join with a seed records it, the second
    /// fills the memo (an interrupted fill leaves it empty, and the next
    /// join fills it), later joins with it order no candidate, and any other
    /// seed orders every candidate its left keys meet, as before. An index
    /// whose keys are all unique records nothing.
    #[test]
    fn the_second_join_with_the_recorded_seed_fills_the_memo() {
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
        // Keys 0..4 meet 8 candidates each; 20 is absent; one is null.
        let keys = (0..4).map(Some).chain([Some(20), None]);
        let l = Table::new("base", vec![("id", Column::from_ints(keys))]).unwrap();
        let index = JoinIndex::build(&r, r.column("key").unwrap()).unwrap();
        let bytes = index.resident_bytes();
        let join = |seed| picks_of(|| left_join_with_index(&l, &r, &index, "id", "ext", seed));
        let want = |seed| left_join_normalized(&l, &r, "id", "key", "ext", seed).unwrap().table;

        let (out, picks) = join(5);
        assert_eq!((out.unwrap().table, picks), (want(5), 32), "recorded");
        assert!(index.memo.picks.get().is_none());
        let cancelled = Arc::new(RunControl::new());
        cancelled.cancel();
        {
            let _g = RequestScope::with_ctl(&cancelled).enter();
            let err = join(5).0.unwrap_err();
            assert_eq!(err.interrupt(), Some(Interrupt::Cancelled));
        }
        assert!(index.memo.picks.get().is_none(), "an interrupted fill sets nothing");
        let (out, picks) = join(5);
        assert_eq!((out.unwrap().table, picks), (want(5), 64), "filled: every keyed row");
        assert_eq!(index.memo.picks.get().map(|m| m.len()), Some(index.groups.len()));
        for seed in [5, 6, 5] {
            let (out, picks) = join(seed);
            let per_row = if seed == 5 { 0 } else { 32 };
            assert_eq!((out.unwrap().table, picks), (want(seed), per_row), "seed {seed}");
        }
        assert_eq!(index.resident_bytes(), bytes, "the memo was charged from the build");

        let unique = right().take(&[0, 2, 3]);
        let index = JoinIndex::build(&unique, unique.column("key").unwrap()).unwrap();
        for _ in 0..3 {
            let (out, picks) = picks_of(|| left_join_with_index(&l, &unique, &index, "id", "e", 1));
            assert_eq!((out.unwrap().matched, picks), (2, 0));
        }
        assert!(index.memo.seed.get().is_none(), "unique keys: the pick is the key's row");
    }

    #[test]
    fn right_columns_are_views_and_tau_needs_no_read() {
        let r = right().with_key_dicts();
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
