//! Dictionary-encoded join-key domains.
//!
//! A [`KeyDict`] maps every distinct non-null join key of one column to a
//! dense `u32` code and holds the column's rows **by code**: every keyed row
//! once, grouped under its key's code (its *postings*). Built once per
//! column of a table, by the first join keyed on it or the first encode
//! that reads it (`Table::key_dict_at`), it keeps key materialization and
//! hashing out of every later one. The build is itself the counting sort a
//! join needs: a pick reads the contiguous rows of the codes it needs, not
//! the whole column (see `join::JoinIndex`), and label encoding reuses the
//! codes through a dense remap table instead of re-hashing every cell
//! (`encode::label_encode_column_with_dict`).
//!
//! ## Two layouts, both permutation-stable
//!
//! Codes are **not** assigned by first appearance. A dictionary takes one
//! of two layouts, and in both a key's code is a function of the column's
//! key *set* alone, so two row-permuted copies of the same column build the
//! *identical* key → code mapping. That keeps every downstream artifact
//! that leaks code order (nothing does today, but dictionaries outlive any
//! single call site) independent of physical row order — the same
//! discipline the join layer's content fingerprints follow.
//!
//! * **By value.** Every key is an integer (ints, and floats holding
//!   integers) and the keys are dense in their range — `hi − lo < 2 ×
//!   distinct`, as surrogate ids are. A key's code is `key − lo`: typed
//!   passes over the rows (the range, the rows per code, then each row
//!   placed under `key − lo`) and no hash, sort or probe table. The code
//!   domain is the whole range, so a key the range skips has a code no row
//!   carries.
//! * **Hashed.** Any other column. The distinct keys are ordered by their
//!   process-stable FNV hash ([`key_hash`]), with the key's total order
//!   breaking hash ties, and codes are dense ranks in that order; a probe
//!   table answers key → code.
//!
//! The dictionary owns the choice, and every reader of another column's
//! keys as codes goes through it: [`KeyDict::codes_in`] matches the layout
//! once per call and runs one typed loop over the rows.
//!
//! ## Postings
//!
//! Where no key repeats, a dictionary holds one row per code ([`NO_ROW`]
//! for a code no row carries) — the every-seed pick array of a join over
//! the column. Where one does, it holds `starts` (a `u32` per code, plus
//! one) and `rows` (a `u32` per keyed row, ascending within a code), and,
//! once a join has needed them, the content fingerprints of the rows a pick
//! orders — those of the codes with more than one row — in the same order
//! ([`KeyDict::fingerprints`]), so the rows a pick orders and the
//! fingerprints it orders them by lie side by side. A lone row needs no
//! fingerprint: it is its code's pick under every seed.
//!
//! Null keys (null cells, NaN floats) never get a code, and their rows are
//! posted nowhere; [`KeyDict::row_codes`] gives them [`NULL_CODE`].

use std::ops::Range;
use std::sync::OnceLock;

use autofeat_obs as obs;

use crate::column::{Column, NO_ROW};
use crate::stable_hash::key_hash;
use crate::value::Key;

/// Row-code sentinel for rows whose key is null (never a valid code: a
/// column would need 2³² − 1 distinct keys to collide, beyond the row
/// counts this engine targets).
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// An empty slot of a probe table.
const EMPTY: u32 = u32::MAX;

/// An open-addressing probe table for `n` entries: a power of two of at
/// least `2n` slots, so linear probing stays short.
fn probe_table(n: usize) -> Vec<u32> {
    vec![EMPTY; (2 * n).next_power_of_two()]
}

/// Walk `hash`'s probe sequence: `Ok(entry)` at the first entry `is_it`
/// accepts, `Err(slot)` at the empty slot that ends the sequence. It starts
/// at the hash's two halves folded, because FNV-1a spreads small integers
/// better over its low bits than over its high ones.
#[inline]
fn probe(slots: &[u32], hash: u64, is_it: impl Fn(u32) -> bool) -> Result<u32, usize> {
    let mask = slots.len() - 1;
    let mut at = (hash ^ (hash >> 32)) as usize & mask;
    loop {
        match slots[at] {
            EMPTY => return Err(at),
            entry if is_it(entry) => return Ok(entry),
            _ => at = (at + 1) & mask,
        }
    }
}

/// Put `value` in the first free slot of `hash`'s probe sequence — for a key
/// known to be absent, so no key is compared.
fn place(slots: &mut [u32], hash: u64, value: u32) {
    if let Err(at) = probe(slots, hash, |_| false) {
        slots[at] = value;
    }
}

/// The by-value code of integer key `i` in a domain of `n_codes` keys from
/// `lo`, if it has one. Below `lo` wraps to an offset past any domain.
#[inline(always)]
fn value_code(i: i64, lo: i64, n_codes: u32) -> Option<u32> {
    let code = (i as u64).wrapping_sub(lo as u64);
    (code < u64::from(n_codes)).then_some(code as u32)
}

/// How a dictionary maps keys to codes (see the module docs).
#[derive(Debug, Clone, PartialEq)]
enum Layout {
    /// Codes are `key − lo`, for the `n_codes` keys from `lo` on.
    ByValue { lo: i64, n_codes: u32 },
    /// Codes are ranks by `(stable hash, key)`.
    Hashed {
        /// code → key, in code order.
        keys: Vec<Key>,
        /// key → code: an open-addressing table of codes, probed linearly
        /// from the key's FNV hash ([`probe`]) and verified against `keys`.
        /// The data is trusted lake content, so SipHash's DoS resistance
        /// would buy nothing. Filled in code order, so it — and `==` —
        /// depends on the key set alone.
        slots: Vec<u32>,
    },
}

/// Every keyed row of a column once, grouped by code (see the module docs).
#[derive(Debug, Clone, PartialEq)]
enum Posted {
    /// No key repeats: code → its one row, [`NO_ROW`] for a code no row
    /// carries.
    Unique(Box<[u32]>),
    /// Some key repeats: code `c`'s rows are `rows[starts[c]..starts[c + 1]]`,
    /// ascending.
    Grouped { starts: Box<[u32]>, rows: Box<[u32]> },
}

/// One pass over a column's rows that hands each row's code to `f`, in row
/// order, and [`NULL_CODE`] for a null key: what a build counts its rows by
/// code with, and then places them with.
trait RowCodes {
    fn each(&self, f: impl FnMut(u32));
}

/// A by-value build's codes, `key − lo`, worked out from the keys on every
/// pass rather than kept per row.
struct ValueCodes<'a> {
    col: &'a Column,
    lo: i64,
}

impl RowCodes for ValueCodes<'_> {
    fn each(&self, mut f: impl FnMut(u32)) {
        let lo = self.lo;
        self.col.keys_in(0..self.col.len(), #[inline(always)] |key| {
            f(match key {
                Some(Key::Num(i)) => i.abs_diff(lo) as u32,
                _ => NULL_CODE,
            })
        });
    }
}

/// A hashed build's codes, kept per row by its first-appearance pass.
impl RowCodes for [u32] {
    fn each(&self, f: impl FnMut(u32)) {
        self.iter().copied().for_each(f);
    }
}

/// The rows per code of `codes`, for the codes below `n_codes`, code `c`'s
/// at index `c + 1`: the array [`Posted::place`] turns into `starts`.
fn count_rows(codes: &(impl RowCodes + ?Sized), n_codes: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_codes + 1];
    codes.each(#[inline(always)] |code| {
        if code != NULL_CODE {
            counts[code as usize + 1] += 1;
        }
    });
    counts
}

/// The codes some row carries, and the rows whose code another row carries
/// too, from [`count_rows`]'s counts.
fn tally(counts: &[u32]) -> (usize, usize) {
    let distinct = counts[1..].iter().filter(|&&n| n > 0).count();
    let repeated = counts[1..].iter().filter(|&&n| n > 1).map(|&n| n as usize).sum();
    (distinct, repeated)
}

impl Posted {
    /// Place every keyed row of `codes` under its code, in one more pass,
    /// from its [`count_rows`] counts. With a repeated key the counts become
    /// `starts`: `counts[c + 1]` is turned into the start of code `c`, then
    /// serves as the cursor placing its rows, which leaves it at the start
    /// of `c + 1`.
    fn place(codes: &(impl RowCodes + ?Sized), mut counts: Vec<u32>, repeated: bool) -> Posted {
        let mut row = 0u32;
        if !repeated {
            let mut rows = vec![NO_ROW; counts.len() - 1];
            codes.each(#[inline(always)] |code| {
                if code != NULL_CODE {
                    rows[code as usize] = row;
                }
                row += 1;
            });
            return Posted::Unique(rows.into());
        }
        let mut at = 0;
        for n in &mut counts[1..] {
            (at, *n) = (at + *n, at);
        }
        let mut rows = vec![0u32; at as usize];
        codes.each(#[inline(always)] |code| {
            if code != NULL_CODE {
                let next = &mut counts[code as usize + 1];
                rows[*next as usize] = row;
                *next += 1;
            }
            row += 1;
        });
        Posted::Grouped { starts: counts.into(), rows: rows.into() }
    }

    /// Heap footprint of the arrays.
    fn bytes(&self) -> usize {
        let words = match self {
            Posted::Unique(rows) => rows.len(),
            Posted::Grouped { starts, rows } => starts.len() + rows.len(),
        };
        words * std::mem::size_of::<u32>()
    }
}

/// A reader of a dictionary's postings, code by code in ascending order
/// ([`KeyDict::postings`]): it keeps the place of the next code's
/// fingerprints, which only codes with more than one row have.
pub(crate) struct Postings<'d> {
    dict: &'d KeyDict,
    /// The lowest code not yet passed.
    next: usize,
    /// Where the fingerprints of code `next`'s rows would start.
    fp_at: usize,
}

impl<'d> Postings<'d> {
    /// Code `code`'s rows, ascending — none for a code no row carries — and,
    /// when there are several, where their fingerprints start in
    /// [`KeyDict::fingerprints`]. Codes must be asked for in ascending order;
    /// the codes passed over cost a subtraction each, unless every keyed row
    /// repeats, when a code's fingerprints start where its rows do. Both
    /// star workloads' dictionaries are of that kind: without the shortcut
    /// `star_budgeted`'s request took ≈ 5 % longer, losing 9 of 10
    /// alternating pairs and tying one (2-core box, `--seconds 10`). Panics
    /// on a code outside the domain.
    #[inline]
    pub(crate) fn seek(&mut self, code: u32) -> (&'d [u32], usize) {
        let code = code as usize;
        debug_assert!(code >= self.next, "postings are read in ascending code order");
        let (starts, rows) = match &self.dict.posted {
            Posted::Unique(rows) if rows[code] == NO_ROW => return (&[], 0),
            Posted::Unique(rows) => return (std::slice::from_ref(&rows[code]), 0),
            Posted::Grouped { starts, rows } => (starts, rows),
        };
        let (at, end) = (starts[code] as usize, starts[code + 1] as usize);
        let passed = std::mem::replace(&mut self.next, code + 1);
        if self.dict.repeated_rows == rows.len() {
            return (&rows[at..end], at);
        }
        for range in starts[passed..=code].windows(2) {
            let n = (range[1] - range[0]) as usize;
            self.fp_at += if n > 1 { n } else { 0 };
        }
        let fp_at = self.fp_at;
        if end - at > 1 {
            self.fp_at += end - at;
        }
        (&rows[at..end], fp_at)
    }
}

/// A per-column dictionary: distinct non-null keys ↔ dense `u32` codes,
/// plus the column's rows by code (see the module docs).
///
/// Immutable once built — but for the fingerprints, which the first join
/// that orders rows hashes in — and shared via `Arc` from the owning
/// [`Table`]'s key metadata (built by the column's first reader, see
/// `Table::key_dict_at`), so clones are pointer bumps and one dictionary
/// serves every join, encode, and index build that touches the column.
///
/// [`Table`]: crate::table::Table
#[derive(Debug, Clone)]
pub struct KeyDict {
    layout: Layout,
    posted: Posted,
    /// The content fingerprints of the rows of codes with more than one
    /// row, in posting order, once a join has needed them.
    fps: OnceLock<Box<[u64]>>,
    /// Number of rows the dictionary was built over.
    n_rows: usize,
    /// Number of distinct non-null keys.
    distinct: usize,
    /// Rows whose key is null — which, cells holding no `NaN`, is the
    /// column's null count.
    null_rows: usize,
    /// Rows whose key occurs on more than one row: the rows a pick orders.
    repeated_rows: usize,
    /// Heap footprint but for the fingerprints, summed once at build.
    resident_bytes: usize,
}

impl PartialEq for KeyDict {
    /// The mapping and the postings. The fingerprints are the table's
    /// content, hashed in by a join, and take no part.
    fn eq(&self, other: &Self) -> bool {
        (&self.layout, &self.posted, self.n_rows) == (&other.layout, &other.posted, other.n_rows)
    }
}

impl KeyDict {
    /// Build the dictionary for one column: by value when its keys are
    /// integers dense in their range, hashed otherwise (see the module docs).
    /// Panics on a column of more rows than a `u32` row id can address, as
    /// a join index refuses one.
    pub fn build(col: &Column) -> KeyDict {
        assert!(col.len() <= NO_ROW as usize, "{} rows: past a u32 row id", col.len());
        Self::by_value(col).unwrap_or_else(|| Self::hashed(col))
    }

    /// The dictionary of `layout` over `codes`, the `n_rows` rows' codes,
    /// from their [`count_rows`] counts; `key_bytes` is what the layout
    /// holds besides.
    fn posted(
        layout: Layout,
        codes: &(impl RowCodes + ?Sized),
        n_rows: usize,
        counts: Vec<u32>,
        key_bytes: usize,
    ) -> KeyDict {
        let (distinct, repeated_rows) = tally(&counts);
        let keyed: usize = counts.iter().map(|&n| n as usize).sum();
        let posted = Posted::place(codes, counts, repeated_rows > 0);
        KeyDict {
            layout,
            resident_bytes: posted.bytes() + key_bytes,
            posted,
            fps: OnceLock::new(),
            n_rows,
            distinct,
            null_rows: n_rows - keyed,
            repeated_rows,
        }
    }

    /// The by-value dictionary of `col`, or `None` when its keys are not all
    /// integers or not dense in their range. Pass 1 takes the range; pass
    /// 2, when the range could still be dense, counts the rows per code,
    /// which give the distinct keys; pass 3 places the rows.
    fn by_value(col: &Column) -> Option<KeyDict> {
        if !col.dtype().is_numeric() {
            return None;
        }
        let n = col.len();
        let (mut lo, mut hi, mut keyed, mut integral) = (i64::MAX, i64::MIN, 0usize, true);
        col.keys_in(0..n, #[inline(always)] |key| match key {
            Some(Key::Num(i)) => {
                (lo, hi) = (lo.min(i), hi.max(i));
                keyed += 1;
            }
            Some(_) => integral = false,
            None => {}
        });
        // No more distinct keys than keyed rows, so a range this wide cannot
        // be dense; and every code must stay below `NULL_CODE`.
        let span = hi.abs_diff(lo);
        if !integral || keyed == 0 || span >= 2 * keyed as u64 || span >= u64::from(NULL_CODE) {
            return None;
        }
        let codes = ValueCodes { col, lo };
        let counts = count_rows(&codes, span as usize + 1);
        if span >= 2 * tally(&counts).0 as u64 {
            return None;
        }
        let layout = Layout::ByValue { lo, n_codes: span as u32 + 1 };
        Some(Self::posted(layout, &codes, n, counts, 0))
    }

    /// The hashed dictionary of `col`, hashing each row's key once. Pass 1
    /// walks the typed rows and deduplicates through a probe table over the
    /// kept hashes, numbering keys by first appearance; pass 2 re-ranks the
    /// distinct keys by `(stable hash, key order)` so the final codes are
    /// permutation-stable, and moves them into that order. The rows'
    /// renumbered codes are then counted and placed.
    fn hashed(col: &Column) -> KeyDict {
        let n = col.len();
        // First-appearance number → key and its hash.
        let mut seen_keys: Vec<Key> = Vec::new();
        let mut seen_hashes: Vec<u64> = Vec::new();
        // Grows with the distinct keys, not the rows: a column of few keys
        // on many rows probes a table that stays in cache.
        let mut seen = probe_table(n.min(256));
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        // Inlined into the typed row loop so the key stays in registers:
        // handed over through memory it is written in two pieces and read
        // back in one, and the hash waits out the failed store-forward
        // (measured: 38 instead of 19 ns a row).
        col.keys_in(0..n, #[inline(always)] |key| {
            let Some(key) = key else {
                codes.push(NULL_CODE);
                return;
            };
            let hash = key_hash(&key);
            let known = |s: u32| seen_hashes[s as usize] == hash && seen_keys[s as usize] == key;
            match probe(&seen, hash, known) {
                Ok(number) => codes.push(number),
                Err(free) => {
                    let number = seen_keys.len() as u32;
                    codes.push(number);
                    seen[free] = number;
                    seen_keys.push(key);
                    seen_hashes.push(hash);
                    // Keep two slots per key: double, and re-place by kept hash.
                    if 2 * seen_keys.len() > seen.len() {
                        seen = vec![EMPTY; 2 * seen.len()];
                        for (number, &hash) in seen_hashes.iter().enumerate() {
                            place(&mut seen, hash, number as u32);
                        }
                    }
                }
            }
        });

        // Permutation-stable ranking: stable hash first (cheap, collision
        // ties are rare), total key order as the deterministic tiebreak.
        let mut order: Vec<(u64, u32)> = seen_hashes.into_iter().zip(0..).collect();
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| seen_keys[a.1 as usize].cmp(&seen_keys[b.1 as usize]))
        });
        let mut code_of = vec![0u32; order.len()];
        let mut slots = probe_table(order.len());
        let mut keys = Vec::with_capacity(order.len());
        for (code, &(hash, number)) in order.iter().enumerate() {
            code_of[number as usize] = code as u32;
            // Every number occurs once in `order`: each key moves once.
            keys.push(std::mem::replace(&mut seen_keys[number as usize], Key::Bool(false)));
            place(&mut slots, hash, code as u32);
        }
        for c in &mut codes {
            if *c != NULL_CODE {
                *c = code_of[*c as usize];
            }
        }
        let counts = count_rows(&codes[..], keys.len());
        // String key payloads are charged once per distinct key.
        let key_payload: usize = keys
            .iter()
            .map(|k| match k {
                Key::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        let key_bytes = keys.capacity() * std::mem::size_of::<Key>()
            + slots.capacity() * std::mem::size_of::<u32>()
            + key_payload;
        Self::posted(Layout::Hashed { keys, slots }, &codes[..], n, counts, key_bytes)
    }

    /// Number of distinct non-null keys.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// True when the column held no non-null keys.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// Size of the code domain: every code is below it. A hashed dictionary
    /// has one code per distinct key, a by-value one a code per key of its
    /// range, including keys no row carries.
    pub fn n_codes(&self) -> usize {
        match &self.layout {
            Layout::ByValue { n_codes, .. } => *n_codes as usize,
            Layout::Hashed { keys, .. } => keys.len(),
        }
    }

    /// The lowest key when the dictionary is laid out by value (a key's code
    /// is `key − value_base`), `None` when it is hashed.
    pub fn value_base(&self) -> Option<i64> {
        match self.layout {
            Layout::ByValue { lo, .. } => Some(lo),
            Layout::Hashed { .. } => None,
        }
    }

    /// Number of rows the dictionary was built over.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of rows with a null key (= null cells of the column).
    pub fn null_rows(&self) -> usize {
        self.null_rows
    }

    /// The codes of `col`'s keys on `rows`, in order, handed to `f`: each
    /// row's key's code — a hashed dictionary codes the keys some row
    /// carries, a by-value one every key of its range — and [`NULL_CODE`]
    /// for a null key or one without a code. The layout is matched once,
    /// outside the typed row loop ([`Column::keys_in`]), so a by-value probe
    /// is a subtraction and a compare a row; and it reads no key of a string
    /// or bool column, none of which it could code.
    pub(crate) fn codes_in(&self, col: &Column, rows: Range<usize>, mut f: impl FnMut(u32)) {
        match &self.layout {
            &Layout::ByValue { lo, n_codes } => {
                if !col.dtype().is_numeric() {
                    return rows.for_each(|_| f(NULL_CODE));
                }
                col.keys_in(rows, #[inline(always)] |key| {
                    let code = match key {
                        Some(Key::Num(i)) => value_code(i, lo, n_codes),
                        _ => None,
                    };
                    f(code.unwrap_or(NULL_CODE))
                });
            }
            Layout::Hashed { keys, slots } => col.keys_in(rows, #[inline(always)] |key| {
                let code = key.and_then(|key| {
                    probe(slots, key_hash(&key), |code| keys[code as usize] == key).ok()
                });
                f(code.unwrap_or(NULL_CODE))
            }),
        }
    }

    /// A reader of the postings in ascending code order.
    pub(crate) fn postings(&self) -> Postings<'_> {
        Postings { dict: self, next: 0, fp_at: 0 }
    }

    /// Each code's one row ([`NO_ROW`] for a code no row carries) when no
    /// key repeats: the pick array of every seed. `None` when a key repeats.
    pub(crate) fn unique_rows(&self) -> Option<&[u32]> {
        match &self.posted {
            Posted::Unique(rows) => Some(rows),
            Posted::Grouped { .. } => None,
        }
    }

    /// The per-row code sequence (`NULL_CODE` for null keys), in row order,
    /// scattered back from the postings.
    pub fn row_codes(&self) -> Vec<u32> {
        let mut codes = vec![NULL_CODE; self.n_rows];
        let mut postings = self.postings();
        for code in 0..self.n_codes() as u32 {
            for &row in postings.seek(code).0 {
                codes[row as usize] = code;
            }
        }
        codes
    }

    /// The content fingerprints of the rows of codes with more than one row,
    /// in posting order, once a join has hashed them
    /// ([`KeyDict::fingerprints_by`]); `None` before, and always where no
    /// key repeats.
    pub fn fingerprints(&self) -> Option<&[u64]> {
        self.fps.get().map(|fps| &fps[..])
    }

    /// [`KeyDict::fingerprints`], `fingerprint` of each row of a code with
    /// more than one row, hashed by the first call and counted in the
    /// `keymeta.fingerprint_rows` trace counter. Empty where no key repeats.
    pub(crate) fn fingerprints_by(&self, fingerprint: impl Fn(usize) -> u64) -> &[u64] {
        let Posted::Grouped { starts, rows } = &self.posted else { return &[] };
        self.fps.get_or_init(|| {
            obs::add("keymeta.fingerprint_rows", self.repeated_rows as u64);
            let mut fps = Vec::with_capacity(self.repeated_rows);
            for range in starts.windows(2) {
                let rows = &rows[range[0] as usize..range[1] as usize];
                if rows.len() > 1 {
                    fps.extend(rows.iter().map(|&row| fingerprint(row as usize)));
                }
            }
            fps.into()
        })
    }

    /// The key `code` stands for — in a by-value dictionary, the key of the
    /// range, whether or not a row carries it. Panics on a code outside the
    /// domain ([`KeyDict::n_codes`]).
    pub fn key_at(&self, code: u32) -> Key {
        match &self.layout {
            &Layout::ByValue { lo, n_codes } => {
                assert!(code < n_codes, "code {code} outside a domain of {n_codes}");
                Key::Num(lo.wrapping_add(i64::from(code)))
            }
            Layout::Hashed { keys, .. } => keys[code as usize].clone(),
        }
    }

    /// Heap footprint, for lake-level accounting: the postings, for a
    /// hashed dictionary its key and probe arrays plus the string key
    /// payloads, recorded at build, and the fingerprints once hashed, so
    /// reading it is O(1).
    pub fn resident_bytes(&self) -> usize {
        let fps = self.fingerprints().map_or(0, std::mem::size_of_val);
        self.resident_bytes + fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KeyDict {
        /// The code of one key, or `None` when it has none: the
        /// single-key reference `codes_in` is checked against.
        fn code(&self, key: &Key) -> Option<u32> {
            match (&self.layout, key) {
                (&Layout::ByValue { lo, n_codes }, &Key::Num(i)) => value_code(i, lo, n_codes),
                (Layout::ByValue { .. }, _) => None,
                (Layout::Hashed { keys, slots }, key) => {
                    probe(slots, key_hash(key), |code| keys[code as usize] == *key).ok()
                }
            }
        }
    }

    fn skey(s: &str) -> Key {
        Key::Str(std::sync::Arc::from(s))
    }

    #[test]
    fn codes_are_dense_and_roundtrip() {
        let col = Column::from_strs([Some("b"), Some("a"), None, Some("b"), Some("c")]);
        let d = KeyDict::build(&col);
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_rows(), 5);
        let codes = d.row_codes();
        assert_eq!(codes.len(), 5);
        assert_eq!(codes[2], NULL_CODE);
        assert_eq!(codes[0], codes[3], "equal keys share a code");
        for row in [0usize, 1, 3, 4] {
            let key = col.key(row).unwrap();
            let code = codes[row];
            assert!(code < 3);
            assert_eq!(d.code(&key), Some(code));
            assert_eq!(d.key_at(code), key);
        }
        assert_eq!(d.code(&skey("zzz")), None);
    }

    #[test]
    fn codes_survive_row_permutation() {
        let vals = ["x", "y", "x", "z", "w", "y", "x"];
        let fwd = Column::from_strs(vals.iter().copied().map(Some));
        let rev = Column::from_strs(vals.iter().rev().copied().map(Some));
        let df = KeyDict::build(&fwd);
        let dr = KeyDict::build(&rev);
        assert_eq!(df.len(), dr.len());
        for v in ["x", "y", "z", "w"] {
            assert_eq!(df.code(&skey(v)), dr.code(&skey(v)), "key {v}");
        }
    }

    #[test]
    fn int_and_integral_float_share_codes() {
        let ints = Column::from_ints([Some(5), Some(7)]);
        let floats = Column::from_floats([Some(5.0), Some(7.0)]);
        let di = KeyDict::build(&ints);
        let df = KeyDict::build(&floats);
        assert_eq!(di.code(&Key::Num(5)), df.code(&Key::Num(5)));
        assert_eq!(di.row_codes(), df.row_codes());
    }

    #[test]
    fn all_null_column_is_empty() {
        let col = Column::from_ints([None, None]);
        let d = KeyDict::build(&col);
        assert!(d.is_empty());
        assert_eq!(d.row_codes(), &[NULL_CODE, NULL_CODE]);
        assert!(d.resident_bytes() > 0); // the probe table still counts
        assert_eq!(d.code(&Key::Num(0)), None);
        assert!(KeyDict::build(&Column::from_ints([])).is_empty());
    }

    /// The layout follows the density rule `hi − lo < 2 × distinct` on both
    /// sides of its boundary, a key in a gap of the range has a code no row
    /// carries, and the extreme keys neither wrap nor alias.
    #[test]
    fn integer_keys_are_their_own_codes_when_dense() {
        // 4 distinct keys: a range of 7 is dense, one of 8 is not.
        let dense = Column::from_ints([Some(10), Some(17), Some(12), Some(10), Some(11), None]);
        let d = KeyDict::build(&dense);
        assert_eq!((d.value_base(), d.len(), d.n_codes()), (Some(10), 4, 8));
        assert_eq!(d.row_codes(), &[0, 7, 2, 0, 1, NULL_CODE]);
        assert_eq!((d.null_rows(), d.repeated_rows), (1, 2));
        assert_eq!((d.code(&Key::Num(13)), d.key_at(3)), (Some(3), Key::Num(13)), "a gap");
        assert_eq!((d.code(&Key::Num(9)), d.code(&Key::Num(18))), (None, None));
        assert_eq!(d.code(&Key::FloatBits(10f64.to_bits())), None);
        let sparse = Column::from_ints([Some(10), Some(18), Some(12), Some(11)]);
        assert_eq!(KeyDict::build(&sparse).value_base(), None);
        let just = Column::from_floats([Some(10.0), Some(17.0), Some(12.0), Some(11.0)]);
        assert_eq!(KeyDict::build(&just).value_base(), Some(10));
        // A non-integral float, a string or a bool makes any column hashed.
        let mixed = Column::from_floats([Some(1.0), Some(2.5)]);
        assert_eq!(KeyDict::build(&mixed).value_base(), None);
        assert_eq!(KeyDict::build(&Column::from_bools([Some(true)])).value_base(), None);

        let (min, max) = (i64::MIN, i64::MAX);
        for keys in [[min, min + 1, min + 2], [max - 2, max, max - 1]] {
            let d = KeyDict::build(&Column::from_ints(keys.map(Some)));
            assert_eq!(d.value_base(), keys.iter().min().copied());
            for (row, key) in keys.iter().enumerate() {
                assert_eq!(d.key_at(d.row_codes()[row]), Key::Num(*key));
                assert_eq!(d.code(&Key::Num(*key)), Some(d.row_codes()[row]));
            }
            let outside = if keys[0] == min { max } else { min };
            assert_eq!(d.code(&Key::Num(outside)), None, "no wrap to {outside}");
        }
        let both = Column::from_ints([Some(min), Some(max)]);
        assert_eq!(KeyDict::build(&both).value_base(), None);
    }

    /// `codes_in` is `code` row by row — by value and hashed, over every key
    /// kind of the probing column, dense or a view.
    #[test]
    fn codes_in_is_code_row_by_row() {
        let dicts = [
            KeyDict::build(&Column::from_ints((0..40).map(|i| Some(i / 2 - 5)))),
            KeyDict::build(&Column::from_ints((0..40).map(|i| Some(i * 1000)))),
            KeyDict::build(&Column::from_strs((0..40).map(|i| Some(format!("{}", i % 7))))),
        ];
        assert_eq!(dicts.each_ref().map(|d| d.value_base().is_some()), [true, false, false]);
        let map: std::sync::Arc<[u32]> =
            (0..30u32).map(|i| if i % 4 == 0 { crate::column::NO_ROW } else { i }).collect();
        let probes = [
            Column::from_ints((0..60).map(|i| (i % 9 != 0).then_some(i - 20))),
            Column::from_ints((0..60).map(|i| Some([i64::MIN, i64::MAX, i * 9][i as usize % 3]))),
            Column::from_floats((0..60).map(|i| Some(i as f64 / 2.0 - 6.0))),
            Column::from_strs((0..60).map(|i| Some(format!("{}", i % 11)))),
            Column::from_bools((0..60).map(|i| Some(i % 2 == 0))),
        ];
        for d in &dicts {
            for col in probes.iter().flat_map(|c| [c.clone(), c.view(&map, None)]) {
                let want: Vec<u32> = (0..col.len())
                    .map(|row| col.key(row).and_then(|k| d.code(&k)).unwrap_or(NULL_CODE))
                    .collect();
                let mut got = Vec::new();
                d.codes_in(&col, 3..col.len(), |c| got.push(c));
                assert_eq!(got, want[3..]);
            }
        }
    }

    /// What a dictionary is, spelled out: when every key is an integer and
    /// `hi − lo < 2 × distinct`, its range `lo..=hi` in order and each row's
    /// `key − lo`; otherwise the distinct keys ranked by `(stable hash, key)`
    /// and each row's rank; then the null-key rows.
    fn reference(col: &Column) -> (Option<i64>, Vec<Key>, Vec<u32>, usize) {
        let rows: Vec<Option<Key>> = (0..col.len()).map(|row| col.key(row)).collect();
        let mut keys: Vec<Key> = rows.iter().flatten().cloned().collect();
        keys.sort();
        keys.dedup();
        let ints: Option<Vec<i64>> =
            keys.iter().map(|k| if let Key::Num(i) = k { Some(*i) } else { None }).collect();
        let range = ints.and_then(|i| Some((*i.first()?, *i.last()?, i.len())));
        let base = range.filter(|&(lo, hi, n)| hi.abs_diff(lo) < 2 * n as u64);
        let keys = match base {
            Some((lo, hi, _)) => (lo..=hi).map(Key::Num).collect(),
            None => {
                keys.sort_by_key(|k| (key_hash(k), k.clone()));
                keys
            }
        };
        let code = |k: &Key| keys.iter().position(|x| x == k).unwrap() as u32;
        let codes = rows.iter().map(|k| k.as_ref().map_or(NULL_CODE, code)).collect();
        let null_rows = rows.iter().filter(|k| k.is_none()).count();
        (base.map(|b| b.0), keys, codes, null_rows)
    }

    #[test]
    fn build_matches_the_reference_on_every_key_kind() {
        let n = 1500i64;
        let map: std::sync::Arc<[u32]> =
            (0..n as u32).map(|i| if i % 9 == 0 { crate::column::NO_ROW } else { (i * 7) % 1500 }).collect();
        let dense = [
            Column::from_ints((0..n).map(|i| (i % 11 != 0).then_some(i / 3))),
            Column::from_ints((0..n).map(|i| Some((i * 2_654_435_761) % 1_000_003 - 500_000))),
            Column::from_floats((0..n).map(|i| match i % 5 {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some((i / 10) as f64),
                3 => Some(if i % 2 == 0 { 0.0 } else { -0.0 }),
                _ => Some(i as f64 / 7.0),
            })),
            Column::from_floats((0..n).map(|i| (i % 4 != 0).then_some((i / 2) as f64))),
            Column::from_ints((0..n).map(|i| Some(i - i % 2 * (i % 3)))),
            Column::from_strs((0..n).map(|i| (i % 13 != 0).then(|| format!("v{}", i % 400)))),
            Column::from_bools((0..n).map(|i| (i % 3 != 0).then_some(i % 2 == 0))),
            Column::from_ints((0..n).map(|_| None)),
        ];
        for col in dense.iter().flat_map(|c| [c.clone(), c.view(&map, None)]) {
            let d = KeyDict::build(&col);
            let (base, keys, codes, null_rows) = reference(&col);
            let by_code: Vec<Key> = (0..d.n_codes() as u32).map(|c| d.key_at(c)).collect();
            let got = (d.value_base(), &by_code, &d.row_codes(), d.null_rows);
            assert_eq!(got, (base, &keys, &codes, null_rows));
            let rows_of = |c: u32| codes.iter().filter(|&&d| d == c).count();
            let repeated = codes.iter().filter(|&&c| c != NULL_CODE && rows_of(c) > 1).count();
            let distinct = (0..keys.len() as u32).filter(|&c| rows_of(c) > 0).count();
            assert_eq!((d.repeated_rows, d.len()), (repeated, distinct));
            // Each code's rows, ascending; one row per code when none repeats.
            let mut postings = vec![Vec::new(); keys.len()];
            for (row, &c) in codes.iter().enumerate().filter(|(_, &c)| c != NULL_CODE) {
                postings[c as usize].push(row as u32);
            }
            let mut posted = d.postings();
            for (code, rows) in postings.iter().enumerate() {
                assert_eq!(posted.seek(code as u32).0, rows);
            }
            assert_eq!(d.unique_rows().is_some(), repeated == 0);
            for (code, key) in keys.iter().enumerate() {
                assert_eq!(d.code(key), Some(code as u32));
            }
            assert_eq!(d.code(&skey("absent")), None);
            assert_eq!(d.code(&Key::Num(i64::MIN)), None);
            let payload = |k: &Key| if let Key::Str(s) = k { s.len() } else { 0 };
            let hashed_bytes = match &d.layout {
                Layout::ByValue { .. } => 0,
                Layout::Hashed { slots, .. } => {
                    keys.len() * std::mem::size_of::<Key>()
                        + slots.len() * 4
                        + keys.iter().map(payload).sum::<usize>()
                }
            };
            let posted = codes.iter().filter(|&&c| c != NULL_CODE).count();
            let words = if repeated > 0 { keys.len() + 1 + posted } else { keys.len() };
            assert_eq!(d.resident_bytes(), words * 4 + hashed_bytes);
            // The layout, probe table included, follows from the key set, not
            // the row order.
            let rev: Vec<usize> = (0..col.len()).rev().collect();
            let r = KeyDict::build(&col.take(&rev));
            assert_eq!(r.layout, d.layout);
        }
    }
}
