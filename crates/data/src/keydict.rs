//! Dictionary-encoded join-key domains.
//!
//! A [`KeyDict`] maps every distinct non-null join key of one column to a
//! dense `u32` code and materializes the per-row code sequence. Built once
//! per column of a lake table, by the first join keyed on it or the first
//! encode that reads it (`Table::key_dict_at`), it keeps key
//! materialization and hashing out of every later one: a `JoinIndex` build
//! is a counting sort over the `u32` codes (see `join::JoinIndex`), and
//! label encoding reuses the codes through a dense remap table instead of
//! re-hashing every cell (`encode::label_encode_column_with_dict`).
//!
//! ## Code assignment is permutation-stable
//!
//! Codes are **not** assigned by first appearance. The distinct keys are
//! ordered by their process-stable FNV hash ([`StableHasher`]), with the
//! key's total order breaking hash ties, and codes are dense ranks in that
//! order. Two row-permuted copies of the same column therefore build the
//! *identical* key → code mapping, which keeps every downstream artifact
//! that leaks code order (nothing does today, but dictionaries outlive any
//! single call site) independent of physical row order — the same
//! discipline the join layer's content fingerprints follow.
//!
//! Null keys (null cells, NaN floats) never get a code; their rows carry
//! the [`NULL_CODE`] sentinel in the row-code sequence.

use std::hash::{Hash, Hasher};

use crate::column::Column;
use crate::stable_hash::StableHasher;
use crate::value::Key;

/// Row-code sentinel for rows whose key is null (never a valid code: a
/// column would need 2³² − 1 distinct keys to collide, beyond the row
/// counts this engine targets).
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// An empty slot of a probe table.
const EMPTY: u32 = u32::MAX;

fn stable_key_hash(key: &Key) -> u64 {
    let mut h = StableHasher::new();
    key.hash(&mut h);
    h.finish()
}

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

/// A per-column dictionary: distinct non-null keys ↔ dense `u32` codes,
/// plus the column's row → code sequence.
///
/// Immutable once built and shared via `Arc` from the owning [`Table`]'s
/// key metadata (built by the column's first reader, see
/// `Table::key_dict_at`), so clones are pointer bumps and one dictionary
/// serves every join, encode, and index build that touches the column.
///
/// [`Table`]: crate::table::Table
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDict {
    /// code → key, in code order.
    keys: Vec<Key>,
    /// key → code: an open-addressing table of codes, probed linearly from
    /// the key's FNV hash ([`probe`]) and verified against `keys`. Hashing
    /// sits on the probe path (probes of key domains that are not dense
    /// integers) and the data is trusted lake content, so SipHash's DoS
    /// resistance would buy nothing. Filled in code order, so it — and
    /// `==` — depends on the key set alone.
    slots: Vec<u32>,
    /// row → code (`NULL_CODE` for null keys). Same length as the column.
    codes: Vec<u32>,
    /// Rows whose key is null — which, cells holding no `NaN`, is the
    /// column's null count.
    null_rows: usize,
    /// Heap footprint, summed once at build.
    resident_bytes: usize,
}

impl KeyDict {
    /// Build the dictionary for one column, hashing each row's key once.
    /// Pass 1 walks the typed rows and deduplicates through a probe table
    /// over the kept hashes, numbering keys by first appearance; pass 2
    /// re-ranks the distinct keys by `(stable hash, key order)` so the final
    /// codes are permutation-stable, and moves them into that order.
    pub fn build(col: &Column) -> KeyDict {
        let n = col.len();
        // First-appearance number → key and its hash.
        let mut seen_keys: Vec<Key> = Vec::new();
        let mut seen_hashes: Vec<u64> = Vec::new();
        // Grows with the distinct keys, not the rows: a column of few keys
        // on many rows probes a table that stays in cache.
        let mut seen = probe_table(n.min(256));
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        let mut null_rows = 0usize;
        // Inlined into the typed row loop so the key stays in registers:
        // handed over through memory it is written in two pieces and read
        // back in one, and the hash waits out the failed store-forward
        // (measured: 38 instead of 19 ns a row).
        col.keys_in(0..n, #[inline(always)] |key| {
            let Some(key) = key else {
                codes.push(NULL_CODE);
                null_rows += 1;
                return;
            };
            let hash = stable_key_hash(&key);
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
        // String key payloads are charged once per distinct key.
        let key_payload: usize = keys
            .iter()
            .map(|k| match k {
                Key::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        let resident_bytes = keys.capacity() * std::mem::size_of::<Key>()
            + (slots.capacity() + codes.capacity()) * std::mem::size_of::<u32>()
            + key_payload;
        KeyDict { keys, slots, codes, null_rows, resident_bytes }
    }

    /// Number of distinct non-null keys (= number of valid codes).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the column held no non-null keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of rows the dictionary was built over.
    pub(crate) fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Number of rows with a null key (= null cells of the column).
    pub fn null_rows(&self) -> usize {
        self.null_rows
    }

    /// The code of `key`, or `None` when the key never occurs.
    pub(crate) fn code(&self, key: &Key) -> Option<u32> {
        probe(&self.slots, stable_key_hash(key), |code| self.keys[code as usize] == *key).ok()
    }

    /// The per-row code sequence (`NULL_CODE` for null keys), in row order.
    pub fn row_codes(&self) -> &[u32] {
        &self.codes
    }

    /// The key carrying `code`. Panics on an out-of-range code.
    pub fn key_at(&self, code: u32) -> &Key {
        &self.keys[code as usize]
    }

    /// Heap footprint, for lake-level accounting: the key, probe and
    /// row-code arrays plus the string key payloads, recorded at build so
    /// reading it is O(1).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(d.key_at(code), &key);
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
        assert!(d.resident_bytes() > 0); // codes vec still counts
        assert_eq!(d.code(&Key::Num(0)), None);
        assert!(KeyDict::build(&Column::from_ints([])).is_empty());
    }

    /// What a dictionary is, spelled out: the distinct keys ranked by
    /// `(stable hash, key)`, each row's rank, the null-key rows.
    fn reference(col: &Column) -> (Vec<Key>, Vec<u32>, usize) {
        let rows: Vec<Option<Key>> = (0..col.len()).map(|row| col.key(row)).collect();
        let mut keys: Vec<Key> = rows.iter().flatten().cloned().collect();
        keys.sort_by(|a, b| stable_key_hash(a).cmp(&stable_key_hash(b)).then_with(|| a.cmp(b)));
        keys.dedup();
        let code = |k: &Key| keys.iter().position(|x| x == k).unwrap() as u32;
        let codes = rows.iter().map(|k| k.as_ref().map_or(NULL_CODE, code)).collect();
        (keys, codes, rows.iter().filter(|k| k.is_none()).count())
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
            Column::from_strs((0..n).map(|i| (i % 13 != 0).then(|| format!("v{}", i % 400)))),
            Column::from_bools((0..n).map(|i| (i % 3 != 0).then_some(i % 2 == 0))),
            Column::from_ints((0..n).map(|_| None)),
        ];
        for col in dense.iter().flat_map(|c| [c.clone(), c.view(&map, None)]) {
            let d = KeyDict::build(&col);
            let (keys, codes, null_rows) = reference(&col);
            assert_eq!((&d.keys, &d.codes, d.null_rows), (&keys, &codes, null_rows));
            for (code, key) in keys.iter().enumerate() {
                assert_eq!(d.code(key), Some(code as u32));
            }
            assert_eq!(d.code(&skey("absent")), None);
            assert_eq!(d.code(&Key::Num(i64::MIN)), None);
            assert_eq!(
                d.resident_bytes(),
                keys.len() * std::mem::size_of::<Key>()
                    + (d.slots.len() + codes.len()) * 4
                    + keys.iter().map(|k| if let Key::Str(s) = k { s.len() } else { 0 }).sum::<usize>()
            );
            // The probe table follows from the key set, not the row order.
            let rev: Vec<usize> = (0..col.len()).rev().collect();
            let r = KeyDict::build(&col.take(&rev));
            assert_eq!((&r.keys, &r.slots), (&d.keys, &d.slots));
        }
    }
}
