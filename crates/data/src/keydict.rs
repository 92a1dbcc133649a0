//! Dictionary-encoded join-key domains.
//!
//! A [`KeyDict`] maps every distinct non-null join key of one column to a
//! dense `u32` code and materializes the per-row code sequence. Built once
//! at ingest, it moves the expensive part of index construction — key
//! materialization and hashing — out of the join hot path: every
//! `JoinIndex` build is a counting sort over the `u32` codes (see
//! `join::JoinIndex`), and label encoding reuses the codes through a dense
//! remap table instead of re-hashing every cell
//! (`encode::label_encode_column_with_dict`).
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::column::Column;
use crate::stable_hash::StableHasher;
use crate::value::Key;

/// Row-code sentinel for rows whose key is null (never a valid code: a
/// column would need 2³² − 1 distinct keys to collide, beyond the row
/// counts this engine targets).
pub const NULL_CODE: u32 = u32::MAX;

type DictMap = HashMap<Key, u32, BuildHasherDefault<StableHasher>>;

fn stable_key_hash(key: &Key) -> u64 {
    let mut h = StableHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A per-column dictionary: distinct non-null keys ↔ dense `u32` codes,
/// plus the column's row → code sequence.
///
/// Immutable once built and shared via `Arc` from the owning [`Table`]'s
/// key metadata (`Table::with_key_dicts`), so clones are pointer bumps and
/// one dictionary serves every join, encode, and index build that touches
/// the column.
///
/// [`Table`]: crate::table::Table
#[derive(Debug, Clone, PartialEq)]
pub struct KeyDict {
    /// code → key, in code order.
    keys: Vec<Key>,
    /// key → code, FNV-hashed: hashing sits on the probe path (index
    /// builds, and probes of key domains that are not dense integers) and
    /// the data is trusted lake content, so SipHash's DoS resistance would
    /// buy nothing.
    map: DictMap,
    /// row → code (`NULL_CODE` for null keys). Same length as the column.
    codes: Vec<u32>,
    /// Rows whose key is null — which, cells holding no `NaN`, is the
    /// column's null count: a join reads τ off it without touching a cell.
    null_rows: usize,
}

impl KeyDict {
    /// Build the dictionary for one column. Two passes: assign provisional
    /// slots by first appearance (one hash per row), then re-rank the distinct keys by
    /// `(stable hash, key order)` so the final codes are permutation-stable.
    pub fn build(col: &Column) -> KeyDict {
        let n = col.len();
        let mut map = DictMap::default();
        let mut slot_keys: Vec<Key> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        let mut null_rows = 0usize;
        for row in 0..n {
            match col.key(row) {
                None => {
                    slots.push(NULL_CODE);
                    null_rows += 1;
                }
                Some(k) => {
                    let next = slot_keys.len() as u32;
                    let slot = match map.entry(k) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            slot_keys.push(e.key().clone());
                            e.insert(next);
                            next
                        }
                    };
                    slots.push(slot);
                }
            }
        }

        // Permutation-stable ranking: stable hash first (cheap, collision
        // ties are rare), total key order as the deterministic tiebreak.
        let hashes: Vec<u64> = slot_keys.iter().map(stable_key_hash).collect();
        let mut order: Vec<u32> = (0..slot_keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            hashes[a as usize]
                .cmp(&hashes[b as usize])
                .then_with(|| slot_keys[a as usize].cmp(&slot_keys[b as usize]))
        });
        let mut code_of_slot = vec![0u32; slot_keys.len()];
        for (code, &slot) in order.iter().enumerate() {
            code_of_slot[slot as usize] = code as u32;
        }
        let keys: Vec<Key> = order.iter().map(|&s| slot_keys[s as usize].clone()).collect();
        for v in map.values_mut() {
            *v = code_of_slot[*v as usize];
        }
        let codes: Vec<u32> = slots
            .into_iter()
            .map(|s| if s == NULL_CODE { NULL_CODE } else { code_of_slot[s as usize] })
            .collect();
        KeyDict { keys, map, codes, null_rows }
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
    pub fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Number of rows with a null key (= null cells of the column).
    pub fn null_rows(&self) -> usize {
        self.null_rows
    }

    /// The code of `key`, or `None` when the key never occurs.
    pub fn code(&self, key: &Key) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// The per-row code sequence (`NULL_CODE` for null keys), in row order.
    pub fn row_codes(&self) -> &[u32] {
        &self.codes
    }

    /// The key carrying `code`. Panics on an out-of-range code.
    pub fn key_at(&self, code: u32) -> &Key {
        &self.keys[code as usize]
    }

    /// Approximate heap footprint, for lake-level accounting. String key
    /// payloads are charged once per distinct key (`keys` and the map share
    /// the `Arc<str>` payloads, so only one side counts them).
    pub fn resident_bytes(&self) -> usize {
        let key_payload: usize = self
            .keys
            .iter()
            .map(|k| match k {
                Key::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        self.keys.capacity() * std::mem::size_of::<Key>()
            + self.map.capacity() * std::mem::size_of::<(Key, u32)>()
            + self.codes.capacity() * std::mem::size_of::<u32>()
            + key_payload
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
    }
}
