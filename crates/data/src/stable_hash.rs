//! A process- and platform-stable 64-bit hasher (FNV-1a).
//!
//! `std::collections::HashMap` uses a per-instance randomized hasher, and
//! even `DefaultHasher::new()` is only stable within one compiler release.
//! Determinism-critical code (per-hop join seeding, representative-row
//! picks) must instead hash through this FNV-1a implementation, whose
//! output is a pure function of the bytes fed to it — identical across
//! processes, platforms, and Rust versions. A join key is hashed by
//! [`key_hash`] and nothing else.

use std::hash::{Hash, Hasher};

use crate::value::Key;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit [`Hasher`]. Construct with `StableHasher::default()`, feed
/// it via the `Hash`/`Hasher` traits, and read the digest with `finish()`.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The hash of a join key: [`StableHasher`] over `Key`'s `Hash`. The one
/// key hash of the workspace: a hashed `KeyDict` orders its codes by it,
/// and a column profile's value set is made of it, finalized by
/// [`mix_u64`].
pub fn key_hash(key: &Key) -> u64 {
    let mut h = StableHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Bit-mix a pair of `u64`s into one (SplitMix64 finalizer over the XOR of
/// the rotated halves). Used to fold derived seeds together cheaply.
pub fn mix_u64(a: u64, b: u64) -> u64 {
    // The golden-gamma offset keeps (0, 0) away from the finalizer's fixed
    // point at zero.
    let mut z = a.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn deterministic_across_instances() {
        let digest = |s: &str| {
            let mut h = StableHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest("join-path"), digest("join-path"));
        assert_ne!(digest("join-path"), digest("join-patH"));
    }

    /// Dictionary code order and every profile's value set follow these
    /// hashes: one key per `Key` variant, pinned to the bit.
    #[test]
    fn key_hash_is_pinned_per_variant() {
        let pinned = [
            (Key::Num(42), 0x8f91_9d01_1520_8895),
            (Key::FloatBits(2.5f64.to_bits()), 0x528c_54dc_8fe9_3a48),
            (Key::Str("user_42".into()), 0xa343_7b50_0c59_f90a),
            (Key::Bool(true), 0x0835_ef07_b4ee_54c9),
        ];
        for (key, want) in pinned {
            assert_eq!(key_hash(&key), want, "{key:?}");
        }
    }

    #[test]
    fn mix_is_not_symmetric_or_trivial() {
        assert_ne!(mix_u64(1, 2), mix_u64(2, 1));
        assert_ne!(mix_u64(0, 0), 0);
    }
}
