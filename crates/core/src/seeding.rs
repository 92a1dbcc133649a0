//! Deterministic per-hop join seeding.
//!
//! Every join in the system (discovery-time evaluation, top-k path
//! materialization, tree materialization, baselines) derives its
//! representative-pick seed from a **stable identity**, never from a shared
//! RNG stream. The identity of a hop is `(run seed, the path prefix that
//! led to it, the hop itself)`, hashed with the process-stable FNV hasher.
//!
//! The seed is derived in one place, `SearchContext::join_hop`, which every
//! path join goes through. MAB is the exception: an arm can be pulled
//! several times against an evolving state, so it mixes its pull count into
//! [`hop_seed`] and joins through the cache itself.
//!
//! This fixes two historical bugs at once:
//!
//! 1. **Traversal-order coupling** — with one `StdRng` threaded through the
//!    BFS, adding an unrelated table (or changing `max_joins`) shifted the
//!    RNG stream and perturbed the representative picks of every *later*
//!    join. With identity-derived seeds, a hop's picks depend only on its
//!    own path.
//! 2. **Train/serve skew** — `materialize_path`/`materialize_tree` replayed
//!    hops against a fresh RNG, so the rows a feature was *scored* on
//!    during discovery could differ from the rows it was *trained* on.
//!    Both sides now derive the identical seed for the identical hop.
//!
//! Identity-derived seeds are also what makes the per-level parallel
//! evaluation legal: hops can be joined in any order, on any thread, and
//! the result is bit-identical to the sequential walk.

use std::hash::Hasher;

use autofeat_data::stable_hash::StableHasher;
use autofeat_graph::JoinHop;

fn hash_str(h: &mut StableHasher, s: &str) {
    h.write(s.as_bytes());
    h.write_u8(0xff); // terminator so ("ab","c") ≠ ("a","bc")
}

fn hash_hop(h: &mut StableHasher, hop: &JoinHop) {
    hash_str(h, &hop.from_table);
    hash_str(h, &hop.from_column);
    hash_str(h, &hop.to_table);
    hash_str(h, &hop.to_column);
}

/// The join seed for evaluating `hop` after the joins in `prefix`: a stable
/// hash of `(seed, prefix hops, hop)`. Pure and process-stable — the same
/// `(seed, path)` always yields the same representative picks, whatever
/// else the run explores and however the work is scheduled.
pub fn hop_seed(seed: u64, prefix: &[JoinHop], hop: &JoinHop) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    for p in prefix {
        hash_hop(&mut h, p);
    }
    h.write_u8(0xfe); // prefix/hop separator
    hash_hop(&mut h, hop);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(from: &str, fc: &str, to: &str, tc: &str) -> JoinHop {
        JoinHop {
            from_table: from.into(),
            from_column: fc.into(),
            to_table: to.into(),
            to_column: tc.into(),
            weight: 1.0,
        }
    }

    #[test]
    fn same_identity_same_seed() {
        let prefix = vec![hop("base", "k", "s1", "k")];
        let h = hop("s1", "k2", "s2", "k2");
        assert_eq!(hop_seed(42, &prefix, &h), hop_seed(42, &prefix, &h));
    }

    #[test]
    fn run_seed_changes_everything() {
        let h = hop("base", "k", "s1", "k");
        assert_ne!(hop_seed(1, &[], &h), hop_seed(2, &[], &h));
    }

    #[test]
    fn prefix_distinguishes_same_final_hop() {
        // Reaching s2 via different prefixes is a different identity — each
        // path's join is its own draw, as with independent RNGs.
        let via_a = vec![hop("base", "k", "a", "k")];
        let via_b = vec![hop("base", "k", "b", "k")];
        let h = hop("a", "k2", "s2", "k2");
        assert_ne!(hop_seed(42, &via_a, &h), hop_seed(42, &via_b, &h));
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        // ("ab", "c") must not collide with ("a", "bc").
        let (ab, a) = (hop("ab", "c", "t", "c"), hop("a", "bc", "t", "c"));
        assert_ne!(hop_seed(1, &[], &ab), hop_seed(1, &[], &a));
    }
}
