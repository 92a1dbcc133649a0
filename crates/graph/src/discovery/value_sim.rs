//! Instance-based (value-overlap) column similarity.
//!
//! Joinability is fundamentally about overlapping value sets (Def. IV.1:
//! "their intersection is non-empty"). We provide exact Jaccard and
//! containment over hashed value sets, the [`ValueRun`] a column profile
//! keeps its exact set in, plus a MinHash sketch (in the spirit of Lazo) for
//! estimating Jaccard on large columns without materializing full sets.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Exact Jaccard similarity of two value-hash sets.
pub fn jaccard(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    inter / union
}

/// Containment of `a` in `b`: `|a ∩ b| / |a|`. Asymmetric — high when most
/// of `a`'s values appear in `b` (the FK → PK direction).
pub fn containment(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.intersection(b).count() as f64 / a.len() as f64
}

/// The sketch domain's hasher: FNV-1a's offset basis and byte loop, but the
/// multiplier `0x1000_0000_01b3` where FNV's prime (the join layer's
/// `autofeat_data::stable_hash::StableHasher`) is `0x100_0000_01b3`. Every
/// profile, DRG edge and pinned digest was computed with it, so it stays.
struct SketchHasher(u64);

/// FNV-1a's offset basis, where a [`SketchHasher`] starts.
const SKETCH_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

impl Hasher for SketchHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// Stable 64-bit hash for sketching ([`SketchHasher`] — deterministic across
/// runs, unlike `DefaultHasher` with random keys).
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h = SketchHasher(SKETCH_BASIS);
    h.write(bytes);
    h.finish()
}

/// Hash a value into the sketch domain through the std `Hash` trait.
pub fn hash_value<T: Hash>(v: &T) -> u64 {
    let mut h = SketchHasher(SKETCH_BASIS);
    v.hash(&mut h);
    h.finish()
}

/// Bits in a [`ValueRun`]'s occupancy map: one per value of a hash's top 16
/// bits.
const OCCUPANCY_BITS: usize = 1 << 16;
const OCCUPANCY_WORDS: usize = OCCUPANCY_BITS / 64;

/// An exact set of value hashes, laid out for pairwise overlap counting: the
/// distinct hashes as a strictly ascending run, and a fixed
/// [`OCCUPANCY_BITS`]-bit map of which top-16-bit prefixes occur in it.
///
/// Two runs intersect by one merge ([`intersection_len`](Self::intersection_len));
/// two maps bound that intersection from above without touching the runs
/// ([`intersection_bound`](Self::intersection_bound)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRun {
    /// Strictly ascending.
    hashes: Box<[u64]>,
    /// Bit `h >> 48` is set for every hash `h` of the run.
    occupancy: Box<[u64; OCCUPANCY_WORDS]>,
    /// `hashes.len() − popcount(occupancy)`: the hashes that share their
    /// prefix with a smaller one.
    extra: usize,
}

impl ValueRun {
    /// The set of `hashes`, which may arrive in any order and repeat.
    pub(crate) fn from_unsorted(mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        debug_assert!(hashes.windows(2).all(|w| w[0] < w[1]), "run must ascend strictly");
        let mut occupancy = Box::new([0u64; OCCUPANCY_WORDS]);
        for &h in &hashes {
            let prefix = (h >> 48) as usize;
            occupancy[prefix / 64] |= 1 << (prefix % 64);
        }
        let occupied: usize = occupancy.iter().map(|w| w.count_ones() as usize).sum();
        ValueRun { extra: hashes.len() - occupied, hashes: hashes.into(), occupancy }
    }

    /// The distinct hashes, ascending.
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Number of distinct hashes.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// `|self ∩ other|`, by one merge of the two runs. The loop carries no
    /// data-dependent branch: disjoint random sets — most of what a lake's
    /// matcher sees — would mispredict one in every step.
    pub fn intersection_len(&self, other: &ValueRun) -> usize {
        let (a, b) = (&*self.hashes, &*other.hashes);
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            shared += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        shared
    }

    /// An upper bound on `|self ∩ other|` from the occupancy maps alone:
    /// `popcount(mapA & mapB) + min(extraA, extraB)`, capped by both sizes.
    ///
    /// Never below the true intersection: shared hashes share a prefix, so
    /// they all sit under jointly occupied prefixes; `self` holds at most
    /// one hash per such prefix plus its `extra` (every hash beyond the
    /// first under any prefix), and so does `other`. Sparse maps (a few
    /// thousand values) make it tight; a map with most bits set makes it
    /// `min(|A|, |B|)`, which bounds nothing and is still true.
    pub fn intersection_bound(&self, other: &ValueRun) -> usize {
        let joint: usize = self
            .occupancy
            .iter()
            .zip(other.occupancy.iter())
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum();
        (joint + self.extra.min(other.extra)).min(self.len()).min(other.len())
    }
}

/// A fixed-size MinHash sketch of a value set; the fraction of agreeing
/// slots between two sketches is an unbiased estimate of Jaccard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    mins: Vec<u64>,
    n_values: usize,
}

impl MinHash {
    /// An empty sketch with `k` permutations.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "sketch size must be positive");
        MinHash { mins: vec![u64::MAX; k], n_values: 0 }
    }

    /// Number of permutations.
    pub(crate) fn k(&self) -> usize {
        self.mins.len()
    }

    /// The `slot`-th permutation of a value hash: a multiply by an odd
    /// constant and a rotation, both derived from the slot number.
    fn permuted(slot: usize) -> impl Fn(u64) -> u64 {
        let multiplier = 0x9e37_79b9_7f4a_7c15 ^ ((slot as u64) << 1 | 1);
        let rotation = (slot % 63) as u32 + 1;
        move |value_hash| value_hash.wrapping_mul(multiplier).rotate_left(rotation)
    }

    /// Build a sketch from value hashes: each slot holds the least of its
    /// permutation over every hash. Slot-major: a slot's permutation constants are derived
    /// once and its minimum taken over all hashes, instead of re-deriving
    /// every slot's constants for every hash.
    pub fn from_hashes<I: IntoIterator<Item = u64>>(k: usize, iter: I) -> Self {
        // Slots whose minima one pass over the hashes takes together. A
        // lone running minimum is one chain of dependent compares, which
        // leaves the multiplier idle: 84 ns per hash for 128 slots against
        // 61 ns in eights.
        const SLOTS_PER_PASS: usize = 8;
        let hashes: Vec<u64> = iter.into_iter().collect();
        let mut s = MinHash::new(k);
        s.n_values = hashes.len();
        for (pass, slots) in s.mins.chunks_mut(SLOTS_PER_PASS).enumerate() {
            let permuted: [_; SLOTS_PER_PASS] =
                std::array::from_fn(|j| Self::permuted(pass * SLOTS_PER_PASS + j));
            let mut mins = [u64::MAX; SLOTS_PER_PASS];
            for &h in &hashes {
                for (min, permuted) in mins.iter_mut().zip(&permuted) {
                    *min = (*min).min(permuted(h));
                }
            }
            slots.copy_from_slice(&mins[..slots.len()]);
        }
        s
    }

    /// Estimated Jaccard similarity with another sketch of the same size.
    pub fn jaccard(&self, other: &MinHash) -> f64 {
        assert_eq!(self.k(), other.k(), "sketch sizes must match");
        if self.n_values == 0 && other.n_values == 0 {
            return 0.0;
        }
        let agree = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.k() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MinHash {
        /// Number of values inserted (with multiplicity).
        pub(crate) fn n_values(&self) -> usize {
            self.n_values
        }

        /// Insert one value hash, one slot at a time: the reference
        /// [`from_hashes`](MinHash::from_hashes) must equal.
        fn insert(&mut self, value_hash: u64) {
            self.n_values += 1;
            for (i, slot) in self.mins.iter_mut().enumerate() {
                *slot = (*slot).min(Self::permuted(i)(value_hash));
            }
        }
    }

    fn set(values: impl IntoIterator<Item = u64>) -> HashSet<u64> {
        values.into_iter().collect()
    }

    #[test]
    fn jaccard_basics() {
        let a = set([1, 2, 3]);
        let b = set([2, 3, 4]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&set([]), &set([])), 0.0);
        assert_eq!(jaccard(&a, &set([])), 0.0);
    }

    #[test]
    fn containment_is_asymmetric() {
        let fk = set([1, 2]);
        let pk = set([1, 2, 3, 4]);
        assert_eq!(containment(&fk, &pk), 1.0);
        assert_eq!(containment(&pk, &fk), 0.5);
        assert_eq!(containment(&set([]), &pk), 0.0);
    }

    #[test]
    fn stable_hash_is_deterministic_and_spread() {
        assert_eq!(stable_hash(b"abc"), stable_hash(b"abc"));
        assert_ne!(stable_hash(b"abc"), stable_hash(b"abd"));
    }

    #[test]
    fn hash_value_matches_types() {
        assert_eq!(hash_value(&42i64), hash_value(&42i64));
        assert_ne!(hash_value(&42i64), hash_value(&43i64));
        assert_eq!(hash_value(&"x"), hash_value(&"x"));
    }

    #[test]
    fn minhash_identical_sets_estimate_one() {
        let hashes: Vec<u64> = (0..500u64).map(|i| stable_hash(&i.to_le_bytes())).collect();
        let a = MinHash::from_hashes(128, hashes.iter().copied());
        let b = MinHash::from_hashes(128, hashes.iter().copied());
        assert_eq!(a.jaccard(&b), 1.0);
    }

    #[test]
    fn minhash_disjoint_sets_estimate_near_zero() {
        let a = MinHash::from_hashes(128, (0..500u64).map(|i| stable_hash(&i.to_le_bytes())));
        let b = MinHash::from_hashes(
            128,
            (1000..1500u64).map(|i| stable_hash(&i.to_le_bytes())),
        );
        assert!(a.jaccard(&b) < 0.1);
    }

    #[test]
    fn minhash_estimates_half_overlap() {
        let a = MinHash::from_hashes(256, (0..1000u64).map(|i| stable_hash(&i.to_le_bytes())));
        let b = MinHash::from_hashes(
            256,
            (500..1500u64).map(|i| stable_hash(&i.to_le_bytes())),
        );
        // True Jaccard = 500/1500 ≈ 0.333.
        let est = a.jaccard(&b);
        assert!((est - 1.0 / 3.0).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn from_hashes_equals_folding_insert() {
        let hashes: Vec<u64> = (0..777u64).map(|i| stable_hash(&(i % 500).to_le_bytes())).collect();
        for k in [1, 7, 64, 128, 256] {
            for n in [0, 1, 9, hashes.len()] {
                let mut folded = MinHash::new(k);
                hashes[..n].iter().for_each(|&h| folded.insert(h));
                assert_eq!(MinHash::from_hashes(k, hashes[..n].iter().copied()), folded, "k {k} n {n}");
            }
        }
    }

    fn run(values: impl IntoIterator<Item = u64>) -> ValueRun {
        ValueRun::from_unsorted(values.into_iter().collect())
    }

    #[test]
    fn value_run_is_the_sorted_set() {
        let r = run([9, 3, 3, u64::MAX, 0, 9]);
        assert_eq!(r.hashes(), &[0, 3, 9, u64::MAX]);
        assert_eq!(r.len(), 4);
        assert!(run([]).hashes().is_empty());
        // 0, 3 and 9 share the prefix 0: two of them are extra.
        assert_eq!(r.extra, 2);
        assert_eq!(r.occupancy.iter().map(|w| w.count_ones()).sum::<u32>(), 2);
    }

    #[test]
    fn intersection_len_counts_shared_hashes() {
        let spread = |i: u64| stable_hash(&i.to_le_bytes());
        let a = run((0..1000).map(spread));
        let b = run((600..2500).map(spread));
        assert_eq!(a.intersection_len(&b), 400);
        assert_eq!(b.intersection_len(&a), 400);
        assert_eq!(a.intersection_len(&a), 1000);
        assert_eq!(a.intersection_len(&run([])), 0);
        assert_eq!(run([]).intersection_len(&run([])), 0);
        assert_eq!(run([5]).intersection_len(&run([5])), 1);
        assert_eq!(run([u64::MAX]).intersection_len(&run([0, u64::MAX])), 1);
    }

    #[test]
    fn intersection_bound_holds_tightens_and_saturates() {
        let spread = |i: u64| stable_hash(&i.to_le_bytes());
        let sets: Vec<ValueRun> = [0..0u64, 0..1, 0..40, 20..60, 0..4000, 3000..7000, 50_000..54_000, 0..70_000, 60_000..130_000]
            .into_iter()
            .map(|r| run(r.map(spread)))
            .collect();
        for a in &sets {
            for b in &sets {
                let (shared, bound) = (a.intersection_len(b), a.intersection_bound(b));
                assert!(shared <= bound && bound <= a.len().min(b.len()), "{shared} ≤ {bound}");
                assert_eq!(bound, b.intersection_bound(a));
            }
        }
        // Sparse maps discriminate: two disjoint 4 000-value sets.
        assert!(sets[4].intersection_bound(&sets[6]) < 600);
        // Full maps do not, and say so by bounding nothing.
        assert!(sets[7].intersection_bound(&sets[8]) > 45_000);
        // Hashes that all share one prefix: the map has one bit and `extra`
        // carries the bound.
        let (low, high) = (run(0..100), run(50..300));
        assert_eq!(low.intersection_len(&high), 50);
        assert_eq!(low.intersection_bound(&high), 100);
    }

    #[test]
    fn minhash_duplicates_do_not_change_sketch() {
        let mut a = MinHash::new(64);
        let mut b = MinHash::new(64);
        for i in 0..100u64 {
            let h = stable_hash(&i.to_le_bytes());
            a.insert(h);
            b.insert(h);
            b.insert(h); // duplicate
        }
        assert_eq!(a.jaccard(&b), 1.0);
        assert_eq!(b.n_values(), 200);
    }

    #[test]
    #[should_panic(expected = "sketch sizes must match")]
    fn mismatched_sketch_sizes_panic() {
        MinHash::new(8).jaccard(&MinHash::new(16));
    }

    #[test]
    fn empty_sketches_score_zero() {
        assert_eq!(MinHash::new(8).jaccard(&MinHash::new(8)), 0.0);
    }
}
