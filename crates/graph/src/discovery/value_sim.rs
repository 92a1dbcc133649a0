//! Instance-based (value-overlap) column similarity.
//!
//! Joinability is fundamentally about overlapping value sets (Def. IV.1:
//! "their intersection is non-empty"). A column profile keeps its exact
//! value set, at any size, as a [`ValueRun`] of value hashes: two runs
//! are overlapped by one merge and bounded, before that, by their
//! occupancy maps.

use autofeat_data::stable_hash::{key_hash, mix_u64};
use autofeat_data::Key;

/// The hash a profile keeps of a key: the data crate's [`key_hash`], the
/// one the dictionaries order their codes by, through the [`mix_u64`]
/// finalizer. A [`ValueRun`]'s occupancy map reads a hash's top 16 bits,
/// and FNV leaves those clustered for short keys; `mix_u64(·, 0)` is a
/// bijection, so a set's size and every intersection are FNV's own.
pub(crate) fn value_hash(key: &Key) -> u64 {
    mix_u64(key_hash(key), 0)
}

/// Bits in a [`ValueRun`]'s occupancy map: one per value of a hash's top 16
/// bits.
const OCCUPANCY_BITS: usize = 1 << 16;
const OCCUPANCY_WORDS: usize = OCCUPANCY_BITS / 64;

/// An exact set of value hashes, laid out for pairwise overlap counting: the
/// distinct hashes as a strictly ascending run, and a fixed
/// `OCCUPANCY_BITS`-bit map of which top-16-bit prefixes occur in it.
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

#[cfg(test)]
mod tests {
    use super::*;

    impl ValueRun {
        /// The distinct hashes, ascending.
        pub(crate) fn hashes(&self) -> &[u64] {
            &self.hashes
        }
    }

    /// The profile's hash of the integer key `i`.
    fn spread(i: u64) -> u64 {
        value_hash(&Key::Num(i as i64))
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
}
