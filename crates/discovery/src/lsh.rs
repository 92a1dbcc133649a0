//! LSH banding over MinHash sketches: find candidate joinable column pairs
//! without scoring all `O(C²)` column combinations (the trick behind
//! Lazo-style joinability discovery at data-lake scale).
//!
//! A sketch of `k` slots is cut into `b` bands of `r` rows (`k = b·r`);
//! two columns collide when any band hashes identically. With Jaccard
//! similarity `s`, the collision probability is `1 − (1 − s^r)^b` — an
//! S-curve whose threshold is tuned by `(b, r)`.
//!
//! The index is mutable: `insert` is idempotent per id and `remove` undoes
//! an insertion, so a lake can churn tables without rebuilding the index.
//! Buckets larger than `bucket_cap` (constant or low-cardinality columns
//! all sketch alike and pile into one bucket) are excluded from candidate
//! generation instead of expanding `O(|bucket|²)` pairs; each skip is
//! counted under `match.lsh_bucket_overflow`. `insert`/`remove` report the
//! buckets whose size crossed the cap so incremental maintainers can
//! rescore exactly the pairs whose candidacy flipped.

use std::collections::HashMap;

use crate::profile::{ColumnProfile, DEFAULT_SKETCH_K};
use crate::value_sim::stable_hash;

/// Largest bucket that still contributes candidate pairs. Beyond this the
/// bucket is treated as degenerate (constant/low-cardinality columns): it
/// is skipped entirely and counted under `match.lsh_bucket_overflow`.
pub const DEFAULT_BUCKET_CAP: usize = 256;

/// An LSH index over column profiles.
#[derive(Debug, Clone)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    bucket_cap: usize,
    /// (band, band-hash) → column ids (no duplicates; order immaterial).
    buckets: HashMap<(usize, u64), Vec<usize>>,
    /// id → its per-band hashes, recorded at insertion. Makes `insert`
    /// idempotent, enables `remove`, and lets `collides` run without
    /// re-hashing profiles.
    members: HashMap<usize, Vec<u64>>,
}

impl LshIndex {
    /// Build an index with `bands × rows` bands over the default sketch.
    ///
    /// # Panics
    /// If either dimension is zero, or if `bands × rows` exceeds
    /// [`DEFAULT_SKETCH_K`] — a larger product would silently truncate the
    /// trailing bands (hashing fewer slots than configured loses recall),
    /// so the configuration is rejected up front.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands >= 1 && rows >= 1, "bands and rows must be positive");
        assert!(
            bands * rows <= DEFAULT_SKETCH_K,
            "bands × rows ({bands}×{rows}) exceeds the {DEFAULT_SKETCH_K}-slot sketch; \
             the extra bands would be silently dropped"
        );
        LshIndex {
            bands,
            rows,
            bucket_cap: DEFAULT_BUCKET_CAP,
            buckets: HashMap::new(),
            members: HashMap::new(),
        }
    }

    /// A default tuned for the paper's 0.55 threshold: with a 128-slot
    /// sketch, 32 bands of 4 rows put the S-curve's steep section near
    /// s ≈ (1/b)^(1/r) = (1/32)^(1/4) ≈ 0.42 — safely recalling everything
    /// the 0.55 scorer would accept.
    pub fn paper_default() -> Self {
        LshIndex::new(32, 4)
    }

    /// The recall-heavy default used for DRG candidate generation: 64 bands
    /// of 2 rows put the S-curve midpoint near (1/64)^(1/2) ≈ 0.125, so even
    /// weak value overlap (Jaccard ≈ 0.2 collides with p ≈ 0.93; ≈ 0.3 with
    /// p ≈ 0.998) survives into full scoring. Precision is the scorer's job;
    /// the index only has to avoid dropping edges the 0.55 blend would keep.
    pub fn hybrid_default() -> Self {
        LshIndex::new(64, 2)
    }

    /// Replace the degenerate-bucket cap (see [`DEFAULT_BUCKET_CAP`]).
    pub fn with_bucket_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "bucket cap must be positive");
        self.bucket_cap = cap;
        self
    }

    /// The configured degenerate-bucket cap.
    pub fn bucket_cap(&self) -> usize {
        self.bucket_cap
    }

    /// Approximate Jaccard threshold of the S-curve midpoint.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    fn band_hashes(&self, profile: &ColumnProfile) -> Vec<u64> {
        let mins = profile.sketch_slots();
        if mins.len() < self.bands * self.rows {
            // `new()` guarantees default-size sketches fit; a caller-built
            // short sketch still clamps, but loudly.
            autofeat_obs::incr("match.lsh_sketch_clamped");
        }
        let mut out = Vec::with_capacity(self.bands);
        for b in 0..self.bands {
            let start = b * self.rows;
            if start + self.rows > mins.len() {
                break;
            }
            let mut bytes = Vec::with_capacity(self.rows * 8);
            for &m in &mins[start..start + self.rows] {
                bytes.extend_from_slice(&m.to_le_bytes());
            }
            out.push(stable_hash(&bytes));
        }
        out
    }

    /// Insert a column profile under the caller's id. Re-inserting an id
    /// replaces its previous sketch (no double counting). Returns the
    /// buckets that grew past `bucket_cap` by this insertion — the pairs
    /// they used to generate just lost candidacy.
    pub fn insert(&mut self, id: usize, profile: &ColumnProfile) -> Vec<(usize, u64)> {
        if self.members.contains_key(&id) {
            self.remove(id);
        }
        let hashes = self.band_hashes(profile);
        let mut crossed = Vec::new();
        for (band, &h) in hashes.iter().enumerate() {
            let bucket = self.buckets.entry((band, h)).or_default();
            bucket.push(id);
            if bucket.len() == self.bucket_cap + 1 {
                crossed.push((band, h));
            }
        }
        self.members.insert(id, hashes);
        crossed
    }

    /// Remove an id inserted earlier; unknown ids are a no-op. Returns the
    /// buckets that shrank back to `bucket_cap` — their pairs just regained
    /// candidacy.
    pub fn remove(&mut self, id: usize) -> Vec<(usize, u64)> {
        let Some(hashes) = self.members.remove(&id) else {
            return Vec::new();
        };
        let mut uncrossed = Vec::new();
        for (band, h) in hashes.into_iter().enumerate() {
            if let Some(bucket) = self.buckets.get_mut(&(band, h)) {
                if let Some(pos) = bucket.iter().position(|&m| m == id) {
                    bucket.swap_remove(pos);
                }
                if bucket.len() == self.bucket_cap {
                    uncrossed.push((band, h));
                }
                if bucket.is_empty() {
                    self.buckets.remove(&(band, h));
                }
            }
        }
        uncrossed
    }

    /// Whether `id` is currently indexed.
    pub fn contains(&self, id: usize) -> bool {
        self.members.contains_key(&id)
    }

    /// Whether two indexed ids share at least one non-degenerate bucket.
    /// Unknown ids never collide. Degenerate (over-cap) buckets do not
    /// count — candidacy through them is what the cap exists to suppress.
    pub fn collides(&self, a: usize, b: usize) -> bool {
        let (Some(ha), Some(hb)) = (self.members.get(&a), self.members.get(&b)) else {
            return false;
        };
        ha.iter().zip(hb.iter()).enumerate().any(|(band, (x, y))| {
            x == y
                && self
                    .buckets
                    .get(&(band, *x))
                    .is_some_and(|bucket| bucket.len() <= self.bucket_cap)
        })
    }

    /// Current members of one bucket (empty slice if absent). Includes
    /// over-cap buckets — maintainers need them to find the pairs affected
    /// by a cap crossing.
    pub fn bucket_members(&self, band: usize, hash: u64) -> &[usize] {
        self.buckets.get(&(band, hash)).map_or(&[], Vec::as_slice)
    }

    /// Candidate ids colliding with `profile` in at least one band
    /// (deduplicated, ascending). Over-cap buckets are skipped and counted
    /// under `match.lsh_bucket_overflow`.
    pub fn query(&self, profile: &ColumnProfile) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (band, h) in self.band_hashes(profile).into_iter().enumerate() {
            if let Some(ids) = self.buckets.get(&(band, h)) {
                if ids.len() > self.bucket_cap {
                    autofeat_obs::incr("match.lsh_bucket_overflow");
                    continue;
                }
                out.extend_from_slice(ids);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of columns currently indexed.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Rough resident footprint in bytes (buckets + member records).
    pub fn resident_bytes(&self) -> usize {
        let bucket_bytes: usize = self
            .buckets
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<usize>() + 24)
            .sum();
        let member_bytes: usize = self
            .members
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<u64>() + 32)
            .sum();
        bucket_bytes + member_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::Column;

    fn profile(name: &str, values: std::ops::Range<i64>) -> ColumnProfile {
        let col = Column::from_ints(values.map(Some).collect::<Vec<_>>());
        ColumnProfile::build("t", name, &col)
    }

    #[test]
    fn identical_columns_always_collide() {
        let a = profile("a", 0..500);
        let b = profile("b", 0..500);
        let mut idx = LshIndex::paper_default();
        idx.insert(0, &a);
        assert_eq!(idx.query(&b), vec![0]);
    }

    #[test]
    fn disjoint_columns_rarely_collide() {
        let a = profile("a", 0..500);
        let b = profile("b", 10_000..10_500);
        let mut idx = LshIndex::paper_default();
        idx.insert(0, &a);
        assert!(idx.query(&b).is_empty(), "disjoint sets should not collide");
    }

    #[test]
    fn high_overlap_collides() {
        // 80% overlap ⇒ Jaccard ≈ 2/3, far above the ~0.42 S-curve midpoint.
        let a = profile("a", 0..1000);
        let b = profile("b", 200..1200);
        let mut idx = LshIndex::paper_default();
        idx.insert(0, &a);
        assert_eq!(idx.query(&b), vec![0]);
    }

    #[test]
    fn collides_pairs_only_overlapping_members() {
        let mut idx = LshIndex::paper_default();
        idx.insert(0, &profile("a", 0..300));
        idx.insert(1, &profile("b", 0..300));
        idx.insert(2, &profile("c", 50_000..50_300));
        assert!(idx.collides(0, 1) && idx.collides(1, 0));
        assert!(!idx.collides(0, 2));
        assert!(!idx.collides(1, 2));
        assert!(!idx.collides(0, 99), "unknown ids never collide");
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn threshold_formula() {
        let idx = LshIndex::new(32, 4);
        assert!((idx.threshold() - (1.0f64 / 32.0).powf(0.25)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bands_panics() {
        LshIndex::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128-slot sketch")]
    fn oversized_banding_rejected_at_new() {
        // 64 × 4 = 256 > 128 slots: the old code silently hashed only the
        // first 32 bands; now the configuration is rejected up front.
        LshIndex::new(64, 4);
    }

    #[test]
    fn repeated_insert_is_idempotent() {
        let mut idx = LshIndex::paper_default();
        let a = profile("a", 0..300);
        idx.insert(0, &a);
        idx.insert(0, &a);
        idx.insert(0, &a);
        assert_eq!(idx.len(), 1, "re-inserting an id must not double count");
        assert_eq!(idx.query(&profile("b", 0..300)), vec![0]);
    }

    #[test]
    fn remove_undoes_insert() {
        let mut idx = LshIndex::paper_default();
        idx.insert(0, &profile("a", 0..300));
        idx.insert(1, &profile("b", 0..300));
        assert!(idx.collides(0, 1));
        idx.remove(0);
        assert_eq!(idx.len(), 1);
        assert!(!idx.contains(0));
        assert!(!idx.collides(0, 1));
        assert_eq!(idx.query(&profile("c", 0..300)), vec![1]);
        // Removing an unknown id is a no-op.
        assert!(idx.remove(42).is_empty());
    }

    #[test]
    fn bucket_cap_suppresses_degenerate_buckets() {
        // Three identical columns with a cap of 2: every shared bucket is
        // over cap, so no pair collides and a query finds nothing.
        let mut idx = LshIndex::paper_default().with_bucket_cap(2);
        for id in 0..3 {
            idx.insert(id, &profile("x", 0..300));
        }
        assert!((0..3).all(|a| (0..3).all(|b| !idx.collides(a, b))));
        assert!(idx.query(&profile("y", 0..300)).is_empty());
        // Dropping back under the cap restores candidacy.
        let uncrossed = idx.remove(2);
        assert!(!uncrossed.is_empty(), "removal must report cap re-crossings");
        assert!(idx.collides(0, 1));
        assert_eq!(idx.query(&profile("y", 0..300)), vec![0, 1]);
    }

    #[test]
    fn insert_reports_cap_crossings() {
        let mut idx = LshIndex::paper_default().with_bucket_cap(2);
        idx.insert(0, &profile("x", 0..300));
        idx.insert(1, &profile("x", 0..300));
        let crossed = idx.insert(2, &profile("x", 0..300));
        assert!(!crossed.is_empty(), "third identical column crosses cap 2");
        for &(band, h) in &crossed {
            assert_eq!(idx.bucket_members(band, h).len(), 3);
        }
    }
}
