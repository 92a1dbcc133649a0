//! The scoring kernels against an independent reference, to the bit.
//!
//! `oracle` is the row-at-a-time `Option<u32>` counting the estimators used
//! before they moved to dense bin codes: one branch per row, scattered
//! increments, fresh tables per pair — slow and obviously correct. Every
//! public estimator must reproduce it exactly on inputs the discovery
//! fixtures never produce: all-missing columns, missing on one side only, a
//! single bin, 0/1/2 rows, `MAX_BINS` bins, and selected sets around every
//! multiple of the batch width.

use autofeat::metrics::discretize::{discretize_equal_frequency, Discretized, MAX_BINS};
use autofeat::metrics::entropy::{conditional_entropy, entropy, joint_entropy};
use autofeat::metrics::mi::{
    conditional_mutual_information, conditional_mutual_information_corrected, mi_and_cmi,
    mutual_information, mutual_information_corrected,
};
use autofeat::metrics::redundancy::{RedundancyMethod, RedundancyScorer};
use autofeat::metrics::selection::select_non_redundant;
use proptest::prelude::*;

mod oracle {
    use super::{Discretized, RedundancyMethod};

    const LN_2: f64 = std::f64::consts::LN_2;

    /// A column the way the kernels used to store it.
    pub struct Col {
        pub codes: Vec<Option<u32>>,
        pub n_bins: usize,
    }

    impl Col {
        pub fn of(d: &Discretized) -> Col {
            Col { codes: (0..d.len()).map(|i| d.code(i)).collect(), n_bins: d.n_bins() as usize }
        }
    }

    fn h_from_counts(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        let mut h = 0.0;
        for &c in counts {
            if c > 0 {
                let p = c as f64 / n;
                h -= p * p.ln();
            }
        }
        h / LN_2
    }

    pub fn entropy(x: &Col) -> f64 {
        let mut counts = vec![0usize; x.n_bins];
        let mut total = 0;
        for c in x.codes.iter().flatten() {
            counts[*c as usize] += 1;
            total += 1;
        }
        h_from_counts(&counts, total)
    }

    struct Joint {
        joint: Vec<usize>,
        mx: Vec<usize>,
        my: Vec<usize>,
        total: usize,
    }

    /// Counts over the rows of `rows` where both are present.
    fn joint_over(x: &Col, y: &Col, rows: impl Iterator<Item = usize>) -> Joint {
        let mut j = Joint {
            joint: vec![0; x.n_bins * y.n_bins],
            mx: vec![0; x.n_bins],
            my: vec![0; y.n_bins],
            total: 0,
        };
        for i in rows {
            if let (Some(a), Some(b)) = (x.codes[i], y.codes[i]) {
                j.joint[a as usize * y.n_bins + b as usize] += 1;
                j.mx[a as usize] += 1;
                j.my[b as usize] += 1;
                j.total += 1;
            }
        }
        j
    }

    fn joint(x: &Col, y: &Col) -> Joint {
        assert_eq!(x.codes.len(), y.codes.len());
        joint_over(x, y, 0..x.codes.len())
    }

    pub fn joint_entropy(x: &Col, y: &Col) -> f64 {
        let j = joint(x, y);
        h_from_counts(&j.joint, j.total)
    }

    pub fn conditional_entropy(x: &Col, y: &Col) -> f64 {
        let j = joint(x, y);
        let h_y = h_from_counts(&j.my, j.total);
        h_from_counts(&j.joint, j.total) - h_y
    }

    fn mi_of(j: &Joint, corrected: bool) -> f64 {
        if j.total == 0 {
            return 0.0;
        }
        let ny = j.my.len();
        let n = j.total as f64;
        let mut mi = 0.0;
        for (a, &ma) in j.mx.iter().enumerate() {
            for b in 0..ny {
                let c = j.joint[a * ny + b];
                if c == 0 {
                    continue;
                }
                let pxy = c as f64 / n;
                let px = ma as f64 / n;
                let py = j.my[b] as f64 / n;
                mi += pxy * (pxy / (px * py)).ln();
            }
        }
        let raw = (mi / LN_2).max(0.0);
        if !corrected {
            return raw;
        }
        let kx = j.mx.iter().filter(|&&v| v > 0).count().max(1) as f64;
        let ky = j.my.iter().filter(|&&v| v > 0).count().max(1) as f64;
        (raw - (kx - 1.0) * (ky - 1.0) / (2.0 * n * LN_2)).max(0.0)
    }

    pub fn mi(x: &Col, y: &Col, corrected: bool) -> f64 {
        mi_of(&joint(x, y), corrected)
    }

    /// `Σ_z p(z)·I(X;Y|Z=z)`, one stratum at a time.
    pub fn cmi(x: &Col, y: &Col, z: &Col, corrected: bool) -> f64 {
        let n = x.codes.len();
        assert!(y.codes.len() == n && z.codes.len() == n);
        let present =
            |i: &usize| x.codes[*i].is_some() && y.codes[*i].is_some() && z.codes[*i].is_some();
        let total = (0..n).filter(present).count();
        if total == 0 {
            return 0.0;
        }
        let mut cmi = 0.0;
        for zc in 0..z.n_bins as u32 {
            let j = joint_over(x, y, (0..n).filter(|&i| z.codes[i] == Some(zc)));
            if j.total > 0 {
                cmi += (j.total as f64 / total as f64) * mi_of(&j, corrected);
            }
        }
        cmi.max(0.0)
    }

    /// `J(X_k)` of Eq. 1/2, term by term in `selected` order.
    pub fn score(method: RedundancyMethod, cand: &Col, selected: &[&Col], labels: &Col) -> f64 {
        let rel = mi(cand, labels, !method.needs_conditional());
        if selected.is_empty() {
            return rel;
        }
        let pair = |s: &Col| (mi(s, cand, false), cmi(s, cand, labels, false));
        match method {
            RedundancyMethod::Mifs { beta } => {
                rel - beta * selected.iter().map(|s| mi(s, cand, true)).sum::<f64>()
            }
            RedundancyMethod::Mrmr => {
                rel - selected.iter().map(|s| mi(s, cand, true)).sum::<f64>()
                    / selected.len() as f64
            }
            RedundancyMethod::Cife => selected.iter().fold(rel, |j, s| {
                let (mi, cmi) = pair(s);
                j - mi + cmi
            }),
            RedundancyMethod::Jmi => {
                let inv = 1.0 / selected.len() as f64;
                selected.iter().fold(rel, |j, s| {
                    let (mi, cmi) = pair(s);
                    j - inv * mi + inv * cmi
                })
            }
            RedundancyMethod::Cmim => {
                let worst = selected
                    .iter()
                    .map(|s| {
                        let (mi, cmi) = pair(s);
                        mi - cmi
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                rel - worst.max(0.0)
            }
        }
    }
}

use oracle::Col;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// `n` codes over `bins` values, each missing with probability
    /// `missing_pct` %.
    fn column(&mut self, n: usize, bins: u64, missing_pct: u64) -> Discretized {
        Discretized::from_codes((0..n).map(|_| {
            let r = self.next();
            (r % 100 >= missing_pct).then(|| ((r >> 8) % bins) as i64)
        }))
    }

    /// A column that follows `of` except on `noise_pct` % of the rows.
    fn echo(&mut self, of: &Discretized, noise_pct: u64) -> Discretized {
        Discretized::from_codes((0..of.len()).map(|i| {
            let r = self.next();
            if r % 100 < noise_pct {
                Some(((r >> 8) % 5) as i64)
            } else {
                of.code(i).map(i64::from)
            }
        }))
    }
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: got {got:e}, oracle {want:e}");
}

/// Every pairwise and three-way estimator on `(x, y, z)`.
fn check_estimators(x: &Discretized, y: &Discretized, z: &Discretized) {
    let (ox, oy, oz) = (Col::of(x), Col::of(y), Col::of(z));
    assert_bits("entropy", entropy(x), oracle::entropy(&ox));
    assert_bits("joint_entropy", joint_entropy(x, y), oracle::joint_entropy(&ox, &oy));
    assert_bits(
        "conditional_entropy",
        conditional_entropy(x, y),
        oracle::conditional_entropy(&ox, &oy),
    );
    assert_bits("mi", mutual_information(x, y), oracle::mi(&ox, &oy, false));
    assert_bits("mi corrected", mutual_information_corrected(x, y), oracle::mi(&ox, &oy, true));
    let cmi = oracle::cmi(&ox, &oy, &oz, false);
    assert_bits("cmi", conditional_mutual_information(x, y, z), cmi);
    assert_bits(
        "cmi corrected",
        conditional_mutual_information_corrected(x, y, z),
        oracle::cmi(&ox, &oy, &oz, true),
    );
    let (fused_mi, fused_cmi) = mi_and_cmi(x, y, z);
    assert_bits("fused mi", fused_mi, oracle::mi(&ox, &oy, false));
    assert_bits("fused cmi", fused_cmi, cmi);
}

/// What the early reject must not change: one exhaustive `J` per candidate.
fn exhaustive_selection(
    method: RedundancyMethod,
    candidates: &[Discretized],
    already: &[Discretized],
    labels: &Discretized,
) -> Vec<(usize, f64)> {
    let cols: Vec<Col> = candidates.iter().map(Col::of).collect();
    let prior: Vec<Col> = already.iter().map(Col::of).collect();
    let mut conditioning: Vec<&Col> = prior.iter().collect();
    let mut kept = Vec::new();
    for (i, c) in cols.iter().enumerate() {
        let j = oracle::score(method, c, &conditioning, &Col::of(labels));
        if j > 0.0 {
            kept.push((i, j));
            conditioning.push(c);
        }
    }
    kept
}

const ROWS: [usize; 6] = [0, 1, 2, 7, 64, 301];
const MISSING_PCT: [u64; 4] = [0, 15, 60, 100];

proptest! {
    /// Random shapes, including the degenerate corners of `ROWS` ×
    /// `MISSING_PCT` × a single bin.
    #[test]
    fn estimators_match_the_oracle(
        seed in 1u64..u64::MAX,
        shape in (0usize..6, 0usize..4, 0usize..4),
        bins in (1u64..13, 1u64..13, 1u64..5),
    ) {
        let mut rng = Rng(seed);
        let n = ROWS[shape.0];
        let x = rng.column(n, bins.0, MISSING_PCT[shape.1]);
        let y = rng.column(n, bins.1, MISSING_PCT[shape.2]);
        let z = rng.column(n, bins.2, MISSING_PCT[(shape.1 + shape.2) % 4]);
        check_estimators(&x, &y, &z);
        check_estimators(&y, &z, &x);
        // Dependent columns, and the binning the pipeline itself uses.
        let e = rng.echo(&x, 20);
        check_estimators(&e, &x, &z);
        let floats: Vec<f64> = (0..n)
            .map(|i| if i % 9 == 4 { f64::NAN } else { (rng.next() % 1000) as f64 / 3.0 })
            .collect();
        check_estimators(&discretize_equal_frequency(&floats, 10), &e, &y);
    }

    /// `J` under all five criteria for selected sets around every multiple of
    /// the batch width (4 columns per row pass).
    #[test]
    fn scores_match_the_oracle(seed in 1u64..u64::MAX, missing in 0usize..3) {
        let mut rng = Rng(seed);
        let n = 120;
        let labels = rng.column(n, 3, 0);
        let cand = rng.echo(&labels, 40);
        let pool: Vec<Discretized> = (0..14)
            .map(|k| match k % 3 {
                0 => rng.echo(&cand, 30),
                1 => rng.echo(&labels, 50),
                _ => rng.column(n, 2 + k as u64, MISSING_PCT[missing]),
            })
            .collect();
        let (oc, ol) = (Col::of(&cand), Col::of(&labels));
        let opool: Vec<Col> = pool.iter().map(Col::of).collect();
        for size in [0usize, 1, 3, 4, 5, 14] {
            let selected: Vec<&Discretized> = pool[..size].iter().collect();
            let oselected: Vec<&Col> = opool[..size].iter().collect();
            for method in RedundancyMethod::all() {
                let got = RedundancyScorer::new(method).score_codes(&cand, &selected, &labels);
                let want = oracle::score(method, &oc, &oselected, &ol);
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{} with |S| = {}: got {:e}, oracle {:e}", method.name(), size, got, want
                );
            }
        }
    }

    /// The early reject inside `select_non_redundant` changes neither the
    /// kept set nor a kept score, under any criterion.
    #[test]
    fn early_reject_preserves_the_selection(seed in 1u64..u64::MAX, n_prior in 0usize..11) {
        let mut rng = Rng(seed);
        let n = 150;
        let labels = rng.column(n, 2, 0);
        let prior: Vec<Discretized> = (0..n_prior)
            .map(|k| if k % 2 == 0 { rng.echo(&labels, 35) } else { rng.column(n, 6, 10) })
            .collect();
        let candidates: Vec<Discretized> = (0..9)
            .map(|k| match k % 3 {
                0 => rng.echo(&labels, 25 + 5 * k as u64),
                1 => rng.echo(prior.first().unwrap_or(&labels), 10),
                _ => rng.column(n, 4, 5),
            })
            .collect();
        let cands: Vec<(usize, &Discretized)> = candidates.iter().enumerate().collect();
        let mut methods = RedundancyMethod::all().to_vec();
        methods.push(RedundancyMethod::Mifs { beta: -0.5 });
        for method in methods {
            let kept = select_non_redundant(&cands, &prior, &labels, &RedundancyScorer::new(method));
            let got: Vec<(usize, u64)> = kept.iter().map(|s| (s.index, s.score.to_bits())).collect();
            let want: Vec<(usize, u64)> = exhaustive_selection(method, &candidates, &prior, &labels)
                .into_iter()
                .map(|(i, j)| (i, j.to_bits()))
                .collect();
            prop_assert!(
                got == want,
                "{} against {} prior feature(s): got {:?}, oracle {:?}", method.name(), n_prior, got, want
            );
        }
    }
}

/// 255 distinct codes: the widest column a `Discretized` can hold.
fn widest(rng: &mut Rng, n: usize) -> Discretized {
    let d = Discretized::from_codes((0..n).map(|i| {
        (!rng.next().is_multiple_of(10)).then_some(if i < 255 { i as i64 } else { (rng.next() % 255) as i64 })
    }));
    assert!(d.n_bins() <= MAX_BINS);
    d
}

#[test]
fn max_bins_columns_match_the_oracle() {
    let mut rng = Rng(77);
    let n = 700;
    let x = Discretized::from_codes((0..n).map(|i| Some((i % MAX_BINS as usize) as i64)));
    assert_eq!(x.n_bins(), MAX_BINS);
    let y = widest(&mut rng, n);
    let narrow = rng.column(n, 3, 10);
    // 256 · (≤256) · 4 cells: the flat three-way table.
    check_estimators(&x, &y, &narrow);
    check_estimators(&narrow, &x, &y);
    // 256 · 256 · 256 cells is over the flat budget: the gather fallback.
    check_estimators(&x, &y, &widest(&mut rng, n));
}

#[test]
#[should_panic(expected = "exceed MAX_BINS")]
fn from_codes_beyond_max_bins_fails_loudly() {
    Discretized::from_codes((0..=MAX_BINS as i64).map(Some));
}

#[test]
fn binning_clamps_the_requested_bin_count() {
    let values: Vec<f64> = (0..2000).map(|i| i as f64).collect();
    let d = discretize_equal_frequency(&values, 4000);
    assert_eq!(d.n_bins(), MAX_BINS);
    assert_eq!(d.n_present(), 2000);
}
