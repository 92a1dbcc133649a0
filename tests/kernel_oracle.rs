//! The scoring kernels against an independent reference, to the bit.
//!
//! `oracle` is the row-at-a-time `Option<u32>` counting the estimators used
//! before they moved to dense bin codes: one branch per row, scattered
//! increments, fresh tables per pair — slow and obviously correct. Every
//! public estimator must reproduce it exactly on inputs the discovery
//! fixtures never produce: all-missing columns, missing on one side only, a
//! single bin, 0/1/2 rows, `MAX_BINS` bins, and selected sets around every
//! multiple of the batch width — as a plain slice and as a `SelectedSet`,
//! which counts two neighbours per increment and must not move a bit — and
//! sets binned as the pipeline bins them, whose tables read their MI terms
//! from rows kept across the call (one row when each axis has one present
//! marginal), and pairs with and without holes against candidates of the
//! pipeline's width and of others, whose tables the pair collapse sums at a
//! fixed width or at any.
//!
//! `common::binning_oracle` is the same for equal-frequency binning: the
//! value sort and per-row search the bins were made with before they were
//! read off the Spearman sort.

use autofeat::metrics::discretize::{discretize_equal_frequency, Discretized, MAX_BINS};
use autofeat::metrics::entropy::{conditional_entropy, entropy, joint_entropy};
use autofeat::metrics::mi::{
    conditional_mutual_information, mi_and_cmi,
    mutual_information, mutual_information_corrected,
};
use autofeat::metrics::redundancy::{RedundancyMethod, RedundancyScorer};
use autofeat::metrics::relevance::RelevanceMethod;
use autofeat::metrics::selection::{
    select_k_best, select_k_best_binned, select_non_redundant, SelectedFeature, SelectedSet,
};
use proptest::prelude::*;

mod common;
use common::binning_oracle::{binning_oracle, Binned};

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
    pub fn cmi(x: &Col, y: &Col, z: &Col) -> f64 {
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
                cmi += (j.total as f64 / total as f64) * mi_of(&j, false);
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
        let pair = |s: &Col| (mi(s, cand, false), cmi(s, cand, labels));
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

    /// `n` distinct floats in random order (the row index breaks every tie).
    fn distinct(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|i| ((self.next() >> 22) as usize * n + i) as f64).collect()
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
    let cmi = oracle::cmi(&ox, &oy, &oz);
    assert_bits("cmi", conditional_mutual_information(x, y, z), cmi);
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

/// `members` selected in order under the names `m0, m1, …`.
fn set_of(members: &[Discretized]) -> SelectedSet {
    let mut set = SelectedSet::default();
    for (k, m) in members.iter().enumerate() {
        set.insert(&format!("m{k}"), m.clone());
    }
    set
}

/// `set` must select as the plain slice of its members does and as the
/// oracle's exhaustive loop does, kept index for kept index and bit for bit,
/// under MIFS (a rewarding β too) and MRMR, which count against the packed
/// columns, and — when `conditional` — under the three criteria that walk
/// the members one at a time.
fn check_set(set: &SelectedSet, candidates: &[Discretized], labels: &Discretized, conditional: bool) {
    let cands: Vec<(usize, &Discretized)> = candidates.iter().enumerate().collect();
    let mut methods = RedundancyMethod::all().to_vec();
    methods.push(RedundancyMethod::Mifs { beta: -0.5 });
    methods.retain(|m| conditional || !m.needs_conditional());
    for method in methods {
        let scorer = RedundancyScorer::new(method);
        let bits = |kept: Vec<SelectedFeature>| -> Vec<(usize, u64)> {
            kept.iter().map(|s| (s.index, s.score.to_bits())).collect()
        };
        let packed = bits(set.select_non_redundant(&cands, labels, &scorer));
        let plain = bits(select_non_redundant(&cands, set.codes(), labels, &scorer));
        let want: Vec<(usize, u64)> = exhaustive_selection(method, candidates, set.codes(), labels)
            .into_iter()
            .map(|(i, j)| (i, j.to_bits()))
            .collect();
        let what = format!("{} against {} member(s)", method.name(), set.len());
        assert_eq!(packed, plain, "{what}: set vs plain slice");
        assert_eq!(packed, want, "{what}: set vs oracle");
    }
}

fn binned(d: &Discretized) -> Binned {
    Binned { codes: (0..d.len()).map(|i| d.code(i)).collect(), n_bins: d.n_bins() }
}

/// `n` values of one of the shapes binning has a rule for, with `junk_pct` %
/// of the rows made `NaN` or `±inf`.
fn binning_column(rng: &mut Rng, n: usize, shape: usize, junk_pct: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let r = rng.next();
            if r % 100 < junk_pct {
                return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r >> 8) as usize % 3];
            }
            let r = r >> 16;
            match shape {
                // Continuous, both signs.
                0 => (r % 1_000_003) as f64 / 7.0 - 70_000.0,
                // Two decimals: ties sit on every quantile position.
                1 => (r % 37) as f64 / 100.0,
                // Exactly 10 and exactly 11 distinct values (once `n` allows).
                2 => ((i as u64 + r % 2 * 5) % 10) as f64 * 1.5,
                3 => ((i as u64 + r % 2 * 5) % 11) as f64 - 5.0,
                // Both zeros among a few small values: one key, one bin.
                4 => [-0.0, 0.0, -1.0, 1.0, 0.5][r as usize % 5] * ((r >> 8) % 4) as f64,
                // Mostly one value with a continuous tail.
                _ => if r.is_multiple_of(4) { (r % 9_973) as f64 } else { 42.0 },
            }
        })
        .collect()
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
            // The same prior as a `SelectedSet` rejects at unit-batch
            // boundaries — later, never differently.
            let in_set = set_of(&prior).select_non_redundant(&cands, &labels, &RedundancyScorer::new(method));
            prop_assert!(in_set == kept, "{} as a set: {:?} vs {:?}", method.name(), in_set, kept);
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

    /// A `SelectedSet` of 0..=17 members (every boundary of 2, 4 and 8, odd
    /// and even) of every shape it packs or leaves alone — missing on one
    /// side only, all-missing, a single bin, a 30-bin column that fits one
    /// code with a 6-bin neighbour and not with a 10-bin one — selects as the
    /// plain slice and the oracle do; so it does after its first, a middle or
    /// its last member has taken new codes in place, and after more members
    /// have arrived behind that. Several candidates are kept per call, so
    /// this step's tail of singles is scored against as well.
    #[test]
    fn selected_set_matches_the_plain_slice_and_the_oracle(
        seed in 1u64..u64::MAX,
        size in 0usize..18,
        replaced in 0usize..3,
        more in 0usize..4,
    ) {
        let mut rng = Rng(seed);
        let n = 90;
        let labels = rng.column(n, 2, 0);
        let member = |rng: &mut Rng, k: u64| match seed.wrapping_add(k) % 7 {
            0 => rng.echo(&labels, 35),
            1 => rng.column(n, 10, 0),
            2 => rng.column(n, 6, 40),
            3 => rng.column(n, 3, 100),
            4 => rng.column(n, 30, 5),
            5 => rng.column(n, 10, 15),
            _ => rng.column(n, 1, 5),
        };
        let members: Vec<Discretized> = (0..size as u64).map(|k| member(&mut rng, k)).collect();
        let candidates: Vec<Discretized> = (0..5)
            .map(|k| match k % 3 {
                0 => rng.echo(&labels, 25 + 5 * k as u64),
                1 => rng.echo(members.first().unwrap_or(&labels), 10),
                _ => rng.column(n, 4, 5),
            })
            .collect();
        let mut set = set_of(&members);
        prop_assert!(set.len() == size && set.codes() == &members[..]);
        check_set(&set, &candidates, &labels, false);
        if size > 0 {
            let at = [0, size / 2, size - 1][replaced];
            let fresh = member(&mut rng, at as u64 + 3);
            set.insert(&format!("m{at}"), fresh.clone());
            prop_assert!(set.len() == size && set.codes()[at] == fresh, "replaced in place");
            check_set(&set, &candidates, &labels, false);
        }
        for k in 0..more {
            let fresh = member(&mut rng, 40 + k as u64);
            set.insert(&format!("later{k}"), fresh);
        }
        prop_assert!(set.len() == size + more);
        check_set(&set, &candidates, &labels, true);
    }

    /// Members and candidates binned as `evaluate_hop` bins them —
    /// `discretize_equal_frequency` over distinct floats — so that each axis
    /// of most of their tables has one or two distinct present marginals and
    /// MIFS and MRMR read its terms from rows kept across the call: at fewer
    /// rows than bins (7), at one bin size (90, 1 000) and at two (1 003).
    /// Beside them sit members with missing rows — one whose holes no
    /// candidate shares (its tables take the per-cell loop), one whose holes
    /// a candidate shares (their table has two bin sizes under a third
    /// total) — and `A'`, the member `A` with its top bin missing. The first
    /// candidate's top bin is exactly `A`'s, so its table with `A'` has the
    /// marginals of its tables with `A` and the next member, under a smaller
    /// total, right after them in the same scratch. That candidate follows
    /// the label and is kept, so its `J` carries the terms of all three.
    #[test]
    fn equal_frequency_sets_match_the_oracle(seed in 1u64..u64::MAX, rows in 0usize..4, extra in 0usize..5) {
        let mut rng = Rng(seed);
        let n = [7, 90, 1_000, 1_003][rows];
        let bin = |x: &[f64]| discretize_equal_frequency(x, 10);
        let holes =
            |rng: &mut Rng, pct: u64| -> Vec<bool> { (0..n).map(|_| rng.next() % 100 < pct).collect() };
        let punched = |x: Vec<f64>, holes: &[bool]| -> Vec<f64> {
            x.into_iter().zip(holes).map(|(v, &hole)| if hole { f64::NAN } else { v }).collect()
        };
        let signal = rng.distinct(n);
        let labels = discretize_equal_frequency(&signal, 2);
        let a = bin(&rng.distinct(n));
        let top = a.n_bins() - 1;
        let a_without_top =
            Discretized::from_codes((0..n).map(|i| a.code(i).filter(|&c| c != top).map(i64::from)));
        let (lone, shared) = (holes(&mut rng, 15), holes(&mut rng, 20));
        let mut members = vec![
            a.clone(),
            bin(&rng.distinct(n)),
            a_without_top,
            bin(&punched(rng.distinct(n), &lone)),
            bin(&punched(rng.distinct(n), &shared)),
        ];
        members.extend((0..extra).map(|_| bin(&rng.distinct(n))));
        // `signal`, but with `A`'s top bin lifted above every other value
        // (exactly: each is below 2^52).
        let lifted: Vec<f64> = signal
            .iter()
            .enumerate()
            .map(|(i, &s)| if a.code(i) == Some(top) { s + 4_503_599_627_370_496.0 } else { s })
            .collect();
        let other = rng.distinct(n);
        let echo: Vec<f64> =
            signal.iter().zip(&other).map(|(&s, &o)| if rng.next() % 100 < 30 { o } else { s }).collect();
        let candidates = vec![
            bin(&lifted),
            bin(&punched(rng.distinct(n), &shared)),
            bin(&echo),
            bin(&rng.distinct(n)),
        ];
        let cand_top = candidates[0].n_bins() - 1;
        prop_assert!(
            (0..n).all(|i| (candidates[0].code(i) == Some(cand_top)) == (a.code(i) == Some(top))),
            "the first candidate's top bin is A's"
        );
        let set = set_of(&members);
        check_set(&set, &candidates, &labels, true);
        if n >= 90 {
            let cands: Vec<(usize, &Discretized)> = candidates.iter().enumerate().collect();
            let mrmr = RedundancyScorer::new(RedundancyMethod::Mrmr);
            let kept = set.select_non_redundant(&cands, &labels, &mrmr);
            prop_assert!(kept.first().is_some_and(|s| s.index == 0), "the first candidate is kept: {kept:?}");
        }
    }

    /// A pair of members, one with holes and one without (in either order),
    /// against candidates with and without holes of their own: at the
    /// pipeline's 10 bins, whose pair tables take the fixed-width collapse,
    /// and at 2, 6 and 30, which take it at any width. Every table's
    /// marginals come from the features' rows per bin less its missing
    /// column or row. Binned over 1 000 distinct values, a table between
    /// null-free 10-bin columns has one present marginal per axis and reads
    /// one term row; over 1 003, two per axis and up to four rows; a holed
    /// side takes the per-cell loop.
    #[test]
    fn holed_pairs_match_the_oracle(seed in 1u64..u64::MAX, rows in 0usize..2, holed_first in 0usize..2) {
        let mut rng = Rng(seed);
        let n = [1_000, 1_003][rows];
        let holed = |rng: &mut Rng, bins: u32, pct: u64| {
            let x: Vec<f64> =
                rng.distinct(n).into_iter().map(|v| if rng.next() % 100 < pct { f64::NAN } else { v }).collect();
            discretize_equal_frequency(&x, bins)
        };
        let signal = rng.distinct(n);
        let labels = discretize_equal_frequency(&signal, 2);
        let mut members = vec![holed(&mut rng, 10, 0), holed(&mut rng, 10, 15)];
        if holed_first == 1 {
            members.reverse();
        }
        prop_assert!(members.iter().all(|m| m.n_bins() == 10));
        let mut candidates = vec![discretize_equal_frequency(&signal, 10)];
        for bins in [10, 2, 6, 30] {
            candidates.push(holed(&mut rng, bins, 0));
            candidates.push(holed(&mut rng, bins, 20));
        }
        let widths: Vec<u32> = candidates.iter().map(Discretized::n_bins).collect();
        prop_assert!(widths == [10, 10, 10, 2, 2, 6, 6, 30, 30], "{widths:?}");
        check_set(&set_of(&members), &candidates, &labels, true);
    }

    /// `discretize_equal_frequency`, and the codes the fused relevance entry
    /// hands back beside its picks, against the value-sort binning they
    /// replaced: code for code and `n_bins` for `n_bins`, on every shape the
    /// rule distinguishes, with and without non-finite rows, at 0/1/2 rows,
    /// and for a bin count beyond `MAX_BINS`. The fused entry picks and
    /// scores what `select_k_best` and `RelevanceMethod::scores` do.
    #[test]
    fn binning_matches_the_value_sort_oracle(
        seed in 1u64..u64::MAX,
        rows in 0usize..6,
        bins in 0usize..7,
        junk in 0usize..3,
    ) {
        let mut rng = Rng(seed);
        let n = ROWS[rows];
        let bins = [1u32, 2, 4, 10, 11, 200, 4000][bins];
        let junk_pct = [0, 12, 100][junk];
        let mut features: Vec<Vec<f64>> =
            (0..6).map(|shape| binning_column(&mut rng, n, shape, junk_pct)).collect();
        // A clean column beside the sprinkled ones, and a wide one for the
        // bin counts only > 255 distinct values can use.
        features.push(binning_column(&mut rng, n, 0, 0));
        for x in &features {
            let want = binning_oracle(x, bins);
            prop_assert!(
                binned(&discretize_equal_frequency(x, bins)) == want,
                "{} bins over {:?}", bins, x
            );
        }
        let labels: Vec<i64> = (0..n).map(|_| (rng.next() % 2) as i64).collect();
        for method in RelevanceMethod::all() {
            let (picked, codes) = select_k_best_binned(
                &features, &labels, method, features.len(), f64::NEG_INFINITY, bins,
            );
            let plain = select_k_best(&features, &labels, method, features.len(), f64::NEG_INFINITY);
            prop_assert!(picked == plain, "{}: picks {:?} vs {:?}", method.name(), picked, plain);
            let scores = method.scores(&features, &labels);
            prop_assert!(picked.len() == codes.len());
            for (s, d) in picked.iter().zip(&codes) {
                prop_assert!(s.score.to_bits() == scores[s.index].to_bits(), "{}", method.name());
                prop_assert!(
                    binned(d) == binning_oracle(&features[s.index], bins),
                    "{}: {} bins over feature {}: {:?}", method.name(), bins, s.index, features[s.index]
                );
            }
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

/// A `MAX_BINS`-wide member between 10-bin ones fits no code with either
/// (256 · 11 > 256) and is counted on its own; next to an all-missing column
/// (256 · 1) it does fit, with the largest code there is. The candidates are
/// binary, so that against 255 bins over 300 rows the Miller-Madow term does
/// not swallow the dependence and the wide member's share of `J` is not 0.
#[test]
fn a_max_bins_member_in_a_set_matches_the_oracle() {
    let mut rng = Rng(91);
    let n = 300;
    let labels = rng.column(n, 2, 0);
    let wide = Discretized::from_codes((0..n).map(|i| Some((i % MAX_BINS as usize) as i64)));
    assert_eq!(wide.n_bins(), MAX_BINS);
    let candidates: Vec<Discretized> = [15, 30]
        .iter()
        .map(|&flip_pct| {
            Discretized::from_codes((0..n).map(|i| {
                let r = rng.next();
                Some(if r % 100 < flip_pct { (r >> 8) % 2 } else { u64::from(labels.code(i).unwrap()) } as i64)
            }))
        })
        .collect();
    assert!(mutual_information_corrected(&wide, &candidates[0]) > 0.0);
    for at in 0..6 {
        let mut members: Vec<Discretized> = (0..6).map(|_| rng.column(n, 10, 10)).collect();
        members[at] = wide.clone();
        check_set(&set_of(&members), &candidates, &labels, true);
        members[at ^ 1] = rng.column(n, 3, 100);
        check_set(&set_of(&members), &candidates, &labels, false);
    }
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

