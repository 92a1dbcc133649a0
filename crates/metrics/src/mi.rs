//! Mutual information and conditional mutual information.
//!
//! `I(X;Y)` is the **information gain** of §V-C; `I(X;Y|Z)` is the
//! conditional information gain appearing in the unified redundancy
//! framework (Eq. 1). Both are estimated from contingency counts over the
//! rows where every involved feature is present, and reported in bits.
//!
//! A table between two whole features — every MI here, and every term of a
//! redundancy pass — takes its marginals from the features' rows per bin
//! (`Marginals::of_features`); only the strata of a conditional table sum
//! their cells. Tables a redundancy pass repeats read their terms from rows
//! kept across the pass (`Terms`), and one whose axes have one present
//! marginal each reads a single row.

use crate::contingency::{Marginals, Tables, Unit, BATCH};
use crate::discretize::{Discretized, MAX_BINS};

const LN_2: f64 = std::f64::consts::LN_2;

/// Term rows past this many cells are dropped before a table lays its own.
const TERM_CELLS: usize = 1 << 16;

/// One term of a plug-in MI, `pxy·ln(pxy/(px·py))`.
fn cell_term(pxy: f64, px: f64, py: f64) -> f64 {
    pxy * (pxy / (px * py)).ln()
}

/// The float side of the 2-way tables one scratch scores, and a count of it.
///
/// With `pxy = c/n`, `px = ma/n` and `py = mb/n`, a [`cell_term`] is a pure
/// function of four integers: the cell count `c`, its row and column
/// marginals `ma` and `mb`, and the total `n`. So a table may read its terms
/// from rows keyed by `(ma, mb)` under one `n` and indexed by `c`, each term
/// filled by the same expression the first time a table asks for it, and its
/// MI is the same to the bit. That pays where few rows serve many tables:
/// equal-frequency bins over a null-free column of distinct values all hold
/// ⌊n/B⌋ or ⌈n/B⌉ rows, so a table between two such columns has at most two
/// distinct present marginals per axis — at most four rows — and a whole
/// redundancy pass takes one `ln` per row and distinct count. A table with
/// more marginals on either axis (nulls, discrete values) takes one `ln` per
/// occupied cell and never touches the rows: it would not repeat. A table
/// with one present marginal per axis — `n` a multiple of `B` — reads one
/// row and lays out nothing per column.
#[derive(Default)]
pub(crate) struct Terms {
    /// The total every row was filled under.
    total: usize,
    /// `(ma, mb, start)`: the row's marginals, and where it starts in `cells`.
    rows: Vec<(usize, usize, usize)>,
    /// The rows back to back, `NaN` where no table has asked for the term.
    cells: Vec<f64>,
    /// Per row class of the table in hand, where each column's row starts.
    starts: Vec<usize>,
    /// 2-way tables scored.
    pub(crate) tables: u64,
    /// `ln`s evaluated.
    pub(crate) logs: u64,
}

/// The distinct non-zero values of `m` when there are at most two (`0` for
/// a value that is not there).
fn two_values(m: &[usize]) -> Option<[usize; 2]> {
    let mut v = [0; 2];
    for &x in m {
        if x == 0 || x == v[0] || x == v[1] {
            continue;
        }
        if v[0] == 0 {
            v[0] = x;
        } else if v[1] == 0 {
            v[1] = x;
        } else {
            return None;
        }
    }
    Some(v)
}

impl Terms {
    /// Plug-in MI in bits from the present cells `joint[a·stride + b]`. The
    /// accumulation order (x-major, skipping empty rows/cells) is the
    /// contract every caller — direct MI, per-stratum CMI, the fused
    /// estimator — relies on for bit-identical results. All counts are exact
    /// integers, so whichever pass filled them, the same counts give the same
    /// float, and a term read from a row is the float it was when filled.
    /// Only `tabulate` callers read rows: a table scored once would pay for
    /// them and gain nothing.
    fn mi(&mut self, joint: &[u32], stride: usize, m: &Marginals, total: usize, tabulate: bool) -> f64 {
        self.tables += 1;
        let classes = || Some((two_values(&m.x)?, two_values(&m.y)?));
        let mi = match tabulate.then(classes).flatten() {
            Some(([ma, 0], [mb, 0])) => self.one_row(joint, stride, m, (ma, mb), total),
            Some((vx, vy)) => self.tabulated(joint, stride, m, (vx, vy), total),
            None => self.each_cell(joint, stride, m, total),
        };
        (mi / LN_2).max(0.0)
    }

    /// One `ln` per occupied cell.
    fn each_cell(&mut self, joint: &[u32], stride: usize, m: &Marginals, total: usize) -> f64 {
        let n = total as f64;
        // One division per column, not per cell: the same quotient either way.
        let mut py = [0.0; MAX_BINS as usize];
        for (p, &mb) in py.iter_mut().zip(&m.y) {
            *p = mb as f64 / n;
        }
        let py = &py[..m.y.len()];
        let (mut mi, mut logs) = (0.0, 0);
        for (a, &ma) in m.x.iter().enumerate() {
            if ma == 0 {
                continue;
            }
            let px = ma as f64 / n;
            for (&c, &py) in joint[a * stride..][..m.y.len()].iter().zip(py) {
                if c == 0 {
                    continue;
                }
                mi += cell_term(c as f64 / n, px, py);
                logs += 1;
            }
        }
        self.logs += logs;
        mi
    }

    /// Every term read from the row of its `(ma, mb)`: `vx` and `vy` are the
    /// distinct present marginals of each axis.
    fn tabulated(
        &mut self,
        joint: &[u32],
        stride: usize,
        m: &Marginals,
        (vx, vy): ([usize; 2], [usize; 2]),
        total: usize,
    ) -> f64 {
        self.under(total);
        let mut start = [[0; 2]; 2];
        for (i, &ma) in vx.iter().enumerate().filter(|(_, &ma)| ma > 0) {
            for (j, &mb) in vy.iter().enumerate().filter(|(_, &mb)| mb > 0) {
                start[i][j] = self.row(ma, mb);
            }
        }
        let ny = m.y.len();
        self.starts.clear();
        for start in start {
            self.starts.extend(m.y.iter().map(|&mb| start[usize::from(mb == vy[1])]));
        }
        let n = total as f64;
        let (mut mi, mut logs) = (0.0, 0);
        for (a, &ma) in m.x.iter().enumerate() {
            if ma == 0 {
                continue;
            }
            let starts = &self.starts[usize::from(ma == vx[1]) * ny..][..ny];
            for ((&c, &start), &mb) in joint[a * stride..][..ny].iter().zip(starts).zip(&m.y) {
                if c == 0 {
                    continue;
                }
                let t = &mut self.cells[start + c as usize];
                if t.is_nan() {
                    *t = cell_term(c as f64 / n, ma as f64 / n, mb as f64 / n);
                    logs += 1;
                }
                mi += *t;
            }
        }
        self.logs += logs;
        mi
    }

    /// [`Terms::tabulated`] for a table whose present marginals are all `ma`
    /// on one axis and all `mb` on the other: every term is in one row.
    fn one_row(
        &mut self,
        joint: &[u32],
        stride: usize,
        m: &Marginals,
        (ma, mb): (usize, usize),
        total: usize,
    ) -> f64 {
        self.under(total);
        let start = self.row(ma, mb);
        let cells = &mut self.cells[start..][..=ma.min(mb)];
        let (n, ny) = (total as f64, m.y.len());
        let (mut mi, mut logs) = (0.0, 0);
        for (a, _) in m.x.iter().enumerate().filter(|(_, &rows)| rows > 0) {
            for &c in joint[a * stride..][..ny].iter().filter(|&&c| c > 0) {
                let t = &mut cells[c as usize];
                if t.is_nan() {
                    *t = cell_term(c as f64 / n, ma as f64 / n, mb as f64 / n);
                    logs += 1;
                }
                mi += *t;
            }
        }
        self.logs += logs;
        mi
    }

    /// Keep the rows when they were filled under `total`; a full scratch
    /// starts over.
    fn under(&mut self, total: usize) {
        // The same counts under another total are other terms.
        if total != self.total || self.cells.len() > TERM_CELLS {
            self.total = total;
            self.rows.clear();
            self.cells.clear();
        }
    }

    /// Where the row of `(ma, mb)` under `self.total` starts, laid out the
    /// first time it is asked for.
    fn row(&mut self, ma: usize, mb: usize) -> usize {
        if let Some(&(.., start)) = self.rows.iter().find(|r| (r.0, r.1) == (ma, mb)) {
            return start;
        }
        let start = self.cells.len();
        // A count never exceeds either of its marginals.
        self.cells.resize(start + ma.min(mb) + 1, f64::NAN);
        self.rows.push((ma, mb, start));
        start
    }
}

/// Miller-Madow first-order bias for a contingency slice: occupied-bin
/// counts come straight from the marginals (a bin is occupied iff its
/// marginal is non-zero over the same rows).
fn miller_madow_bias(mx: &[usize], my: &[usize], total: usize) -> f64 {
    let kx = mx.iter().filter(|&&v| v > 0).count().max(1) as f64;
    let ky = my.iter().filter(|&&v| v > 0).count().max(1) as f64;
    (kx - 1.0) * (ky - 1.0) / (2.0 * total as f64 * LN_2)
}

/// The plug-in or Miller-Madow-corrected MI of one table over its `total`
/// jointly-present rows, whose marginals are `m` (0 when there are none).
/// `tabulate` as in [`Terms::mi`].
fn mi_of_table(
    joint: &[u32],
    stride: usize,
    (m, total): (&Marginals, usize),
    corrected: bool,
    terms: &mut Terms,
    tabulate: bool,
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let raw = terms.mi(joint, stride, m, total, tabulate);
    if corrected { (raw - miller_madow_bias(&m.x, &m.y, total)).max(0.0) } else { raw }
}

/// `(rows, I)` of the table `joint` of a whole feature `x` against a whole
/// feature `y`, given as their rows per code: the jointly-present row count
/// and [`mi_of_table`] over them.
fn mi_of_features(
    joint: &[u32],
    (x, y): (&[u32], &[u32]),
    corrected: bool,
    m: &mut Marginals,
    terms: &mut Terms,
    tabulate: bool,
) -> (usize, f64) {
    let stride = y.len();
    let total = m.of_features(joint, stride, x, y);
    (total, mi_of_table(joint, stride, (m, total), corrected, terms, tabulate))
}

/// `I(X;Y)` on caller-owned tables.
pub(crate) fn mi_with(t: &mut Tables, x: &Discretized, y: &Discretized, corrected: bool) -> f64 {
    let off = t.fill_pairs(&[x.axis()], y)[0];
    let axes = (x.counts(), y.counts());
    mi_of_features(&t.counts[off..], axes, corrected, &mut t.m, &mut t.terms, false).1
}

/// Miller-Madow `I(X_j;Y)` of every feature of up to [`BATCH`] `units`
/// against one `y`, handed to `term` in selection order. A full batch shares
/// a single pass over the rows, and a pair costs that pass one increment for
/// its two features. These are the tables a redundancy pass repeats, so they
/// read their terms from `t`'s rows where the marginals allow ([`Terms`]).
pub(crate) fn mi_units(t: &mut Tables, units: &[Unit], y: &Discretized, mut term: impl FnMut(f64)) {
    let sy = y.axis().1;
    let mi = |joint: &[u32], x: &Discretized, m: &mut Marginals, terms: &mut Terms| {
        mi_of_features(joint, (x.counts(), y.counts()), true, m, terms, true).1
    };
    let mut axes = [(&[][..], 0); BATCH];
    for (axis, unit) in axes.iter_mut().zip(units) {
        *axis = unit.axis();
    }
    let offs = t.fill_pairs(&axes[..units.len()], y);
    for (unit, off) in units.iter().zip(offs) {
        match *unit {
            Unit::Single(x) => term(mi(&t.counts[off..], x, &mut t.m, &mut t.terms)),
            Unit::Pair { a, b, .. } => {
                let wa = a.axis().1;
                t.collapse_pair(off, wa, b.axis().1, sy);
                term(mi(&t.joint, a, &mut t.m, &mut t.terms));
                term(mi(&t.joint[wa * sy..], b, &mut t.m, &mut t.terms));
            }
        }
    }
}

/// Mutual information `I(X;Y)` in bits. Symmetric; zero for independent
/// features; never negative (up to floating-point noise, which is clamped).
pub fn mutual_information(x: &Discretized, y: &Discretized) -> f64 {
    mi_with(&mut Tables::default(), x, y, false)
}

/// Miller-Madow bias-corrected mutual information.
///
/// The plug-in MI estimator is positively biased by roughly
/// `(Bx−1)(By−1) / (2N ln 2)` bits for `Bx × By` occupied cells over `N`
/// samples — enough to drown weak real dependencies and to make independent
/// features look redundant. This subtracts that first-order correction
/// (clamped at zero). The redundancy criteria use it for every term so weak
/// fresh features are not spuriously rejected.
pub fn mutual_information_corrected(x: &Discretized, y: &Discretized) -> f64 {
    mi_with(&mut Tables::default(), x, y, true)
}

/// Cell budget for the flat conditional contingency array (16 MiB of
/// `u32`s), counting the missing bin on every axis: `(nx+1)(ny+1)(nz+1)`
/// cells. Within budget the whole CMI is one row pass plus cheap per-stratum
/// slice loops; beyond it the gather-per-stratum fallback keeps memory
/// bounded. Both produce identical counts, hence identical floats.
const FLAT_CMI_MAX_CELLS: usize = 1 << 22;

fn fits_flat(x: &Discretized, y: &Discretized, z: &Discretized) -> bool {
    [x, y, z].iter().map(|d| d.n_bins() as usize + 1).product::<usize>() <= FLAT_CMI_MAX_CELLS
}

/// Conditional mutual information `I(X;Y|Z) = Σ_z p(z)·I(X;Y|Z=z)` in bits.
pub fn conditional_mutual_information(
    x: &Discretized,
    y: &Discretized,
    z: &Discretized,
) -> f64 {
    cmi_impl(x, y, z)
}

/// One pass fills the 3-way table `counts[a·slab + c·(ny+1) + b]` of
/// `(x, z, y)`; each z-stratum is then the strided slice starting at
/// `c·(ny+1)` — no per-stratum row gathering or re-counting. The stratum
/// `c = nz` holds the rows where z is missing.
fn fill_conditional(t: &mut Tables, x: &Discretized, y: &Discretized, z: &Discretized) {
    assert_eq!(z.len(), y.len(), "feature length mismatch");
    let sy = y.n_bins() as usize + 1;
    let (yc, zc) = (y.codes(), z.codes());
    let slab = (z.n_bins() as usize + 1) * sy;
    t.fill(&[x.axis()], yc.len(), slab, |i| zc[i] as usize * sy + yc[i] as usize);
}

/// `Σ_z p(z)·I(X;Y|Z=z)` from the table [`fill_conditional`] left in `t`,
/// strata in ascending z, empty ones skipped.
fn cmi_from_table(t: &mut Tables, (nx, ny, nz): (usize, usize, usize)) -> f64 {
    let sy = ny + 1;
    let slab = (nz + 1) * sy;
    let total: usize = (0..nz).map(|c| t.m.of(&t.counts[c * sy..], slab, nx, ny)).sum();
    if total == 0 {
        return 0.0;
    }
    let mut cmi = 0.0;
    for c in 0..nz {
        let stratum = &t.counts[c * sy..];
        let n_z = t.m.of(stratum, slab, nx, ny);
        if n_z > 0 {
            let mi_z = mi_of_table(stratum, slab, (&t.m, n_z), false, &mut t.terms, false);
            cmi += (n_z as f64 / total as f64) * mi_z;
        }
    }
    cmi.max(0.0)
}

fn dims(x: &Discretized, y: &Discretized, z: &Discretized) -> (usize, usize, usize) {
    (x.n_bins() as usize, y.n_bins() as usize, z.n_bins() as usize)
}

fn cmi_impl(x: &Discretized, y: &Discretized, z: &Discretized) -> f64 {
    if !fits_flat(x, y, z) {
        return cmi_gather(x, y, z);
    }
    let mut t = Tables::default();
    fill_conditional(&mut t, x, y, z);
    cmi_from_table(&mut t, dims(x, y, z))
}

/// Fallback CMI for bin counts whose flat table would not fit the budget:
/// partition rows by z and score each stratum from gathered sub-codes.
fn cmi_gather(x: &Discretized, y: &Discretized, z: &Discretized) -> f64 {
    assert_eq!(x.len(), y.len(), "feature length mismatch");
    assert_eq!(x.len(), z.len(), "feature length mismatch");
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); z.n_bins() as usize];
    let mut total = 0usize;
    for i in 0..x.len() {
        if let (Some(_), Some(_), Some(c)) = (x.code(i), y.code(i), z.code(i)) {
            strata[c as usize].push(i);
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    let mut cmi = 0.0;
    for rows in &strata {
        if rows.is_empty() {
            continue;
        }
        let w = rows.len() as f64 / total as f64;
        cmi += w * mutual_information(&x.gather(rows), &y.gather(rows));
    }
    cmi.max(0.0)
}

/// Fused `(I(X;Y), I(X;Y|Z))` — the pair every conditional redundancy
/// criterion (CIFE, JMI, CMIM) evaluates per already-selected feature.
///
/// One 3-way contingency pass replaces the two separate row scans: the MI
/// joint is the sum of the conditional counts over every z-stratum, the
/// z-missing one included, so both results are **bit-identical** to calling
/// [`mutual_information`] and [`conditional_mutual_information`] separately
/// (the same integer counts feed the same accumulation loops).
pub fn mi_and_cmi(x: &Discretized, y: &Discretized, z: &Discretized) -> (f64, f64) {
    mi_and_cmi_with(&mut Tables::default(), x, y, z)
}

/// [`mi_and_cmi`] on caller-owned tables.
pub(crate) fn mi_and_cmi_with(
    t: &mut Tables,
    x: &Discretized,
    y: &Discretized,
    z: &Discretized,
) -> (f64, f64) {
    if !fits_flat(x, y, z) {
        return (mutual_information(x, y), conditional_mutual_information(x, y, z));
    }
    fill_conditional(t, x, y, z);
    let (nx, ny, nz) = dims(x, y, z);
    let sy = ny + 1;
    // The x-missing slab too: the y marginal subtracts it.
    t.joint.clear();
    t.joint.resize((nx + 1) * sy, 0);
    for (row, slab) in t.joint.chunks_exact_mut(sy).zip(t.counts.chunks_exact((nz + 1) * sy)) {
        for stratum in slab.chunks_exact(sy) {
            for (j, &c) in row.iter_mut().zip(stratum) {
                *j += c;
            }
        }
    }
    let axes = (x.counts(), y.counts());
    let (xy_rows, mi) = mi_of_features(&t.joint, axes, false, &mut t.m, &mut t.terms, false);
    if xy_rows == 0 {
        return (0.0, 0.0);
    }
    (mi, cmi_from_table(t, (nx, ny, nz)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretized;
    use crate::entropy::entropy;

    fn d(codes: &[i64]) -> Discretized {
        Discretized::from_codes(codes.iter().map(|&c| Some(c)))
    }

    #[test]
    fn self_mi_equals_entropy() {
        let x = d(&[0, 1, 2, 0, 1, 2]);
        assert!((mutual_information(&x, &x) - entropy(&x)).abs() < 1e-12);
    }

    #[test]
    fn independent_features_have_zero_mi() {
        let x = d(&[0, 0, 1, 1]);
        let y = d(&[0, 1, 0, 1]);
        assert!(mutual_information(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric() {
        let x = d(&[0, 1, 1, 2, 0, 2, 1]);
        let y = d(&[1, 0, 0, 1, 1, 0, 1]);
        assert!((mutual_information(&x, &y) - mutual_information(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_relation_gives_full_bit() {
        let x = d(&[0, 1, 0, 1]);
        let y = d(&[1, 0, 1, 0]); // y = !x
        assert!((mutual_information(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_rows_skipped_pairwise() {
        let x = Discretized::from_codes([Some(0), Some(1), Some(0), None]);
        let y = Discretized::from_codes([Some(0), Some(1), None, Some(1)]);
        // Only rows 0 and 1 count: perfect correlation over 2 rows.
        assert!((mutual_information(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cmi_of_conditionally_independent_is_zero() {
        // x and y both copies of z ⇒ given z they are constant ⇒ CMI = 0.
        let z = d(&[0, 0, 1, 1, 0, 1]);
        let x = z.clone();
        let y = z.clone();
        assert!(conditional_mutual_information(&x, &y, &z).abs() < 1e-12);
    }

    #[test]
    fn cmi_detects_conditional_dependence() {
        // XOR: x, y independent, but given z = x ⊕ y they are dependent.
        let x = d(&[0, 0, 1, 1]);
        let y = d(&[0, 1, 0, 1]);
        let z = d(&[0, 1, 1, 0]);
        assert!(mutual_information(&x, &y).abs() < 1e-12);
        assert!((conditional_mutual_information(&x, &y, &z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cmi_with_constant_condition_equals_mi() {
        let x = d(&[0, 1, 0, 1, 1]);
        let y = d(&[0, 1, 1, 1, 0]);
        let z = d(&[0, 0, 0, 0, 0]);
        let cmi = conditional_mutual_information(&x, &y, &z);
        assert!((cmi - mutual_information(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn empty_bins_are_safe() {
        let x = Discretized::from_codes([None, None]);
        let y = d(&[0, 1]);
        assert_eq!(mutual_information(&x, &y), 0.0);
        assert_eq!(conditional_mutual_information(&y, &y, &x), 0.0);
    }

    #[test]
    fn mi_never_negative() {
        // Noisy data shouldn't yield negative MI.
        let x = d(&[0, 1, 2, 3, 0, 2, 1, 3, 2, 0]);
        let y = d(&[1, 1, 0, 0, 1, 0, 1, 0, 1, 1]);
        assert!(mutual_information(&x, &y) >= 0.0);
    }

    /// Deterministic pseudo-random Discretized with missing values sprinkled
    /// in — exercises the pairwise-present bookkeeping of every estimator.
    fn noisy(seed: u64, n: usize, bins: i64) -> Discretized {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        Discretized::from_codes((0..n).map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s.is_multiple_of(11) {
                None
            } else {
                Some((s % bins as u64) as i64)
            }
        }))
    }

    #[test]
    fn fused_mi_and_cmi_matches_separate_calls_bitwise() {
        for seed in 1..=8u64 {
            let x = noisy(seed, 97, 6);
            let y = noisy(seed + 100, 97, 5);
            let z = noisy(seed + 200, 97, 4);
            let (mi, cmi) = mi_and_cmi(&x, &y, &z);
            assert_eq!(mi.to_bits(), mutual_information(&x, &y).to_bits());
            assert_eq!(
                cmi.to_bits(),
                conditional_mutual_information(&x, &y, &z).to_bits()
            );
        }
    }

    #[test]
    fn fused_handles_degenerate_condition() {
        let x = noisy(3, 50, 4);
        let y = noisy(7, 50, 4);
        // z entirely missing: MI must still match, CMI is zero.
        let z = Discretized::from_codes((0..50).map(|_| None));
        let (mi, cmi) = mi_and_cmi(&x, &y, &z);
        assert_eq!(mi.to_bits(), mutual_information(&x, &y).to_bits());
        assert_eq!(cmi, 0.0);
    }

    #[test]
    fn flat_cmi_matches_gather_fallback_bitwise() {
        for seed in 1..=6u64 {
            let x = noisy(seed, 120, 7);
            let y = noisy(seed + 50, 120, 6);
            let z = noisy(seed + 90, 120, 3);
            let (flat, gather) = (cmi_impl(&x, &y, &z), cmi_gather(&x, &y, &z));
            assert_eq!(flat.to_bits(), gather.to_bits());
        }
    }
}
