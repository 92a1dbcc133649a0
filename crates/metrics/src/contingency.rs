//! Contingency tables over dense bin codes — the one place rows are counted.
//!
//! A table over `(x, cell)` has one slab of `slab` counters per code of `x`;
//! `cell` is `y` for a 2-way table (`slab = ny + 1`) and `z·(ny + 1) + y` for
//! a 3-way one (`slab = (nz + 1)(ny + 1)`). Missing rows carry the extra code
//! `n_bins`, so filling is one unconditional increment per row and table; the
//! readers below simply never visit the last slab, row or column, which is
//! pairwise deletion. Marginals and totals are exact integers, so they equal
//! what a row-at-a-time count over the jointly-present rows gives, and every
//! float computed from them is the same to the bit. A table between two
//! whole features reads its marginals in O(bins): each feature counted its
//! rows per bin once, and a bin's present rows are those less the table's
//! missing column (for `x`) or missing row (for `y`)
//! ([`Marginals::of_features`]). Only a conditional stratum, which holds a
//! part of each feature's rows, sums its cells ([`Marginals::of`]).
//!
//! `x` need not be one feature: a [`Unit::Pair`] is two features in one code
//! column, counted with one increment per row, and [`Tables::collapse_pair`]
//! sums its table back into the two tables a pass over each feature alone
//! would have counted — in fixed-width sweeps when the candidate has the
//! pipeline's [`DEFAULT_BINS`] bins.

use crate::discretize::{Code, Discretized};
use crate::mi::Terms;
use crate::relevance::DEFAULT_BINS;

/// Code columns counted per row pass by [`Tables::fill`]. Independent tables
/// keep consecutive increments off one another's counters.
pub(crate) const BATCH: usize = 4;

/// A code column and the width of its axis: every code is below the width.
pub(crate) type Axis<'a> = (&'a [Code], usize);

/// What a redundancy pass counts a candidate against in one increment: a
/// selected feature on its own, or two of them packed into one column.
#[derive(Clone, Copy)]
pub(crate) enum Unit<'a> {
    Single(&'a Discretized),
    /// `packed[row] = a.code · (b.n_bins + 1) + b.code`.
    Pair { packed: &'a [Code], a: &'a Discretized, b: &'a Discretized },
}

impl<'a> Unit<'a> {
    pub(crate) fn axis(&self) -> Axis<'a> {
        match *self {
            Unit::Single(x) => x.axis(),
            Unit::Pair { packed, a, b } => (packed, a.axis().1 * b.axis().1),
        }
    }

    /// The features of the unit, in selection order.
    pub(crate) fn members(&self) -> impl Iterator<Item = &'a Discretized> {
        let (first, second) = match *self {
            Unit::Single(x) => (x, None),
            Unit::Pair { a, b, .. } => (a, Some(b)),
        };
        std::iter::once(first).chain(second)
    }
}

/// Reusable counters and marginals: one allocation serves every pair a
/// scorer evaluates.
#[derive(Default)]
pub(crate) struct Tables {
    /// What [`Tables::fill`] counted.
    pub(crate) counts: Vec<u32>,
    /// 2-way tables a reader collapses out of `counts`.
    pub(crate) joint: Vec<u32>,
    pub(crate) m: Marginals,
    /// The MI terms of the tables read so far, and a count of that work.
    pub(crate) terms: Terms,
}

/// The slab width of a table against a candidate binned as the pipeline
/// bins: its bins and the missing code.
const SLAB: usize = DEFAULT_BINS as usize + 1;

/// Row and column sums of the present cells of one 2-way table.
#[derive(Default)]
pub(crate) struct Marginals {
    pub(crate) x: Vec<usize>,
    pub(crate) y: Vec<usize>,
}

fn fill_rows<const K: usize>(
    counts: &mut [u32],
    offs: [usize; K],
    xs: [&[Code]; K],
    n_rows: usize,
    slab: usize,
    cell: impl Fn(usize) -> usize,
) {
    // Every column holds `n_rows` codes (`Tables::fill` checked).
    let xs = xs.map(|x| &x[..n_rows]);
    for i in 0..n_rows {
        let c = cell(i);
        for k in 0..K {
            counts[offs[k] + xs[k][i] as usize * slab + c] += 1;
        }
    }
}

impl Tables {
    /// Count every row of every column of `xs` (at most [`BATCH`]) against
    /// `cell(row) < slab`, and return where each column's table starts in
    /// `counts`. A full batch takes one pass over the rows.
    pub(crate) fn fill(
        &mut self,
        xs: &[Axis],
        n_rows: usize,
        slab: usize,
        cell: impl Fn(usize) -> usize,
    ) -> [usize; BATCH] {
        debug_assert!(xs.len() <= BATCH);
        let mut offs = [0usize; BATCH];
        let mut end = 0;
        for (off, (codes, width)) in offs.iter_mut().zip(xs) {
            assert_eq!(codes.len(), n_rows, "feature length mismatch");
            *off = end;
            end += width * slab;
        }
        self.counts.clear();
        self.counts.resize(end, 0);
        if let Ok(full) = <[Axis; BATCH]>::try_from(xs) {
            fill_rows(&mut self.counts, offs, full.map(|(codes, _)| codes), n_rows, slab, cell);
        } else {
            for (&off, (codes, _)) in offs.iter().zip(xs) {
                fill_rows(&mut self.counts, [off], [codes], n_rows, slab, &cell);
            }
        }
        offs
    }

    /// 2-way tables `counts[off + x·(ny+1) + b]` of every `xs` column against
    /// `y`.
    pub(crate) fn fill_pairs(&mut self, xs: &[Axis], y: &Discretized) -> [usize; BATCH] {
        let (yc, sy) = y.axis();
        self.fill(xs, yc.len(), sy, |i| yc[i] as usize)
    }

    /// Sum the table of a [`Unit::Pair`] at `counts[off..]` — slab `a·wb + b`
    /// of `wa · wb` — over the other feature's axis, missing code included,
    /// into `joint`: `wa` slabs for the first feature, then `wb` for the
    /// second. Every row was counted once under its `(a, b)`, so these are
    /// the integers a fill over each feature alone leaves.
    pub(crate) fn collapse_pair(&mut self, off: usize, wa: usize, wb: usize, slab: usize) {
        self.joint.clear();
        self.joint.resize((wa + wb) * slab, 0);
        let (of_a, of_b) = self.joint.split_at_mut(wa * slab);
        let pair = &self.counts[off..][..wa * wb * slab];
        if slab == SLAB {
            collapse_fixed::<SLAB>(pair, of_a, of_b);
        } else {
            collapse_any(pair, of_a, of_b, slab);
        }
    }
}

/// [`Tables::collapse_pair`] at a slab width known when compiled, so that
/// each slab's sum into row `a` is a fixed-width sweep.
fn collapse_fixed<const S: usize>(pair: &[u32], of_a: &mut [u32], of_b: &mut [u32]) {
    let (rows_a, _) = of_a.as_chunks_mut::<S>();
    for (row_a, block) in rows_a.iter_mut().zip(pair.chunks_exact(of_b.len())) {
        // The block is `wb` slabs `(a, b, ·)`: all of it goes to the
        // second feature's table as it lies, each slab to row `a`.
        for (sum, &c) in of_b.iter_mut().zip(block) {
            *sum += c;
        }
        let (slabs, _) = block.as_chunks::<S>();
        let mut sum = [0; S];
        for cells in slabs {
            for (sum, &c) in sum.iter_mut().zip(cells) {
                *sum += c;
            }
        }
        *row_a = sum;
    }
}

/// [`Tables::collapse_pair`] at any slab width.
fn collapse_any(pair: &[u32], of_a: &mut [u32], of_b: &mut [u32], slab: usize) {
    for (row_a, block) in of_a.chunks_exact_mut(slab).zip(pair.chunks_exact(of_b.len())) {
        for (sum, &c) in of_b.iter_mut().zip(block) {
            *sum += c;
        }
        for cells in block.chunks_exact(slab) {
            for (sum, &c) in row_a.iter_mut().zip(cells) {
                *sum += c;
            }
        }
    }
}

#[cfg(debug_assertions)]
impl Tables {
    /// Debug builds hold [`Tables::collapse_pair`] to its contract on live
    /// data: the two tables it sums out of `pair`'s table against `y` are,
    /// cell for cell, what a fill over each feature alone counts.
    pub(crate) fn assert_collapse(&mut self, pair: &Unit, y: &Discretized) {
        let Unit::Pair { a, b, .. } = *pair else { return };
        let (wa, wb, sy) = (a.axis().1, b.axis().1, y.axis().1);
        let off = self.fill_pairs(&[pair.axis()], y)[0];
        self.collapse_pair(off, wa, wb, sy);
        let collapsed = std::mem::take(&mut self.joint);
        self.fill_pairs(&[a.axis()], y);
        assert_eq!(collapsed[..wa * sy], self.counts[..], "first feature of a pair");
        self.fill_pairs(&[b.axis()], y);
        assert_eq!(collapsed[wa * sy..], self.counts[..], "second feature of a pair");
        self.joint = collapsed;
    }
}

impl Marginals {
    /// The marginals of the table `joint[a·stride + b]` of a whole feature
    /// `x` against a whole feature `y`, from their rows per code (`x` and
    /// `y`, missing code last), and their total. Every row of each feature
    /// was counted once in the table, so a bin's present rows are its rows
    /// less those in the table's missing column (for `x`) or row (for `y`):
    /// the integers [`Marginals::of`] sums, in O(nx + ny).
    pub(crate) fn of_features(&mut self, joint: &[u32], stride: usize, x: &[u32], y: &[u32]) -> usize {
        let (nx, ny) = (x.len() - 1, y.len() - 1);
        let missing_x = &joint[nx * stride..][..ny];
        self.x.clear();
        self.x.extend(x[..nx].iter().enumerate().map(|(a, &rows)| (rows - joint[a * stride + ny]) as usize));
        self.y.clear();
        self.y.extend(y[..ny].iter().zip(missing_x).map(|(&rows, &gone)| (rows - gone) as usize));
        self.x.iter().sum()
    }

    /// Sum the `nx × ny` present cells `joint[a·stride + b]` along both axes
    /// and return their total: the marginals of a table that holds a part of
    /// each feature's rows, such as one z-stratum of a conditional table.
    pub(crate) fn of(&mut self, joint: &[u32], stride: usize, nx: usize, ny: usize) -> usize {
        self.x.clear();
        self.x.resize(nx, 0);
        self.y.clear();
        self.y.resize(ny, 0);
        for (a, ma) in self.x.iter_mut().enumerate() {
            for (b, mb) in self.y.iter_mut().enumerate() {
                let c = joint[a * stride + b] as usize;
                *ma += c;
                *mb += c;
            }
        }
        self.x.iter().sum()
    }
}
