//! Contingency tables over dense bin codes — the one place rows are counted.
//!
//! A table over `(x, cell)` has `x.n_bins() + 1` slabs of `slab` counters;
//! `cell` is `y` for a 2-way table (`slab = ny + 1`) and `z·(ny + 1) + y` for
//! a 3-way one (`slab = (nz + 1)(ny + 1)`). Missing rows carry the extra code
//! `n_bins`, so filling is one unconditional increment per row and table; the
//! readers below simply never visit the last slab, row or column, which is
//! pairwise deletion. Marginals and totals are sums of the integer cells, so
//! they equal what a row-at-a-time count over the jointly-present rows gives,
//! and every float computed from them is the same to the bit.

use crate::discretize::{Code, Discretized};

/// Selected columns counted per row pass by [`Tables::fill`]. Independent
/// tables keep consecutive increments off one another's counters.
pub(crate) const BATCH: usize = 4;

/// Reusable counters and marginals: one allocation serves every pair a
/// scorer evaluates.
#[derive(Default)]
pub(crate) struct Tables {
    /// What [`Tables::fill`] counted.
    pub(crate) counts: Vec<u32>,
    /// A 2-way table a reader collapses out of `counts`.
    pub(crate) joint: Vec<u32>,
    pub(crate) m: Marginals,
}

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
        xs: &[&Discretized],
        n_rows: usize,
        slab: usize,
        cell: impl Fn(usize) -> usize,
    ) -> [usize; BATCH] {
        debug_assert!(xs.len() <= BATCH);
        let mut offs = [0usize; BATCH];
        let mut end = 0;
        for (off, x) in offs.iter_mut().zip(xs) {
            assert_eq!(x.len(), n_rows, "feature length mismatch");
            *off = end;
            end += (x.n_bins() as usize + 1) * slab;
        }
        self.counts.clear();
        self.counts.resize(end, 0);
        if let Ok(full) = <[&Discretized; BATCH]>::try_from(xs) {
            fill_rows(&mut self.counts, offs, full.map(Discretized::codes), n_rows, slab, cell);
        } else {
            for (&off, x) in offs.iter().zip(xs) {
                fill_rows(&mut self.counts, [off], [x.codes()], n_rows, slab, &cell);
            }
        }
        offs
    }

    /// 2-way tables `counts[off + a·(ny+1) + b]` of every `xs` column against
    /// `y`.
    pub(crate) fn fill_pairs(&mut self, xs: &[&Discretized], y: &Discretized) -> [usize; BATCH] {
        let yc = y.codes();
        self.fill(xs, yc.len(), y.n_bins() as usize + 1, |i| yc[i] as usize)
    }
}

impl Marginals {
    /// Sum the `nx × ny` present cells `joint[a·stride + b]` along both axes
    /// and return their total.
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
