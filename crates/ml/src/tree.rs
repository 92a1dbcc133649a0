//! Histogram decision trees: gini classification trees and the gradient
//! regression trees inside boosting, grown by one grower over a
//! [`BinnedMatrix`].
//!
//! A node's histogram holds, per feature and bin, the statistic of the
//! node's rows — class counts, or `Σg, Σh, n`. It is filled in one pass over
//! the node's row list; after a split only the smaller child is passed over
//! again, and the larger child's histogram is the parent's minus the
//! smaller's. The split search adds up each candidate feature's occupied
//! bins in ascending order and scores every prefix. Both inner loops — the
//! row pass and the prefix scan — belong to the statistic, so each runs
//! over its own cell type with nothing decided per row or per bin.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::encode::Matrix;

use crate::bins::BinnedMatrix;
use crate::dataset::FeatureMeans;
use crate::eval::{Classifier, MlError};

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(d))` random features (Random-Forest style).
    Sqrt,
}

/// Tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Feature subsampling per split.
    pub max_features: MaxFeatures,
    /// Extremely-randomized mode: one uniform-random threshold per feature.
    pub random_thresholds: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            random_thresholds: false,
        }
    }
}

/// The most classes a tree classifier takes: a node's histogram holds
/// bins × classes counters per feature.
pub(crate) const MAX_CLASSES: usize = 255;

/// One node of a fitted tree. Nodes sit in an arena in pre-order, the root
/// at index 0.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Predicts `value`: a class label in a classification tree, a
    /// regression value in a regression tree.
    Leaf { value: f64 },
    /// Sends a row with `feature ≤ threshold` to the node at arena index
    /// `left`, any other to `right`. `gain` is the split's gain times the
    /// rows it divided — what feature importances add up.
    Split { feature: usize, threshold: f64, left: usize, right: usize, gain: f64 },
}

#[derive(Debug, Clone, Default)]
struct TreeNodes {
    nodes: Vec<Node>,
}

impl TreeNodes {
    /// Walk from the root; `at(j)` is the row's (NaN-free) feature `j`.
    fn predict_value(&self, at: impl Fn(usize) -> f64) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right, .. } => {
                    i = if at(*feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Total gain per feature, normalized to sum to 1 (zeros for a single
    /// leaf).
    fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                imp[*feature] += gain;
            }
        }
        let s: f64 = imp.iter().sum();
        if s > 0.0 {
            for v in &mut imp {
                *v /= s;
            }
        }
        imp
    }
}

/// The features a node considers, written into `idx`: every feature in
/// order, or `k` drawn ones.
fn candidate_features(
    idx: &mut Vec<usize>,
    n_features: usize,
    max_features: MaxFeatures,
    rng: &mut StdRng,
) {
    let k = match max_features {
        MaxFeatures::All => n_features,
        MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
    }
    .clamp(1, n_features);
    idx.clear();
    idx.extend(0..n_features);
    // Partial Fisher-Yates for k distinct indices.
    if k < n_features {
        for i in 0..k {
            let j = rng.random_range(i..n_features);
            idx.swap(i, j);
        }
        idx.truncate(k);
    }
}

/// The statistic a node keeps per histogram bin — class counts or gradient
/// sums — and what the grower asks of it.
trait NodeStat {
    /// One accumulator; a bin holds [`NodeStat::width`] of them.
    type Cell: Copy + Default;

    /// Accumulators per bin.
    fn width(&self) -> usize;

    /// Add one training row to a bin.
    fn add_row(&self, bin: &mut [Self::Cell], row: u32);

    /// `acc += bin`.
    fn add(acc: &mut [Self::Cell], bin: &[Self::Cell]);

    /// `acc -= bin`.
    fn sub(acc: &mut [Self::Cell], bin: &[Self::Cell]);

    /// Rows a bin holds.
    fn rows(bin: &[Self::Cell]) -> usize;

    /// Whether no split can improve on a node with this statistic.
    fn is_pure(&self, _node: &[Self::Cell]) -> bool {
        false
    }

    /// What the two sides of a split are measured against.
    fn score(&self, node: &[Self::Cell]) -> f64;

    /// Gain of taking `left` out of a node that holds `total` and scores
    /// `parent`.
    fn gain(&self, parent: f64, total: &[Self::Cell], left: &[Self::Cell]) -> f64;

    /// What a leaf with this statistic predicts.
    fn leaf_value(&self, node: &[Self::Cell]) -> f64;

    /// Add every listed row to its bin of one feature's `cells`, the bin
    /// read from `codes`; returns the bins that hold a row.
    fn fill_feature(&self, cells: &mut [Self::Cell], codes: &[u8], rows: &[u32]) -> [u64; 4] {
        let w = self.width();
        let mut occupied = [0u64; 4];
        for &r in rows {
            let bin = usize::from(codes[r as usize]);
            self.add_row(&mut cells[bin * w..(bin + 1) * w], r);
            occupied[bin >> 6] |= 1 << (bin & 63);
        }
        occupied
    }

    /// Offer `search` every prefix of one feature's occupied bins but the
    /// last, ascending: the left side of a cut above each bin.
    fn scan(
        &self,
        feature: usize,
        cells: &[Self::Cell],
        occupied: [u64; 4],
        total: &[Self::Cell],
        search: &mut Search<Self::Cell>,
    ) {
        let w = self.width();
        search.left.fill(Self::Cell::default());
        let mut n_left = 0;
        for bin in occupied_bins(occupied) {
            let cell = &cells[bin * w..(bin + 1) * w];
            Self::add(&mut search.left, cell);
            n_left += Self::rows(cell);
            if n_left == search.n_rows {
                break; // the node's last bin: nothing to its right
            }
            let gain = self.gain(search.parent, total, &search.left);
            if search.offer(feature, bin, gain) {
                search.best_left.copy_from_slice(&search.left);
            }
        }
    }
}

/// One node's split search: what each prefix is scored against and the best
/// split so far — `(feature, bin, gain)`, rows whose `feature` code is at
/// most `bin` going left. One per tree; its buffers are a bin wide.
struct Search<C> {
    /// The node's own score.
    parent: f64,
    /// Rows in the node.
    n_rows: usize,
    best: Option<(usize, usize, f64)>,
    /// Statistic of the best split's left side.
    best_left: Vec<C>,
    /// A running left side.
    left: Vec<C>,
    /// Prefixes offered over the tree.
    scanned: u64,
}

impl<C: Copy + Default> Search<C> {
    fn new(width: usize) -> Self {
        Search {
            parent: 0.0,
            n_rows: 0,
            best: None,
            best_left: vec![C::default(); width],
            left: vec![C::default(); width],
            scanned: 0,
        }
    }

    /// Weigh one cut by its gain: the first of equal gains wins and a zero
    /// gain is accepted (XOR-like plateaus need it). True when the cut is
    /// the new best, and the caller then copies its left side into
    /// `best_left`.
    fn offer(&mut self, feature: usize, bin: usize, gain: f64) -> bool {
        self.scanned += 1;
        let better = gain >= 0.0 && self.best.is_none_or(|(_, _, b)| gain > b);
        if better {
            self.best = Some((feature, bin, gain));
        }
        better
    }
}

/// Gini impurity from class counts that sum to `total`.
fn gini(counts: impl Iterator<Item = u32>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .map(|c| {
            let p = f64::from(c) / t;
            p * p
        })
        .sum::<f64>()
}

/// Class counts per bin, scored by gini gain; a leaf predicts its majority
/// class.
struct ClassCounts<'a> {
    /// Index into `classes` of every training row's label.
    class_of: &'a [u8],
    /// The distinct labels, ascending.
    classes: &'a [i64],
}

impl NodeStat for ClassCounts<'_> {
    type Cell = u32;

    fn width(&self) -> usize {
        self.classes.len()
    }

    fn add_row(&self, bin: &mut [u32], row: u32) {
        bin[usize::from(self.class_of[row as usize])] += 1;
    }

    fn add(acc: &mut [u32], bin: &[u32]) {
        for (a, b) in acc.iter_mut().zip(bin) {
            *a += b;
        }
    }

    fn sub(acc: &mut [u32], bin: &[u32]) {
        for (a, b) in acc.iter_mut().zip(bin) {
            *a -= b;
        }
    }

    fn rows(bin: &[u32]) -> usize {
        bin.iter().map(|&c| c as usize).sum()
    }

    fn is_pure(&self, node: &[u32]) -> bool {
        self.score(node) == 0.0
    }

    fn score(&self, node: &[u32]) -> f64 {
        gini(node.iter().copied(), Self::rows(node))
    }

    fn gain(&self, parent: f64, total: &[u32], left: &[u32]) -> f64 {
        let (n, nl) = (Self::rows(total), Self::rows(left));
        let right = total.iter().zip(left).map(|(t, l)| t - l);
        parent
            - (nl as f64 / n as f64) * gini(left.iter().copied(), nl)
            - ((n - nl) as f64 / n as f64) * gini(right, n - nl)
    }

    fn leaf_value(&self, node: &[u32]) -> f64 {
        node.iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map_or(0, |(i, _)| self.classes[i]) as f64
    }
}

/// Per-row gradients and hessians of the boosting loss: a bin holds
/// `Σg, Σh, n`, a split gains `G²/(H+λ)` summed over its sides minus the
/// node's, and a leaf predicts the Newton step `−G/(H+λ)`.
#[derive(Debug, Clone, Copy)]
pub struct Gradients<'a> {
    /// First derivative of the loss per training row.
    pub grad: &'a [f64],
    /// Second derivative per training row; `None` means 1 everywhere
    /// (first-order boosting), and `Σh` is then the row count.
    pub hess: Option<&'a [f64]>,
    /// Leaf L2 regulariser λ.
    pub lambda: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct GradientSums {
    g: f64,
    h: f64,
    n: u32,
}

impl Gradients<'_> {
    fn hess_sum(&self, node: &GradientSums) -> f64 {
        if self.hess.is_some() {
            node.h
        } else {
            f64::from(node.n)
        }
    }

    /// [`NodeStat::score`] with the hessian question answered at compile
    /// time.
    fn score_of<const SECOND_ORDER: bool>(&self, node: GradientSums) -> f64 {
        let h = if SECOND_ORDER { node.h } else { f64::from(node.n) };
        node.g * node.g / (h + self.lambda)
    }

    /// [`NodeStat::scan`] over width-1 cells held in registers; first-order
    /// boosting never adds up `Σh`.
    fn scan_with<const SECOND_ORDER: bool>(
        &self,
        feature: usize,
        cells: &[GradientSums],
        occupied: [u64; 4],
        total: GradientSums,
        search: &mut Search<GradientSums>,
    ) {
        let mut left = GradientSums::default();
        for bin in occupied_bins(occupied) {
            let cell = cells[bin];
            left.g += cell.g;
            if SECOND_ORDER {
                left.h += cell.h;
            }
            left.n += cell.n;
            if left.n as usize == search.n_rows {
                break; // the node's last bin: nothing to its right
            }
            let right = GradientSums {
                g: total.g - left.g,
                h: total.h - left.h,
                n: total.n - left.n,
            };
            let gain = self.score_of::<SECOND_ORDER>(left) + self.score_of::<SECOND_ORDER>(right)
                - search.parent;
            if search.offer(feature, bin, gain) {
                search.best_left[0] = left;
            }
        }
    }
}

impl NodeStat for Gradients<'_> {
    type Cell = GradientSums;

    fn width(&self) -> usize {
        1
    }

    fn add_row(&self, bin: &mut [GradientSums], row: u32) {
        bin[0].g += self.grad[row as usize];
        if let Some(hess) = self.hess {
            bin[0].h += hess[row as usize];
        }
        bin[0].n += 1;
    }

    fn add(acc: &mut [GradientSums], bin: &[GradientSums]) {
        acc[0].g += bin[0].g;
        acc[0].h += bin[0].h;
        acc[0].n += bin[0].n;
    }

    fn sub(acc: &mut [GradientSums], bin: &[GradientSums]) {
        acc[0].g -= bin[0].g;
        acc[0].h -= bin[0].h;
        acc[0].n -= bin[0].n;
    }

    fn rows(bin: &[GradientSums]) -> usize {
        bin[0].n as usize
    }

    fn score(&self, node: &[GradientSums]) -> f64 {
        node[0].g * node[0].g / (self.hess_sum(&node[0]) + self.lambda)
    }

    fn gain(&self, parent: f64, total: &[GradientSums], left: &[GradientSums]) -> f64 {
        let mut right = [total[0]];
        Self::sub(&mut right, left);
        self.score(left) + self.score(&right) - parent
    }

    fn leaf_value(&self, node: &[GradientSums]) -> f64 {
        -node[0].g / (self.hess_sum(&node[0]) + self.lambda)
    }

    fn fill_feature(&self, cells: &mut [GradientSums], codes: &[u8], rows: &[u32]) -> [u64; 4] {
        let mut occupied = [0u64; 4];
        let mut mark = |bin: usize| occupied[bin >> 6] |= 1 << (bin & 63);
        match self.hess {
            Some(hess) => {
                for &r in rows {
                    let (bin, r) = (usize::from(codes[r as usize]), r as usize);
                    let cell = &mut cells[bin];
                    cell.g += self.grad[r];
                    cell.h += hess[r];
                    cell.n += 1;
                    mark(bin);
                }
            }
            None => {
                for &r in rows {
                    let (bin, r) = (usize::from(codes[r as usize]), r as usize);
                    let cell = &mut cells[bin];
                    cell.g += self.grad[r];
                    cell.n += 1;
                    mark(bin);
                }
            }
        }
        occupied
    }

    fn scan(
        &self,
        feature: usize,
        cells: &[GradientSums],
        occupied: [u64; 4],
        total: &[GradientSums],
        search: &mut Search<GradientSums>,
    ) {
        if self.hess.is_some() {
            self.scan_with::<true>(feature, cells, occupied, total[0], search);
        } else {
            self.scan_with::<false>(feature, cells, occupied, total[0], search);
        }
    }
}

/// One node's statistics per feature and bin.
struct Hist<C> {
    /// `width` accumulators per bin, features back to back.
    cells: Vec<C>,
    /// One bit per bin of each feature, set where the bin holds a row; every
    /// cell of a bin whose bit is clear is zero.
    occupied: Vec<[u64; 4]>,
}

/// The set bits of an occupancy map, ascending.
fn occupied_bins(words: [u64; 4]) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bin = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                bin
            })
        })
    })
}

/// Stable in-place partition of a node's rows by `code ≤ bin`; returns the
/// size of the left side. Every row is written to both sides and each
/// side's cursor moves on by the test, so nothing branches on the data;
/// `scratch` holds at least `rows.len()` ids.
fn partition(rows: &mut [u32], codes: &[u8], bin: u8, scratch: &mut [u32]) -> usize {
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..rows.len() {
        let r = rows[i];
        let left = codes[r as usize] <= bin;
        // `n_left ≤ i`: the write never overtakes the read.
        rows[n_left] = r;
        scratch[n_right] = r;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    rows[n_left..].copy_from_slice(&scratch[..n_right]);
    n_left
}

/// What growing trees cost: rows × features over every histogram pass, and
/// prefixes scored by the split search.
#[derive(Debug, Clone, Copy)]
struct GrowCounts {
    row_updates: u64,
    bins_scanned: u64,
}

impl GrowCounts {
    /// Add the trees' counts to the run trace.
    fn record(counts: &[GrowCounts]) {
        autofeat_obs::add("ml.hist_row_updates", counts.iter().map(|c| c.row_updates).sum());
        autofeat_obs::add("ml.split_bins_scanned", counts.iter().map(|c| c.bins_scanned).sum());
    }
}

struct Grower<'a, S: NodeStat, L> {
    binned: &'a BinnedMatrix,
    stat: &'a S,
    cfg: &'a TreeConfig,
    rng: &'a mut StdRng,
    /// Told every leaf's rows and value as the leaf is made.
    on_leaf: L,
    /// First bin of each feature in a histogram, and the total past the end.
    offsets: Vec<usize>,
    nodes: Vec<Node>,
    /// The features of the node being split; its children overwrite them
    /// only after it is done with them.
    features: Vec<usize>,
    /// Node statistics, a bin wide each: the root's, then both children's
    /// of every split on the way down to the node being grown.
    totals: Vec<S::Cell>,
    search: Search<S::Cell>,
    /// Zeroed histograms awaiting reuse.
    spare: Vec<Hist<S::Cell>>,
    /// The right side of the row partition in flight.
    moved: Vec<u32>,
    /// Rows × features over every histogram pass.
    row_updates: u64,
}

/// Grow one tree on the training rows listed in `rows` (repeats allowed;
/// the list is reordered). Returns the tree and what growing it cost.
fn grow_tree<S: NodeStat>(
    binned: &BinnedMatrix,
    stat: &S,
    cfg: &TreeConfig,
    rows: &mut [u32],
    rng: &mut StdRng,
    on_leaf: impl FnMut(&[u32], f64),
) -> (TreeNodes, GrowCounts) {
    let mut offsets = vec![0];
    for f in 0..binned.n_features() {
        offsets.push(offsets[f] + binned.n_bins(f));
    }
    let mut totals = vec![S::Cell::default(); stat.width()];
    for &r in rows.iter() {
        stat.add_row(&mut totals, r);
    }
    let mut grower = Grower {
        binned,
        stat,
        cfg,
        rng,
        on_leaf,
        offsets,
        nodes: Vec::new(),
        features: Vec::new(),
        totals,
        search: Search::new(stat.width()),
        spare: Vec::new(),
        moved: vec![0; rows.len()],
        row_updates: 0,
    };
    grower.grow(rows, 0, 0, None);
    let counts = GrowCounts { row_updates: grower.row_updates, bins_scanned: grower.search.scanned };
    (TreeNodes { nodes: grower.nodes }, counts)
}

impl<S: NodeStat, L: FnMut(&[u32], f64)> Grower<'_, S, L> {
    /// The statistic at `at` in `totals`.
    fn total(&self, at: usize) -> &[S::Cell] {
        &self.totals[at..at + self.stat.width()]
    }

    fn may_split(&self, n_rows: usize, total: usize, depth: usize) -> bool {
        depth < self.cfg.max_depth
            && n_rows >= self.cfg.min_samples_split
            && !self.stat.is_pure(self.total(total))
    }

    /// The cells of one feature in a histogram's cell array.
    fn cells_of(&self, feature: usize) -> std::ops::Range<usize> {
        let w = self.stat.width();
        self.offsets[feature] * w..self.offsets[feature + 1] * w
    }

    /// The histogram of a row list over the node's features: one pass per
    /// feature.
    fn fill(&mut self, rows: &[u32]) -> Hist<S::Cell> {
        let (w, d) = (self.stat.width(), self.binned.n_features());
        let mut hist = self.spare.pop().unwrap_or_else(|| Hist {
            cells: vec![S::Cell::default(); self.offsets[d] * w],
            occupied: vec![[0; 4]; d],
        });
        for &feature in &self.features {
            let cells = &mut hist.cells[self.cells_of(feature)];
            hist.occupied[feature] = self.stat.fill_feature(cells, self.binned.codes(feature), rows);
        }
        self.row_updates += (rows.len() * self.features.len()) as u64;
        hist
    }

    /// Turn a node's histogram into its larger child's by subtracting the
    /// smaller child's, bin by occupied bin.
    fn subtract(&self, node: &mut Hist<S::Cell>, child: &Hist<S::Cell>) {
        let w = self.stat.width();
        for feature in 0..self.binned.n_features() {
            let range = self.cells_of(feature);
            let (cells, small) = (&mut node.cells[range.clone()], &child.cells[range]);
            for bin in occupied_bins(node.occupied[feature]) {
                let cell = &mut cells[bin * w..(bin + 1) * w];
                S::sub(cell, &small[bin * w..(bin + 1) * w]);
                if S::rows(cell) == 0 {
                    // Float sums leave a residue where the last row left.
                    cell.fill(S::Cell::default());
                    node.occupied[feature][bin >> 6] &= !(1 << (bin & 63));
                }
            }
        }
    }

    /// Zero a histogram's occupied bins and keep it for the next node.
    fn release(&mut self, mut hist: Hist<S::Cell>) {
        let w = self.stat.width();
        for feature in 0..self.binned.n_features() {
            let cells = &mut hist.cells[self.cells_of(feature)];
            for bin in occupied_bins(std::mem::take(&mut hist.occupied[feature])) {
                cells[bin * w..(bin + 1) * w].fill(S::Cell::default());
            }
        }
        self.spare.push(hist);
    }

    /// Search a node for its best split over the node's features, in drawn
    /// order and cuts ascending; the result is left in `self.search`.
    fn best_split(&mut self, hist: &Hist<S::Cell>, total: usize, n_rows: usize) {
        let w = self.stat.width();
        let total = &self.totals[total..total + w];
        let search = &mut self.search;
        search.parent = self.stat.score(total);
        search.n_rows = n_rows;
        search.best = None;
        for &feature in &self.features {
            let cells = &hist.cells[self.offsets[feature] * w..self.offsets[feature + 1] * w];
            let occupied = hist.occupied[feature];
            if !self.cfg.random_thresholds {
                self.stat.scan(feature, cells, occupied, total, search);
                continue;
            }
            // One uniform draw in the node's value range, snapped down to a
            // bin edge that leaves rows on both sides.
            let mut bins = occupied_bins(occupied);
            let Some(first) = bins.next() else { continue };
            let Some(last) = bins.last() else { continue };
            let lo = self.binned.bin_range(feature, first).0;
            let hi = self.binned.bin_range(feature, last).1;
            let t = self.rng.random_range(lo..hi);
            let bin = self.binned.bins_at_or_below(feature, t).clamp(first + 1, last) - 1;
            search.left.fill(S::Cell::default());
            for b in occupied_bins(occupied).take_while(|&b| b <= bin) {
                S::add(&mut search.left, &cells[b * w..(b + 1) * w]);
            }
            let gain = self.stat.gain(search.parent, total, &search.left);
            if search.offer(feature, bin, gain) {
                search.best_left.copy_from_slice(&search.left);
            }
        }
    }

    fn leaf(&mut self, rows: &[u32], total: usize) -> usize {
        let value = self.stat.leaf_value(self.total(total));
        (self.on_leaf)(rows, value);
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Grow the subtree of a node in pre-order and return its arena index.
    /// The node's statistic sits at `total` in `totals`; `inherited` is its
    /// histogram where its parent made one.
    fn grow(
        &mut self,
        rows: &mut [u32],
        total: usize,
        depth: usize,
        inherited: Option<Hist<S::Cell>>,
    ) -> usize {
        if !self.may_split(rows.len(), total, depth) {
            if let Some(hist) = inherited {
                self.release(hist);
            }
            return self.leaf(rows, total);
        }
        let d = self.binned.n_features();
        candidate_features(&mut self.features, d, self.cfg.max_features, self.rng);
        let mut hist = match inherited {
            Some(hist) => hist,
            None => self.fill(rows),
        };
        self.best_split(&hist, total, rows.len());
        // The leaf minimum is held against the chosen split, not searched
        // around: a best split that breaks it makes the node a leaf.
        let min_leaf = self.cfg.min_samples_leaf;
        let split = self.search.best.filter(|_| {
            let n_left = S::rows(&self.search.best_left);
            n_left >= min_leaf && rows.len() - n_left >= min_leaf
        });
        let Some((feature, bin, gain)) = split else {
            self.release(hist);
            return self.leaf(rows, total);
        };
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // holds the place in pre-order
        let gain = gain * rows.len() as f64;
        let codes = self.binned.codes(feature);
        let n_left = partition(rows, codes, bin as u8, &mut self.moved);
        let (lrows, rrows) = rows.split_at_mut(n_left);
        // The children's statistics: the left side the search kept, and the
        // node's minus it.
        let w = self.stat.width();
        let (left_total, right_total) = (self.totals.len(), self.totals.len() + w);
        self.totals.extend_from_slice(&self.search.best_left);
        self.totals.extend_from_within(total..total + w);
        let (below, right) = self.totals.split_at_mut(right_total);
        S::sub(right, &below[left_total..]);

        // A node that looked at every feature hands histograms down, unless
        // both children are leaves anyway: the smaller child gets a row pass,
        // the larger one what is left of the parent's. Children of a node
        // that sampled features sample their own and fill only those.
        let hands_down = self.features.len() == d
            && (self.may_split(lrows.len(), left_total, depth + 1)
                || self.may_split(rrows.len(), right_total, depth + 1));
        let (left_hist, right_hist) = if !hands_down {
            self.release(hist);
            (None, None)
        } else if lrows.len() <= rrows.len() {
            let small = self.fill(lrows);
            self.subtract(&mut hist, &small);
            (Some(small), Some(hist))
        } else {
            let small = self.fill(rrows);
            self.subtract(&mut hist, &small);
            (Some(hist), Some(small))
        };
        let left = self.grow(lrows, left_total, depth + 1, left_hist);
        let right = self.grow(rrows, right_total, depth + 1, right_hist);
        self.totals.truncate(left_total);
        self.nodes[id] = Node::Split {
            feature,
            threshold: self.binned.cut(feature, bin),
            left,
            right,
            gain,
        };
        id
    }
}

/// Majority vote with deterministic (smallest-label) tie-break.
pub(crate) fn majority_vote(votes: impl Iterator<Item = i64>) -> i64 {
    let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
    for v in votes {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(label, _)| label)
        .unwrap_or(0)
}

/// Classification trees grown over one binned, once-imputed copy of the
/// training matrix and voted by majority: what a [`DecisionTree`] (one
/// tree), a random forest and extra-trees are once fitted.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassTrees {
    trees: Vec<TreeNodes>,
    means: FeatureMeans,
}

impl ClassTrees {
    /// Grow `n_trees` trees in parallel; `plan(t)` gives tree `t` its row
    /// list (ids into `data`, repeats allowed) and its seed, so the result
    /// does not depend on the worker count.
    pub(crate) fn fit(
        data: &Matrix,
        cfg: &TreeConfig,
        n_trees: usize,
        plan: impl Fn(usize) -> (Vec<u32>, u64) + Sync,
    ) -> Result<Self, MlError> {
        if data.n_rows == 0 || data.cols.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut classes: Vec<i64> = data.labels.clone();
        classes.sort_unstable();
        classes.dedup();
        if classes.len() > MAX_CLASSES {
            return Err(MlError::TooManyClasses { n_classes: classes.len() });
        }
        let class_of: Vec<u8> = data
            .labels
            .iter()
            .map(|l| classes.binary_search(l).expect("every label is a class") as u8)
            .collect();
        let binned = BinnedMatrix::new(data);
        let stat = ClassCounts { class_of: &class_of, classes: &classes };
        let grown = autofeat_data::parallel::build_indexed(n_trees, |t| {
            let (mut rows, seed) = plan(t);
            let mut rng = StdRng::seed_from_u64(seed);
            grow_tree(&binned, &stat, cfg, &mut rows, &mut rng, |_, _| {})
        });
        let (trees, counts): (Vec<TreeNodes>, Vec<GrowCounts>) = grown.into_iter().unzip();
        autofeat_obs::add("ml.trees_grown", n_trees as u64);
        GrowCounts::record(&counts);
        Ok(ClassTrees { trees, means: binned.means().clone() })
    }

    pub(crate) fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    fn vote(&self, at: impl Fn(usize) -> f64 + Copy) -> i64 {
        majority_vote(self.trees.iter().map(|t| t.predict_value(at) as i64))
    }

    pub(crate) fn predict_row(&self, row: &[f64]) -> i64 {
        self.vote(|j| self.means.imputed(j, row[j]))
    }

    pub(crate) fn predict(&self, data: &Matrix) -> Vec<i64> {
        (0..data.n_rows).map(|i| self.vote(|j| self.means.imputed(j, data.cols[j][i]))).collect()
    }

    /// Mean over trees of each tree's normalized gain per feature.
    pub(crate) fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        for t in &self.trees {
            for (i, v) in t.feature_importances(n_features).into_iter().enumerate() {
                imp[i] += v;
            }
        }
        if !self.trees.is_empty() {
            for v in &mut imp {
                *v /= self.trees.len() as f64;
            }
        }
        imp
    }
}

/// A CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Hyper-parameters.
    pub config: TreeConfig,
    seed: u64,
    fitted: ClassTrees,
}

impl DecisionTree {
    /// Unfitted tree.
    pub fn new(config: TreeConfig, seed: u64) -> Self {
        DecisionTree { config, seed, fitted: ClassTrees::default() }
    }

    /// Fit on the rows of `data` listed in `rows` (repeats allowed, as in a
    /// bootstrap sample). Bins, imputation means and the class list come
    /// from the whole matrix.
    pub fn fit_rows(&mut self, data: &Matrix, rows: &[u32]) -> Result<(), MlError> {
        self.fitted = ClassTrees::fit(data, &self.config, 1, |_| (rows.to_vec(), self.seed))?;
        Ok(())
    }

    /// The fitted tree's nodes in pre-order (empty before fit).
    pub fn nodes(&self) -> &[Node] {
        self.fitted.trees.first().map_or(&[], |t| &t.nodes)
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Matrix) -> Result<(), MlError> {
        self.fit_rows(data, &(0..data.n_rows as u32).collect::<Vec<_>>())
    }

    fn predict_row(&self, row: &[f64]) -> i64 {
        self.fitted.predict_row(row)
    }

    fn is_fitted(&self) -> bool {
        self.fitted.is_fitted()
    }

    fn predict(&self, data: &Matrix) -> Vec<i64> {
        self.fitted.predict(data)
    }
}

/// A regression tree on per-row gradients with Newton-style leaf values
/// `−Σg / (Σh + λ)` — the boosting building block.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    tree: TreeNodes,
}

impl RegressionTree {
    /// Grow a tree on the training rows listed in `rows` (the list is
    /// reordered). `on_leaf` is told every leaf's rows and value as the
    /// leaf is made, which is how boosting updates its margins without
    /// predicting.
    pub fn fit(
        binned: &BinnedMatrix,
        gradients: &Gradients<'_>,
        config: &TreeConfig,
        rows: &mut [u32],
        rng: &mut StdRng,
        on_leaf: impl FnMut(&[u32], f64),
    ) -> Self {
        let (tree, counts) = grow_tree(binned, gradients, config, rows, rng, on_leaf);
        autofeat_obs::incr("ml.trees_grown");
        GrowCounts::record(&[counts]);
        RegressionTree { tree }
    }

    /// The tree's nodes in pre-order.
    pub fn nodes(&self) -> &[Node] {
        &self.tree.nodes
    }

    /// Predicted value of a row read feature by feature through `at`
    /// (NaN-free).
    pub(crate) fn value_at(&self, at: impl Fn(usize) -> f64) -> f64 {
        self.tree.predict_value(at)
    }

    /// Predicted value for a (NaN-free) row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.value_at(|j| row[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    /// Depth of a fitted tree: splits on its longest root-to-leaf walk.
    fn depth(t: &DecisionTree) -> usize {
        fn below(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + below(nodes, *left).max(below(nodes, *right)),
            }
        }
        below(t.nodes(), 0)
    }

    fn xor_matrix(n: usize) -> Matrix {
        // Two features; label = x0 XOR x1 — requires depth ≥ 2.
        let x0: Vec<f64> = (0..n).map(|i| ((i / 2) % 2) as f64).collect();
        let x1: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| (((i / 2) % 2) ^ (i % 2)) as i64).collect();
        Matrix {
            feature_names: vec!["x0".into(), "x1".into()],
            cols: vec![x0, x1],
            labels,
            n_rows: n,
        }
    }

    fn linear_matrix(n: usize) -> Matrix {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<i64> = x.iter().map(|&v| i64::from(v >= n as f64 / 2.0)).collect();
        Matrix { feature_names: vec!["x".into()], cols: vec![x], labels, n_rows: n }
    }

    #[test]
    fn learns_linear_boundary_perfectly() {
        let m = linear_matrix(100);
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        let preds = t.predict(&m);
        assert_eq!(accuracy(&preds, &m.labels), 1.0);
        assert!(t.is_fitted());
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let m = xor_matrix(80);
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        assert_eq!(accuracy(&t.predict(&m), &m.labels), 1.0);
        assert!(depth(&t) >= 2);
    }

    #[test]
    fn max_depth_zero_is_majority_vote() {
        let mut m = linear_matrix(10);
        m.labels = vec![1, 1, 1, 1, 1, 1, 1, 0, 0, 0];
        let mut t = DecisionTree::new(TreeConfig { max_depth: 0, ..Default::default() }, 0);
        t.fit(&m).unwrap();
        assert!(t.predict(&m).iter().all(|&p| p == 1));
        assert_eq!(depth(&t), 0);
    }

    #[test]
    fn handles_nan_via_mean_imputation() {
        let mut m = linear_matrix(50);
        m.cols[0][10] = f64::NAN;
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        let acc = accuracy(&t.predict(&m), &m.labels);
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn empty_dataset_errors() {
        let m = Matrix { feature_names: vec![], cols: vec![], labels: vec![], n_rows: 0 };
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        assert!(matches!(t.fit(&m), Err(MlError::EmptyDataset)));
    }

    #[test]
    fn multiclass_majority_leaves() {
        let n = 90;
        let x: Vec<f64> = (0..n).map(|i| (i / 30) as f64).collect();
        let labels: Vec<i64> = (0..n).map(|i| (i / 30) as i64 * 7).collect(); // classes 0,7,14
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels: labels.clone(), n_rows: n };
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        assert_eq!(accuracy(&t.predict(&m), &labels), 1.0);
    }

    #[test]
    fn random_thresholds_still_learn() {
        let m = linear_matrix(100);
        let cfg = TreeConfig { random_thresholds: true, max_depth: 12, ..Default::default() };
        let mut t = DecisionTree::new(cfg, 3);
        t.fit(&m).unwrap();
        let acc = accuracy(&t.predict(&m), &m.labels);
        assert!(acc > 0.9, "extra-trees-style split should still work, acc = {acc}");
    }

    #[test]
    fn feature_importances_sum_to_one() {
        let m = xor_matrix(80);
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        let imp = t.fitted.feature_importances(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The root's split on x0 is the zero-gain step off the XOR plateau;
        // every bit of impurity is removed by the two splits on x1.
        assert_eq!(imp, vec![0.0, 1.0]);
    }

    #[test]
    fn one_decisive_split_outranks_several_marginal_ones() {
        // `a` separates the classes but for one value of `b` on each side,
        // which takes two cuts on `b` per side to isolate.
        let n = 200;
        let a: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i / 2) % 10) as f64).collect();
        let labels: Vec<i64> = (0..n)
            .map(|i| i64::from((a[i] == 1.0) != (b[i] == if a[i] == 1.0 { 7.0 } else { 3.0 })))
            .collect();
        let m = Matrix {
            feature_names: vec!["a".into(), "b".into()],
            cols: vec![a, b],
            labels,
            n_rows: n,
        };
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        assert_eq!(accuracy(&t.predict(&m), &m.labels), 1.0);
        let splits_on = |f: usize| {
            t.nodes()
                .iter()
                .filter(|n| matches!(n, Node::Split { feature, .. } if *feature == f))
                .count()
        };
        assert!(matches!(t.nodes()[0], Node::Split { feature: 0, .. }));
        assert_eq!((splits_on(0), splits_on(1)), (1, 4));
        let imp = t.fitted.feature_importances(2);
        assert!(imp[0] > imp[1], "the root's gain should outweigh four leaf-side cuts: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // Pseudo-residuals of a step at 30.
        let grad: Vec<f64> = x.iter().map(|&v| if v < 30.0 { 1.0 } else { -1.0 }).collect();
        let hess = vec![1.0; n];
        let m = Matrix { feature_names: vec!["x".into()], cols: vec![x], labels: vec![0; n], n_rows: n };
        let mut rng = StdRng::seed_from_u64(0);
        let t = RegressionTree::fit(
            &BinnedMatrix::new(&m),
            &Gradients { grad: &grad, hess: Some(&hess), lambda: 1.0 },
            &TreeConfig { max_depth: 2, ..Default::default() },
            &mut (0..n as u32).collect::<Vec<_>>(),
            &mut rng,
            |_, _| {},
        );
        // Newton leaf: -Σg/(Σh+λ) = -30/(30+1) ≈ -0.97 on the left.
        assert!(t.predict_row(&[5.0]) < -0.9);
        assert!(t.predict_row(&[55.0]) > 0.9);
    }

    #[test]
    fn partition_is_stable_on_both_sides() {
        let codes: Vec<u8> = vec![3, 0, 7, 1, 5, 2, 9, 4];
        // Row ids repeat, as in a bootstrap sample.
        let rows = vec![6u32, 1, 1, 4, 0, 7, 3, 1, 6, 2, 5];
        let mut scratch = vec![u32::MAX; rows.len()];
        for bin in [0u8, 2, 3, 4, 8, 9, 255] {
            let mut got = rows.clone();
            let n_left = partition(&mut got, &codes, bin, &mut scratch);
            let (left, right): (Vec<u32>, Vec<u32>) =
                rows.iter().partition(|&&r| codes[r as usize] <= bin);
            assert_eq!(n_left, left.len(), "bin {bin}");
            assert_eq!(got, [left, right].concat(), "bin {bin}");
        }
        // All left, all right, and nothing to split.
        let mut all = rows.clone();
        assert_eq!(partition(&mut all, &codes, 9, &mut scratch), rows.len());
        assert_eq!(all, rows);
        assert_eq!(partition(&mut all, &[10; 8], 9, &mut scratch), 0);
        assert_eq!(all, rows);
        assert_eq!(partition(&mut [], &codes, 0, &mut []), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = xor_matrix(40);
        let mut a = DecisionTree::new(TreeConfig { max_features: MaxFeatures::Sqrt, ..Default::default() }, 9);
        let mut b = DecisionTree::new(TreeConfig { max_features: MaxFeatures::Sqrt, ..Default::default() }, 9);
        a.fit(&m).unwrap();
        b.fit(&m).unwrap();
        assert_eq!(a.predict(&m), b.predict(&m));
    }
}
