//! The exact split finder the tree learners used before they trained on
//! bin codes, kept as the reference the histogram grower is compared
//! against: `thresholds`, `build` and `best_split` for both node statistics
//! as they stood at commit a99bae0, over a plain NaN-free matrix. It sorts
//! the node's values per feature per node and re-scans the node's rows per
//! candidate cut — slow, and shares nothing with `autofeat::ml::tree` but
//! the `rand` draws both make in the same order.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat::data::encode::Matrix;

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    All,
    Sqrt,
}

/// The hyper-parameters of the exact trees, `n_thresholds` included.
#[derive(Debug, Clone)]
pub struct Config {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    pub max_features: MaxFeatures,
    /// Cap on candidate thresholds per feature (quantile-spaced).
    pub n_thresholds: usize,
    pub random_thresholds: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted tree: arena of nodes in pre-order, root at index 0.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    pub nodes: Vec<Node>,
}

impl Tree {
    pub fn predict_value(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

fn candidate_features(n_features: usize, max_features: MaxFeatures, rng: &mut StdRng) -> Vec<usize> {
    let k = match max_features {
        MaxFeatures::All => n_features,
        MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
    }
    .clamp(1, n_features);
    if k == n_features {
        return (0..n_features).collect();
    }
    // Partial Fisher-Yates for k distinct indices.
    let mut idx: Vec<usize> = (0..n_features).collect();
    for i in 0..k {
        let j = rng.random_range(i..n_features);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Candidate thresholds for a feature over the given rows: quantile-spaced
/// midpoints, or a single uniform-random cut in extra-trees mode.
fn thresholds(values: &[f64], cfg: &Config, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("imputed, finite"));
    v.dedup();
    if v.len() < 2 {
        return Vec::new();
    }
    if cfg.random_thresholds {
        let lo = v[0];
        let hi = v[v.len() - 1];
        return vec![rng.random_range(lo..hi)];
    }
    if v.len() - 1 <= cfg.n_thresholds {
        return v.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    }
    (1..=cfg.n_thresholds)
        .map(|i| {
            let pos = i * (v.len() - 1) / (cfg.n_thresholds + 1);
            (v[pos] + v[pos + 1]) / 2.0
        })
        .collect()
}

/// Gini impurity from class counts.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

struct ClassificationTarget<'a> {
    labels: &'a [i64],
    classes: &'a [i64],
}

impl ClassificationTarget<'_> {
    fn class_index(&self, label: i64) -> usize {
        self.classes.binary_search(&label).expect("label seen at fit")
    }
}

/// A gini classification tree on the rows of `data` listed in `rows`
/// (repeats allowed). Leaves hold the majority label.
pub fn fit_classifier(data: &Matrix, rows: &[usize], cfg: &Config, seed: u64) -> Tree {
    let mut classes: Vec<i64> = data.labels.clone();
    classes.sort_unstable();
    classes.dedup();
    let target = ClassificationTarget { labels: &data.labels, classes: &classes };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = Vec::new();
    build_classifier(cfg, data, &target, rows, 0, &mut nodes, &mut rng);
    Tree { nodes }
}

fn build_classifier(
    cfg: &Config,
    data: &Matrix,
    target: &ClassificationTarget<'_>,
    rows: &[usize],
    depth: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
) -> usize {
    let n_classes = target.classes.len();
    let mut counts = vec![0usize; n_classes];
    for &r in rows {
        counts[target.class_index(target.labels[r])] += 1;
    }
    let majority = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| target.classes[i])
        .unwrap_or(0);
    let node_gini = gini(&counts, rows.len());
    let stop = depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || node_gini == 0.0;
    if !stop {
        if let Some((feature, threshold)) = best_split_classifier(cfg, data, target, rows, rng) {
            let (lrows, rrows): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&r| data.cols[feature][r] <= threshold);
            if lrows.len() >= cfg.min_samples_leaf && rrows.len() >= cfg.min_samples_leaf {
                let id = nodes.len();
                nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                let left = build_classifier(cfg, data, target, &lrows, depth + 1, nodes, rng);
                let right = build_classifier(cfg, data, target, &rrows, depth + 1, nodes, rng);
                nodes[id] = Node::Split { feature, threshold, left, right };
                return id;
            }
        }
    }
    let id = nodes.len();
    nodes.push(Node::Leaf { value: majority as f64 });
    id
}

fn best_split_classifier(
    cfg: &Config,
    data: &Matrix,
    target: &ClassificationTarget<'_>,
    rows: &[usize],
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    let n_classes = target.classes.len();
    let mut total = vec![0usize; n_classes];
    for &r in rows {
        total[target.class_index(target.labels[r])] += 1;
    }
    let parent = gini(&total, rows.len());
    let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
    for feature in candidate_features(data.cols.len(), cfg.max_features, rng) {
        let values: Vec<f64> = rows.iter().map(|&r| data.cols[feature][r]).collect();
        for threshold in thresholds(&values, cfg, rng) {
            let mut left = vec![0usize; n_classes];
            let mut nl = 0usize;
            for &r in rows {
                if data.cols[feature][r] <= threshold {
                    left[target.class_index(target.labels[r])] += 1;
                    nl += 1;
                }
            }
            let nr = rows.len() - nl;
            if nl == 0 || nr == 0 {
                continue;
            }
            let right: Vec<usize> = total.iter().zip(&left).map(|(&t, &l)| t - l).collect();
            let w = rows.len() as f64;
            let gain = parent
                - (nl as f64 / w) * gini(&left, nl)
                - (nr as f64 / w) * gini(&right, nr);
            // Gini gain is never negative; accept even a zero-gain split
            // (required to escape XOR-like plateaus) but prefer strictly
            // better ones.
            if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((feature, threshold, gain));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// A regression tree minimizing squared error on per-row gradients and
/// hessians, with Newton leaf values `−Σg / (Σh + λ)`.
pub fn fit_regressor(
    data: &Matrix,
    grad: &[f64],
    hess: &[f64],
    cfg: &Config,
    lambda: f64,
    rows: &[usize],
    rng: &mut StdRng,
) -> Tree {
    let mut nodes = Vec::new();
    build_regressor(cfg, lambda, data, grad, hess, rows, 0, &mut nodes, rng);
    Tree { nodes }
}

#[allow(clippy::too_many_arguments)]
fn build_regressor(
    cfg: &Config,
    lambda: f64,
    data: &Matrix,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    depth: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
) -> usize {
    let gs: f64 = rows.iter().map(|&r| grad[r]).sum();
    let hs: f64 = rows.iter().map(|&r| hess[r]).sum();
    let stop = depth >= cfg.max_depth || rows.len() < cfg.min_samples_split;
    if !stop {
        if let Some((feature, threshold)) =
            best_split_regressor(cfg, lambda, data, grad, hess, rows, rng)
        {
            let (lrows, rrows): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&r| data.cols[feature][r] <= threshold);
            if lrows.len() >= cfg.min_samples_leaf && rrows.len() >= cfg.min_samples_leaf {
                let id = nodes.len();
                nodes.push(Node::Leaf { value: 0.0 });
                let left =
                    build_regressor(cfg, lambda, data, grad, hess, &lrows, depth + 1, nodes, rng);
                let right =
                    build_regressor(cfg, lambda, data, grad, hess, &rrows, depth + 1, nodes, rng);
                nodes[id] = Node::Split { feature, threshold, left, right };
                return id;
            }
        }
    }
    let id = nodes.len();
    nodes.push(Node::Leaf { value: -gs / (hs + lambda) });
    id
}

fn best_split_regressor(
    cfg: &Config,
    lambda: f64,
    data: &Matrix,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    let gs: f64 = rows.iter().map(|&r| grad[r]).sum();
    let hs: f64 = rows.iter().map(|&r| hess[r]).sum();
    let score = |g: f64, h: f64| g * g / (h + lambda);
    let parent = score(gs, hs);
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in candidate_features(data.cols.len(), cfg.max_features, rng) {
        let values: Vec<f64> = rows.iter().map(|&r| data.cols[feature][r]).collect();
        for threshold in thresholds(&values, cfg, rng) {
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut nl = 0usize;
            for &r in rows {
                if data.cols[feature][r] <= threshold {
                    gl += grad[r];
                    hl += hess[r];
                    nl += 1;
                }
            }
            if nl == 0 || nl == rows.len() {
                continue;
            }
            let gain = score(gl, hl) + score(gs - gl, hs - hl) - parent;
            // Accept zero-gain splits too (XOR-style plateaus), prefer
            // strictly better ones.
            if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((feature, threshold, gain));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// Boosting hyper-parameters, as `autofeat::ml::gbdt`'s presets set them.
pub struct Boosting {
    pub n_rounds: usize,
    pub learning_rate: f64,
    pub tree: Config,
    pub lambda: f64,
    pub second_order: bool,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// The boosting loop over exact regression trees (binary logistic loss),
/// re-predicting every training row through a fresh vector after every
/// round; returns the predicted class of every training row.
pub fn boosted_training_predictions(data: &Matrix, cfg: &Boosting, seed: u64) -> Vec<i64> {
    let mut classes: Vec<i64> = data.labels.clone();
    classes.sort_unstable();
    classes.dedup();
    assert_eq!(classes.len(), 2, "the boosting reference is binary");
    let y: Vec<f64> =
        data.labels.iter().map(|&l| if l == classes[1] { 1.0 } else { 0.0 }).collect();
    let pos = y.iter().sum::<f64>() / y.len() as f64;
    let base_score = (pos.clamp(1e-6, 1.0 - 1e-6) / (1.0 - pos.clamp(1e-6, 1.0 - 1e-6))).ln();

    let n = data.n_rows;
    let mut margins = vec![base_score; n];
    let rows: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees = Vec::new();
    for _ in 0..cfg.n_rounds {
        let mut grad = Vec::with_capacity(n);
        let mut hess = Vec::with_capacity(n);
        for i in 0..n {
            let p = sigmoid(margins[i]);
            grad.push(p - y[i]);
            hess.push(if cfg.second_order { (p * (1.0 - p)).max(1e-6) } else { 1.0 });
        }
        let tree = fit_regressor(data, &grad, &hess, &cfg.tree, cfg.lambda, &rows, &mut rng);
        for i in 0..n {
            let row: Vec<f64> = data.cols.iter().map(|c| c[i]).collect();
            margins[i] += cfg.learning_rate * tree.predict_value(&row);
        }
        trees.push(tree);
    }
    (0..n)
        .map(|i| {
            let row: Vec<f64> = data.cols.iter().map(|c| c[i]).collect();
            let margin = base_score
                + trees.iter().map(|t| cfg.learning_rate * t.predict_value(&row)).sum::<f64>();
            if sigmoid(margin) >= 0.5 {
                classes[1]
            } else {
                classes[0]
            }
        })
        .collect()
}
