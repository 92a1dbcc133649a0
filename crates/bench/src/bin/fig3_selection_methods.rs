//! Regenerates **Figure 3**: the empirical comparison of (a) relevance
//! methods — IG, SU, Pearson, Spearman, Relief — and (b) redundancy
//! methods — MIFS, MRMR, CIFE, JMI, CMIM — by aggregated accuracy and
//! runtime over the six feature-selection-study datasets (§V).
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig3_selection_methods [-- relevance|redundancy]
//! ```

use std::time::Instant;

use autofeat_data::encode::to_matrix;
use autofeat_data::sample::train_test_split;
use autofeat_datagen::selection_study_datasets;
use autofeat_metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat_metrics::redundancy::{RedundancyMethod, RedundancyScorer};
use autofeat_metrics::relevance::{RelevanceMethod, DEFAULT_BINS};
use autofeat_metrics::selection::{select_k_best, select_non_redundant};
use autofeat_ml::eval::{accuracy, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KAPPA: usize = 10;

struct Prepared {
    train: autofeat_data::encode::Matrix,
    test: autofeat_data::encode::Matrix,
}

fn prepare() -> Vec<Prepared> {
    selection_study_datasets()
        .into_iter()
        .enumerate()
        .map(|(i, gt)| {
            let mut rng = StdRng::seed_from_u64(900 + i as u64);
            let split = train_test_split(&gt.table, &gt.label, 0.2, &mut rng).expect("split");
            let features = gt.feature_names();
            Prepared {
                train: to_matrix(&split.train, &features, &gt.label).expect("matrix"),
                test: to_matrix(&split.test, &features, &gt.label).expect("matrix"),
            }
        })
        .collect()
}

fn train_gbdt(
    train: &autofeat_data::encode::Matrix,
    test: &autofeat_data::encode::Matrix,
    keep: &[usize],
) -> f64 {
    if keep.is_empty() {
        return 0.0;
    }
    let tr = train.select_features(keep);
    let te = test.select_features(keep);
    let mut model = ModelKind::LightGbm.build(0);
    match model.fit(&tr) {
        Ok(()) => accuracy(&model.predict(&te), &te.labels),
        Err(_) => 0.0,
    }
}

fn relevance_study(data: &[Prepared]) {
    println!("Figure 3a — relevance methods (κ = {KAPPA}, GBDT, {} datasets)", data.len());
    println!("{:<10} {:>14} {:>16}", "method", "mean_accuracy", "selection_ms");
    for method in RelevanceMethod::all() {
        let mut accs = Vec::new();
        let mut elapsed = 0.0f64;
        for d in data {
            let t0 = Instant::now();
            let picked = select_k_best(&d.train.cols, &d.train.labels, method, KAPPA, 0.0);
            elapsed += t0.elapsed().as_secs_f64() * 1000.0;
            let keep: Vec<usize> = picked.iter().map(|s| s.index).collect();
            accs.push(train_gbdt(&d.train, &d.test, &keep));
        }
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        println!("{:<10} {:>14.3} {:>16.2}", method.name(), mean, elapsed);
    }
}

fn redundancy_study(data: &[Prepared]) {
    println!(
        "\nFigure 3b — redundancy methods (Spearman pre-ranking, κ = {KAPPA}, GBDT, {} datasets)",
        data.len()
    );
    println!("{:<10} {:>14} {:>16}", "method", "mean_accuracy", "selection_ms");
    for method in RedundancyMethod::all() {
        let scorer = RedundancyScorer::new(method);
        let mut accs = Vec::new();
        let mut elapsed = 0.0f64;
        for d in data {
            // Common relevance pre-ranking, then the timed redundancy pass.
            let ranked = select_k_best(
                &d.train.cols,
                &d.train.labels,
                RelevanceMethod::Spearman,
                d.train.n_features(),
                0.0,
            );
            let codes: Vec<(usize, Discretized)> = ranked
                .iter()
                .map(|s| (s.index, discretize_equal_frequency(&d.train.cols[s.index], DEFAULT_BINS)))
                .collect();
            let labels =
                Discretized::from_codes(d.train.labels.iter().map(|&l| Some(l)));
            let t0 = Instant::now();
            let cands: Vec<(usize, &Discretized)> =
                codes.iter().map(|(i, c)| (*i, c)).collect();
            let kept = select_non_redundant::<&Discretized>(&cands, &[], &labels, &scorer);
            elapsed += t0.elapsed().as_secs_f64() * 1000.0;
            let keep: Vec<usize> = kept.iter().take(KAPPA).map(|s| s.index).collect();
            accs.push(train_gbdt(&d.train, &d.test, &keep));
        }
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        println!("{:<10} {:>14.3} {:>16.2}", method.name(), mean, elapsed);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("both");
    let data = prepare();
    if which == "relevance" || which == "both" {
        relevance_study(&data);
    }
    if which == "redundancy" || which == "both" {
        redundancy_study(&data);
    }
    println!("\nExpected shape (paper): Pearson/Spearman ≈ 3x faster than SU/IG and more");
    println!("accurate; Relief cheap but weaker. MIFS/MRMR ≈ 3x faster than CIFE/JMI/CMIM;");
    println!("JMI most accurate; MRMR the balanced choice.");
}
