//! A miniature of the paper's Figure 4: run AutoFeat against BASE, ARDA,
//! MAB, JoinAll, and JoinAll+F on one generated dataset and print the
//! comparison table (accuracy, feature-selection time, total time, tables
//! joined).
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```

use autofeat::prelude::*;
use autofeat::{context_from_snowflake, datagen};

fn print_row(r: &MethodResult) {
    println!(
        "{:<10} {:>9.3} {:>12.2}s {:>10.2}s {:>8} {:>9}",
        r.method,
        r.mean_accuracy(),
        r.feature_selection_time.as_secs_f64(),
        r.total_time.as_secs_f64(),
        r.n_tables_joined,
        r.n_features,
    );
}

fn main() {
    let spec = datagen::registry::dataset("credit").expect("registered");
    let sf = spec.build_snowflake();
    let ctx = context_from_snowflake(&sf).expect("context builds");
    let models = [ModelKind::LightGbm, ModelKind::RandomForest];
    let seed = 7;

    println!(
        "{:<10} {:>9} {:>13} {:>11} {:>8} {:>9}",
        "method", "accuracy", "fs time", "total", "#tables", "#features"
    );

    // BASE — the floor.
    print_row(&run_base(&ctx, &models, seed).expect("base runs"));

    // AutoFeat.
    let cfg = AutoFeatConfig::paper().with_seed(seed);
    let engine = AutoFeat::new(cfg.clone());
    let discovery = engine.discover(&ctx).expect("discovery runs");
    let out = train_top_k(&ctx, &discovery, &models, &cfg).expect("training runs");
    print_row(&out.result);

    // ARDA (single-hop + RIFS).
    print_row(&run_arda(&ctx, &models, seed).expect("arda runs"));

    // MAB (UCB over same-name join candidates).
    print_row(&run_mab(&ctx, &models, seed).expect("mab runs"));

    // JoinAll / JoinAll+F (with the Eq. 3 feasibility guard).
    match run_join_all(&ctx, &models, false, seed).expect("join-all runs") {
        Some(r) => print_row(&r),
        None => println!("{:<10} (skipped: ordering count exceeds budget)", "JoinAll"),
    }
    match run_join_all(&ctx, &models, true, seed).expect("join-all+f runs") {
        Some(r) => print_row(&r),
        None => println!("{:<10} (skipped)", "JoinAll+F"),
    }

    println!(
        "\nAutoFeat best path: {}",
        out.best_path.map(|p| p.path.to_string()).unwrap_or_else(|| "(none)".into())
    );
}
