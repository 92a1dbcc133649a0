//! Regenerates **Figure 1**: the headline scatter — feature
//! discovery/augmentation time vs. resulting model accuracy, per method,
//! aggregated over datasets and both schema settings.
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig1_summary [-- --full]
//! ```

use std::collections::BTreeMap;

use autofeat_bench::{run_all_methods, specs, wants_full, Setting};
use autofeat_ml::eval::ModelKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = wants_full(&args);
    let models = [ModelKind::LightGbm, ModelKind::RandomForest];

    // method -> (sum accuracy, sum fs time, count)
    let mut agg: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for spec in specs(full) {
        for setting in [Setting::Benchmark, Setting::Lake] {
            for r in run_all_methods(&setting.context(&spec), &models, spec.seed, setting) {
                let e = agg.entry(r.method.clone()).or_insert((0.0, 0.0, 0));
                e.0 += r.mean_accuracy();
                e.1 += r.feature_selection_time.as_secs_f64();
                e.2 += 1;
            }
        }
    }

    println!("Figure 1 — augmentation time vs. accuracy (aggregated, both settings)\n");
    println!("{:<10} {:>14} {:>18}", "method", "mean_accuracy", "mean_fs_time_s");
    for (method, (acc, fs, n)) in &agg {
        println!(
            "{:<10} {:>14.3} {:>18.4}",
            method,
            acc / *n as f64,
            fs / *n as f64
        );
    }
    println!("\nExpected shape (paper): AutoFeat sits in the top-left corner — highest");
    println!("accuracy at the lowest feature-discovery time (5x-44x faster than baselines).");
}
