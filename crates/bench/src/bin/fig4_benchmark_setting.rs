//! Regenerates **Figure 4**: the *benchmark setting* (known KFK snowflake)
//! comparison — runtime (total + feature-selection share), accuracy
//! averaged over the four tree-based models, and the number of joined
//! tables, for BASE / AutoFeat / ARDA / MAB / JoinAll / JoinAll+F on every
//! dataset.
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig4_benchmark_setting [-- --full]
//! ```

use autofeat_bench::{print_header, print_result, sweep, wants_full, Setting};
use autofeat_ml::eval::ModelKind;

fn main() {
    let full = wants_full(&std::env::args().collect::<Vec<_>>());
    println!("Figure 4 — benchmark setting (tree models: LightGBM, XGBoost, RF, ExtraTrees)\n");
    print_header();
    sweep(Setting::Benchmark, &ModelKind::tree_models(), full, print_result);
    println!("Expected shape (paper): AutoFeat's fs_time ≪ ARDA ≪ MAB; AutoFeat accuracy ≥");
    println!("ARDA/MAB and ≈ JoinAll+F; JoinAll rows absent where Eq. 3 explodes (school).");
}
