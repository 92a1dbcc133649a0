//! Regenerates **Figure 7**: data-lake-setting accuracy for KNN and LR.
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig7_lake_nontree [-- --full]
//! ```

use autofeat_bench::{print_nontree_header, print_nontree_result, sweep, wants_full, Setting};
use autofeat_ml::eval::ModelKind;

fn main() {
    let full = wants_full(&std::env::args().collect::<Vec<_>>());
    println!("Figure 7 — data-lake setting, non-tree models (KNN, LR)\n");
    print_nontree_header();
    sweep(Setting::Lake, &ModelKind::non_tree_models(), full, print_nontree_result);
    println!("Expected shape (paper): KNN suffers from noisy joined features (distance");
    println!("distortion); LR — AutoFeat leads on most datasets.");
}
