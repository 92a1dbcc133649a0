//! Regenerates **Figure 5**: benchmark-setting accuracy for the non-tree
//! models — KNN and L1 logistic regression ("LR").
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig5_benchmark_nontree [-- --full]
//! ```

use autofeat_bench::{print_nontree_header, print_nontree_result, sweep, wants_full, Setting};
use autofeat_ml::eval::ModelKind;

fn main() {
    let full = wants_full(&std::env::args().collect::<Vec<_>>());
    println!("Figure 5 — benchmark setting, non-tree models (KNN, LR)\n");
    print_nontree_header();
    sweep(Setting::Benchmark, &ModelKind::non_tree_models(), full, print_nontree_result);
    println!("Expected shape (paper): LR — AutoFeat at or near the top; KNN weaker on small");
    println!("datasets (insufficient neighbours) and hurt by irrelevant joined features.");
}
