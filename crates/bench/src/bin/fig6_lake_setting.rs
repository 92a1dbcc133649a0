//! Regenerates **Figure 6**: the *data-lake setting* comparison — KFK
//! metadata discarded, relationships rediscovered by the schema matcher
//! (threshold 0.55, spurious edges included), tree-model accuracy and
//! runtimes. JoinAll/JoinAll+F are omitted, as in the paper (the Eq. 3
//! ordering count explodes on the dense multigraph).
//!
//! ```text
//! cargo run --release -p autofeat-bench --bin fig6_lake_setting [-- --full]
//! ```

use autofeat_bench::{print_header, print_result, sweep, wants_full, Setting};
use autofeat_ml::eval::ModelKind;

fn main() {
    let full = wants_full(&std::env::args().collect::<Vec<_>>());
    println!("Figure 6 — data-lake setting (tree models; JoinAll omitted per Eq. 3)\n");
    print_header();
    sweep(Setting::Lake, &ModelKind::tree_models(), full, print_result);
    println!("Expected shape (paper): AutoFeat ≈ 3x faster than ARDA and ≈ 10x faster than");
    println!("MAB at equal or better accuracy; AutoFeat prunes spurious joins via τ.");
}
