//! # autofeat-bench
//!
//! The experiment harness: the `paper` binary regenerates the paper's
//! evaluation (§V and §VII) — `paper table2` is Table II, `paper figN` is
//! Fig. N (fig3 and fig8 take a part: `relevance|redundancy`, `kappa|tau`),
//! and `paper beam` is the beam-pruning ablation beyond the paper. Every
//! figure but fig3 takes `--full` to run all eight datasets (default: a
//! four-dataset quick subset so a full sweep stays laptop-friendly), and
//! each prints machine-grepable rows. This library holds what the figures
//! share; `benches/` holds the Criterion micro-benchmarks.

use autofeat_core::baselines::{run_arda, run_base, run_join_all, run_mab};
use autofeat_core::{train_top_k, AutoFeat, AutoFeatConfig, MethodResult, SearchContext};
use autofeat_datagen::registry::{table2_datasets, DatasetSpec};
use autofeat_graph::discovery::SchemaMatcher;
use autofeat_ml::eval::ModelKind;

/// Datasets used when `--full` is not given: the four cheapest of Table II.
pub const QUICK_SET: [&str; 4] = ["credit", "eyemove", "steel", "school"];

/// The dataset specs for a run.
pub fn specs(full: bool) -> Vec<DatasetSpec> {
    table2_datasets()
        .into_iter()
        .filter(|d| full || QUICK_SET.contains(&d.name))
        .collect()
}

/// The paper's two schema settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// The known KFK snowflake (Figs. 4–5).
    Benchmark,
    /// KFK metadata discarded and relationships rediscovered by the schema
    /// matcher (Figs. 6–7).
    Lake,
}

impl Setting {
    /// The context of one dataset in this setting.
    pub fn context(self, spec: &DatasetSpec) -> SearchContext {
        match self {
            Setting::Benchmark => autofeat::context_from_snowflake(&spec.build_snowflake()),
            Setting::Lake => {
                autofeat::context_from_lake(&spec.build_lake(), &SchemaMatcher::paper_default())
            }
        }
        .expect("context builds")
    }
}

/// Run AutoFeat end-to-end and produce its [`MethodResult`].
pub fn run_autofeat(
    ctx: &SearchContext,
    models: &[ModelKind],
    seed: u64,
) -> MethodResult {
    let cfg = AutoFeatConfig::paper().with_seed(seed);
    let discovery = AutoFeat::new(cfg.clone()).discover(ctx).expect("discovery runs");
    train_top_k(ctx, &discovery, models, &cfg)
        .expect("training runs")
        .result
}

/// Run every method on one context. JoinAll and JoinAll+F run only in the
/// benchmark setting (the Eq. 3 ordering count explodes on the lake's dense
/// multigraph), and are omitted when infeasible (Eq. 3 over budget) there,
/// mirroring the paper's missing bars.
pub fn run_all_methods(
    ctx: &SearchContext,
    models: &[ModelKind],
    seed: u64,
    setting: Setting,
) -> Vec<MethodResult> {
    let mut out = vec![
        run_base(ctx, models, seed).expect("BASE runs"),
        run_autofeat(ctx, models, seed),
        run_arda(ctx, models, seed).expect("ARDA runs"),
        run_mab(ctx, models, seed).expect("MAB runs"),
    ];
    if setting == Setting::Benchmark {
        for filter in [false, true] {
            if let Some(r) = run_join_all(ctx, models, filter, seed).expect("JoinAll runs") {
                out.push(r);
            }
        }
    }
    out
}

/// Figures 4–7: one context per dataset of the run in `setting`, every
/// method trained on `models`, and each result handed to `row` with its
/// dataset's name; a blank line after each dataset. The lake setting first
/// prints the size of the DRG the matcher discovered.
pub fn sweep(
    setting: Setting,
    models: &[ModelKind],
    full: bool,
    row: impl Fn(&str, &MethodResult),
) {
    for spec in specs(full) {
        let ctx = setting.context(&spec);
        if setting == Setting::Lake {
            println!(
                "# {}: discovered DRG has {} edges over {} tables",
                spec.name,
                ctx.drg().n_edges(),
                ctx.drg().n_nodes()
            );
        }
        for r in &run_all_methods(&ctx, models, spec.seed, setting) {
            row(spec.name, r);
        }
        println!();
    }
}

/// Header for the standard result table.
pub fn print_header() {
    println!(
        "{:<12} {:<10} {:>9} {:>11} {:>11} {:>8} {:>9}",
        "dataset", "method", "accuracy", "fs_time_s", "total_s", "#tables", "#features"
    );
}

/// One standard result row.
pub fn print_result(dataset: &str, r: &MethodResult) {
    println!(
        "{:<12} {:<10} {:>9.3} {:>11.3} {:>11.3} {:>8} {:>9}",
        dataset,
        r.method,
        r.mean_accuracy(),
        r.feature_selection_time.as_secs_f64(),
        r.total_time.as_secs_f64(),
        r.n_tables_joined,
        r.n_features,
    );
}

/// Header for the non-tree accuracy table (Figs. 5 and 7).
pub fn print_nontree_header() {
    println!("{:<12} {:<10} {:>9} {:>9} {:>8}", "dataset", "method", "KNN", "LR", "#tables");
}

/// One non-tree accuracy row: KNN, L1 logistic regression, joined tables.
pub fn print_nontree_result(dataset: &str, r: &MethodResult) {
    println!(
        "{:<12} {:<10} {:>9.3} {:>9.3} {:>8}",
        dataset,
        r.method,
        r.accuracy_for(ModelKind::Knn).unwrap_or(0.0),
        r.accuracy_for(ModelKind::LogisticL1).unwrap_or(0.0),
        r.n_tables_joined,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_specs_are_a_subset() {
        let q = specs(false);
        let f = specs(true);
        assert_eq!(q.len(), 4);
        assert_eq!(f.len(), 8);
        for s in &q {
            assert!(QUICK_SET.contains(&s.name));
        }
    }

    #[test]
    fn credit_all_methods_smoke() {
        let spec = autofeat_datagen::registry::dataset("credit").unwrap();
        let ctx = Setting::Benchmark.context(&spec);
        let results = run_all_methods(&ctx, &[ModelKind::RandomForest], 1, Setting::Benchmark);
        // BASE, AutoFeat, ARDA, MAB, JoinAll, JoinAll+F all present.
        assert_eq!(results.len(), 6);
        let methods: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
        assert!(methods.contains(&"AutoFeat"));
        assert!(methods.contains(&"JoinAll+F"));
    }
}
