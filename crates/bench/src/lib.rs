//! # autofeat-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§V and §VII), plus Criterion micro-benchmarks.
//!
//! | target | reproduces |
//! |---|---|
//! | `table2_datasets` | Table II (dataset overview) |
//! | `fig3_selection_methods` | Fig. 3a/3b (relevance & redundancy methods) |
//! | `fig4_benchmark_setting` | Fig. 4 (benchmark setting, tree models) |
//! | `fig5_benchmark_nontree` | Fig. 5 (benchmark setting, KNN & LR) |
//! | `fig6_lake_setting` | Fig. 6 (data-lake setting, tree models) |
//! | `fig7_lake_nontree` | Fig. 7 (data-lake setting, KNN & LR) |
//! | `fig8_sensitivity` | Fig. 8 (κ and τ sensitivity) |
//! | `fig9_ablation` | Fig. 9 (metric ablation) |
//! | `fig1_summary` | Fig. 1 (accuracy vs. augmentation-time summary) |
//!
//! Every binary accepts `--full` to run all eight datasets (default: a
//! four-dataset quick subset so a full sweep stays laptop-friendly) and
//! prints machine-grepable rows.

use autofeat_core::baselines::{
    run_arda, run_base, run_join_all, run_mab, ArdaConfig, JoinAllConfig, MabConfig,
};
use autofeat_core::{train_top_k, AutoFeat, AutoFeatConfig, MethodResult, SearchContext};
use autofeat_datagen::registry::{table2_datasets, DatasetSpec};
use autofeat_datagen::{Snowflake, lake::Lake};
use autofeat_graph::discovery::SchemaMatcher;
use autofeat_ml::eval::ModelKind;

/// Datasets used when `--full` is not given: the four cheapest of Table II.
pub const QUICK_SET: [&str; 4] = ["credit", "eyemove", "steel", "school"];

/// Parse CLI args for the shared `--full` flag.
pub fn wants_full(args: &[String]) -> bool {
    args.iter().any(|a| a == "--full")
}

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
            Setting::Benchmark => context_from_snowflake(&spec.build_snowflake()),
            Setting::Lake => context_from_lake(&spec.build_lake()),
        }
    }
}

/// Build the benchmark-setting context from a snowflake.
pub fn context_from_snowflake(sf: &Snowflake) -> SearchContext {
    let tables = sf.all_tables().into_iter().cloned().collect();
    let kfk: Vec<(String, String, String, String)> = sf
        .kfk
        .iter()
        .map(|e| {
            (
                e.parent_table.clone(),
                e.parent_column.clone(),
                e.child_table.clone(),
                e.child_column.clone(),
            )
        })
        .collect();
    SearchContext::from_kfk(tables, &kfk, sf.base.name().to_string(), sf.label.clone())
        .expect("snowflake context builds")
}

/// Build the data-lake-setting context from a corrupted lake.
pub fn context_from_lake(lake: &Lake) -> SearchContext {
    SearchContext::from_discovery(
        lake.tables.clone(),
        &SchemaMatcher::paper_default(),
        lake.base_name.clone(),
        lake.label.clone(),
    )
    .expect("lake context builds")
}

/// The AutoFeat configuration the experiments use (the paper's
/// hyper-parameters: τ = 0.65, κ = 15, Spearman + MRMR, top-k = 4).
pub fn bench_config(seed: u64) -> AutoFeatConfig {
    AutoFeatConfig::paper().with_seed(seed)
}

/// Run AutoFeat end-to-end and produce its [`MethodResult`].
pub fn run_autofeat(
    ctx: &SearchContext,
    models: &[ModelKind],
    seed: u64,
) -> MethodResult {
    let cfg = bench_config(seed);
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
        run_arda(ctx, models, &ArdaConfig { seed }).expect("ARDA runs"),
        run_mab(ctx, models, &MabConfig { seed, ..Default::default() }).expect("MAB runs"),
    ];
    if setting == Setting::Benchmark {
        if let Some(r) = run_join_all(ctx, models, &JoinAllConfig { seed, ..Default::default() })
            .expect("JoinAll runs")
        {
            out.push(r);
        }
        if let Some(r) = run_join_all(
            ctx,
            models,
            &JoinAllConfig { filter: true, seed, ..Default::default() },
        )
        .expect("JoinAll+F runs")
        {
            out.push(r);
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
    fn full_flag_parsing() {
        assert!(wants_full(&["--full".to_string()]));
        assert!(!wants_full(&["--quick".to_string()]));
    }

    #[test]
    fn credit_all_methods_smoke() {
        let spec = autofeat_datagen::registry::dataset("credit").unwrap();
        let ctx = context_from_snowflake(&spec.build_snowflake());
        let results = run_all_methods(&ctx, &[ModelKind::RandomForest], 1, Setting::Benchmark);
        // BASE, AutoFeat, ARDA, MAB, JoinAll, JoinAll+F all present.
        assert_eq!(results.len(), 6);
        let methods: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
        assert!(methods.contains(&"AutoFeat"));
        assert!(methods.contains(&"JoinAll+F"));
    }
}
