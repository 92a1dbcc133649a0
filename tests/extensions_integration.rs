//! Integration tests for the extension features: beam pruning,
//! incremental DRG discovery, the streaming selector, the join-tree
//! trainer, and the table ops working together.

use autofeat::core::compute_score;
use autofeat::core::train::evaluate_feature_set;
use autofeat::data::encode::label_encode_column;
use autofeat::graph::DrgMaintainer;
use autofeat::metrics::streaming::StreamingSelector;
use autofeat::prelude::*;
use autofeat::{context_from_lake, context_from_snowflake, datagen};

mod common;
use common::match_oracle;

fn credit_lake() -> datagen::lake::Lake {
    datagen::registry::dataset("credit").unwrap().build_lake()
}

#[test]
fn beam_pruning_reduces_joins_without_losing_the_lake() {
    let ctx = context_from_lake(&credit_lake(), &SchemaMatcher::paper_default()).unwrap();
    let wide = AutoFeat::paper().discover(&ctx).unwrap();
    let cfg = AutoFeatConfig { beam_width: Some(3), ..AutoFeatConfig::paper() };
    let narrow = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
    assert!(narrow.n_joins_evaluated <= wide.n_joins_evaluated);
    // The beam must still find *some* useful features.
    assert!(!narrow.selected_features.is_empty());
    let out = train_top_k(&ctx, &narrow, &[ModelKind::LightGbm], &cfg).unwrap();
    assert!(out.result.mean_accuracy() > 0.6);
}

#[test]
fn lsh_discovery_agrees_with_full_matching_on_key_edges() {
    let lake = credit_lake();
    let refs: Vec<&Table> = lake.tables.iter().collect();
    let matcher = SchemaMatcher::paper_default();
    let full = match_oracle::drg_edges(&refs);
    let built = match_oracle::edges_of(&DrgMaintainer::build(&refs, &matcher).assemble());
    assert!(
        full.iter().any(|(_, a_column, _, b_column, weight)| {
            a_column == b_column && f64::from_bits(*weight) > 0.9
        }),
        "the credit lake has KFK-style (same-name, full-overlap) key edges"
    );
    // The maintainer's DRG is the all-pairs reference's: every edge, key
    // edges among them, in the same order and with the same weight bits.
    assert_eq!(built, full);
}

#[test]
fn streaming_selector_matches_pipeline_semantics_end_to_end() {
    // Feed a base feature, then two batches; verify R_sel grows as it does
    // inside `AutoFeat::discover`, which runs this selector.
    let n = 300;
    let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
    let sig: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
    let noise: Vec<f64> = (0..n).map(|i| ((i * 17) % 7) as f64).collect();
    // CMIM's max-based penalty rejects exact duplicates regardless of how
    // many unrelated features sit in R_sel (MRMR's |S|-average dilutes it).
    let mut sel = StreamingSelector::new(
        labels,
        Some(RelevanceMethod::Spearman),
        Some(RedundancyMethod::Cmim),
        15,
    );
    sel.seed("base_noise", &noise);
    let first = sel.offer(&["t1.sig".to_string()], std::slice::from_ref(&sig));
    assert_eq!(first.selected.len(), 1);
    let second = sel.offer(&["t2.sig_copy".to_string()], &[sig]);
    assert!(second.selected.is_empty(), "copy of selected feature rejected");
    assert_eq!(sel.selected_names(), vec!["base_noise", "t1.sig"]);
}

#[test]
fn relational_ops_compose_with_the_lake() {
    // The table ops the pipeline composes — take, select, rename, label
    // encoding — over a lake's base: one class's rows, then the label's
    // codes, which must partition the rows the same way.
    let lake = credit_lake();
    let base = lake.base();
    let target = base.column("target").unwrap();
    let positives: Vec<usize> =
        (0..base.n_rows()).filter(|&i| target.get_f64(i) == Some(1.0)).collect();
    assert!(!positives.is_empty() && positives.len() < base.n_rows());
    let taken = base.take(&positives);
    assert!((0..taken.n_rows()).all(|i| taken.value("target", i).unwrap().as_f64() == Some(1.0)));
    let renamed = base.select(&["target"]).unwrap().rename_column("target", "y").unwrap();
    assert_eq!(renamed.n_rows(), base.n_rows());
    let codes = label_encode_column(renamed.column("y").unwrap()).to_f64_lossy();
    let positive_code = codes[positives[0]];
    let coded: Vec<usize> = (0..codes.len()).filter(|&i| codes[i] == positive_code).collect();
    assert_eq!(coded, positives);
}

#[test]
fn a_seeded_selector_scores_a_hop_as_discover_does() {
    // One hop, so the path's score is the hop's: Algorithm 2 over what the
    // selector reports must be `discover`'s score to the bit — for the full
    // pipeline and with either analysis off (the Fig. 9 ablations). With
    // redundancy off the selector used to hand the relevance scores back a
    // second time, as `J`, and the hop scored 2 · mean(rel).
    let n = 240usize;
    let target: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
    let float_col = |f: &dyn Fn(usize) -> f64| -> Vec<Option<f64>> { (0..n).map(|i| Some(f(i))).collect() };
    let keys: Vec<Option<i64>> = (0..n as i64).map(Some).collect();
    let base = Table::new(
        "base",
        vec![
            ("k", Column::from_ints(keys.clone())),
            ("w", Column::from_floats(float_col(&|i| ((i * 37) % 11) as f64))),
            ("target", Column::from_ints(target.iter().copied().map(Some).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let sat = Table::new(
        "sat",
        vec![
            ("k", Column::from_ints(keys)),
            ("strong", Column::from_floats(float_col(&|i| (i % 2) as f64 + ((i * 13) % 7) as f64 * 0.1))),
            ("echo", Column::from_floats(float_col(&|i| (i % 2) as f64 * 3.0 + ((i * 5) % 3) as f64 * 0.2))),
            ("noise", Column::from_floats(float_col(&|i| ((i * 17) % 7) as f64))),
        ],
    )
    .unwrap();
    let encoded = |t: &Table, c: &str| label_encode_column(t.column(c).unwrap()).to_f64_lossy();
    let labels: Vec<i64> = encoded(&base, "target").iter().map(|&v| v as i64).collect();
    let names: Vec<String> = ["strong", "echo", "noise"].iter().map(|c| format!("sat.{c}")).collect();
    let data: Vec<Vec<f64>> = ["strong", "echo", "noise"].iter().map(|c| encoded(&sat, c)).collect();
    let ctx = SearchContext::from_kfk(
        vec![base.clone(), sat],
        &[("base".into(), "k".into(), "sat".into(), "k".into())],
        "base",
        "target",
    )
    .unwrap();
    let full = AutoFeatConfig::default();
    let variants = [
        ("full", full.clone()),
        ("redundancy off", AutoFeatConfig { redundancy: None, ..full.clone() }),
        ("relevance off", AutoFeatConfig { relevance: None, ..full }),
    ];
    for (label, cfg) in variants {
        let result = AutoFeat::new(cfg.clone()).discover(&ctx).unwrap();
        assert_eq!(result.ranked.len(), 1, "{label}");
        let mut sel = StreamingSelector::new(labels.clone(), cfg.relevance, cfg.redundancy, cfg.kappa);
        sel.seed("w", &encoded(&base, "w"));
        let out = sel.offer(&names, &data);
        let score = compute_score(out.relevance_scores(), out.redundancy_scores());
        assert!(score > 0.0, "{label}");
        assert_eq!(score.to_bits(), result.ranked[0].score.to_bits(), "{label}");
        let picked: Vec<&str> = out.selected.iter().map(|&i| names[i].as_str()).collect();
        assert_eq!(picked, result.ranked[0].features, "{label}");
    }
}

#[test]
fn cross_validation_on_an_augmented_table() {
    let spec = datagen::registry::dataset("credit").unwrap();
    let ctx = context_from_snowflake(&spec.build_snowflake()).unwrap();
    let discovery = AutoFeat::paper().discover(&ctx).unwrap();
    let best = &discovery.ranked[0];
    let table =
        autofeat::core::materialize_path(&ctx, ctx.base_table(), &best.path, 0).unwrap();
    let features: Vec<&str> = best.features.iter().map(String::as_str).collect();
    // Four seeded 80/20 splits, each trained and scored as training does.
    let accs: Vec<f64> = (0..4)
        .map(|seed| {
            let models = [ModelKind::RandomForest];
            evaluate_feature_set(&table, &features, "target", &models, seed).unwrap()[0].1
        })
        .collect();
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    assert!(mean > 0.6, "mean over four splits on augmented features = {mean}");
}
