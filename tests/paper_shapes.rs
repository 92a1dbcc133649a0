//! The shapes the paper claims (Figs. 4/6), asserted on the methods
//! `bench::run_all_methods` runs and sized for a debug build: AutoFeat lifts
//! a poor base table, keeps up with JoinAll+F while selecting in a fraction
//! of ARDA's time, and joins something. A model or kernel change that
//! quietly breaks a result of `EXPERIMENTS.md` fails here first.

use autofeat::prelude::*;
use autofeat::{context_from_snowflake, datagen};

/// Mean test accuracy of AutoFeat on `credit` over the four tree learners,
/// captured at commit a99bae0 (the exact-split trees). Parity is held to
/// one standard error of a 200-row test split, not to the bit.
const CREDIT_AUTOFEAT_AT_PARENT: f64 = 0.8488;
const PARITY: f64 = 0.015;

struct Shapes {
    base: MethodResult,
    autofeat: MethodResult,
    arda: MethodResult,
    join_all_f: MethodResult,
}

fn shapes(dataset: &str, models: &[ModelKind]) -> Shapes {
    let spec = datagen::registry::dataset(dataset).expect("dataset is in Table II");
    let ctx = context_from_snowflake(&spec.build_snowflake()).expect("context builds");
    let seed = spec.seed;
    let cfg = AutoFeatConfig::paper().with_seed(seed);
    let discovery = AutoFeat::new(cfg.clone()).discover(&ctx).expect("discovery runs");
    Shapes {
        base: run_base(&ctx, models, seed).expect("BASE runs"),
        autofeat: train_top_k(&ctx, &discovery, models, &cfg).expect("training runs").result,
        arda: run_arda(&ctx, models, &ArdaConfig { seed, ..Default::default() })
            .expect("ARDA runs"),
        join_all_f: run_join_all(
            &ctx,
            models,
            &JoinAllConfig { filter: true, seed, ..Default::default() },
        )
        .expect("JoinAll+F runs")
        .expect("the KFK snowflake is JoinAll-feasible"),
    }
}

fn assert_shapes(dataset: &str, s: &Shapes) {
    let (base, af) = (s.base.mean_accuracy(), s.autofeat.mean_accuracy());
    assert!(af >= base + 0.2, "{dataset}: AutoFeat {af:.3} should lift BASE {base:.3} by 0.2");
    let jaf = s.join_all_f.mean_accuracy();
    assert!(af >= jaf - 0.05, "{dataset}: AutoFeat {af:.3} should keep up with JoinAll+F {jaf:.3}");
    assert!(
        s.autofeat.feature_selection_time < s.arda.feature_selection_time,
        "{dataset}: AutoFeat selects in {:?}, ARDA in {:?}",
        s.autofeat.feature_selection_time,
        s.arda.feature_selection_time
    );
    assert!(s.autofeat.n_tables_joined >= 1, "{dataset}: AutoFeat joined nothing");
}

#[test]
fn credit_with_the_four_tree_learners() {
    let s = shapes("credit", &ModelKind::tree_models());
    assert_shapes("credit", &s);
    let af = s.autofeat.mean_accuracy();
    assert!(
        (af - CREDIT_AUTOFEAT_AT_PARENT).abs() <= PARITY,
        "credit: AutoFeat {af:.4} left the parity band around {CREDIT_AUTOFEAT_AT_PARENT}"
    );
}

#[test]
fn steel_with_lightgbm() {
    assert_shapes("steel", &shapes("steel", &[ModelKind::LightGbm]));
}
