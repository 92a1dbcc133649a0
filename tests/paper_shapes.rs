//! The shapes the paper claims (Figs. 4/6), asserted on the methods
//! `bench::run_all_methods` runs and sized for a debug build: AutoFeat lifts
//! a poor base table, keeps up with JoinAll+F while selecting in a fraction
//! of ARDA's time, and joins something. A model or kernel change that
//! quietly breaks a result of `EXPERIMENTS.md` fails here first.

use autofeat::metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat::metrics::redundancy::RedundancyScorer;
use autofeat::metrics::selection::select_non_redundant;
use autofeat::prelude::*;
use autofeat::{context_from_snowflake, datagen, obs};

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
        arda: run_arda(&ctx, models, seed).expect("ARDA runs"),
        join_all_f: run_join_all(&ctx, models, true, seed)
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

/// §V-D: MIFS and MRMR are the cheap criteria, having no conditional term.
/// Counted, not timed: with four noise features selected before and three
/// candidates that each carry one bit of a majority label — all kept, so no
/// criterion stops early — each of MIFS and MRMR takes fewer `ln`s
/// (`metrics.mi_log_terms`) than each of CIFE, JMI and CMIM.
#[test]
fn mifs_and_mrmr_take_fewer_logs_than_the_conditional_criteria() {
    let n = 1000;
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let bits: Vec<Vec<bool>> = (0..3).map(|_| (0..n).map(|_| next() % 2 == 1).collect()).collect();
    // Ten equal-frequency bins over distinct values, lifted above the rest
    // where `high` holds.
    let mut binned = |high: &dyn Fn(usize) -> bool| {
        let values: Vec<f64> =
            (0..n).map(|i| (next() >> 13) as f64 + if high(i) { 2f64.powi(52) } else { 0.0 }).collect();
        discretize_equal_frequency(&values, 10)
    };
    let noise: Vec<Discretized> = (0..4).map(|_| binned(&|_| false)).collect();
    let candidates: Vec<Discretized> = bits.iter().map(|b| binned(&|i| b[i])).collect();
    let majority = |i: usize| bits.iter().filter(|b| b[i]).count() >= 2;
    let labels = Discretized::from_codes((0..n).map(|i| Some(i64::from(majority(i)))));
    let cands: Vec<(usize, &Discretized)> = candidates.iter().enumerate().collect();
    let logs = |method: RedundancyMethod| {
        let tracer = obs::Tracer::enabled();
        let scorer = RedundancyScorer::new(method);
        let kept = obs::with_tracer(&tracer, || select_non_redundant(&cands, &noise, &labels, &scorer));
        assert_eq!(kept.len(), cands.len(), "{}: every candidate is kept", method.name());
        tracer.snapshot().counter("metrics.mi_log_terms").expect("counted")
    };
    let [mifs, mrmr, cife, jmi, cmim] = RedundancyMethod::all().map(logs);
    for (name, cheap) in [("MIFS", mifs), ("MRMR", mrmr)] {
        for (other, costly) in [("CIFE", cife), ("JMI", jmi), ("CMIM", cmim)] {
            assert!(cheap < costly, "{name} took {cheap} `ln`s, {other} {costly}");
        }
    }
}
