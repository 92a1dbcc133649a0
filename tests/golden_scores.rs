//! Golden result digests. Every other identity suite compares the optimized
//! stack with itself (cached vs uncached, 1 vs N threads, coded vs hashed), so
//! a float change shared by both sides passes them all. These literals were
//! captured at commit 6599ac1 — before the scoring kernels moved to dense bin
//! codes — and pin ranked paths, score bits, per-path features, the selected
//! set and the prune counters for three relevance/redundancy pairings.
//! `credit_training_and_baselines_match_golden` was captured at commit
//! 3f7e4b7 and pins what the baselines and `train_top_k` train on.
//!
//! A legitimate change of scores (a new estimator, a different bin rule) must
//! re-capture them deliberately: on a mismatch the test prints the actual
//! digest in paste-ready form.

use autofeat::prelude::*;

mod common;
use common::{lake_ctx, sparse_ctx, wide_uniform_ctx};

fn digest(ctx: &SearchContext, rel: RelevanceMethod, red: RedundancyMethod) -> Vec<String> {
    let cfg = AutoFeatConfig {
        relevance: Some(rel),
        redundancy: Some(red),
        ..AutoFeatConfig::default().with_threads(1)
    };
    let r = AutoFeat::new(cfg).discover(ctx).unwrap();
    let mut lines: Vec<String> = r
        .ranked
        .iter()
        .map(|p| format!("{} | {:016x} | {}", p.path, p.score.to_bits(), p.features.join(",")))
        .collect();
    lines.push(format!("selected | {}", r.selected_features.join(",")));
    lines.push(format!(
        "joins {} unjoinable {} quality {}",
        r.n_joins_evaluated, r.n_pruned_unjoinable, r.n_pruned_quality
    ));
    lines
}

const PAIRINGS: [(RelevanceMethod, RedundancyMethod); 3] = [
    (RelevanceMethod::Spearman, RedundancyMethod::Mrmr),
    (RelevanceMethod::InformationGain, RedundancyMethod::Jmi),
    (RelevanceMethod::Pearson, RedundancyMethod::Cmim),
];

fn check_all(what: &str, ctx: &SearchContext, expected: [&[&str]; 3]) {
    let mut report = String::new();
    for ((rel, red), want) in PAIRINGS.into_iter().zip(expected) {
        let actual = digest(ctx, rel, red);
        if actual.iter().map(String::as_str).ne(want.iter().copied()) {
            report.push_str(&format!("{what} {}+{}: actual digest:\n", rel.name(), red.name()));
            for l in &actual {
                report.push_str(&format!("            {l:?},\n"));
            }
        }
    }
    assert!(report.is_empty(), "digest differs from the golden literal\n{report}");
}

#[test]
fn lake_ctx_matches_golden() {
    check_all(
        "lake_ctx(200)",
        &lake_ctx(200),
        [
            &[
                "base.k -> s1.k -> s2.k2 | 400094c16a300993 | s2.deep",
                "base.k -> sib.k | 3fb8a8a49c7caaf2 | ",
                "base.k -> s1.k | 3fb3848c4a0d2d5a | ",
                "selected | s2.deep",
                "joins 4 unjoinable 1 quality 0",
            ],
            &[
                "base.k -> s1.k -> s2.k2 | 4002855006426522 | s1.f1,s2.deep",
                "base.k -> sib.k | 3fe48e2f0cd12da1 | sib.g",
                "base.k -> s1.k | 3fd526bbd283544c | s1.f1",
                "selected | s1.f1,sib.g,s2.deep",
                "joins 4 unjoinable 1 quality 0",
            ],
            &[
                "base.k -> s1.k -> s2.k2 | 4000934337779e81 | s1.f1,s2.deep",
                "base.k -> sib.k | 3fbe19b674f117e8 | sib.g",
                "base.k -> s1.k | 3fb84118fb9948c0 | s1.f1",
                "selected | s1.f1,sib.g,s2.deep",
                "joins 4 unjoinable 1 quality 0",
            ],
        ],
    );
}

#[test]
fn wide_uniform_ctx_matches_golden() {
    check_all(
        "wide_uniform_ctx(6, 300, 2)",
        &wide_uniform_ctx(6, 300, 2),
        [
            &[
                "base.k -> sat02.k | 3faf9cae54ad6bfe | ",
                "base.k -> sat00.k | 3faa1806e4fd8d93 | ",
                "base.k -> sat04.k | 3fa7e2f647fdd855 | ",
                "base.k -> sat01.k | 3fa56740c6b74e3e | ",
                "base.k -> sat05.k | 3f9a18167a51a674 | ",
                "base.k -> sat03.k | 3f965963008a7e89 | ",
                "selected | ",
                "joins 6 unjoinable 0 quality 0",
            ],
            &[
                "base.k -> sat00.k | 3fd4a0197b852ef0 | sat00.f",
                "base.k -> sat04.k | 3fcf3b539279cd46 | sat04.f",
                "base.k -> sat05.k | 3fcd99037119c7d4 | sat05.f",
                "base.k -> sat02.k | 3fcca5e1deecbca2 | sat02.f",
                "base.k -> sat03.k | 3fcae35e50ec9272 | sat03.f",
                "base.k -> sat01.k | 3fca6fbe80508d00 | sat01.f",
                "selected | sat00.f,sat01.f,sat02.f,sat03.f,sat04.f,sat05.f",
                "joins 6 unjoinable 0 quality 0",
            ],
            &[
                "base.k -> sat02.k | 3fb346d3b9df23dc | sat02.f",
                "base.k -> sat00.k | 3fb1337be2cbe892 | sat00.f",
                "base.k -> sat04.k | 3fabd368749478d4 | sat04.f",
                "base.k -> sat01.k | 3faaa46d1e3424bd | sat01.f",
                "base.k -> sat05.k | 3fa283a812913495 | sat05.f",
                "base.k -> sat03.k | 3f9b9c35c2370c42 | sat03.f",
                "selected | sat00.f,sat01.f,sat02.f,sat03.f,sat04.f,sat05.f",
                "joins 6 unjoinable 0 quality 0",
            ],
        ],
    );
}

#[test]
fn sparse_ctx_matches_golden() {
    check_all(
        "sparse_ctx(400)",
        &sparse_ctx(400),
        [
            &[
                "base.k -> part.k -> deep.k2 | 3ff85e3dc677317e | part.sig,part.v5,part.v2,part.wide,part.v1,deep.d",
                "base.k -> part.k | 3fec8fbda4385108 | part.sig,part.v5,part.v2,part.wide,part.v1",
                "selected | part.sig,part.v5,part.v2,part.wide,part.v1,deep.d",
                "joins 3 unjoinable 0 quality 1",
            ],
            &[
                "base.k -> part.k -> deep.k2 | 3ff5830c4d40de70 | part.v1,part.v5,part.sig,part.dup,part.v4,part.v3,part.wide,part.v2,part.v0,deep.d",
                "base.k -> part.k | 3feb027832ceaf9b | part.v1,part.v5,part.sig,part.dup,part.v4,part.v3,part.wide,part.v2,part.v0",
                "selected | part.v1,part.v5,part.sig,part.dup,part.v4,part.v3,part.wide,part.v2,part.v0,deep.d",
                "joins 3 unjoinable 0 quality 1",
            ],
            &[
                "base.k -> part.k -> deep.k2 | 3ff547bcab55b1b8 | part.sig,part.v5,part.v4,part.v2,part.v3,part.wide,part.v1",
                "base.k -> part.k | 3fec2c1932aa81ac | part.sig,part.v5,part.v4,part.v2,part.v3,part.wide,part.v1",
                "selected | part.sig,part.v5,part.v4,part.v2,part.v3,part.wide,part.v1",
                "joins 3 unjoinable 0 quality 1",
            ],
        ],
    );
}

/// One line per method: per-model accuracy bits, tables joined and feature
/// count; `train_top_k` adds its best path and per-path accuracy bits.
fn method_line(r: &MethodResult) -> String {
    let accs: Vec<String> =
        r.accuracy_per_model.iter().map(|(m, a)| format!("{m:?}={:016x}", a.to_bits())).collect();
    format!("{} | {} | tables {} features {}", r.method, accs.join(","), r.n_tables_joined, r.n_features)
}

fn training_digest(ctx: &SearchContext) -> Vec<String> {
    let models = [ModelKind::RandomForest];
    let seed = 5;
    let mut lines = vec![
        method_line(&run_arda(ctx, &models, seed).unwrap()),
        method_line(&run_mab(ctx, &models, seed).unwrap()),
    ];
    for filter in [false, true] {
        lines.push(match run_join_all(ctx, &models, filter, seed).unwrap() {
            Some(r) => method_line(&r),
            None => format!("JoinAll filter={filter} skipped"),
        });
    }
    let cfg = AutoFeatConfig::paper().with_seed(seed).with_threads(1);
    let discovery = AutoFeat::new(cfg.clone()).discover(ctx).unwrap();
    let trained = train_top_k(ctx, &discovery, &models, &cfg).unwrap();
    lines.push(method_line(&trained.result));
    lines.push(format!("best | {}", trained.best_path.map_or("none".into(), |p| p.path.to_string())));
    let per_path: Vec<String> =
        trained.per_path_accuracy.iter().map(|a| format!("{:016x}", a.to_bits())).collect();
    lines.push(format!("per path | {}", per_path.join(",")));
    lines
}

/// ARDA, MAB, JoinAll, JoinAll+F and `train_top_k` on `credit`, in the KFK
/// and the lake setting. The baselines and training re-join at full scale
/// through the same cache as discovery, so these also pin that every
/// consumer joins a hop the same way, at any cache budget.
#[test]
fn credit_training_and_baselines_match_golden() {
    let spec = autofeat::datagen::registry::dataset("credit").unwrap();
    let settings: [(&str, SearchContext, &[&str]); 2] = [
        (
            "kfk",
            autofeat::context_from_snowflake(&spec.build_snowflake()).unwrap(),
            &[
                "ARDA | RandomForest=3fdf5c28f5c28f5c | tables 2 features 7",
                "MAB | RandomForest=3feca3d70a3d70a4 | tables 3 features 21",
                "JoinAll | RandomForest=3fed99999999999a | tables 5 features 31",
                "JoinAll+F | RandomForest=3fed70a3d70a3d71 | tables 5 features 15",
                "AutoFeat | RandomForest=3fed47ae147ae148 | tables 5 features 10",
                "best | base.s0_id -> s0.s0_id -> s3.s3_id",
                "per path | 3feb333333333333,3fdf0a3d70a3d70a,3fe8a3d70a3d70a4,3fdf0a3d70a3d70a",
            ][..],
        ),
        (
            "lake",
            autofeat::context_from_lake(&spec.build_lake(), &SchemaMatcher::paper_default()).unwrap(),
            &[
                "ARDA | RandomForest=3fdccccccccccccd | tables 3 features 7",
                "MAB | RandomForest=3fec51eb851eb852 | tables 3 features 23",
                "JoinAll | RandomForest=3fec28f5c28f5c29 | tables 5 features 33",
                "JoinAll+F | RandomForest=3fec28f5c28f5c29 | tables 5 features 15",
                "AutoFeat | RandomForest=3feccccccccccccd | tables 5 features 13",
                "best | base.s0_id -> s0.s0_id -> s3.s3_id",
                "per path | 3feb333333333333,3fe999999999999a,3fe851eb851eb852,3fe2147ae147ae14",
            ][..],
        ),
    ];
    let mut report = String::new();
    for (what, ctx, want) in &settings {
        let actual = training_digest(ctx);
        if actual.iter().map(String::as_str).ne(want.iter().copied()) {
            report.push_str(&format!("credit {what}: actual digest:\n"));
            for l in &actual {
                report.push_str(&format!("            {l:?},\n"));
            }
        }
    }
    assert!(report.is_empty(), "digest differs from the golden literal\n{report}");
}
