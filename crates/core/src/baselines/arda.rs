//! The ARDA baseline (Chepurko et al., PVLDB 2020), re-implemented from the
//! paper's description — exactly as the AutoFeat authors did ("since the
//! source code was unavailable, we implemented the feature selection part
//! of the system").
//!
//! ARDA is **single-hop**: it left-joins every table directly connected to
//! the base (a star), then runs *random-injection feature selection* (RIFS):
//! random probe features are injected, a random forest is trained, and real
//! features are kept only when their impurity importance beats the probes'
//! quantile across repeated trials; a wrapper picks the best keep-threshold
//! by validation accuracy. The repeated model training is what makes ARDA
//! slow relative to AutoFeat's heuristic ranking.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::encode::to_matrix;
use autofeat_data::sample::train_test_split;
use autofeat_data::Result;
use autofeat_ml::eval::{accuracy, Classifier, ModelKind};
use autofeat_ml::forest::RandomForest;

use super::bfs_join;
use crate::context::SearchContext;
use crate::report::MethodResult;
use crate::train::evaluate_feature_set;

/// Injection trials.
const N_TRIALS: usize = 4;
/// Injected random features per trial, as a fraction of the real feature
/// count.
const INJECTION_FRAC: f64 = 0.2;
/// Candidate keep-thresholds (fraction of trials a feature must win); the
/// wrapper picks the best by validation accuracy.
const THRESHOLDS: [f64; 3] = [0.25, 0.5, 0.75];
/// Quantile of the random-probe importances a real feature must exceed to
/// win a trial.
const PROBE_QUANTILE: f64 = 0.75;

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[pos]
}

/// Run the ARDA baseline.
pub fn run_arda(ctx: &SearchContext, models: &[ModelKind], seed: u64) -> Result<MethodResult> {
    let _span = autofeat_obs::span("baseline_arda");
    let _scope = autofeat_data::RequestScope::with_ctl(ctx.control()).enter();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. Single-hop star join.
    let (table, joined) = bfs_join(ctx, seed, Some(1))?;
    let label = ctx.label();
    let feature_names: Vec<String> = table
        .column_names()
        .into_iter()
        .filter(|c| *c != label)
        .map(String::from)
        .collect();
    let refs: Vec<&str> = feature_names.iter().map(String::as_str).collect();

    // 2. RIFS on a train/validation split.
    let split = train_test_split(&table, label, 0.25, &mut rng)?;
    let train_m = to_matrix(&split.train, &refs, label)?;
    let valid_m = to_matrix(&split.test, &refs, label)?;
    let d = train_m.n_features();
    let n_probes = ((d as f64 * INJECTION_FRAC).ceil() as usize).max(1);

    let mut wins = vec![0usize; d];
    for trial in 0..N_TRIALS {
        if ctx.control().interrupted().is_some() {
            break;
        }
        // Inject random probe features.
        let mut injected = train_m.clone();
        for p in 0..n_probes {
            let col: Vec<f64> = (0..injected.n_rows)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            injected.feature_names.push(format!("__probe_{p}"));
            injected.cols.push(col);
        }
        let mut rf = RandomForest::default_seeded(seed ^ ((trial as u64) << 3));
        if rf.fit(&injected).is_err() {
            continue;
        }
        let imp = rf.feature_importances(injected.n_features());
        let mut probe_imp: Vec<f64> = imp[d..].to_vec();
        probe_imp.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let bar = quantile(&probe_imp, PROBE_QUANTILE);
        for (j, &v) in imp[..d].iter().enumerate() {
            if v > bar {
                wins[j] += 1;
            }
        }
    }

    // 3. Wrapper: pick the keep-threshold with the best validation
    //    accuracy (more model executions — the ARDA cost profile).
    let mut best: Option<(Vec<usize>, f64)> = None;
    for &thr in &THRESHOLDS {
        if ctx.control().interrupted().is_some() {
            break;
        }
        let need = (thr * N_TRIALS as f64).ceil() as usize;
        let kept: Vec<usize> = (0..d).filter(|&j| wins[j] >= need).collect();
        if kept.is_empty() {
            continue;
        }
        let sub_train = train_m.select_features(&kept);
        let sub_valid = valid_m.select_features(&kept);
        let mut rf = RandomForest::default_seeded(seed ^ 0xa11);
        if rf.fit(&sub_train).is_err() {
            continue;
        }
        let acc = accuracy(&rf.predict(&sub_valid), &sub_valid.labels);
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((kept, acc));
        }
    }
    let kept = best.map(|(k, _)| k).unwrap_or_else(|| (0..d).collect());
    let kept_names: Vec<&str> = kept.iter().map(|&j| refs[j]).collect();
    let fs_time = t0.elapsed();

    // 4. Final evaluation with the requested models.
    let accs = evaluate_feature_set(&table, &kept_names, label, models, seed)?;
    Ok(MethodResult {
        method: "ARDA".into(),
        accuracy_per_model: accs,
        feature_selection_time: fs_time,
        total_time: t0.elapsed(),
        n_tables_joined: joined.len(),
        n_features: kept_names.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat_data::{Column, Table};

    /// base(k, target) — s1(k, signal) — s2(k2 only reachable from s1).
    fn ctx(n: usize) -> SearchContext {
        let labels: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
        let base = Table::new(
            "base",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                (
                    "noise",
                    Column::from_floats((0..n).map(|i| Some(((i * 31) % 17) as f64)).collect::<Vec<_>>()),
                ),
                ("target", Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>())),
            ],
        )
        .unwrap();
        let s1 = Table::new(
            "s1",
            vec![
                ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(700 + i)).collect::<Vec<_>>())),
                (
                    "signal",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        let s2 = Table::new(
            "s2",
            vec![
                ("k2", Column::from_ints((0..n as i64).map(|i| Some(700 + i)).collect::<Vec<_>>())),
                (
                    "deep",
                    Column::from_floats(labels.iter().map(|&l| Some(l as f64 * 2.0)).collect::<Vec<_>>()),
                ),
            ],
        )
        .unwrap();
        SearchContext::from_kfk(
            vec![base, s1, s2],
            &[
                ("base".into(), "k".into(), "s1".into(), "k".into()),
                ("s1".into(), "k2".into(), "s2".into(), "k2".into()),
            ],
            "base",
            "target",
        )
        .unwrap()
    }

    #[test]
    fn arda_joins_only_direct_neighbours() {
        let c = ctx(200);
        let r = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        // s2 is two hops away: ARDA cannot reach it.
        assert_eq!(r.n_tables_joined, 1);
        assert_eq!(r.method, "ARDA");
    }

    #[test]
    fn arda_finds_the_single_hop_signal() {
        let c = ctx(300);
        let r = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        let acc = r.mean_accuracy();
        assert!(acc > 0.9, "ARDA should exploit s1.signal, acc = {acc}");
    }

    #[test]
    fn rifs_keeps_fewer_than_all_features() {
        let c = ctx(300);
        let r = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        // base has k + noise; join adds s1.{k, k2, signal} ⇒ 5 candidates.
        assert!(r.n_features < 5, "RIFS should drop probes-losing features, kept {}", r.n_features);
        assert!(r.n_features >= 1);
    }

    #[test]
    fn quantile_helper() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ctx(150);
        let a = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        let b = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        assert_eq!(a.n_features, b.n_features);
        assert_eq!(a.accuracy_per_model, b.accuracy_per_model);
    }

    #[test]
    fn cancelled_context_yields_base_only_result() {
        let c = ctx(120);
        c.control().cancel();
        let r = run_arda(&c, &[ModelKind::RandomForest], 17).unwrap();
        assert_eq!(r.n_tables_joined, 0, "star join must wind down before joining");
    }
}
