//! Criterion: what training costs — binning a matrix, fitting each of the
//! four tree learners on it, and predicting — at the shape of one
//! materialized join path (2 400 rows × 6 / 17 / 40 features), plus the
//! boosted fits at 24 000 × 17, where the row pass outweighs the bin scan
//! and the two can be told apart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use autofeat_data::encode::Matrix;
use autofeat_ml::bins::BinnedMatrix;
use autofeat_ml::eval::ModelKind;

/// Continuous features with every fourth one a 12-valued category; the
/// label follows three of them through noise, so trees keep splitting.
fn matrix(n_rows: usize, n_features: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(17);
    let cols: Vec<Vec<f64>> = (0..n_features)
        .map(|j| {
            (0..n_rows)
                .map(|_| {
                    if j % 4 == 3 {
                        rng.random_range(0..12) as f64
                    } else {
                        rng.random_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let labels = (0..n_rows)
        .map(|i| {
            let signal = cols[0][i] + 0.5 * cols[1][i] - cols[2][i];
            i64::from(signal + rng.random_range(-0.6..0.6) > 0.0)
        })
        .collect();
    Matrix {
        feature_names: (0..n_features).map(|j| format!("f{j}")).collect(),
        cols,
        labels,
        n_rows,
    }
}

const SHAPES: [(usize, usize); 3] = [(2_400, 6), (2_400, 17), (2_400, 40)];

fn bench_bin_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_matrix");
    for (rows, features) in SHAPES.into_iter().chain([(24_000, 17)]) {
        let m = matrix(rows, features);
        group.bench_with_input(BenchmarkId::new(format!("{rows}x"), features), &m, |b, m| {
            b.iter(|| black_box(BinnedMatrix::new(m)))
        });
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let learners = [
        ("gbdt_fit/lightgbm_like", ModelKind::LightGbm),
        ("gbdt_fit/xgboost_like", ModelKind::XgBoost),
        ("forest_fit", ModelKind::RandomForest),
        ("extra_trees_fit", ModelKind::ExtraTrees),
    ];
    for (name, kind) in learners {
        let boosted = matches!(kind, ModelKind::LightGbm | ModelKind::XgBoost);
        let mut group = c.benchmark_group(name);
        for (rows, features) in SHAPES.into_iter().chain(boosted.then_some((24_000, 17))) {
            let m = matrix(rows, features);
            group.bench_with_input(BenchmarkId::new(format!("{rows}x"), features), &m, |b, m| {
                b.iter(|| {
                    let mut model = kind.build(1);
                    model.fit(m).expect("binary labels fit");
                    black_box(model.is_fitted())
                })
            });
        }
        group.finish();
    }
}

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict");
    for (rows, features) in SHAPES {
        let m = matrix(rows, features);
        for kind in ModelKind::tree_models() {
            let mut model = kind.build(1);
            model.fit(&m).expect("binary labels fit");
            let id = BenchmarkId::new(format!("{}/{rows}x", kind.name()), features);
            group.bench_with_input(id, &m, |b, m| b.iter(|| black_box(model.predict(m))));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bin_matrix, bench_fit, bench_predict);
criterion_main!(benches);
