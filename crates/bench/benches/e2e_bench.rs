//! Criterion: AutoFeat end-to-end discovery on a small generated lake —
//! the cost of one full Algorithm 1 run (without model training).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use autofeat_bench::Setting;
use autofeat_core::{AutoFeat, AutoFeatConfig};
use autofeat_datagen::registry::dataset;

fn bench_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("autofeat_e2e");
    group.sample_size(10);

    for name in ["credit", "steel"] {
        let spec = dataset(name).unwrap();
        let ctx = Setting::Benchmark.context(&spec);
        group.bench_with_input(BenchmarkId::new("discover_kfk", name), &name, |b, _| {
            b.iter(|| {
                black_box(
                    AutoFeat::new(AutoFeatConfig::paper())
                        .discover(&ctx)
                        .unwrap(),
                )
            })
        });
    }

    let spec = dataset("credit").unwrap();
    let lake_ctx = Setting::Lake.context(&spec);
    group.bench_function("discover_lake_credit", |b| {
        b.iter(|| {
            black_box(
                AutoFeat::new(AutoFeatConfig::paper())
                    .discover(&lake_ctx)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
