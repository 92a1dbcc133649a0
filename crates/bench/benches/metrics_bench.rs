//! Criterion: relevance/redundancy metric scaling — the cost asymmetry the
//! paper exploits (Spearman ≪ MI-based methods; MRMR ≪ JMI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use autofeat_metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat_metrics::mi::mutual_information;
use autofeat_metrics::redundancy::{RedundancyMethod, RedundancyScorer};
use autofeat_metrics::relevance::RelevanceMethod;

fn feature(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed)) % 1000) as f64)
        .collect()
}

fn labels(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| i % 2).collect()
}

fn bench_relevance(c: &mut Criterion) {
    let mut group = c.benchmark_group("relevance");
    group.sample_size(30);
    let n = 10_000;
    let x = feature(n, 7);
    let y = labels(n);
    group.bench_function("spearman_10k", |b| {
        b.iter(|| black_box(RelevanceMethod::Spearman.scores(std::slice::from_ref(&x), &y)[0]))
    });
    for method in RelevanceMethod::all() {
        let feats = vec![x.clone()];
        group.bench_with_input(
            BenchmarkId::new("method_10k", method.name()),
            &method,
            |b, &m| b.iter(|| black_box(m.scores(&feats, &y))),
        );
    }
    group.finish();
}

fn bench_mi(c: &mut Criterion) {
    let mut group = c.benchmark_group("mutual_information");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000, 100_000] {
        let x = discretize_equal_frequency(&feature(n, 3), 10);
        let y = Discretized::from_codes(labels(n).into_iter().map(Some));
        group.bench_with_input(BenchmarkId::new("rows", n), &n, |b, _| {
            b.iter(|| black_box(mutual_information(&x, &y)))
        });
    }
    group.finish();
}

fn bench_redundancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("redundancy");
    group.sample_size(20);
    let n = 5_000;
    // Pre-discretize (as Algorithm 1 does: codes are computed once per
    // feature and cached) so the bench isolates the criterion cost — the
    // MIFS/MRMR vs CIFE/JMI/CMIM asymmetry of Fig. 3b.
    let candidate = discretize_equal_frequency(&feature(n, 11), 10);
    let selected: Vec<Discretized> = (0..8)
        .map(|s| discretize_equal_frequency(&feature(n, 100 + s), 10))
        .collect();
    let sel_refs: Vec<&Discretized> = selected.iter().collect();
    let y = Discretized::from_codes(labels(n).into_iter().map(Some));
    for method in RedundancyMethod::all() {
        let scorer = RedundancyScorer::new(method);
        group.bench_with_input(
            BenchmarkId::new("J_vs_8_selected", method.name()),
            &method,
            |b, _| b.iter(|| black_box(scorer.score_codes(&candidate, &sel_refs, &y))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_relevance, bench_mi, bench_redundancy);
criterion_main!(benches);
