//! Criterion: DRG traversal and path enumeration vs. graph density —
//! quantifying why the similarity-score pruning matters on multigraphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use autofeat_graph::traversal::{enumerate_paths, join_all_path_count};
use autofeat_graph::{Drg, DrgBuilder};

/// A snowflake with `n` satellites and branching `b`, plus `extra`
/// discovered multi-edges per adjacent pair (density knob).
fn graph(n: usize, b: usize, extra: usize) -> Drg {
    let mut builder = DrgBuilder::new();
    builder.add_table("base");
    for k in 0..n {
        let parent = if k < b { "base".to_string() } else { format!("s{}", (k - b) / b) };
        let child = format!("s{k}");
        builder.add_kfk(&parent, &format!("s{k}_id"), &child, &format!("s{k}_id"));
        for e in 0..extra {
            builder.add_discovered(
                &parent,
                &format!("c{e}"),
                &child,
                &format!("d{e}"),
                0.6 + 0.01 * e as f64,
            );
        }
    }
    builder.build()
}

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("drg_traversal");
    group.sample_size(50);
    for &extra in &[0usize, 2, 4] {
        let g = graph(12, 3, extra);
        let base = g.node("base").unwrap();
        group.bench_with_input(
            BenchmarkId::new("enumerate_all_edges_density", extra),
            &extra,
            |b, _| b.iter(|| black_box(enumerate_paths(&g, base, 3, false))),
        );
        group.bench_with_input(
            BenchmarkId::new("enumerate_best_edges_density", extra),
            &extra,
            |b, _| b.iter(|| black_box(enumerate_paths(&g, base, 3, true))),
        );
    }
    let g = graph(16, 16, 0); // star
    let base = g.node("base").unwrap();
    group.bench_function("join_all_count_star16", |b| {
        b.iter(|| black_box(join_all_path_count(&g, base)))
    });
    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
