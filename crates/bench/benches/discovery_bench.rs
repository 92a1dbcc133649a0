//! Criterion: the cold path's kernels — CSV ingest, column profiling, pair
//! scoring — and schema-matcher scaling, the offline DRG-construction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use autofeat_data::csv::{read_csv_str, write_csv_str};
use autofeat_data::{Column, Table};
use autofeat_graph::discovery::{ColumnProfile, MinHash, SchemaMatcher};

fn table(name: &str, n_rows: usize, n_cols: usize, offset: i64) -> Table {
    let cols: Vec<(String, Column)> = (0..n_cols)
        .map(|c| {
            (
                format!("col_{name}_{c}"),
                Column::from_ints(
                    (0..n_rows as i64).map(|i| Some(offset + i * (c as i64 + 1))).collect::<Vec<_>>(),
                ),
            )
        })
        .collect();
    Table::new(name, cols).unwrap()
}

fn bench_profiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        let t = table("a", n, 8, 0);
        group.bench_with_input(BenchmarkId::new("profile_8cols_rows", n), &n, |b, _| {
            b.iter(|| black_box(ColumnProfile::build_all(&t)))
        });
    }
    // 8 × 4 000, the lake workloads' table shape; one typed row pass
    // whether or not the table is keyed.
    let lake_shaped = table("a", 4_000, 8, 0);
    group.bench_function("profile_build", |b| {
        b.iter(|| black_box(ColumnProfile::build_all(&lake_shaped)))
    });
    let a = ColumnProfile::build_all(&table("a", 5_000, 10, 0));
    let bp = ColumnProfile::build_all(&table("b", 5_000, 10, 2_500));
    let m = SchemaMatcher::paper_default();
    group.bench_function("match_10x10_profiles", |b| {
        b.iter(|| black_box(m.match_profiles(&a, &bp)))
    });
    group.bench_function("minhash_sketch_10k", |b| {
        b.iter(|| {
            black_box(MinHash::from_hashes(
                128,
                (0..10_000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)),
            ))
        })
    });
    group.finish();
}

/// One pair of single-column profiles per traffic shape the matcher sees,
/// scored by the merge alone (`instance_similarity`) and through
/// `match_score`, which asks the occupancy bound first. The name similarity
/// is 0.8 (`noise_3` against `noise_12`); under the paper blend the pair
/// then matches from an instance similarity of 0.3.
fn bench_pair_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_score");
    group.sample_size(20);
    let profile = |name: &str, values: std::ops::Range<i64>| {
        ColumnProfile::build("t", name, &Column::from_ints(values.map(Some)))
    };
    let shapes = [
        // Two unrelated 4 000-value columns: what most gated pairs are.
        ("disjoint_4k", profile("noise", 0..4_000), profile("other", 100_000..104_000)),
        // A foreign key's 1 000 values inside a 4 000-value primary key.
        ("contained_fk_in_pk", profile("fk", 1_000..2_000), profile("pk", 0..4_000)),
        // Disjoint, but 60 000 values set most of the map: the bound passes
        // the pair on and the merge decides.
        ("saturated_60k", profile("noise", 0..60_000), profile("other", 100_000..160_000)),
    ];
    let m = SchemaMatcher::paper_default();
    for (shape, a, b) in &shapes {
        group.bench_function(BenchmarkId::new(*shape, "merge"), |bench| {
            bench.iter(|| black_box(m.instance_similarity(a, b)))
        });
        group.bench_function(BenchmarkId::new(*shape, "match_score"), |bench| {
            bench.iter(|| black_box(m.match_score(|| 0.8, a, b)))
        });
    }
    group.finish();
}

/// One lake-shaped table — 4 000 rows of an integer key and six float
/// features — from CSV text to a table.
fn bench_csv(c: &mut Criterion) {
    let n = 4_000;
    let mut cols = vec![("id".to_string(), Column::from_ints((0..n).map(Some)))];
    for f in 0..6 {
        let values = (0..n).map(move |i| Some(((i * (f + 3)) % 9_973) as f64 / 7.0 - 300.0));
        cols.push((format!("f{f}"), Column::from_floats(values)));
    }
    let text = write_csv_str(&Table::new("t", cols).unwrap());
    c.bench_function("csv_read_lake_table", |b| {
        b.iter(|| black_box(read_csv_str("t", &text).unwrap()))
    });
}

criterion_group!(benches, bench_profiles, bench_pair_score, bench_csv);
criterion_main!(benches);
