//! Criterion: the join kernel.
//!
//! Two groups. `left_join_normalized` is the cold path — index build plus
//! the join that fills its pick array, on dictionary-less tables, scaling in
//! rows and key multiplicity. `join_kernel` is what a resident request pays
//! per hop: a warm, prebuilt coded index, whose pick array each table's
//! first join fills for its seed and every later one reads (left key → code
//! → row), probed at the two shapes the repository's benchmark serves
//! (`star_warm`: 1 000 sampled base rows against 64 satellites of 16 000
//! rows, dup 4, 3 columns, cycled so no satellite stays in cache;
//! `wide_fullscan`'s mid level: 16 000 base rows against 32 000 rows, dup 2,
//! 10 columns), a second hop keyed on a view, and the read-through
//! extraction that first touches a joined column's cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

use autofeat_data::join::{left_join_normalized, left_join_with_index, JoinIndex};
use autofeat_data::{Column, Table};

fn tables(n: usize, dup: usize) -> (Table, Table) {
    let left = Table::new(
        "l",
        vec![
            ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
            ("x", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let rkeys: Vec<Option<i64>> = (0..n as i64).flat_map(|k| vec![Some(k); dup]).collect();
    let rvals: Vec<Option<f64>> = rkeys.iter().map(|k| k.map(|v| v as f64)).collect();
    let right = Table::new(
        "r",
        vec![("k", Column::from_ints(rkeys)), ("v", Column::from_floats(rvals))],
    )
    .unwrap();
    (left, right)
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("left_join_normalized");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000, 50_000] {
        let (l, r) = tables(n, 1);
        group.bench_with_input(BenchmarkId::new("1to1_rows", n), &n, |b, _| {
            b.iter(|| black_box(left_join_normalized(&l, &r, "k", "k", "r", 1).unwrap()))
        });
    }
    for &dup in &[1usize, 4, 16] {
        let (l, r) = tables(5_000, dup);
        group.bench_with_input(BenchmarkId::new("normalization_dup", dup), &dup, |b, _| {
            b.iter(|| black_box(left_join_normalized(&l, &r, "k", "k", "r", 1).unwrap()))
        });
    }
    group.finish();
}

/// A lake table as the benchmark's generator lays one out: keys `0..n_keys`
/// on `dup` rows each in shuffled order, an onward key `n`, `n_feat` float
/// features.
fn satellite(name: &str, seed: u64, n_keys: usize, dup: usize, n_feat: usize) -> Table {
    let mut rows: Vec<i64> = (0..n_keys * dup).map(|r| (r / dup) as i64).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed));
    let ints = |offset: i64| Column::from_ints(rows.iter().map(|&k| Some(k + offset)));
    let mut cols = vec![("k".to_string(), ints(0)), ("n".to_string(), ints(1))];
    for f in 0..n_feat {
        let vals =
            rows.iter().enumerate().map(|(i, &k)| Some((k * 31 + (i * f) as i64 % 97) as f64));
        cols.push((format!("f{f}"), Column::from_floats(vals)));
    }
    Table::new(name, cols).unwrap()
}

/// `n` base rows whose keys are a shuffled sample of `0..n_keys`.
fn base(n: usize, n_keys: usize) -> Table {
    let mut keys: Vec<i64> = (0..n_keys as i64).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(7));
    Table::new("base", vec![("k", Column::from_ints(keys[..n].iter().map(|&k| Some(k))))]).unwrap()
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_kernel");
    for (shape, n_left, n_keys, dup, n_feat, n_tables) in [
        ("star_warm_1000x16000_dup4_3col", 1_000, 4_000, 4, 1, 64),
        ("wide_mid_16000x32000_dup2_10col", 16_000, 16_000, 2, 8, 12),
    ] {
        let l = base(n_left, n_keys);
        let lake: Vec<(Table, JoinIndex)> = (0..n_tables)
            .map(|j| {
                let t = satellite(&format!("s{j}"), j as u64, n_keys, dup, n_feat);
                // Also the table's first use: its key dictionary and
                // fingerprints are built here, outside every timer below.
                let index = JoinIndex::build(&t, t.column("k").unwrap()).unwrap();
                (t, index)
            })
            .collect();
        let join_all = |left: &Table, key: &str| {
            for (j, (r, index)) in lake.iter().enumerate() {
                black_box(left_join_with_index(left, r, index, key, r.name(), j as u64).unwrap());
            }
        };
        group.bench_function(BenchmarkId::new("probe", shape), |b| b.iter(|| join_all(&l, "k")));
        // Second hop: the left key is a view produced by a first hop.
        let (r0, i0) = &lake[0];
        let hop1 = left_join_with_index(&l, r0, i0, "k", "h", 9).unwrap().table;
        group.bench_function(BenchmarkId::new("probe_view_keyed", shape), |b| {
            b.iter(|| join_all(&hop1, "h.k"))
        });
        // What scoring pays to read a joined column.
        let joined: Vec<Table> = lake
            .iter()
            .map(|(r, index)| left_join_with_index(&l, r, index, "k", r.name(), 3).unwrap().table)
            .collect();
        let mut buf = Vec::new();
        group.bench_function(BenchmarkId::new("read_through_f64", shape), |b| {
            b.iter(|| {
                for t in &joined {
                    t.column_at(t.n_cols() - 1).write_f64_lossy(&mut buf);
                    black_box(&buf);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join, bench_kernel);
criterion_main!(benches);
