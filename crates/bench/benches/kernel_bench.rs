//! Criterion: the hot-path kernels behind path evaluation — join-index
//! construction over a table's key metadata, index probing, the scoring primitives (discretization,
//! ranking, MI histograms), and reading a column's numbers out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use autofeat_data::join::{left_join_with_index, JoinIndex};
use autofeat_data::{Column, Table};
use autofeat_metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat_metrics::mi::{mutual_information, mutual_information_corrected};
use autofeat_metrics::ranks::{average_ranks, average_ranks_into};
use autofeat_metrics::redundancy::{RedundancyMethod, RedundancyScorer};
use autofeat_metrics::relevance::RelevanceMethod;
use autofeat_metrics::selection::{
    select_k_best, select_k_best_binned, select_non_redundant, SelectedSet,
};

/// A right table with `n` distinct keys × `dup` rows per key, and the
/// matching left table. The join column's dictionary and the fingerprints
/// are built by the first index over the table and shared by the rest.
fn join_tables(n: usize, dup: usize) -> (Table, Table) {
    let left = Table::new(
        "l",
        vec![
            ("k", Column::from_ints((0..n as i64).map(Some).collect::<Vec<_>>())),
            ("x", Column::from_floats((0..n).map(|i| Some(i as f64)).collect::<Vec<_>>())),
        ],
    )
    .unwrap();
    let m = n * dup;
    // Shuffle-ish key order so the first join's fill does not fold each
    // key's rows in one sequential run.
    let rkeys: Vec<Option<i64>> = (0..m).map(|i| Some(((i * 7 + 3) % m / dup) as i64)).collect();
    let rvals: Vec<Option<f64>> = rkeys.iter().map(|k| k.map(|v| v as f64)).collect();
    let right = Table::new(
        "r",
        vec![("k", Column::from_ints(rkeys)), ("v", Column::from_floats(rvals))],
    )
    .unwrap();
    (left, right)
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(20);
    for &n in &[5_000usize, 20_000] {
        let (_, right) = join_tables(n, 3);
        let col = right.column("k").unwrap().clone();
        // First use, outside the timer: the timer sees a build over
        // metadata that is there (keys repeat, so it reads no row; the
        // first join fills the picks).
        black_box(JoinIndex::build(&right, &col).unwrap());
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(JoinIndex::build(&right, &col).unwrap()))
        });
    }
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_probe");
    group.sample_size(20);
    let (l, r) = join_tables(10_000, 3);
    let rcol = r.column("k").unwrap().clone();
    let idx = JoinIndex::build(&r, &rcol).unwrap();
    group.bench_function(BenchmarkId::new("probe", 10_000), |b| {
        b.iter(|| black_box(left_join_with_index(&l, &r, &idx, "k", "r", 1).unwrap()))
    });
    group.finish();
}

fn bench_scoring_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring_kernels");
    group.sample_size(20);
    // High-cardinality continuous column: the distinct-cap early exit and
    // the single quantile sort carry this case.
    let continuous: Vec<f64> = (0..20_000).map(|i| ((i * 37 + 11) % 19_997) as f64).collect();
    group.bench_function("discretize_continuous_20k", |b| {
        b.iter(|| black_box(discretize_equal_frequency(black_box(&continuous), 10)))
    });
    // Low-cardinality column: the discrete passthrough.
    let discrete: Vec<f64> = (0..20_000).map(|i| (i % 7) as f64).collect();
    group.bench_function("discretize_discrete_20k", |b| {
        b.iter(|| black_box(discretize_equal_frequency(black_box(&discrete), 10)))
    });

    group.bench_function("average_ranks_alloc_20k", |b| {
        b.iter(|| black_box(average_ranks(black_box(&continuous))))
    });
    let mut idx = Vec::new();
    let mut ranks = Vec::new();
    group.bench_function("average_ranks_into_20k", |b| {
        b.iter(|| {
            average_ranks_into(black_box(&continuous), &mut idx, &mut ranks);
            black_box(ranks.last().copied())
        })
    });

    let dx = discretize_equal_frequency(&continuous, 10);
    let dy = discretize_equal_frequency(&discrete, 10);
    group.bench_function("mi_histogram_20k", |b| {
        b.iter(|| black_box(mutual_information(black_box(&dx), black_box(&dy))))
    });
    group.bench_function("mi_corrected_20k", |b| {
        b.iter(|| black_box(mutual_information_corrected(black_box(&dx), black_box(&dy))))
    });

    // One Spearman column with and without its bins: the difference is the
    // walk that reads equal-frequency codes off the rank sort, to be set
    // against `discretize_continuous_20k`'s sort of its own.
    let column = vec![continuous[..16_000].to_vec()];
    let labels: Vec<i64> = (0..16_000).map(|i| (i % 2) as i64).collect();
    group.bench_function("spearman_16k", |b| {
        b.iter(|| black_box(select_k_best(&column, &labels, RelevanceMethod::Spearman, 1, -1.0)))
    });
    group.bench_function("spearman_and_bins_from_order_16k", |b| {
        b.iter(|| {
            black_box(select_k_best_binned(&column, &labels, RelevanceMethod::Spearman, 1, -1.0, 10))
        })
    });

    // One MRMR candidate against 96 selected features: as a plain slice
    // (one counter increment per row and feature) and as a `SelectedSet`
    // (one per row and pair). The candidate tells the label apart and the
    // selected columns are independent of it, so it is never rejected early
    // and every term is computed.
    for (name, n) in [("1k", 1_000usize), ("16k", 16_000)] {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut column = |bins: u64| {
            Discretized::from_codes((0..n).map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                Some(((s >> 11) % bins) as i64)
            }))
        };
        let labels = column(2);
        let noise = column(5);
        let candidate = Discretized::from_codes((0..n).map(|i| {
            Some(i64::from(labels.code(i).unwrap() * 5 + noise.code(i).unwrap()))
        }));
        let members: Vec<Discretized> = (0..96).map(|_| column(10)).collect();
        let mut set = SelectedSet::default();
        for (k, m) in members.iter().enumerate() {
            set.insert(&format!("f{k}"), m.clone());
        }
        let scorer = RedundancyScorer::new(RedundancyMethod::Mrmr);
        let cands = [(0usize, &candidate)];
        group.bench_function(format!("redundancy_set_{name}/plain_slice"), |b| {
            b.iter(|| black_box(select_non_redundant(&cands, &members, &labels, &scorer)))
        });
        group.bench_function(format!("redundancy_set_{name}/selected_set"), |b| {
            b.iter(|| black_box(set.select_non_redundant(&cands, &labels, &scorer)))
        });

        // The same, binned as `evaluate_hop` bins a joined column: ten
        // equal-frequency bins over distinct values. Every table then has at
        // most two marginal sizes per axis, and MRMR reads its terms from the
        // rows the call keeps instead of taking an `ln` per cell.
        let mut binned = |lift: &dyn Fn(usize) -> bool| {
            let values: Vec<f64> = (0..n)
                .map(|i| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 13) as f64 + if lift(i) { 2f64.powi(52) } else { 0.0 }
                })
                .collect();
            discretize_equal_frequency(&values, 10)
        };
        let candidate = binned(&|i| labels.code(i) == Some(1));
        let members: Vec<Discretized> = (0..96).map(|_| binned(&|_| false)).collect();
        let mut set = SelectedSet::default();
        for (k, m) in members.iter().enumerate() {
            set.insert(&format!("f{k}"), m.clone());
        }
        let cands = [(0usize, &candidate)];
        group.bench_function(format!("redundancy_set_{name}_equal_frequency/plain_slice"), |b| {
            b.iter(|| black_box(select_non_redundant(&cands, &members, &labels, &scorer)))
        });
        group.bench_function(format!("redundancy_set_{name}_equal_frequency/selected_set"), |b| {
            b.iter(|| black_box(set.select_non_redundant(&cands, &labels, &scorer)))
        });
    }
    group.finish();
}

/// What extracting a column's numbers costs: `write_f64_lossy` of a
/// 32 000-row dense column and of a 16 000-row join view over it, at the
/// shape of `wide_fullscan`'s mid level (keys on 2 rows each, in scattered
/// order), for a float, an int and an int column with a null every 7th
/// row. Twelve tables are cycled so the cells come from memory, not cache;
/// times are per round of twelve columns.
fn bench_column_read(c: &mut Criterion) {
    let (n_left, n_right, n_tables) = (16_000usize, 32_000usize, 12usize);
    let mut group = c.benchmark_group("column_read");
    let left = Table::new("l", vec![("k", Column::from_ints((0..n_left as i64).map(Some)))]).unwrap();
    let scattered = |j: usize| (0..n_right).map(move |i| (i * (7 + 2 * j) + 3) % n_right);
    let lake: Vec<Table> = (0..n_tables)
        .map(|j| {
            let cols = vec![
                ("k", Column::from_ints(scattered(j).map(|r| Some((r / 2) as i64)))),
                ("float", Column::from_floats(scattered(j).map(|r| Some(r as f64 * 0.5)))),
                ("int", Column::from_ints(scattered(j).map(|r| Some(r as i64)))),
                ("int_with_nulls", Column::from_ints(scattered(j).map(|r| (r % 7 != 0).then_some(r as i64)))),
            ];
            Table::new(format!("s{j}"), cols).unwrap()
        })
        .collect();
    let joined: Vec<Table> = lake
        .iter()
        .map(|r| {
            let index = JoinIndex::build(r, r.column("k").unwrap()).unwrap();
            left_join_with_index(&left, r, &index, "k", "r", 3).unwrap().table
        })
        .collect();
    let mut buf = Vec::new();
    for kind in ["float", "int", "int_with_nulls"] {
        for (shape, tables, name) in [("dense", &lake, kind.to_string()), ("view", &joined, format!("r.{kind}"))] {
            group.bench_function(format!("{shape}/{kind}"), |b| {
                b.iter(|| {
                    for t in tables {
                        t.column(&name).unwrap().write_f64_lossy(&mut buf);
                        black_box(&buf);
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_probe, bench_scoring_kernels, bench_column_read);
criterion_main!(benches);
