//! Seed → inputs. A workload's shape (tables, rows, columns, join tree) is
//! fixed; the seed perturbs labels, feature values and row order only, so
//! every seed asks the program for the same amount of work. The program
//! never sees the seed, only the tables or CSV text made from it.

use autofeat::data::csv::write_csv_str;
use autofeat::data::{Column, Table};
use autofeat::datagen::lake::Lake;
use autofeat::datagen::{DatasetSpec, Snowflake};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// `(parent table, parent column, child table, child column)`.
pub type Kfk = (String, String, String, String);

pub const BASE: &str = "base";
pub const LABEL: &str = "target";

/// Tables plus their known key–foreign-key edges (the benchmark setting).
pub struct KfkLake {
    pub tables: Vec<Table>,
    pub kfk: Vec<Kfk>,
}

/// A feature value carrying `sep` of label signal under unit-range noise.
/// Every generated feature has signal: a pure-noise column's MRMR score
/// hovers around zero, so whether it is kept — and with it the size of the
/// running selected set that every later redundancy score walks — would
/// flip from seed to seed.
fn feature(rng: &mut StdRng, label: i64, sep: f64) -> Option<f64> {
    let noise = rng.random() + rng.random() + rng.random() - 1.5;
    Some(sep * label as f64 + noise)
}

fn sep(j: usize) -> f64 {
    0.4 + 0.15 * (j % 8) as f64
}

fn base_table(rng: &mut StdRng, labels: &[i64]) -> Table {
    let n = labels.len() as i64;
    Table::new(
        BASE,
        vec![
            ("k", Column::from_ints((0..n).map(Some).collect::<Vec<_>>())),
            (
                "b0",
                Column::from_floats(
                    labels
                        .iter()
                        .map(|&l| feature(rng, l, 0.3))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                LABEL,
                Column::from_ints(labels.iter().map(|&l| Some(l)).collect::<Vec<_>>()),
            ),
        ],
    )
    .expect("base table builds")
}

/// One table of `key.1.len() * dup` rows in shuffled order: its key column
/// (named `key.0`, each of the values `key.1` repeated `dup` times), an
/// optional onward key (`key + onward.1` under the name `onward.0`), and
/// `feats.1` features named `feats.0` plus their index.
fn keyed_table(
    rng: &mut StdRng,
    name: &str,
    key: (&str, &[i64]),
    labels: &[i64],
    dup: usize,
    onward: Option<(&str, i64)>,
    feats: (&str, usize),
) -> Table {
    let (key_name, keys) = key;
    let mut rows: Vec<usize> = (0..keys.len() * dup).map(|r| r / dup).collect();
    rows.shuffle(rng);
    let ints = |offset: i64| {
        Column::from_ints(
            rows.iter()
                .map(|&i| Some(keys[i] + offset))
                .collect::<Vec<_>>(),
        )
    };
    let mut cols: Vec<(String, Column)> = vec![(key_name.to_string(), ints(0))];
    if let Some((onward_name, offset)) = onward {
        cols.push((onward_name.to_string(), ints(offset)));
    }
    for f in 0..feats.1 {
        let values: Vec<Option<f64>> = rows
            .iter()
            .map(|&i| feature(rng, labels[i], sep(f)))
            .collect();
        cols.push((format!("{}{f}", feats.0), Column::from_floats(values)));
    }
    Table::new(name, cols).expect("generated table builds")
}

fn labels(rng: &mut StdRng, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.random_range(0..2i64)).collect()
}

/// KFK star: `base(k, b0, target)` and `n_sat` satellites of
/// `base_rows * dup` rows, each `(k, f0..)`.
pub fn star(seed: u64, base_rows: usize, n_sat: usize, dup: usize, n_feat: usize) -> KfkLake {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = labels(&mut rng, base_rows);
    let keys: Vec<i64> = (0..base_rows as i64).collect();
    let mut tables = vec![base_table(&mut rng, &labels)];
    let mut kfk = Vec::with_capacity(n_sat);
    for j in 0..n_sat {
        let name = format!("sat{j:03}");
        tables.push(keyed_table(
            &mut rng,
            &name,
            ("k", &keys),
            &labels,
            dup,
            None,
            ("f", n_feat),
        ));
        kfk.push((BASE.into(), "k".into(), name, "k".into()));
    }
    KfkLake { tables, kfk }
}

/// KFK two-level tree: `base → m{j}(k, n{j}, f0..) → l{j}(n{j}, g0)`, so a
/// request evaluates `2 * n_mid` joins over two levels.
pub fn two_level(
    seed: u64,
    base_rows: usize,
    n_mid: usize,
    mid_dup: usize,
    mid_feats: usize,
) -> KfkLake {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = labels(&mut rng, base_rows);
    let keys: Vec<i64> = (0..base_rows as i64).collect();
    let mut tables = vec![base_table(&mut rng, &labels)];
    let mut kfk = Vec::with_capacity(2 * n_mid);
    for j in 0..n_mid {
        let (mid, leaf, onward) = (format!("m{j:02}"), format!("l{j:02}"), format!("n{j:02}"));
        let offset = ((j + 1) * base_rows * 4) as i64;
        let leaf_keys: Vec<i64> = keys.iter().map(|k| k + offset).collect();
        let to_leaf = Some((onward.as_str(), offset));
        tables.push(keyed_table(
            &mut rng,
            &mid,
            ("k", &keys),
            &labels,
            mid_dup,
            to_leaf,
            ("f", mid_feats),
        ));
        tables.push(keyed_table(
            &mut rng,
            &leaf,
            (&onward, &leaf_keys),
            &labels,
            1,
            None,
            ("g", 1),
        ));
        kfk.push((BASE.into(), "k".into(), mid.clone(), "k".into()));
        kfk.push((mid, onward.clone(), leaf, onward));
    }
    KfkLake { tables, kfk }
}

/// The corpus generator draws structure and values from one seed: which
/// satellites the decoy columns imitate, which noise features happen to
/// look relevant, how deep the boosted trees grow. Over ten seeds that moved
/// `lake_mutating`'s cycle from 155 to 293 ms and the ranked paths from 53
/// to 93. So the corpus seed is fixed and `--seed` shuffles the rows of
/// every table instead: same lake, same graph, different row order under
/// every sample, split and representative pick.
const CORPUS_SEED: u64 = 1;

fn spec(rows: usize, features: usize, n_satellites: usize, class_sep: f64) -> DatasetSpec {
    DatasetSpec {
        name: "lakebench",
        paper_rows: 0,
        paper_joinable_tables: 0,
        paper_features: 0,
        paper_best_accuracy: 0.0,
        rows,
        features,
        n_satellites,
        max_branching: 3,
        class_sep,
        seed: CORPUS_SEED,
    }
}

/// The generator's tables carry key dictionaries and row fingerprints, as
/// tables from CSV ingest do; `take` drops them, so they are attached again.
fn shuffled(rng: &mut StdRng, table: &Table) -> Table {
    let mut order: Vec<usize> = (0..table.n_rows()).collect();
    order.shuffle(rng);
    table.take(&order).with_key_dicts()
}

/// The data-lake setting: 40 satellites, KFK metadata stripped, decoys planted.
pub fn lake(seed: u64, rows: usize) -> Lake {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lake = spec(rows, 120, 40, 1.5).build_lake();
    lake.tables = lake.tables.iter().map(|t| shuffled(&mut rng, t)).collect();
    lake
}

/// The paper's benchmark setting: a 15-satellite multi-hop snowflake. Only
/// the satellites are shuffled: the base table's row order decides which
/// rows train and which test, and boosted trees grown on another split took
/// up to 15 % more or less time.
pub fn snowflake(seed: u64, rows: usize) -> Snowflake {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sf = spec(rows, 48, 15, 1.4).build_snowflake();
    sf.satellites = sf
        .satellites
        .iter()
        .map(|t| shuffled(&mut rng, t))
        .collect();
    sf
}

/// A lake as the program's ingest sees it: `(table name, CSV text)`.
pub fn to_csv(lake: &Lake) -> Vec<(String, String)> {
    lake.tables
        .iter()
        .map(|t| (t.name().to_string(), write_csv_str(t)))
        .collect()
}

pub fn kfk_of(sf: &Snowflake) -> Vec<Kfk> {
    sf.kfk
        .iter()
        .map(|e| {
            (
                e.parent_table.clone(),
                e.parent_column.clone(),
                e.child_table.clone(),
                e.child_column.clone(),
            )
        })
        .collect()
}
