//! Shared fixtures and assertions for the integration tests.
//!
//! Each test binary compiles this module independently and typically uses a
//! subset of it, so dead-code lints are suppressed at the module level.
#![allow(dead_code)]

use autofeat::prelude::*;

fn ints(vals: impl IntoIterator<Item = i64>) -> Column {
    Column::from_ints(vals.into_iter().map(Some))
}

fn floats(vals: impl IntoIterator<Item = f64>) -> Column {
    Column::from_floats(vals.into_iter().map(Some))
}

/// `base(k, b0, target)` over `n` rows, keys `0..n`, with the given labels.
fn base_table(n: usize, labels: &[i64]) -> Table {
    let b0 = floats((0..n).map(|i| ((i * 29) % 23) as f64));
    Table::new("base", vec![("k", ints(0..n as i64)), ("b0", b0), ("target", ints(labels.iter().copied()))])
        .unwrap()
}

/// A snowflake-ish lake with duplicate join keys (so representative picks
/// matter), a transitive chain, a fan-out of siblings, and an unjoinable
/// table — enough structure to exercise every pruning branch.
pub fn lake_ctx(n: usize) -> SearchContext {
    let labels: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 2).collect();
    // 3 rows per key, feature values differ per duplicate: picks observable.
    let m3 = n as i64 * 3;
    let dup_keys = || ints((0..m3).map(|i| i / 3));
    let table = |name: &str, cols: Vec<(&str, Column)>| Table::new(name, cols).unwrap();
    let s1 = table(
        "s1",
        vec![
            ("k", dup_keys()),
            ("k2", ints((0..m3).map(|i| 500 + i / 3))),
            ("f1", floats((0..m3).map(|i| ((i * 13) % 41) as f64))),
        ],
    );
    let s2 = table(
        "s2",
        vec![("k2", ints((0..n as i64).map(|i| 500 + i))), ("deep", floats(labels.iter().map(|&l| l as f64)))],
    );
    let sib = table("sib", vec![("k", dup_keys()), ("g", floats((0..m3).map(|i| ((i * 5) % 17) as f64)))]);
    // Keys never match the base: the unjoinable-pruning branch.
    let orphan =
        table("orphan", vec![("k", ints(9000..9000 + n as i64)), ("h", floats((0..n).map(|i| i as f64)))]);
    SearchContext::from_kfk(
        vec![base_table(n, &labels), s1, s2, sib, orphan],
        &[
            ("base".into(), "k".into(), "s1".into(), "k".into()),
            ("s1".into(), "k2".into(), "s2".into(), "k2".into()),
            ("base".into(), "k".into(), "sib".into(), "k".into()),
            ("base".into(), "k".into(), "orphan".into(), "k".into()),
        ],
        "base",
        "target",
    )
    .unwrap()
}

/// A *uniform* wide lake: `n_sat` sibling satellites off the base table,
/// every satellite the same shape (`n_rows * dup` rows, `dup` duplicate
/// rows per key, one feature column) — so every join index has the same
/// byte footprint. Memory-governance tests need uniform entry sizes: with
/// them, how many indexes fit a budget (and how many evictions a budget
/// shrink takes) is a pure function of the budget, independent of *which*
/// entries the thread schedule admitted first.
pub fn wide_uniform_ctx(n_sat: usize, n_rows: usize, dup: usize) -> SearchContext {
    let labels: Vec<i64> = (0..n_rows as i64).map(|i| (i * 7) % 2).collect();
    let mut tables = vec![base_table(n_rows, &labels)];
    let mut kfk: Vec<(String, String, String, String)> = Vec::new();
    for j in 0..n_sat {
        let name = format!("sat{j:02}");
        let m = n_rows * dup;
        let keys = ints((0..m as i64).map(|i| i / dup as i64));
        let vals = floats((0..m).map(|i| ((i * (13 + j) + j * 7) % 101) as f64));
        tables.push(Table::new(name.clone(), vec![("k", keys), ("f", vals)]).unwrap());
        kfk.push(("base".into(), "k".into(), name, "k".into()));
    }
    SearchContext::from_kfk(tables, &kfk, "base", "target").unwrap()
}

/// A lake whose joins leave holes: `part` covers 80 % of the base keys (so
/// every candidate column it contributes is 20 % missing after the left
/// join) and carries explicit nulls on top, a noisy label copy, a duplicate
/// of it, a many-valued column and six more noisy label views; `deep` hangs off `part` and covers seven
/// eighths of *its* keys; `thin` covers 40 % of the base keys and falls below the
/// default τ. Exercises pairwise deletion in every estimator, the
/// redundancy drop, and the quality prune.
pub fn sparse_ctx(n: usize) -> SearchContext {
    let ni = n as i64;
    let labels: Vec<i64> = (0..ni).map(|i| ((i * 7) % 5 < 2) as i64).collect();
    let base = base_table(n, &labels);
    let label = |i: i64| labels[i as usize];
    let over = |keys: &[i64], f: &dyn Fn(i64) -> Option<f64>| Column::from_floats(keys.iter().map(|&i| f(i)));
    let covered: Vec<i64> = (0..ni).filter(|i| i % 5 != 4).collect();
    let noisy = |i: i64| if i % 11 == 0 { 1 - label(i) } else { label(i) };
    let signal = |i: i64| (i % 13 != 0).then(|| (noisy(i) * 3 + i % 3) as f64);
    let wide = |i: i64| (i % 17 != 3).then(|| ((i * 37) % 101) as f64 + 40.0 * label(i) as f64);
    let mut part = Table::new(
        "part",
        vec![
            ("k", ints(covered.iter().copied())),
            ("k2", ints(covered.iter().map(|&i| 700 + i))),
            ("sig", over(&covered, &signal)),
            ("dup", over(&covered, &|i| signal(i).map(|s| s * 2.0))),
            ("wide", over(&covered, &wide)),
        ],
    )
    .unwrap();
    // Six differently-noised views of the label: the running selected set
    // grows past any small batch width under every criterion.
    for (v, p) in [3i64, 4, 6, 7, 9, 10].into_iter().enumerate() {
        let view = |i: i64| {
            let seen = if (i + v as i64) % p == 0 { 1 - label(i) } else { label(i) };
            Some((seen * 4 + (i * (v as i64 + 2)) % 4) as f64)
        };
        part = part.with_column(format!("v{v}"), over(&covered, &view)).unwrap();
    }
    let deep_keys: Vec<i64> = covered.iter().copied().filter(|i| i % 8 != 1).collect();
    let d = over(&deep_keys, &|i| Some(((i * 3) % 7) as f64 - 2.0 * label(i) as f64));
    let deep = Table::new("deep", vec![("k2", ints(deep_keys.iter().map(|&i| 700 + i))), ("d", d)]).unwrap();
    let thin_keys: Vec<i64> = (0..ni).filter(|i| i % 5 < 2).collect();
    let t = over(&thin_keys, &|i| Some(label(i) as f64));
    let thin = Table::new("thin", vec![("k", ints(thin_keys.iter().copied())), ("t", t)]).unwrap();
    SearchContext::from_kfk(
        vec![base, part, deep, thin],
        &[
            ("base".into(), "k".into(), "part".into(), "k".into()),
            ("part".into(), "k2".into(), "deep".into(), "k2".into()),
            ("base".into(), "k".into(), "thin".into(), "k".into()),
        ],
        "base",
        "target",
    )
    .unwrap()
}

/// Everything except the informational `threads_used`/`elapsed`/`cache`/
/// `trace` fields must match to the bit.
pub fn assert_bit_identical(a: &DiscoveryResult, b: &DiscoveryResult, what: &str) {
    assert_eq!(a.ranked.len(), b.ranked.len(), "{what}: ranked length");
    for (x, y) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(x.path, y.path, "{what}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score bits of {}",
            x.path
        );
        assert_eq!(x.features, y.features, "{what}: features of {}", x.path);
    }
    assert_eq!(a.n_joins_evaluated, b.n_joins_evaluated, "{what}");
    assert_eq!(a.n_pruned_unjoinable, b.n_pruned_unjoinable, "{what}");
    assert_eq!(a.n_pruned_quality, b.n_pruned_quality, "{what}");
    assert_eq!(a.n_pruned_similarity, b.n_pruned_similarity, "{what}");
    assert_eq!(a.n_pruned_budget, b.n_pruned_budget, "{what}");
    assert_eq!(a.truncated, b.truncated, "{what}");
    assert_eq!(a.truncation, b.truncation, "{what}");
    assert_eq!(a.failures.len(), b.failures.len(), "{what}");
    for (x, y) in a.failures.iter().zip(&b.failures) {
        assert_eq!((&x.path, &x.hop, &x.error), (&y.path, &y.hop, &y.error), "{what}: failure");
    }
    assert_eq!(a.selected_features, b.selected_features, "{what}");
    assert_eq!(a.resilience, b.resilience, "{what}: resilience");
}

/// A row layout a fixture applies to its tables: a bijection on the rows
/// at any row count. Representative picks are content-addressed, so
/// discovery must not see which one a lake is stored in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    Identity,
    Reversed,
    /// Row `i` holds what row `(i + n / 3) mod n` held.
    Rotated,
}

impl Layout {
    /// The source row of each row, at `n` rows.
    fn order(self, n: usize) -> Vec<usize> {
        match self {
            Layout::Identity => (0..n).collect(),
            Layout::Reversed => (0..n).rev().collect(),
            Layout::Rotated => (0..n).map(|i| (i + n / 3) % n).collect(),
        }
    }

    /// A fresh context over `ctx`'s tables and DRG, every non-base table's
    /// rows in this layout: new tables (no key metadata built yet) and a new
    /// join-index cache.
    pub fn apply(self, ctx: &SearchContext) -> SearchContext {
        let tables = ctx.table_names().into_iter().map(|name| {
            let t = ctx.table(name).unwrap();
            let layout = if name == ctx.base_name() { Layout::Identity } else { self };
            t.take(&layout.order(t.n_rows()))
        });
        SearchContext::new(tables.collect(), ctx.drg().clone(), ctx.base_name(), ctx.label())
            .unwrap()
    }
}

/// base — `a_wide` (twenty candidate columns, three rows a key) — `deep`,
/// and base — six one-column satellites. `a_wide` is the first candidate of
/// level 1 and by far the slowest to evaluate, so at several workers every
/// other hop's outcome is there before the one the merge needs first.
pub fn lopsided_ctx(n: usize) -> SearchContext {
    let label = |i: usize| ((i * 7) % 2) as f64;
    let labels: Vec<i64> = (0..n).map(|i| label(i) as i64).collect();
    let m3 = n * 3;
    let mut wide_cols = vec![
        ("k".to_string(), ints((0..m3).map(|i| (i / 3) as i64))),
        ("k2".to_string(), ints((0..m3).map(|i| 500 + (i / 3) as i64))),
    ];
    for j in 0..20usize {
        let noisy = move |i: usize| label(i / 3) * (j % 4) as f64 + ((i * (11 + j)) % (17 + j)) as f64;
        wide_cols.push((format!("w{j:02}"), floats((0..m3).map(noisy))));
    }
    let deep = vec![
        ("k2", ints((0..n).map(|i| 500 + i as i64))),
        ("d", floats((0..n).map(|i| label(i) + (i % 5) as f64 * 0.1))),
    ];
    let mut tables = vec![
        base_table(n, &labels),
        Table::new("a_wide", wide_cols).unwrap(),
        Table::new("deep", deep).unwrap(),
    ];
    let mut kfk: Vec<(String, String, String, String)> = vec![
        ("base".into(), "k".into(), "a_wide".into(), "k".into()),
        ("a_wide".into(), "k2".into(), "deep".into(), "k2".into()),
    ];
    for j in 0..6usize {
        let name = format!("sat{j}");
        let feature = move |i: usize| label(i) * j as f64 + ((i * (5 + j)) % 13) as f64;
        let cols = vec![("k", ints(0..n as i64)), ("s", floats((0..n).map(feature)))];
        tables.push(Table::new(name.clone(), cols).unwrap());
        kfk.push(("base".into(), "k".into(), name, "k".into()));
    }
    SearchContext::from_kfk(tables, &kfk, "base", "target").unwrap()
}

pub mod binning_oracle;
pub mod column_model;
pub mod sweep;
pub mod tree_oracle;

/// An independent reference for the normalized left join: row at a time,
/// nested loop, no index, no dictionary, no views. It shares with the
/// program only the public pieces the representative rule is defined by —
/// `Column::hash_cell_into` + `StableHasher` for a row's content
/// fingerprint and `mix_u64` for the seeded order — and restates
/// everything else (key equality, null handling, naming) from the
/// documented semantics.
pub mod join_oracle {
    use std::hash::Hasher;

    use autofeat::data::stable_hash::{mix_u64, StableHasher};
    use autofeat::prelude::*;

    /// Whether two cells are equal join keys: nulls (and `NaN`) never are;
    /// an int equals the integral float of the same value (which lies in
    /// `[−2⁶³, 2⁶³)`, the `i64` range); `-0.0` equals `0.0`; values of
    /// different kinds otherwise never match.
    pub fn keys_match(a: &Value, b: &Value) -> bool {
        const TWO_63: f64 = -(i64::MIN as f64);
        let as_int =
            |f: f64| (f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f)).then_some(f as i64);
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Int(x), Value::Float(f)) | (Value::Float(f), Value::Int(x)) => {
                as_int(*f) == Some(*x)
            }
            (Value::Float(x), Value::Float(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            _ => false,
        }
    }

    fn fingerprint(table: &Table, row: usize) -> u64 {
        let mut h = StableHasher::new();
        for c in 0..table.n_cols() {
            table.column_at(c).hash_cell_into(row, &mut h);
        }
        h.finish()
    }

    /// The right row each left row joins to: among the right rows whose key
    /// matches, the one minimizing `(mix_u64(seed, fingerprint), row)`.
    pub fn row_map(
        left: &Table,
        right: &Table,
        left_key: &str,
        right_key: &str,
        seed: u64,
    ) -> Vec<Option<usize>> {
        let (lk, rk) = (left.column(left_key).unwrap(), right.column(right_key).unwrap());
        (0..left.n_rows())
            .map(|i| {
                (0..right.n_rows())
                    .filter(|&j| keys_match(&lk.get(i), &rk.get(j)))
                    .min_by_key(|&j| (mix_u64(seed, fingerprint(right, j)), j))
            })
            .collect()
    }

    /// The joined table, every column dense and built cell by cell, and the
    /// names the right-hand columns got.
    pub fn left_join(
        left: &Table,
        right: &Table,
        left_key: &str,
        right_key: &str,
        prefix: &str,
        seed: u64,
    ) -> (Table, Vec<String>, usize) {
        let rows = row_map(left, right, left_key, right_key, seed);
        let mut cols: Vec<(String, Column)> = (0..left.n_cols())
            .map(|c| {
                let mut dense = Column::empty(left.column_at(c).dtype());
                for i in 0..left.n_rows() {
                    dense.push(left.column_at(c).get(i)).unwrap();
                }
                (left.field_at(c).name.clone(), dense)
            })
            .collect();
        let mut right_names = Vec::new();
        for c in 0..right.n_cols() {
            let original = &right.field_at(c).name;
            let base = if original.starts_with(&format!("{prefix}.")) {
                original.clone()
            } else {
                format!("{prefix}.{original}")
            };
            let taken = |name: &str| cols.iter().any(|(n, _)| n == name);
            let mut name = base.clone();
            let mut k = 2;
            while taken(&name) {
                name = format!("{base}#{k}");
                k += 1;
            }
            let mut dense = Column::empty(right.column_at(c).dtype());
            for r in &rows {
                dense.push(r.map_or(Value::Null, |j| right.column_at(c).get(j))).unwrap();
            }
            right_names.push(name.clone());
            cols.push((name, dense));
        }
        let matched = rows.iter().flatten().count();
        (Table::new(left.name(), cols).unwrap(), right_names, matched)
    }
}

/// An independent reference for column matching: a profile is the
/// `HashSet` of a column's keys, collected row by row; a score is Jaccard
/// and the larger containment, counted over those sets here, blended half
/// and half with `name_similarity`; a DRG is every column pair of every
/// table pair, scored and cut at the paper's 0.55. No hash, no dictionary,
/// no sorted run, no occupancy bound. It shares with the program the name
/// similarity alone: no hash, no set function and no constant.
pub mod match_oracle {
    use std::collections::HashSet;

    use autofeat::data::Key;
    use autofeat::discovery::name_sim::name_similarity;
    use autofeat::prelude::*;

    /// The paper's threshold for a DRG edge (§VII-A).
    pub const THRESHOLD: f64 = 0.55;

    /// What the reference knows of a column.
    pub struct Profile {
        pub column: String,
        pub null_ratio: f64,
        pub values: HashSet<Key>,
    }

    pub fn profile(name: &str, col: &Column) -> Profile {
        let values: HashSet<Key> = (0..col.len()).filter_map(|row| col.key(row)).collect();
        Profile { column: name.to_string(), null_ratio: col.null_ratio(), values }
    }

    pub fn profiles(table: &Table) -> Vec<Profile> {
        (0..table.n_cols()).map(|i| profile(&table.field_at(i).name, table.column_at(i))).collect()
    }

    fn joinable(p: &Profile) -> bool {
        !p.values.is_empty() && p.null_ratio < 0.9
    }

    /// `|a ∩ b| / |a ∪ b|`, 0 for two empty sets.
    fn jaccard(a: &HashSet<Key>, b: &HashSet<Key>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let shared = a.intersection(b).count() as f64;
        shared / ((a.len() + b.len()) as f64 - shared)
    }

    /// `|a ∩ b| / |a|`, 0 for an empty `a`.
    fn containment(a: &HashSet<Key>, b: &HashSet<Key>) -> f64 {
        if a.is_empty() {
            return 0.0;
        }
        a.intersection(b).count() as f64 / a.len() as f64
    }

    /// Jaccard averaged with the larger containment.
    pub fn instance_similarity(a: &Profile, b: &Profile) -> f64 {
        let j = jaccard(&a.values, &b.values);
        let c = containment(&a.values, &b.values).max(containment(&b.values, &a.values));
        (j + c) / 2.0
    }

    /// The composite score of a pair: name and instance similarity
    /// weighted half and half, 0 when either column is no join candidate.
    pub fn score(a: &Profile, b: &Profile) -> f64 {
        if !joinable(a) || !joinable(b) {
            return 0.0;
        }
        let name = name_similarity(&a.column, &b.column);
        ((0.5 * name + 0.5 * instance_similarity(a, b)) / (0.5 + 0.5)).clamp(0.0, 1.0)
    }

    /// One DRG edge: tables, columns, weight bits.
    pub type Edge = (String, String, String, String, u64);

    /// The DRG's edge list over `tables`: table pairs in name order, each
    /// pair's matches by descending score, then column names.
    pub fn drg_edges(tables: &[&Table]) -> Vec<Edge> {
        let mut sorted: Vec<&Table> = tables.to_vec();
        sorted.sort_by_key(|t| t.name().to_string());
        let profiled: Vec<Vec<Profile>> = sorted.iter().map(|t| profiles(t)).collect();
        let mut edges = Vec::new();
        for i in 0..sorted.len() {
            for j in i + 1..sorted.len() {
                let mut matches: Vec<(f64, &str, &str)> = Vec::new();
                for a in &profiled[i] {
                    for b in &profiled[j] {
                        let s = score(a, b);
                        if s >= THRESHOLD {
                            matches.push((s, &a.column, &b.column));
                        }
                    }
                }
                matches.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(y.1)).then(x.2.cmp(y.2)));
                for (s, ca, cb) in matches {
                    edges.push((
                        sorted[i].name().to_string(),
                        ca.to_string(),
                        sorted[j].name().to_string(),
                        cb.to_string(),
                        s.to_bits(),
                    ));
                }
            }
        }
        edges
    }

    /// A DRG's edge list in the same form, in the graph's own edge order.
    pub fn edges_of(drg: &autofeat::graph::Drg) -> Vec<Edge> {
        drg.edges()
            .iter()
            .map(|e| {
                (
                    drg.table_name(e.a).to_string(),
                    e.a_column.clone(),
                    drg.table_name(e.b).to_string(),
                    e.b_column.clone(),
                    e.weight.to_bits(),
                )
            })
            .collect()
    }
}
