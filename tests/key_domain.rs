//! One key domain: every table owns its key metadata, a `SearchContext`
//! keeps the cells its tables arrive with, a join index is charged for its
//! pick array alone, and the metadata is built once, by its first reader,
//! for what is read and nothing else.

use std::sync::{Arc, Barrier};

use autofeat::data::encode::label_encode;
use autofeat::data::join::{left_join_normalized, JoinIndex};
use autofeat::obs;
use autofeat::prelude::*;

fn ints(vals: impl IntoIterator<Item = i64>) -> Column {
    Column::from_ints(vals.into_iter().map(Some))
}

/// `name(k, f)`: 40 rows, two per key.
fn satellite(name: &str, shift: i64) -> Table {
    Table::new(
        name,
        vec![
            ("k", ints((0..40).map(|i| i / 2))),
            ("f", ints((0..40).map(|i| i * 3 + shift))),
        ],
    )
    .unwrap()
}

/// The three ways a table reaches a context: with its cells empty, with a
/// dictionary already built, and built and then changed (which sheds the
/// cells whole).
fn arrivals() -> (Table, Table, Table) {
    let base = Table::new(
        "base",
        vec![("k", ints(0..20)), ("target", ints((0..20).map(|i| i % 2)))],
    )
    .unwrap();
    let keyed = satellite("keyed", 1);
    keyed.key_dict_at(0).unwrap();
    let widened = satellite("widened", 2);
    widened.key_dict_at(0).unwrap();
    let widened = widened.with_column("g", ints((0..40).map(|i| i % 7))).unwrap();
    assert_eq!(widened.built_dicts().count(), 0);
    (base, keyed, widened)
}

/// Every resident table hands out a dictionary per column and a fingerprint
/// per row, equal to what a rebuild from its cells yields.
fn assert_keyed(ctx: &SearchContext, what: &str) {
    for name in ctx.table_names() {
        let t = ctx.table(name).unwrap();
        let rebuilt = t.select(&t.column_names()).unwrap();
        assert_eq!(
            t.row_fingerprints(),
            rebuilt.row_fingerprints(),
            "{what}: {name}"
        );
        assert_eq!(t.row_fingerprints().len(), t.n_rows(), "{what}: {name}");
        for i in 0..t.n_cols() {
            let dict = t
                .key_dict_at(i)
                .unwrap_or_else(|| panic!("{what}: {name} column {i}"));
            assert_eq!(
                **dict,
                **rebuilt.key_dict_at(i).unwrap(),
                "{what}: {name} column {i}"
            );
            assert!(Arc::ptr_eq(dict, t.key_dict_for(t.column_at(i)).unwrap()));
        }
        // Everything is built on both sides by now.
        assert_eq!(
            t.key_meta_bytes(),
            rebuilt.key_meta_bytes(),
            "{what}: {name}"
        );
    }
}

/// The `(table, column position)` of every dictionary built so far, and
/// the tables whose rows have been fingerprinted.
fn built(ctx: &SearchContext) -> (Vec<(String, usize)>, Vec<String>) {
    let (mut dicts, mut fingerprinted) = (Vec::new(), Vec::new());
    for name in ctx.table_names() {
        let t = ctx.table(name).unwrap();
        dicts.extend(t.built_dicts().map(|(i, _)| (name.to_string(), i)));
        if t.has_row_fingerprints() {
            fingerprinted.push(name.to_string());
        }
    }
    (dicts, fingerprinted)
}

#[test]
fn resident_tables_keep_the_cells_they_arrived_with() {
    let (base, keyed, widened) = arrivals();
    let tables = vec![base, keyed.clone(), widened];
    let kfk: Vec<(String, String, String, String)> = ["keyed", "widened"]
        .map(|t| {
            (
                "base".to_string(),
                "k".to_string(),
                t.to_string(),
                "k".to_string(),
            )
        })
        .to_vec();
    let mut drg = DrgBuilder::new();
    for t in &tables {
        drg.add_table(t.name());
    }
    for (pt, pc, ct, cc) in &kfk {
        drg.add_kfk(pt, pc, ct, cc);
    }

    let explicit = SearchContext::new(tables.clone(), drg.build(), "base", "target").unwrap();
    assert_keyed(&explicit, "new");
    let from_kfk = SearchContext::from_kfk(tables.clone(), &kfk, "base", "target").unwrap();
    assert_keyed(&from_kfk, "from_kfk");
    assert_keyed(
        &from_kfk.with_base_label("widened", "g").unwrap(),
        "from_kfk view",
    );

    let matcher = SchemaMatcher::paper_default();
    let lake = SearchContext::from_discovery(tables, &matcher, "base", "target").unwrap();
    assert_keyed(&lake, "from_discovery");
    // Metadata that arrived with a table is kept, not rebuilt.
    for ctx in [&explicit, &from_kfk, &lake] {
        let resident = ctx.table("keyed").unwrap();
        assert!(Arc::ptr_eq(
            resident.key_dict_at(0).unwrap(),
            keyed.key_dict_at(0).unwrap()
        ));
    }

    let (_, late_keyed, late_widened) = arrivals();
    lake.add_table(satellite("late_bare", 5)).unwrap();
    lake.add_table(late_keyed.with_name("late_keyed")).unwrap();
    lake.add_table(late_widened.with_name("late_widened"))
        .unwrap();
    assert_eq!(lake.latest().n_tables(), 6);
    assert_keyed(&lake.latest(), "add_table, latest");
    assert_keyed(
        &lake.with_base_label("late_widened", "g").unwrap(),
        "add_table, view",
    );
    lake.remove_table("late_keyed").unwrap();
    assert_keyed(&lake.latest(), "remove_table, latest");

    // And a discovery over it builds no dictionary: the cache is charged
    // for pick arrays only.
    let result = AutoFeat::new(AutoFeatConfig::default().with_seed(3))
        .discover(&from_kfk)
        .unwrap();
    let stats = result.cache;
    let expected: usize = ["keyed", "widened"]
        .iter()
        .map(|n| {
            let t = from_kfk.table(n).unwrap();
            JoinIndex::build(t, t.column("k").unwrap())
                .unwrap()
                .resident_bytes()
        })
        .sum();
    assert_eq!((stats.entries, stats.resident_bytes), (2, expected as u64));
    assert_eq!(expected, 2 * 20 * 4, "a four-byte pick per key, 20 keys each");
}

/// base(k, target) — dup(k ×3, k2, tag, f) — leaf(k2, deep), with two siblings
/// whose key never repeats: hops over repeated and unique keys, a string
/// column and feature columns no join is keyed on (their value ranges are
/// disjoint, so the matcher proposes no edge between them).
fn small_lake() -> Vec<Table> {
    let floats = |vals: Vec<i64>| Column::from_floats(vals.into_iter().map(|v| Some(v as f64 + 0.5)));
    let base = Table::new(
        "base",
        vec![("k", ints(0..60)), ("target", ints((0..60).map(|i| (i * 7) % 2)))],
    );
    let dup = Table::new(
        "dup",
        vec![
            ("k", ints((0..180).map(|i| i / 3))),
            ("k2", ints((0..180).map(|i| 500 + i / 3))),
            ("tag", Column::from_strs((0..180).map(|i| Some(format!("t{}", i % 9))))),
            ("f", floats((0..180).map(|i| 1000 + (i * 13) % 41).collect())),
        ],
    );
    let leaf = Table::new(
        "leaf",
        vec![
            ("k2", ints((0..60).map(|i| 500 + i))),
            ("deep", floats((0..60).map(|i| 2000 + (i * 7) % 2 * 100 + i).collect())),
        ],
    );
    let unique = Table::new(
        "unique",
        vec![("k", ints(0..60)), ("g", floats((0..60).map(|i| 3000 + (i * 5) % 17).collect()))],
    );
    let late = Table::new(
        "late",
        vec![("k", ints(0..60)), ("h", floats((0..60).map(|i| 4000 + (i * 3) % 19).collect()))],
    );
    [base, dup, leaf, unique, late].map(|t| t.unwrap()).to_vec()
}

#[test]
fn discovery_builds_what_its_joins_are_keyed_on_and_nothing_else() {
    let matcher = SchemaMatcher::paper_default();
    let mut tables = small_lake();
    let late = tables.pop().unwrap();
    let ctx = SearchContext::from_discovery(tables, &matcher, "base", "target").unwrap();
    ctx.add_table(late).unwrap();
    let ctx = ctx.latest();
    let nothing: (Vec<(String, usize)>, Vec<String>) = Default::default();
    assert_eq!(built(&ctx), nothing, "profiling reads rows, not dictionaries");
    assert_eq!(ctx.lake_key_meta(), (0, 0));

    let first = AutoFeat::new(AutoFeatConfig::default().with_seed(3))
        .discover(&ctx)
        .unwrap();
    assert!(first.failures.is_empty() && !first.truncated);
    // One dictionary per join index the run built: each built cell is the
    // key of an index the cache now serves (a hit), and there are as many
    // of them as indexes — no right-hand feature column, no base column.
    let (dicts, fingerprinted) = built(&ctx);
    let cache = ctx.lake_cache();
    let before = cache.stats();
    for (table, i) in &dicts {
        let t = ctx.table(table).unwrap();
        cache.get_or_build(t, &t.field_at(*i).name).unwrap();
    }
    let after = cache.stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (dicts.len() as u64, 0),
        "{dicts:?}"
    );
    assert_eq!(dicts.len() as u64, after.entries, "{dicts:?}");
    assert!(dicts.contains(&("dup".into(), 0)) && dicts.contains(&("leaf".into(), 0)), "{dicts:?}");
    assert!(!dicts.iter().any(|(t, _)| t == "base"), "{dicts:?}");
    // Fingerprints only where an indexed key repeats.
    assert_eq!(fingerprinted, ["dup"]);
    let (bytes, n) = ctx.lake_key_meta();
    assert_eq!(n, dicts.len());
    assert_eq!(
        bytes,
        ctx.table_names().iter().map(|t| ctx.table(t).unwrap().key_meta_bytes()).sum::<usize>()
    );
    assert!(bytes > 180 * 8, "{bytes}");

    // A second request finds everything it needs.
    let tracer = Tracer::enabled();
    let second = obs::with_tracer(&tracer, || {
        AutoFeat::new(AutoFeatConfig::default().with_seed(3)).discover(&ctx).unwrap()
    });
    assert_eq!(second.ranked.len(), first.ranked.len());
    assert_eq!(built(&ctx), (dicts.clone(), fingerprinted));
    assert_eq!(tracer.snapshot().counter("keymeta.dicts_built"), None);

    // An encode reads the dictionary of a string column, and only that.
    let before = dicts.len();
    label_encode(ctx.table("dup").unwrap()).unwrap();
    let (dicts, _) = built(&ctx);
    assert_eq!(dicts.len(), before + 1);
    assert!(dicts.contains(&("dup".into(), 2)), "{dicts:?}");
}

#[test]
fn racing_first_readers_see_one_build() {
    let t = satellite("raced", 0);
    let tracer = Tracer::enabled();
    let barrier = Barrier::new(8);
    let dicts: Vec<Arc<KeyDict>> = obs::with_tracer(&tracer, || {
        let scope = obs::ambient_scope();
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let _traced = scope.enter();
                        barrier.wait();
                        Arc::clone(t.key_dict_at(0).unwrap())
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        })
    });
    assert!(dicts.iter().all(|d| Arc::ptr_eq(d, &dicts[0])));
    let trace = tracer.snapshot();
    assert_eq!(trace.counter("keymeta.dicts_built"), Some(1));
    assert_eq!(trace.counter("keymeta.rows_coded"), Some(40));
    assert_eq!(t.built_dicts().count(), 1);
}

#[test]
fn cells_are_shared_by_renames_and_shed_by_changes() {
    let t = satellite("t", 0);
    let shares = [
        t.clone(),
        t.clone().with_name("u"),
        t.rename_column("k", "key").unwrap(),
    ];
    // Filled through one handle after the others were taken: seen by all.
    let dict = Arc::clone(shares[2].key_dict_at(0).unwrap());
    let fps = shares[1].row_fingerprints().as_ptr();
    for s in shares.iter().chain([&t]) {
        assert_eq!(s.built_dicts().map(|(i, _)| i).collect::<Vec<_>>(), [0]);
        assert!(Arc::ptr_eq(s.key_dict_at(0).unwrap(), &dict));
        assert_eq!(s.row_fingerprints().as_ptr(), fps);
        assert_eq!(s.key_meta_bytes(), dict.resident_bytes() + 40 * 8);
    }
    let changed = [
        t.select(&["k", "f"]).unwrap(),
        t.take(&(0..40).collect::<Vec<_>>()),
        t.with_column("g", ints(0..40)).unwrap(),
        t.replace_column("f", ints(0..40)).unwrap(),
        t.drop_columns(&["f"]),
    ];
    for c in &changed {
        assert!(!c.has_row_fingerprints());
        assert_eq!((c.key_meta_bytes(), c.built_dicts().count()), (0, 0));
        assert!(!Arc::ptr_eq(c.key_dict_at(0).unwrap(), &dict));
    }
}

#[test]
fn null_key_counts_are_the_dictionaries_own() {
    let t = Table::new(
        "t",
        vec![
            ("i", Column::from_ints((0..30).map(|i| (i % 4 != 0).then_some(i / 2)))),
            (
                "x",
                Column::from_floats((0..30).map(|i| match i % 5 {
                    0 => None,
                    1 => Some(f64::NAN),
                    _ => Some(i as f64 / 4.0),
                })),
            ),
            ("s", Column::from_strs((0..30).map(|i| (i % 7 != 0).then(|| format!("v{}", i % 3))))),
            ("b", Column::from_bools((0..30).map(|i| (i % 3 != 0).then_some(i % 2 == 0)))),
            ("void", Column::from_ints((0..30).map(|_| None))),
            ("full", ints(0..30)),
        ],
    )
    .unwrap();
    let counted: Vec<usize> = (0..t.n_cols()).map(|i| t.column_at(i).null_count()).collect();
    assert_eq!(t.built_dicts().count(), 0, "counting nulls builds nothing");
    assert_eq!(counted, [8, 12, 5, 10, 30, 0]);
    for (i, &n) in counted.iter().enumerate() {
        assert_eq!(t.key_dict_at(i).unwrap().null_rows(), n, "column {i}");
    }
    assert!(t.key_dict_at(6).is_none());
}

#[test]
fn a_unique_key_join_fingerprints_nothing() {
    let left = Table::new("left", vec![("k", ints((0..80).map(|i| i % 50)))]).unwrap();
    let unique = Table::new("unique", vec![("k", ints(0..40)), ("f", ints(100..140))]).unwrap();
    let out = left_join_normalized(&left, &unique, "k", "k", "unique", 7).unwrap();
    assert_eq!(out.matched, 70);
    assert_eq!(out.table.column("unique.f").unwrap().null_count(), 10);
    assert_eq!(unique.built_dicts().map(|(i, _)| i).collect::<Vec<_>>(), [0]);
    assert!(!unique.has_row_fingerprints());
    // One repeated key is enough to need them.
    let dup = satellite("dup", 0);
    left_join_normalized(&left, &dup, "k", "k", "dup", 7).unwrap();
    assert!(dup.has_row_fingerprints());
    assert_eq!(dup.built_dicts().map(|(i, _)| i).collect::<Vec<_>>(), [0]);
}
