//! One key domain: every table a `SearchContext` holds carries complete,
//! fresh key metadata however it arrived, and a join index is charged for
//! exactly the metadata it had to build for itself.

use std::sync::Arc;

use autofeat::data::join::JoinIndex;
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

/// The three ways a table reaches a context: never keyed, keyed at ingest,
/// keyed and then changed (which drops the metadata whole).
fn arrivals() -> (Table, Table, Table) {
    let base = Table::new(
        "base",
        vec![("k", ints(0..20)), ("target", ints((0..20).map(|i| i % 2)))],
    )
    .unwrap();
    let keyed = satellite("keyed", 1).with_key_dicts();
    let widened = satellite("widened", 2)
        .with_key_dicts()
        .with_column("g", ints((0..40).map(|i| i % 7)))
        .unwrap();
    assert!(!base.has_key_meta() && keyed.has_key_meta() && !widened.has_key_meta());
    (base, keyed, widened)
}

/// Every resident table has a dictionary per column and a fingerprint per
/// row, equal to what a rebuild from its cells yields.
fn assert_keyed(ctx: &SearchContext, what: &str) {
    for name in ctx.table_names() {
        let t = ctx.table(name).unwrap();
        let rebuilt = t.select(&t.column_names()).unwrap().with_key_dicts();
        assert!(t.has_key_meta(), "{what}: {name}");
        assert_eq!(
            t.row_fingerprints(),
            rebuilt.row_fingerprints(),
            "{what}: {name}"
        );
        assert_eq!(
            t.row_fingerprints().unwrap().len(),
            t.n_rows(),
            "{what}: {name}"
        );
        assert_eq!(
            t.key_meta_bytes(),
            rebuilt.key_meta_bytes(),
            "{what}: {name}"
        );
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
    }
}

#[test]
fn every_resident_table_is_keyed_however_it_arrived() {
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
    // for group tables and duplicate rows only.
    let result = AutoFeat::new(AutoFeatConfig::default().with_seed(3))
        .discover(&from_kfk)
        .unwrap();
    let stats = result.cache.unwrap();
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
    assert_eq!(
        expected,
        2 * (20 * 12 + 40 * 4),
        "20 twelve-byte groups + 40 duplicate rows each"
    );
}

#[test]
fn an_index_is_charged_for_the_metadata_it_built_itself() {
    let bare = satellite("bare", 0);
    let keyed = bare.clone().with_key_dicts().with_name("keyed");
    let over = |t: &Table| JoinIndex::build(t, t.column("k").unwrap()).unwrap();
    let (transient, lent) = (over(&bare), over(&keyed));
    let own_dict = keyed.key_dict_at(0).unwrap().resident_bytes();
    let own_fps = bare.n_rows() * std::mem::size_of::<u64>();
    assert_eq!(
        transient.resident_bytes(),
        lent.resident_bytes() + own_dict + own_fps
    );
    assert_eq!(lent.resident_bytes(), 20 * 12 + 40 * 4);
    assert_eq!(
        (transient.n_keys(), transient.n_dup_rows()),
        (lent.n_keys(), lent.n_dup_rows())
    );
    for seed in [0u64, 1, 42] {
        for k in -1..21 {
            let key = Value::Int(k).key().unwrap();
            assert_eq!(
                transient.representative(&key, seed),
                lent.representative(&key, seed)
            );
        }
    }
    // No key repeats: nothing is fingerprinted, only the dictionary is owned.
    let unique = Table::new("unique", vec![("k", ints(0..40))]).unwrap();
    let unique_keyed = unique.clone().with_key_dicts();
    assert_eq!(
        over(&unique).resident_bytes(),
        over(&unique_keyed).resident_bytes()
            + unique_keyed.key_dict_at(0).unwrap().resident_bytes()
    );

    // A cache holding both kinds: resident = Σ slot bytes ≤ budget.
    let both = (transient.resident_bytes() + lent.resident_bytes()) as u64;
    let cache = LakeIndexCache::with_budget(Some(both));
    cache.get_or_build(&bare, "k").unwrap();
    cache.get_or_build(&keyed, "k").unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.entries, stats.resident_bytes, stats.rejections),
        (2, both, 0)
    );
    // One byte short: the second index is built, served and not retained.
    let cache = LakeIndexCache::with_budget(Some(both - 1));
    cache.get_or_build(&keyed, "k").unwrap();
    cache.get_or_build(&bare, "k").unwrap();
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.rejections), (1, 1));
    assert_eq!(stats.resident_bytes, lent.resident_bytes() as u64);
    assert!(stats.peak_resident_bytes < both);
}
