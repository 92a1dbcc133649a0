//! Column matching checked against a reference that shares none of its
//! data structures (`common::match_oracle`: row-walked `HashSet`s, the
//! three-intersection score, all pairs). Scores are compared bit for bit
//! and edge lists exactly; the lake's DRG is also pinned to a digest
//! captured at commit 8a7ee06, before profiles kept sorted runs, so a
//! change shared by the program and the reference cannot pass either.

mod common;

use std::hash::Hasher;

use autofeat::data::csv::{read_csv_str, write_csv_str};
use autofeat::data::stable_hash::StableHasher;
use autofeat::datagen::DatasetSpec;
use autofeat::discovery::name_sim::name_similarity;
use autofeat::discovery::ColumnProfile;
use autofeat::graph::DrgMaintainer;
use autofeat::prelude::*;
use common::match_oracle::{self, Edge};
use proptest::prelude::*;

/// SplitMix64: a case is a pure function of its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    /// A set size: empty, single, small (where the occupancy map
    /// discriminates) or large (where it saturates).
    fn size(&mut self) -> usize {
        match self.below(16) {
            0 => 0,
            1 => 1,
            2 => 30_000 + self.below(10_001),
            _ => (40_000f64.powf(self.below(1_000) as f64 / 1_000.0)) as usize,
        }
    }
}

/// The instance similarity of sets sized `na` and `nb` sharing `x` values —
/// used only to aim overlaps at the threshold, never to judge a score.
fn inst(na: usize, nb: usize, x: usize) -> f64 {
    let x = x as f64;
    let j = if na + nb == 0 { 0.0 } else { x / ((na + nb) as f64 - x) };
    let c = if na.min(nb) == 0 { 0.0 } else { x / na.min(nb) as f64 };
    (j + c) / 2.0
}

/// Overlaps worth trying for a pair: the smallest one whose paper-blend
/// score reaches the threshold (`inst ≥ 1.1 − name`) and its neighbours;
/// for sets small enough to profile many times, also the extremes and one
/// at random.
fn overlaps(d: &mut Draw, na: usize, nb: usize, name: f64) -> Vec<usize> {
    let most = na.min(nb);
    let need = 1.1 - name;
    let (mut lo, mut hi) = (0, most);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if inst(na, nb, mid) >= need {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut xs = vec![lo.saturating_sub(1), lo, (lo + 1).min(most)];
    if most <= 5_000 {
        xs.extend([0, most, d.below(most + 1)]);
    }
    xs.sort_unstable();
    xs.dedup();
    xs
}

/// A one-column table holding the values `from..from + n`: as ints or as
/// the floats equal to them (the same keys), every value `dup` times, the
/// first few once more, `nulls` nulls among them.
fn column_table(d: &mut Draw, name: &str, from: i64, n: usize) -> Table {
    let rows = value_rows(d, from, n);
    let col = if d.below(2) == 0 {
        Column::from_ints(rows)
    } else {
        Column::from_floats(rows.into_iter().map(|v| v.map(|v| v as f64)))
    };
    Table::new("t", vec![(name, col)]).unwrap()
}

/// The rows of [`column_table`] before they are typed: the values
/// `from..from + n`, every one `dup` times, the first few once more, and
/// `nulls` nulls, spread through the rows.
fn value_rows(d: &mut Draw, from: i64, n: usize) -> Vec<Option<i64>> {
    let dup = if n <= 2_000 { 1 + d.below(3) } else { 1 };
    let mut values: Vec<Option<i64>> = (0..dup).flat_map(|_| (from..from + n as i64).map(Some)).collect();
    values.extend((from..from + n.min(100) as i64).map(Some));
    let rows = values.len();
    let nulls = match d.below(4) {
        0 if rows <= 500 => rows * 9 + 1, // ≥ 90 % null: not a join candidate
        1 => rows / 3 + 1,
        _ if n == 0 => 3,
        _ => 0,
    };
    values.extend(std::iter::repeat_n(None, nulls));
    // A fixed odd stride spreads nulls and repeats through the rows.
    let len = values.len();
    let stride = (0..).map(|i| 7_919 + 2 * i).find(|s| gcd(*s, len) == 1).unwrap();
    (0..len).map(|i| values[i * stride % len]).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

const NAME_PAIRS: [(&str, &str); 7] = [
    ("id", "id"),
    ("user_id", "userid"),
    ("s4_id", "s14_id"),
    ("noise_3", "noise_12"),
    ("customer", "cust_key"),
    ("alpha", "zulu"),
    ("k", "key_id"),
];

fn configs() -> Vec<MatcherConfig> {
    let mut out = Vec::new();
    for threshold in [0.55, 0.2, 0.9, 1.0, 0.0, -1.0] {
        out.push(MatcherConfig { threshold, ..MatcherConfig::default() });
    }
    // Weights the bound must stand down for (a sign it needs is missing),
    // and lopsided ones it must survive.
    for (name_weight, value_weight) in
        [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.5, 1.0), (1.0, -0.5), (-1.0, -1.0), (0.2, 3.0), (2.0, 1e-9)]
    {
        for threshold in [0.55, 0.05] {
            out.push(MatcherConfig { threshold, name_weight, value_weight });
        }
    }
    out
}

/// One column as the program and as the reference profile it.
struct Profiled {
    program: ColumnProfile,
    reference: match_oracle::Profile,
    rows: usize,
}

fn profiled(table: &Table) -> Profiled {
    let program = ColumnProfile::build_all(table).remove(0);
    let reference = match_oracle::profile(&program.column, table.column_at(0));
    Profiled { program, reference, rows: table.n_rows() }
}

/// Every claim about one pair of columns.
fn check_pair(a: &Profiled, b: &Profiled) -> Result<(), String> {
    let (pa, pb, oa, ob) = (&a.program, &b.program, &a.reference, &b.reference);
    let what = format!(
        "{}[{} of {} rows] × {}[{} of {} rows]",
        pa.column,
        oa.values.len(),
        a.rows,
        pb.column,
        ob.values.len(),
        b.rows
    );
    prop_assert!(pa.distinct == oa.values.len(), "{what}: distinct {}", pa.distinct);
    prop_assert!(pb.distinct == ob.values.len(), "{what}: distinct {}", pb.distinct);

    // (b) The occupancy bound is never below the true intersection.
    let shared = oa.values.intersection(&ob.values).count();
    let (ra, rb) = (pa.value_hashes.as_ref().unwrap(), pb.value_hashes.as_ref().unwrap());
    prop_assert!(ra.intersection_len(rb) == shared, "{what}: merge disagrees with {shared}");
    prop_assert!(ra.intersection_bound(rb) >= shared, "{what}: bound below {shared}");

    // (a) The decision, and the score when it is yes, are the reference's.
    let name = name_similarity(&pa.column, &pb.column);
    let inst = match_oracle::instance_similarity(oa, ob);
    for config in configs() {
        let want = match_oracle::blended(&config, inst, oa, ob);
        let matcher = SchemaMatcher::new(config.clone());
        let got = matcher.score_pair(pa, pb);
        prop_assert!(got.to_bits() == want.to_bits(), "{what} {config:?}: {got} for {want}");
        let decided = matcher.match_score(|| name, pa, pb);
        prop_assert!(
            decided.map(f64::to_bits) == (want >= config.threshold).then_some(want.to_bits()),
            "{what} {config:?}: {decided:?} where the reference scores {want}"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn match_score_is_the_reference_cut_at_the_threshold(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let (na, nb) = (d.size(), d.size());
        let (left_name, right_name) = NAME_PAIRS[d.below(NAME_PAIRS.len())];
        let name = name_similarity(left_name, right_name);
        let left = profiled(&column_table(&mut d, left_name, 0, na));
        for x in overlaps(&mut d, na, nb, name) {
            let right = column_table(&mut d, right_name, (na - x) as i64, nb);
            check_pair(&left, &profiled(&right))?;
        }
    }
}

/// How [`kind_table`] types a value `v`: as the int, the float equal to it,
/// a non-integral float, a float integral for even `v` only, a string, or a
/// bool.
const KINDS: [&str; 6] = ["int", "integral float", "fraction", "mixed float", "string", "bool"];

/// A one-column table of [`value_rows`] typed as `KINDS[kind]`. Near `±2⁵³` and `2⁶³` the floats round, so distinct values share a
/// key there.
fn kind_table(d: &mut Draw, name: &str, kind: usize, from: i64, n: usize) -> Table {
    let rows = value_rows(d, from, n);
    let floats = |f: fn(i64) -> f64| Column::from_floats(rows.iter().map(|v| v.map(f)));
    let col = match kind {
        0 => Column::from_ints(rows.clone()),
        1 => floats(|v| v as f64),
        2 => floats(|v| v as f64 / 4.0 + 0.125),
        3 => floats(|v| if v % 2 == 0 { v as f64 } else { v as f64 + 0.25 }),
        4 => Column::from_strs(rows.iter().map(|v| v.map(|v| v.to_string()))),
        _ => Column::from_bools(rows.iter().map(|v| v.map(|v| v % 2 == 0))),
    };
    Table::new("t", vec![(name, col)]).unwrap()
}

proptest! {
    /// Column families beyond integer ranges — non-integral floats, strings,
    /// bools, floats mixing integral and non-integral values — placed near
    /// 0, `±2⁵³`, `i64::MAX` (where every float is `2⁶³`, no integer key)
    /// and `i64::MIN`: every ordered pair of a family through
    /// [`check_pair`], so ranges that meet, that do not, and that only
    /// seem to after rounding all reach the bound and the merge.
    #[test]
    fn key_kinds_beyond_integers_match_the_reference(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let sizes: Vec<usize> = (0..5).map(|_| d.below(150)).collect();
        let widest = *sizes.iter().max().unwrap() as i64 + 1;
        let anchor = match d.below(5) {
            0 => 0,
            1 => (1 << 53) - widest,
            2 => -(1 << 53) - widest,
            3 => i64::MAX - 2 * widest,
            _ => i64::MIN,
        };
        let family: Vec<Profiled> = sizes
            .iter()
            .map(|&n| {
                let (name, kind) = (NAME_PAIRS[d.below(NAME_PAIRS.len())].0, d.below(KINDS.len()));
                let from = anchor + d.below(widest as usize) as i64;
                profiled(&kind_table(&mut d, name, kind, from, n))
            })
            .collect();
        for a in &family {
            for b in &family {
                check_pair(a, b)?;
            }
        }
    }
}

#[test]
fn saturated_maps_leave_the_decision_to_the_merge() {
    // 40 000 values on each side set almost half the map's bits each; the
    // bound passes nearly everything on and the answers must not change.
    let mut d = Draw(40_000);
    let n = 40_000;
    let left = profiled(&column_table(&mut d, "s4_id", 0, n));
    let name = name_similarity("s4_id", "s14_id");
    for x in overlaps(&mut d, n, n, name) {
        let right = column_table(&mut d, "s14_id", (n - x) as i64, n);
        check_pair(&left, &profiled(&right)).unwrap();
    }
}

/// More than 256 columns over one value domain — 0/1 flags — under names
/// that are not alike. Every pair's value sets are equal
/// (instance similarity 1), so each pair reaches the threshold on its
/// values; a candidate filter that gives up on a crowded value domain
/// would drop every one of them.
#[test]
fn a_crowded_value_domain_keeps_its_value_driven_edges() {
    let flags = |i: usize| Column::from_ints((0..20).map(|r| Some(((r + i) % 2) as i64)));
    let accounts = Table::new("accounts", vec![("is_flag", flags(0))]).unwrap();
    let names: Vec<String> = (0..300).map(|i| format!("flag_{i}")).collect();
    let columns = names.iter().enumerate().map(|(i, n)| (n.as_str(), flags(i))).collect();
    let signals = Table::new("signals", columns).unwrap();
    let matcher = SchemaMatcher::paper_default();
    let refs = [&accounts, &signals];
    let want = match_oracle::drg_edges(&refs, matcher.config());
    assert_eq!(want.len(), 300, "every flag pair is an edge");
    assert!(want.iter().all(|e| name_similarity(&e.1, &e.3) < 0.75), "no pair's names are alike");
    let built = match_oracle::edges_of(&DrgMaintainer::build(&refs, &matcher).assemble());
    assert_eq!(built, want);
}

// ---------------------------------------------------------------------------
// (c) A generated lake's DRG: the program's, the reference's, and the
// parent commit's, on tables as generated and through CSV.
// ---------------------------------------------------------------------------

fn lake() -> autofeat::datagen::lake::Lake {
    DatasetSpec {
        name: "match_oracle",
        paper_rows: 0,
        paper_joinable_tables: 0,
        paper_features: 0,
        paper_best_accuracy: 0.0,
        rows: 400,
        features: 30,
        n_satellites: 9,
        max_branching: 3,
        class_sep: 1.5,
        seed: 17,
    }
    .build_lake()
}

/// FNV-1a over the edge list's debug form.
fn digest(edges: &[Edge]) -> String {
    let mut h = StableHasher::new();
    h.write(format!("{edges:?}").as_bytes());
    format!("{} edges, {:016x}", edges.len(), h.finish())
}

/// Captured at commit 8a7ee06, from `DrgMaintainer::build` over the lake's
/// tables as generated and from `SearchContext::from_discovery` over them
/// plus the `leak` table below (which, the label hidden, adds no edge).
const LAKE_DIGEST: &str = "15 edges, 272c11aa8b067819";

#[test]
fn lake_drg_equals_the_reference_and_the_parent_commit() {
    let lake = lake();
    let matcher = SchemaMatcher::paper_default();
    let generated = &lake.tables;
    let through_csv: Vec<Table> =
        generated.iter().map(|t| read_csv_str(t.name(), &write_csv_str(t)).unwrap()).collect();
    for (arrival, tables) in [("generated", generated), ("csv", &through_csv)] {
        let refs: Vec<&Table> = tables.iter().collect();
        let built = match_oracle::edges_of(&DrgMaintainer::build(&refs, &matcher).assemble());
        assert_eq!(built, match_oracle::drg_edges(&refs, matcher.config()), "{arrival} tables");
        assert_eq!(digest(&built), LAKE_DIGEST, "{arrival} tables");
    }

    // The context hides the label from the matcher — by its profile, not by
    // a bare copy of the base. A table that repeats the label under its own
    // name would match it otherwise.
    let label_values = lake.base().column(&lake.label).unwrap().clone();
    let leak = Table::new("leak", vec![(lake.label.as_str(), label_values)]).unwrap();
    let with_leak: Vec<Table> = generated.iter().cloned().chain([leak]).collect();
    let refs: Vec<&Table> = with_leak.iter().collect();
    let visible = match_oracle::drg_edges(&refs, matcher.config());
    assert!(visible.iter().any(|e| e.2 == "leak"), "the label would match if it showed");
    let hidden: Vec<Table> = with_leak
        .iter()
        .map(|t| if t.name() == lake.base_name { t.drop_columns(&[&lake.label]) } else { t.clone() })
        .collect();
    let refs: Vec<&Table> = hidden.iter().collect();
    let ctx = SearchContext::from_discovery(with_leak, &matcher, &lake.base_name, &lake.label)
        .unwrap();
    let built = match_oracle::edges_of(ctx.drg());
    assert_eq!(built, match_oracle::drg_edges(&refs, matcher.config()));
    assert_eq!(digest(&built), LAKE_DIGEST);
}
