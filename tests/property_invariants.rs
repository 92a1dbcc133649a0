//! Property-based tests (proptest) over the core data structures and
//! invariants of the pipeline.

use autofeat::data::join::left_join_normalized;
use autofeat::data::sample::{stratified_sample, train_test_split};
use autofeat::metrics::discretize::{discretize_equal_frequency, Discretized};
use autofeat::metrics::entropy::entropy;
use autofeat::metrics::mi::mutual_information;
use autofeat::metrics::ranks::average_ranks;
use autofeat::metrics::relevance::{pearson_correlation, spearman_correlation};
use autofeat::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn int_column(values: &[i64]) -> Column {
    Column::from_ints(values.iter().map(|&v| Some(v)).collect::<Vec<_>>())
}

proptest! {
    /// A normalized left join always preserves the left row count exactly,
    /// whatever the key multiplicities on either side.
    #[test]
    fn left_join_preserves_row_count(
        left_keys in prop::collection::vec(0i64..20, 1..60),
        right_keys in prop::collection::vec(0i64..20, 0..120),
        seed in 0u64..1000,
    ) {
        let left = Table::new("l", vec![("k", int_column(&left_keys))]).unwrap();
        let rvals: Vec<Option<f64>> = right_keys.iter().map(|&k| Some(k as f64)).collect();
        let right = Table::new(
            "r",
            vec![("k", int_column(&right_keys)), ("v", Column::from_floats(rvals))],
        )
        .unwrap();
        let out = left_join_normalized(&left, &right, "k", "k", "r", seed).unwrap();
        prop_assert_eq!(out.table.n_rows(), left.n_rows());
    }

    /// After a normalized join, each matched row's value comes from a right
    /// row with the same key (representative consistency).
    #[test]
    fn join_values_match_their_key(
        keys in prop::collection::vec(0i64..10, 1..40),
        seed in 0u64..100,
    ) {
        let left = Table::new("l", vec![("k", int_column(&keys))]).unwrap();
        // Right: value = key * 100 for every duplicate, so any
        // representative satisfies v = k*100.
        let rkeys: Vec<i64> = (0..10).flat_map(|k| vec![k, k, k]).collect();
        let rvals: Vec<Option<i64>> = rkeys.iter().map(|&k| Some(k * 100)).collect();
        let right = Table::new(
            "r",
            vec![("k", int_column(&rkeys)), ("v", Column::from_ints(rvals))],
        )
        .unwrap();
        let out = left_join_normalized(&left, &right, "k", "k", "r", seed).unwrap();
        for i in 0..out.table.n_rows() {
            if let Value::Int(v) = out.table.value("r.v", i).unwrap() {
                let k = match out.table.value("k", i).unwrap() {
                    Value::Int(k) => k,
                    other => panic!("unexpected key {other:?}"),
                };
                prop_assert_eq!(v, k * 100);
            }
        }
    }

    /// Stratified splitting partitions rows exactly and disjointly.
    #[test]
    fn split_partitions_exactly(
        n_pos in 2usize..50,
        n_neg in 2usize..50,
        frac in 0.1f64..0.5,
        seed in 0u64..100,
    ) {
        let labels: Vec<Option<bool>> = (0..n_pos).map(|_| Some(true))
            .chain((0..n_neg).map(|_| Some(false))).collect();
        let ids: Vec<Option<i64>> = (0..(n_pos + n_neg) as i64).map(Some).collect();
        let t = Table::new("t", vec![
            ("id", Column::from_ints(ids)),
            ("y", Column::from_bools(labels)),
        ]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = train_test_split(&t, "y", frac, &mut rng).unwrap();
        prop_assert_eq!(s.train.n_rows() + s.test.n_rows(), n_pos + n_neg);
        prop_assert!(s.train.n_rows() > 0);
    }

    /// Stratified sampling never returns more rows than the table has and
    /// keeps every class present.
    #[test]
    fn stratified_sample_keeps_classes(
        n_pos in 1usize..40,
        n_neg in 1usize..40,
        frac in 0.05f64..1.0,
        seed in 0u64..100,
    ) {
        let labels: Vec<Option<bool>> = (0..n_pos).map(|_| Some(true))
            .chain((0..n_neg).map(|_| Some(false))).collect();
        let ids: Vec<Option<i64>> = (0..(n_pos + n_neg) as i64).map(Some).collect();
        let t = Table::new("t", vec![
            ("id", Column::from_ints(ids)),
            ("y", Column::from_bools(labels)),
        ]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = stratified_sample(&t, "y", frac, &mut rng).unwrap();
        prop_assert!(s.n_rows() <= t.n_rows());
        let col = s.column("y").unwrap();
        let pos = (0..col.len()).filter(|&i| col.get_f64(i) == Some(1.0)).count();
        prop_assert!(pos >= 1, "positive class vanished");
        prop_assert!(s.n_rows() - pos >= 1, "negative class vanished");
    }

    /// Entropy is bounded by log2(number of bins).
    #[test]
    fn entropy_bounded_by_log_bins(codes in prop::collection::vec(0i64..8, 1..200)) {
        let d = Discretized::from_codes(codes.iter().map(|&c| Some(c)));
        let h = entropy(&d);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (d.n_bins().max(1) as f64).log2() + 1e-9, "H={h}, bins={}", d.n_bins());
    }

    /// Mutual information is symmetric and bounded by min(H(X), H(Y)).
    #[test]
    fn mi_symmetric_and_bounded(
        x in prop::collection::vec(0i64..5, 10..150),
        ys in prop::collection::vec(0i64..5, 10..150),
    ) {
        let n = x.len().min(ys.len());
        let dx = Discretized::from_codes(x[..n].iter().map(|&c| Some(c)));
        let dy = Discretized::from_codes(ys[..n].iter().map(|&c| Some(c)));
        let mi_xy = mutual_information(&dx, &dy);
        let mi_yx = mutual_information(&dy, &dx);
        prop_assert!((mi_xy - mi_yx).abs() < 1e-9);
        prop_assert!(mi_xy >= 0.0);
        prop_assert!(mi_xy <= entropy(&dx).min(entropy(&dy)) + 1e-9);
    }

    /// Correlations stay within [-1, 1] for arbitrary finite inputs.
    #[test]
    fn correlations_bounded(
        pairs in prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..100),
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let p = pearson_correlation(&x, &y);
        let s = spearman_correlation(&x, &y);
        prop_assert!((-1.0..=1.0).contains(&p), "pearson {p}");
        prop_assert!((-1.0..=1.0).contains(&s), "spearman {s}");
    }

    /// Average ranks are a permutation-respecting assignment: they sum to
    /// n(n+1)/2 for distinct finite inputs.
    #[test]
    fn ranks_sum_invariant(values in prop::collection::hash_set(-1000i64..1000, 1..80)) {
        let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
        let ranks = average_ranks(&v);
        let sum: f64 = ranks.iter().sum();
        let n = v.len() as f64;
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Equal-frequency discretization is monotone: larger values never get
    /// smaller bin codes.
    #[test]
    fn discretization_is_monotone(values in prop::collection::vec(-1e9f64..1e9, 2..200)) {
        let d = discretize_equal_frequency(&values, 8);
        let mut pairs: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .map(|(row, &v)| (v, d.code(row).unwrap()))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    /// Grouping rows by their key-dictionary code partitions the table:
    /// one group per distinct key, the group sizes sum to the rows, and
    /// every row of a group holds that group's key. (A dictionary of dense
    /// integer keys codes its whole range, so the codes of keys the range
    /// skips group no row.)
    #[test]
    fn group_by_counts_partition(
        keys in prop::collection::vec(0i64..6, 1..80),
    ) {
        use autofeat::data::KeyDict;
        let col = int_column(&keys);
        let dict = KeyDict::build(&col);
        let mut counts = vec![0usize; dict.n_codes()];
        for (row, &code) in dict.row_codes().iter().enumerate() {
            counts[code as usize] += 1;
            prop_assert_eq!(Some(dict.key_at(code)), col.key(row));
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), keys.len());
        prop_assert_eq!(counts.iter().filter(|&&c| c > 0).count(), dict.len());
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(dict.len(), distinct.len());
    }

    /// Tree classifiers only ever predict labels they saw at fit time.
    #[test]
    fn tree_predictions_stay_in_label_set(
        labels in prop::collection::vec(0i64..4, 10..60),
        queries in prop::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        use autofeat::ml::eval::Classifier;
        use autofeat::ml::tree::{DecisionTree, TreeConfig};
        let x: Vec<f64> = (0..labels.len()).map(|i| i as f64).collect();
        let m = autofeat::data::encode::Matrix {
            feature_names: vec!["x".into()],
            cols: vec![x],
            labels: labels.clone(),
            n_rows: labels.len(),
        };
        let mut t = DecisionTree::new(TreeConfig::default(), 0);
        t.fit(&m).unwrap();
        for q in queries {
            let p = t.predict_row(&[q]);
            prop_assert!(labels.contains(&p), "predicted unseen label {p}");
        }
    }

    /// CSV roundtrip preserves integer tables exactly.
    #[test]
    fn csv_roundtrip_ints(rows in prop::collection::vec((-1000i64..1000, -1000i64..1000), 1..50)) {
        let a: Vec<Option<i64>> = rows.iter().map(|r| Some(r.0)).collect();
        let b: Vec<Option<i64>> = rows.iter().map(|r| Some(r.1)).collect();
        let t = Table::new("t", vec![
            ("a", Column::from_ints(a)),
            ("b", Column::from_ints(b)),
        ]).unwrap();
        let text = autofeat::data::csv::write_csv_str(&t);
        let back = autofeat::data::csv::read_csv_str("t", &text).unwrap();
        prop_assert_eq!(back, t);
    }
}
