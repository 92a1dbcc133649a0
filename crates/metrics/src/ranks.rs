//! Rank transforms for Spearman correlation.

/// An integer whose unsigned order is the numeric order of finite `x`, with
/// `-0.0` and `0.0` sharing a key. Sorting these is several times cheaper
/// than sorting floats through `partial_cmp`.
pub(crate) fn sort_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits(); // -0.0 + 0.0 == 0.0
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// `(sort key, row)` of every finite value into `order` (cleared first),
/// ascending by key. Rows that tie are left in whatever order the unstable
/// sort put them: every reader treats a run of equal keys as one group.
pub(crate) fn sorted_order(values: &[f64], order: &mut Vec<(u64, u32)>) {
    assert!(u32::try_from(values.len()).is_ok(), "more rows than a u32 can number");
    order.clear();
    order.extend(
        values
            .iter()
            .enumerate()
            .filter(|(_, x)| x.is_finite())
            .map(|(row, &x)| (sort_key(x), row as u32)),
    );
    order.sort_unstable_by_key(|&(key, _)| key);
}

/// Average (fractional) ranks of `values`, 1-based, with ties receiving the
/// mean of the ranks they span. `NaN`s receive `NaN` ranks and are excluded
/// from the ranking of the rest.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order = Vec::new();
    let mut ranks = Vec::new();
    average_ranks_into(values, &mut order, &mut ranks);
    ranks
}

/// [`average_ranks`] into caller-owned buffers: `order` receives the
/// `(sort key, row)` of every finite value in ascending key order, `ranks`
/// the result (both cleared and refilled). Hot loops that rank column after
/// column (Spearman over every candidate feature) reuse two warm allocations
/// instead of allocating per call, and read the column's equal-frequency
/// bins off the same `order`. Tied rows all get their group's mean rank.
pub fn average_ranks_into(values: &[f64], order: &mut Vec<(u64, u32)>, ranks: &mut Vec<f64>) {
    sorted_order(values, order);
    ranks.clear();
    ranks.resize(values.len(), f64::NAN);
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && order[j + 1].0 == order[i].0 {
            j += 1;
        }
        // ranks i+1 ..= j+1 (1-based), average
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &(_, row) in &order[i..=j] {
            ranks[row as usize] = avg;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_ranks() {
        assert_eq!(average_ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ties_get_average() {
        let r = average_ranks(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_tied() {
        let r = average_ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn nan_excluded() {
        let r = average_ranks(&[2.0, f64::NAN, 1.0]);
        assert!(r[1].is_nan());
        assert_eq!(r[0], 2.0);
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn sort_key_orders_like_the_values() {
        let vals = [-1e300, -2.5, -1e-300, -0.0, 0.0, 1e-300, 1.0, 2.5, 1e300];
        for w in vals.windows(2) {
            assert_eq!(sort_key(w[0]) < sort_key(w[1]), w[0] < w[1], "{w:?}");
            assert_eq!(sort_key(w[0]) == sort_key(w[1]), w[0] == w[1], "{w:?}");
        }
    }

    #[test]
    fn negative_and_positive_zero_tie() {
        assert_eq!(average_ranks(&[0.0, -1.0, -0.0]), vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn empty_input() {
        assert!(average_ranks(&[]).is_empty());
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches() {
        let mut idx = vec![(99u64, 9u32); 8];
        let mut ranks = vec![1.0f64; 8];
        for vals in [
            vec![3.0, 1.0, 2.0, 2.0],
            vec![f64::NAN, 5.0],
            vec![],
            vec![7.0, 7.0, 7.0],
        ] {
            average_ranks_into(&vals, &mut idx, &mut ranks);
            let fresh = average_ranks(&vals);
            assert_eq!(ranks.len(), fresh.len());
            for (a, b) in ranks.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
