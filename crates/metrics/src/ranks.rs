//! Rank transforms for Spearman correlation.
//!
//! A column is sorted as one `u64` word per finite value (`sorted_order`):
//! the high bits of the value's `sort_key`, with its row in the low
//! `⌈log₂ n⌉` bits for a column of `n` rows (`row_bits`). One word sorts
//! faster than a `(key, row)` pair, and every reader groups a run of equal
//! high bits as one value. Only values whose keys differ in the bits the row
//! took can tie there; a column with such bits settles its runs by full key
//! after the sort (`settle_ties`).

/// An integer whose unsigned order is the numeric order of finite `x`, with
/// `-0.0` and `0.0` sharing a key. Sorting these is several times cheaper
/// than sorting floats through `partial_cmp`.
pub(crate) fn sort_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits(); // -0.0 + 0.0 == 0.0
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The low bits an order word of an `n`-row column gives its row: `⌈log₂ n⌉`.
pub(crate) fn row_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// One word per finite value of `values` into `order` (cleared first),
/// ascending, and the [`row_bits`] of `values`: a word's row is its low
/// `row_bits` bits, and two words share their high bits iff their values are
/// equal. Rows of one value are left in whatever order the unstable sort put
/// them: every reader treats a run of them as one group.
pub(crate) fn sorted_order(values: &[f64], order: &mut Vec<u64>) -> u32 {
    assert!(u32::try_from(values.len()).is_ok(), "more rows than a u32 can number");
    let shift = row_bits(values.len());
    let low = (1u64 << shift) - 1;
    // A value whose low bits are 0 keeps its whole key in the high bits: the
    // key's low bits are 0, or all 1 for a negative value, as its sign says.
    let mut lost = 0;
    // Every row is written and only a finite one kept: holes cost no branch.
    order.clear();
    order.resize(values.len(), 0);
    let mut len = 0;
    for (row, &x) in values.iter().enumerate() {
        order[len] = sort_key(x) & !low | row as u64;
        lost |= if x.is_finite() { (x + 0.0).to_bits() & low } else { 0 };
        len += usize::from(x.is_finite());
    }
    order.truncate(len);
    order.sort_unstable();
    if lost != 0 {
        settle_ties(values, order, shift);
    }
    shift
}

/// Put each run of `order` whose words tie on their high bits into full-key
/// order; when a run held more than one value, renumber every word's high
/// bits by its value's place among the column's distinct values.
fn settle_ties(values: &[f64], order: &mut [u64], shift: u32) {
    let low = (1u64 << shift) - 1;
    let key = |w: u64| sort_key(values[(w & low) as usize]);
    let mut split = false;
    for run in order.chunk_by_mut(|a, b| a >> shift == b >> shift) {
        if run.len() > 1 && run.iter().any(|&w| key(w) != key(run[0])) {
            run.sort_unstable_by_key(|&w| key(w));
            split = true;
        }
    }
    if split {
        // Renumbering keeps the row bits, so `key` still reads a word done.
        let mut place = 0;
        for i in 0..order.len() {
            place += u64::from(i > 0 && key(order[i]) != key(order[i - 1]));
            order[i] = place << shift | order[i] & low;
        }
    }
}

/// Whether `order` names every finite row of `values` once, ascending by
/// value, with high bits that order and tie as the values do: what
/// [`sorted_order`] promises.
pub(crate) fn names_in_order(values: &[f64], order: &[u64], shift: u32) -> bool {
    let low = (1u64 << shift) - 1;
    let mut seen = vec![false; values.len()];
    let named = order.iter().all(|&w| {
        let row = (w & low) as usize;
        values.get(row).is_some_and(|x| x.is_finite()) && !std::mem::replace(&mut seen[row], true)
    });
    let key = |w: u64| sort_key(values[(w & low) as usize]);
    named
        && order.len() == values.iter().filter(|x| x.is_finite()).count()
        && order.windows(2).all(|w| {
            let (a, b) = (key(w[0]), key(w[1]));
            a <= b && (w[0] >> shift).cmp(&(w[1] >> shift)) == a.cmp(&b)
        })
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

/// [`average_ranks`] into caller-owned buffers: `order` receives one word per
/// finite value in ascending order (`sorted_order`), `ranks` the result
/// (both cleared and refilled). Hot loops that rank column after column
/// reuse two warm allocations instead of allocating per call. Tied rows all
/// get their group's mean rank.
pub fn average_ranks_into(values: &[f64], order: &mut Vec<u64>, ranks: &mut Vec<f64>) {
    let shift = sorted_order(values, order);
    ranks_from_order(order, shift, values.len(), ranks, |_| {});
}

/// The average ranks of the `n` rows an order of [`sorted_order`] with
/// `shift` row bits names, into `ranks` (`NaN` for a row it does not name),
/// handing `visit` each ranked row as the walk writes it.
pub(crate) fn ranks_from_order(
    order: &[u64],
    shift: u32,
    n: usize,
    ranks: &mut Vec<f64>,
    mut visit: impl FnMut(usize),
) {
    let low = (1u64 << shift) - 1;
    ranks.clear();
    ranks.resize(n, f64::NAN);
    let mut i = 0;
    for run in order.chunk_by(|a, b| a >> shift == b >> shift) {
        // ranks i+1 ..= i+len (1-based), average
        let avg = (i + 1 + i + run.len()) as f64 / 2.0;
        for &w in run {
            let row = (w & low) as usize;
            ranks[row] = avg;
            visit(row);
        }
        i += run.len();
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
        let mut idx = vec![99u64; 8];
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

    /// Row counts around powers of two, where the row bits widen, over
    /// values that share their top 54 bits — so their words tie on the
    /// high bits and the runs are settled by full key — and over ones that
    /// lose nothing to the rows: every order names the finite rows ascending
    /// with faithful high bits, and the ranks are those of a value sort.
    #[test]
    fn packed_words_order_and_rank_as_the_values() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025] {
            let shift = row_bits(n);
            assert!(n <= 1 << shift && (n < 2 || n > 1 << (shift - 1)), "n {n}");
            let near = |i: usize| f64::from_bits(1.5f64.to_bits() + (i * 613 % 1024) as u64 / 3);
            let columns: [Vec<f64>; 3] = [
                (0..n).map(|i| if i % 2 == 0 { near(i) } else { -near(i) }).collect(),
                (0..n).map(|i| [near(i), f64::NAN, 0.0, -0.0, f64::INFINITY][i % 5]).collect(),
                (0..n).map(|i| (i * 7 % 13) as f64 - 6.0).collect(),
            ];
            for x in &columns {
                let mut order = Vec::new();
                assert_eq!(sorted_order(x, &mut order), shift);
                assert!(names_in_order(x, &order, shift), "n {n}: {x:?}");
                let mut rows: Vec<usize> = (0..n).filter(|&r| x[r].is_finite()).collect();
                rows.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).unwrap());
                let mut want = vec![f64::NAN; n];
                for (at, &row) in rows.iter().enumerate() {
                    let ties = |r: &usize| x[*r] == x[row];
                    let first = rows.iter().position(ties).unwrap();
                    let count = rows[first..].iter().take_while(|r| ties(r)).count();
                    want[row] = (first + 1 + first + count) as f64 / 2.0;
                    assert!(at < first + count);
                }
                let got = average_ranks(x);
                assert_eq!(got.iter().map(|r| r.to_bits()).collect::<Vec<_>>(), want.iter().map(|r| r.to_bits()).collect::<Vec<_>>());
            }
        }
    }
}
