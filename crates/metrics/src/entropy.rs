//! Shannon entropy over discretized features.
//!
//! All estimators skip rows where any involved feature is missing (pairwise
//! deletion) and use natural-log entropy internally, reported in **bits**.

use crate::contingency::Tables;
use crate::discretize::Discretized;

const LN_2: f64 = std::f64::consts::LN_2;

fn h_from_counts(counts: impl IntoIterator<Item = usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let mut h = 0.0;
    for c in counts {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.ln();
        }
    }
    h / LN_2
}

/// Shannon entropy `H(X)` in bits, over the non-missing rows.
pub fn entropy(x: &Discretized) -> f64 {
    let present = &x.counts()[..x.n_bins() as usize];
    h_from_counts(present.iter().map(|&c| c as usize), x.n_present())
}

/// The pair table of `(x, y)` with its marginals, and the number of rows
/// where both are present.
fn pair_table(x: &Discretized, y: &Discretized) -> (Tables, usize) {
    let mut t = Tables::default();
    t.fill_pairs(&[x.axis()], y);
    let total = t.m.of_features(&t.counts, y.axis().1, x.counts(), y.counts());
    (t, total)
}

/// `H(X, Y)` over the present cells of a [`pair_table`], in x-major order.
fn joint_h(t: &Tables, total: usize) -> f64 {
    let (nx, ny) = (t.m.x.len(), t.m.y.len());
    let cells = t.counts.chunks(ny + 1).take(nx).flat_map(|row| &row[..ny]);
    h_from_counts(cells.map(|&c| c as usize), total)
}

/// Joint entropy `H(X, Y)` in bits, over rows where both are present.
pub fn joint_entropy(x: &Discretized, y: &Discretized) -> f64 {
    let (t, total) = pair_table(x, y);
    joint_h(&t, total)
}

/// Conditional entropy `H(X | Y) = H(X, Y) − H(Y)`, computed over the rows
/// where both features are present (so the identity holds exactly): `H(Y)`
/// comes from the y-marginal of the same table.
pub fn conditional_entropy(x: &Discretized, y: &Discretized) -> f64 {
    let (t, total) = pair_table(x, y);
    let h_y = h_from_counts(t.m.y.iter().copied(), total);
    joint_h(&t, total) - h_y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretized;

    fn d(codes: &[i64]) -> Discretized {
        Discretized::from_codes(codes.iter().map(|&c| Some(c)))
    }

    #[test]
    fn uniform_binary_is_one_bit() {
        let x = d(&[0, 1, 0, 1]);
        assert!((entropy(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_is_zero() {
        assert_eq!(entropy(&d(&[3, 3, 3])), 0.0);
    }

    #[test]
    fn uniform_four_way_is_two_bits() {
        assert!((entropy(&d(&[0, 1, 2, 3])) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_rows_are_skipped() {
        let x = Discretized::from_codes([Some(0), Some(1), None, None]);
        assert!((entropy(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_of_identical_equals_marginal() {
        let x = d(&[0, 1, 0, 1, 1]);
        assert!((joint_entropy(&x, &x) - entropy(&x)).abs() < 1e-12);
    }

    #[test]
    fn joint_of_independent_sums() {
        // x and y each uniform binary and independent (all 4 combos).
        let x = d(&[0, 0, 1, 1]);
        let y = d(&[0, 1, 0, 1]);
        assert!((joint_entropy(&x, &y) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_identity() {
        let x = d(&[0, 0, 1, 1, 2, 2]);
        let y = d(&[0, 1, 0, 1, 0, 1]);
        let lhs = conditional_entropy(&x, &y);
        let rhs = joint_entropy(&x, &y) - entropy(&y);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_of_function_is_zero() {
        // x = f(y) ⇒ H(x|y) = 0
        let y = d(&[0, 1, 2, 0, 1, 2]);
        let x = d(&[0, 1, 0, 0, 1, 0]); // x = y mod 2
        assert!(conditional_entropy(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn empty_support_is_zero() {
        let x = Discretized::from_codes([None, None]);
        assert_eq!(entropy(&x), 0.0);
        assert_eq!(joint_entropy(&x, &x), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let x = d(&[0, 1]);
        let y = d(&[0, 1, 2]);
        joint_entropy(&x, &y);
    }
}
