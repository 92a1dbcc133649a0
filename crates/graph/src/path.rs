//! Join paths: sequences of oriented join hops through the DRG.

use std::fmt;

/// One oriented hop of a join path: join `from_table.from_column` with
/// `to_table.to_column`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinHop {
    /// Left (already materialized) side's table of origin.
    pub from_table: String,
    /// Join column on the left side (name as in its table of origin).
    pub from_column: String,
    /// Right table being joined in.
    pub to_table: String,
    /// Join column in the right table.
    pub to_column: String,
    /// Similarity weight of the edge used.
    pub weight: f64,
}

/// A directed join path of length ≥ 1 (Def. IV.4), starting at the base
/// table. Paths are acyclic: each table appears at most once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JoinPath {
    hops: Vec<JoinHop>,
}

impl JoinPath {
    /// The empty path (the base table alone).
    pub fn empty() -> Self {
        JoinPath::default()
    }

    /// Build from hops: each must start at the table the one before it
    /// reached, and no table may be visited twice (asserted in debug builds).
    pub fn from_hops(hops: Vec<JoinHop>) -> Self {
        debug_assert!(
            hops.windows(2).all(|w| w[0].to_table == w[1].from_table),
            "a join path's hops must be continuous: {hops:?}"
        );
        debug_assert!(visits_each_table_once(&hops), "a join path visits each table once: {hops:?}");
        JoinPath { hops }
    }

    /// Extend with one more hop (returns a new path), under the rules of
    /// [`JoinPath::from_hops`].
    pub fn extended(&self, hop: JoinHop) -> JoinPath {
        let mut hops = self.hops.clone();
        hops.push(hop);
        JoinPath::from_hops(hops)
    }

    /// The hops in order.
    pub fn hops(&self) -> &[JoinHop] {
        &self.hops
    }

    /// Path length = number of joins.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path is empty (no joins).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The table reached by the final hop.
    pub fn last_table(&self) -> Option<&str> {
        self.hops.last().map(|h| h.to_table.as_str())
    }

    /// Every table the path touches, base first, without duplicates.
    pub fn tables(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::with_capacity(self.hops.len() + 1);
        for h in &self.hops {
            if !v.contains(&h.from_table.as_str()) {
                v.push(&h.from_table);
            }
            if !v.contains(&h.to_table.as_str()) {
                v.push(&h.to_table);
            }
        }
        v
    }

    /// Whether the path already visits `table` (acyclicity check).
    pub fn visits(&self, table: &str) -> bool {
        self.hops
            .iter()
            .any(|h| h.from_table == table || h.to_table == table)
    }
}

/// Whether the base table and every hop's destination are all different.
fn visits_each_table_once(hops: &[JoinHop]) -> bool {
    let base = hops.first().map(|h| &h.from_table);
    let tables: Vec<&String> = base.into_iter().chain(hops.iter().map(|h| &h.to_table)).collect();
    (1..tables.len()).all(|i| !tables[..i].contains(&tables[i]))
}

impl fmt::Display for JoinPath {
    /// Formats like the paper:
    /// `Applicants.Applicant_ID -> Credit_profile.Credit_score -> ...`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hops.is_empty() {
            return f.write_str("(empty path)");
        }
        for (i, h) in self.hops.iter().enumerate() {
            if i == 0 {
                write!(f, "{}.{}", h.from_table, h.from_column)?;
            }
            write!(f, " -> {}.{}", h.to_table, h.to_column)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(from: &str, fc: &str, to: &str, tc: &str, w: f64) -> JoinHop {
        JoinHop {
            from_table: from.into(),
            from_column: fc.into(),
            to_table: to.into(),
            to_column: tc.into(),
            weight: w,
        }
    }

    fn two_hop() -> JoinPath {
        JoinPath::from_hops(vec![
            hop("applicants", "applicant_id", "credit", "credit_score", 0.8),
            hop("credit", "credit_id", "loans", "credit_id", 1.0),
        ])
    }

    #[test]
    fn length_and_tables() {
        let p = two_hop();
        assert_eq!(p.len(), 2);
        assert_eq!(p.last_table(), Some("loans"));
        assert_eq!(p.tables(), vec!["applicants", "credit", "loans"]);
    }

    #[test]
    fn visits_detects_cycles() {
        let p = two_hop();
        assert!(p.visits("credit"));
        assert!(p.visits("applicants"));
        assert!(!p.visits("other"));
    }

    #[test]
    fn extended_leaves_original_untouched() {
        let p = JoinPath::empty();
        let q = p.extended(hop("a", "x", "b", "y", 1.0));
        assert!(p.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "continuous")]
    fn from_hops_rejects_a_gap() {
        JoinPath::from_hops(vec![hop("a", "x", "b", "y", 1.0), hop("c", "x", "d", "y", 1.0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "continuous")]
    fn extended_rejects_a_gap() {
        two_hop().extended(hop("credit", "credit_id", "other", "credit_id", 1.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "visits each table once")]
    fn from_hops_rejects_a_cycle() {
        JoinPath::from_hops(vec![hop("a", "x", "b", "y", 1.0), hop("b", "y", "a", "x", 1.0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "visits each table once")]
    fn extended_rejects_a_self_join() {
        JoinPath::empty().extended(hop("a", "x", "a", "y", 1.0));
    }

    #[test]
    fn display_matches_paper_style() {
        let p = two_hop();
        assert_eq!(
            p.to_string(),
            "applicants.applicant_id -> credit.credit_score -> loans.credit_id"
        );
        assert_eq!(JoinPath::empty().to_string(), "(empty path)");
    }
}
