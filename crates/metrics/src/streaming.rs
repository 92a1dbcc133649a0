//! The streaming feature-selection pipeline (§V-A, §VI): features arrive in
//! batches (one batch per join); each batch passes a relevance analysis
//! (*select-κ-best*) and then a redundancy analysis against the running
//! selected set `R_sel`. The selector owns `R_sel` and hands back, per
//! batch, which features were accepted and the scores Algorithm 2 needs.

use crate::discretize::{discretize_equal_frequency, Discretized};
use crate::redundancy::{RedundancyMethod, RedundancyScorer};
use crate::relevance::{RelevanceMethod, DEFAULT_BINS};
use crate::selection::{select_k_best_binned, SelectedSet};

/// Outcome of offering one feature batch to the selector.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Indices (into the offered batch) that survived the relevance
    /// analysis, with their relevance scores, in descending score order.
    pub relevant: Vec<(usize, f64)>,
    /// Indices that additionally survived the redundancy analysis (subset
    /// of `relevant`), with their `J` scores.
    pub selected: Vec<(usize, f64)>,
}

impl BatchOutcome {
    /// The relevance scores of the relevant subset (Algorithm 2 input).
    pub fn relevance_scores(&self) -> Vec<f64> {
        self.relevant.iter().map(|(_, s)| *s).collect()
    }

    /// The `J` scores of the selected subset (Algorithm 2 input).
    pub fn redundancy_scores(&self) -> Vec<f64> {
        self.selected.iter().map(|(_, s)| *s).collect()
    }
}

/// Streaming feature selector with a persistent selected set: the two
/// analyses and the `R_sel` update exactly as `AutoFeat::discover` runs them
/// per join, behind a batch-at-a-time interface.
#[derive(Debug, Clone)]
pub struct StreamingSelector {
    relevance: Option<RelevanceMethod>,
    redundancy: Option<RedundancyScorer>,
    kappa: usize,
    labels: Vec<i64>,
    label_codes: Discretized,
    selected: SelectedSet,
}

impl StreamingSelector {
    /// Build a selector for a fixed label vector.
    ///
    /// `relevance = None` disables the relevance analysis (every feature is
    /// "relevant"); `redundancy = None` disables the redundancy analysis
    /// (every relevant feature is selected) — the Fig. 9 ablation knobs.
    pub fn new(
        labels: Vec<i64>,
        relevance: Option<RelevanceMethod>,
        redundancy: Option<RedundancyMethod>,
        kappa: usize,
    ) -> Self {
        let label_codes = Discretized::from_codes(labels.iter().map(|&l| Some(l)));
        StreamingSelector {
            relevance,
            redundancy: redundancy.map(RedundancyScorer::new),
            kappa,
            labels,
            label_codes,
            selected: SelectedSet::default(),
        }
    }

    /// Number of features selected so far.
    pub fn n_selected(&self) -> usize {
        self.selected.len()
    }

    /// Names of the selected features, in selection order.
    pub fn selected_names(&self) -> Vec<&str> {
        self.selected.names().iter().map(String::as_str).collect()
    }

    /// Seed the selected set without selection (the base table's features
    /// enter `R_sel` unconditionally, Algorithm 1's input).
    pub fn seed(&mut self, name: impl Into<String>, values: &[f64]) {
        assert_eq!(values.len(), self.labels.len(), "row count mismatch");
        self.selected.insert(&name.into(), discretize_equal_frequency(values, DEFAULT_BINS));
    }

    /// Offer a batch of `(name, values)` features (one join's new columns).
    /// Accepted features enter `R_sel` when the batch is done; a name that
    /// is already there keeps its place and takes the new codes.
    pub fn offer(&mut self, batch: &[(String, Vec<f64>)]) -> BatchOutcome {
        for (_, v) in batch {
            assert_eq!(v.len(), self.labels.len(), "row count mismatch");
        }
        let data: Vec<Vec<f64>> = batch.iter().map(|(_, v)| v.clone()).collect();
        let (relevant, codes): (Vec<(usize, f64)>, Vec<Discretized>) = match self.relevance {
            Some(method) => {
                let (picked, codes) = select_k_best_binned(
                    &data,
                    &self.labels,
                    method,
                    self.kappa,
                    0.0,
                    DEFAULT_BINS,
                );
                (picked.into_iter().map(|s| (s.index, s.score)).collect(), codes)
            }
            None => (
                (0..batch.len()).map(|i| (i, 0.0)).collect(),
                data.iter().map(|x| discretize_equal_frequency(x, DEFAULT_BINS)).collect(),
            ),
        };
        // `kept[local]`: did `codes[local]` survive, and with which `J`.
        let kept: Vec<Option<f64>> = match &self.redundancy {
            Some(scorer) => {
                let cands: Vec<(usize, &Discretized)> = codes.iter().enumerate().collect();
                let mut kept = vec![None; codes.len()];
                for s in self.selected.select_non_redundant(&cands, &self.label_codes, scorer) {
                    kept[s.index] = Some(s.score);
                }
                kept
            }
            None => relevant.iter().map(|&(_, score)| Some(score)).collect(),
        };
        let mut selected = Vec::new();
        for ((&(batch_idx, _), code), j) in relevant.iter().zip(codes).zip(kept) {
            if let Some(j) = j {
                selected.push((batch_idx, j));
                self.selected.insert(&batch[batch_idx].0, code);
            }
        }
        BatchOutcome { relevant, selected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| i % 2).collect()
    }

    fn signal(n: usize) -> Vec<f64> {
        labels(n).iter().map(|&l| l as f64).collect()
    }

    fn noise(n: usize, seed: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 31 + seed * 7) % 13) as f64).collect()
    }

    fn selector(n: usize) -> StreamingSelector {
        StreamingSelector::new(
            labels(n),
            Some(RelevanceMethod::Spearman),
            Some(RedundancyMethod::Mrmr),
            5,
        )
    }

    #[test]
    fn accepts_signal_rejects_noise() {
        let n = 200;
        let mut s = selector(n);
        let out = s.offer(&[
            ("sig".into(), signal(n)),
            ("noi".into(), noise(n, 1)),
        ]);
        assert_eq!(out.selected.len(), 1);
        assert_eq!(out.selected[0].0, 0);
        assert_eq!(s.selected_names(), vec!["sig"]);
    }

    #[test]
    fn second_batch_sees_first_selection() {
        let n = 200;
        let mut s = selector(n);
        s.offer(&[("sig".into(), signal(n))]);
        // Offering the same signal again: redundant, rejected.
        let out = s.offer(&[("sig_copy".into(), signal(n))]);
        assert!(out.selected.is_empty(), "duplicate must be redundant: {out:?}");
        assert_eq!(s.n_selected(), 1);
    }

    #[test]
    fn seeded_features_block_duplicates() {
        let n = 150;
        let mut s = selector(n);
        s.seed("base_sig", &signal(n));
        let out = s.offer(&[("copy".into(), signal(n))]);
        assert!(out.selected.is_empty());
    }

    #[test]
    fn kappa_caps_relevant_count() {
        let n = 100;
        let mut s = StreamingSelector::new(
            labels(n),
            Some(RelevanceMethod::Spearman),
            Some(RedundancyMethod::Mrmr),
            2,
        );
        let batch: Vec<(String, Vec<f64>)> = (0..6)
            .map(|j| {
                (
                    format!("f{j}"),
                    signal(n)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| v + ((i * (j + 3)) % 5) as f64 * 0.1)
                        .collect(),
                )
            })
            .collect();
        let out = s.offer(&batch);
        assert!(out.relevant.len() <= 2);
    }

    #[test]
    fn relevance_off_passes_everything_through() {
        let n = 100;
        let mut s = StreamingSelector::new(labels(n), None, Some(RedundancyMethod::Mrmr), 3);
        let out = s.offer(&[("noi".into(), noise(n, 2)), ("sig".into(), signal(n))]);
        // Both reach redundancy; the signal is selected, noise has J ≈ 0.
        assert_eq!(out.relevant.len(), 2);
        assert!(out.selected.iter().any(|&(i, _)| i == 1));
    }

    #[test]
    fn redundancy_off_keeps_all_relevant() {
        let n = 100;
        let mut s = StreamingSelector::new(labels(n), Some(RelevanceMethod::Spearman), None, 5);
        s.offer(&[("sig".into(), signal(n))]);
        let out = s.offer(&[("copy".into(), signal(n))]);
        assert_eq!(out.selected.len(), 1, "copy kept when redundancy is off");
        assert_eq!(s.n_selected(), 2);
    }

    #[test]
    fn outcome_score_accessors() {
        let n = 100;
        let mut s = selector(n);
        let out = s.offer(&[("sig".into(), signal(n))]);
        assert_eq!(out.relevance_scores().len(), 1);
        assert!(out.relevance_scores()[0] > 0.9);
        assert_eq!(out.redundancy_scores().len(), 1);
        assert!(out.redundancy_scores()[0] > 0.0);
    }

    #[test]
    fn a_reoffered_name_takes_the_new_codes_in_place() {
        // What `AutoFeat::discover` does when a table is reached again over
        // another path: the name keeps its place in `R_sel`, the codes are
        // the latest. (This selector used to append a second member.)
        let n = 200;
        let mut s = StreamingSelector::new(labels(n), Some(RelevanceMethod::Spearman), None, 5);
        s.seed("base", &noise(n, 3));
        let first: Vec<f64> = signal(n);
        let second: Vec<f64> = signal(n).iter().enumerate().map(|(i, v)| v + (i % 3) as f64).collect();
        s.offer(&[("t1.f".into(), first)]);
        s.offer(&[("t2.g".into(), noise(n, 1).iter().zip(signal(n)).map(|(a, b)| a + 20.0 * b).collect())]);
        let out = s.offer(&[("t1.f".into(), second.clone())]);
        assert_eq!(out.selected.len(), 1);
        assert_eq!(s.selected_names(), vec!["base", "t1.f", "t2.g"]);
        assert_eq!(s.selected.codes()[1], discretize_equal_frequency(&second, DEFAULT_BINS));
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn wrong_row_count_panics() {
        let mut s = selector(10);
        s.offer(&[("x".into(), vec![1.0; 5])]);
    }
}
