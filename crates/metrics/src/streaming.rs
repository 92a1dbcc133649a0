//! The streaming feature-selection pipeline (§V-A, §VI; Algorithm 1 lines
//! 12–18): features arrive in batches (one batch per join); each batch
//! passes a relevance analysis (*select-κ-best*) and then a redundancy
//! analysis against the running selected set `R_sel`, which the selector
//! owns. The two analyses are two calls on two halves, because only the
//! second is stateful. [`RelevanceStage`] is what the first reads — the
//! labels, the method, κ — immutable and shared: `AutoFeat::discover`'s
//! `evaluate_hop` borrows it on the fan-out workers while, on the caller,
//! [`StreamingSelector::admit`] runs the redundancy analysis and updates
//! `R_sel`, one batch at a time in a fixed order (`discover`'s `merge`).
//! [`StreamingSelector::offer`] is the two in sequence.

use std::sync::Arc;

use crate::discretize::{discretize_equal_frequency, Discretized};
use crate::redundancy::{RedundancyMethod, RedundancyScorer};
use crate::relevance::{classes_rank, RelevanceMethod, DEFAULT_BINS};
use crate::selection::{k_best, SelectedFeature, SelectedSet};

/// Outcome of admitting one feature batch. An analysis that is switched off
/// passes everything through and contributes **no scores**: Algorithm 2
/// averages what it is given, and an empty list is a term of zero.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Indices (into the offered batch) that survived the relevance
    /// analysis, in descending score order (batch order when it is off).
    pub relevant: Vec<usize>,
    /// Indices that additionally survived the redundancy analysis (a
    /// subsequence of `relevant`).
    pub selected: Vec<usize>,
    relevance: Vec<f64>,
    redundancy: Vec<f64>,
}

impl BatchOutcome {
    /// The relevance scores of the relevant subset (Algorithm 2 input);
    /// empty when the relevance analysis is off.
    pub fn relevance_scores(&self) -> &[f64] {
        &self.relevance
    }

    /// The `J` scores of the selected subset (Algorithm 2 input); empty
    /// when the redundancy analysis is off.
    pub fn redundancy_scores(&self) -> &[f64] {
        &self.redundancy
    }
}

/// The stateless half of a [`StreamingSelector`]: everything the relevance
/// analysis of a batch reads, none of which changes once the selector is
/// built. Whoever produces a batch holds it (an `Arc`) and scores the batch
/// there, while the selector's `R_sel` is being updated elsewhere.
#[derive(Debug)]
pub struct RelevanceStage {
    method: Option<RelevanceMethod>,
    kappa: usize,
    labels: Vec<i64>,
    label_codes: Discretized,
    /// Whether `label_codes` rank the labels as their values do
    /// (`relevance::classes_rank`), so Spearman counts them as it ranks each
    /// feature rather than sorting them.
    classes_rank: bool,
}

impl RelevanceStage {
    /// Relevance analysis of one batch (one join's new columns): the
    /// select-κ-best picks, in descending score order, and beside each its
    /// bin codes. With the analysis off, every feature in batch order with a
    /// score of zero.
    pub fn relevance(&self, batch: &[Vec<f64>]) -> (Vec<SelectedFeature>, Vec<Discretized>) {
        for v in batch {
            assert_eq!(v.len(), self.labels.len(), "row count mismatch");
        }
        match self.method {
            // The picks come back with their bin codes: Spearman reads them
            // off the sort its ranks came from.
            Some(method) => k_best(
                batch,
                &self.labels,
                self.classes_rank.then_some(&self.label_codes),
                method,
                self.kappa,
                0.0,
                Some(DEFAULT_BINS),
            ),
            None => {
                let _span = autofeat_obs::span("discretize");
                (
                    (0..batch.len()).map(|index| SelectedFeature { index, score: 0.0 }).collect(),
                    batch.iter().map(|x| discretize_equal_frequency(x, DEFAULT_BINS)).collect(),
                )
            }
        }
    }
}

/// Streaming feature selector with a persistent selected set: the two
/// analyses and the `R_sel` update of Algorithm 1, behind a
/// batch-at-a-time interface. `AutoFeat::discover` runs one per request.
/// What [`StreamingSelector::admit`] mutates — `R_sel` and the redundancy
/// switch — is held apart from the shared [`RelevanceStage`].
#[derive(Debug, Clone)]
pub struct StreamingSelector {
    stage: Arc<RelevanceStage>,
    redundancy: Option<RedundancyScorer>,
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
        let stage = RelevanceStage {
            method: relevance,
            kappa,
            classes_rank: classes_rank(&labels),
            labels,
            label_codes,
        };
        StreamingSelector {
            stage: Arc::new(stage),
            redundancy: redundancy.map(RedundancyScorer::new),
            selected: SelectedSet::default(),
        }
    }

    /// The relevance half, to score batches with while this selector is
    /// borrowed mutably by [`StreamingSelector::admit`].
    pub fn relevance_stage(&self) -> Arc<RelevanceStage> {
        Arc::clone(&self.stage)
    }

    /// Names of the selected features, in selection order.
    pub fn selected_names(&self) -> Vec<&str> {
        self.selected.names().iter().map(String::as_str).collect()
    }

    /// Seed the selected set without selection (the base table's features
    /// enter `R_sel` unconditionally, Algorithm 1's input).
    pub fn seed(&mut self, name: &str, values: &[f64]) {
        assert_eq!(values.len(), self.stage.labels.len(), "row count mismatch");
        self.selected.insert(name, discretize_equal_frequency(values, DEFAULT_BINS));
    }

    /// Switch the redundancy analysis off for every batch still to come
    /// (every relevant feature is then selected, and a hop scores on
    /// relevance alone). Returns whether it was on.
    pub fn skip_redundancy(&mut self) -> bool {
        self.redundancy.take().is_some()
    }

    /// [`RelevanceStage::relevance`] of this selector's stage.
    pub(crate) fn relevance(&self, batch: &[Vec<f64>]) -> (Vec<SelectedFeature>, Vec<Discretized>) {
        self.stage.relevance(batch)
    }

    /// Redundancy analysis of what `relevance` picked
    /// from a batch whose features are called `names`, and the `R_sel`
    /// update (Algorithm 1, line 18): the kept codes move in when the batch
    /// is done — a name that is already there keeps its place and takes the
    /// new codes — and the rest are dropped.
    pub fn admit(
        &mut self,
        names: &[String],
        picks: Vec<SelectedFeature>,
        codes: Vec<Discretized>,
    ) -> BatchOutcome {
        // `kept[local]`: did `codes[local]` survive.
        let (kept, redundancy): (Vec<bool>, Vec<f64>) = match &self.redundancy {
            Some(scorer) => {
                let cands: Vec<(usize, &Discretized)> = codes.iter().enumerate().collect();
                let picked =
                    self.selected.select_non_redundant(&cands, &self.stage.label_codes, scorer);
                let mut kept = vec![false; codes.len()];
                for s in &picked {
                    kept[s.index] = true;
                }
                (kept, picked.into_iter().map(|s| s.score).collect())
            }
            None => (vec![true; codes.len()], Vec::new()),
        };
        let mut selected = Vec::new();
        for ((pick, code), _) in picks.iter().zip(codes).zip(kept).filter(|(_, kept)| *kept) {
            selected.push(pick.index);
            self.selected.insert(&names[pick.index], code);
        }
        BatchOutcome {
            relevant: picks.iter().map(|s| s.index).collect(),
            selected,
            relevance: match self.stage.method {
                Some(_) => picks.iter().map(|s| s.score).collect(),
                None => Vec::new(),
            },
            redundancy,
        }
    }

    /// Offer a batch — `data[i]` is the feature called `names[i]` — to both
    /// analyses: `relevance`, then
    /// [`StreamingSelector::admit`].
    pub fn offer(&mut self, names: &[String], data: &[Vec<f64>]) -> BatchOutcome {
        assert_eq!(names.len(), data.len(), "one name per feature");
        let (picks, codes) = self.relevance(data);
        self.admit(names, picks, codes)
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

    fn offer(s: &mut StreamingSelector, batch: Vec<(&str, Vec<f64>)>) -> BatchOutcome {
        let (names, data): (Vec<String>, Vec<Vec<f64>>) =
            batch.into_iter().map(|(name, v)| (name.to_string(), v)).unzip();
        s.offer(&names, &data)
    }

    #[test]
    fn accepts_signal_rejects_noise() {
        let n = 200;
        let mut s = selector(n);
        let out = offer(&mut s, vec![("sig", signal(n)), ("noi", noise(n, 1))]);
        assert_eq!(out.selected, vec![0]);
        assert_eq!(s.selected_names(), vec!["sig"]);
    }

    #[test]
    fn second_batch_sees_first_selection() {
        let n = 200;
        let mut s = selector(n);
        offer(&mut s, vec![("sig", signal(n))]);
        // Offering the same signal again: redundant, rejected.
        let out = offer(&mut s, vec![("sig_copy", signal(n))]);
        assert!(out.selected.is_empty(), "duplicate must be redundant: {out:?}");
        assert_eq!(s.selected_names().len(), 1);
    }

    #[test]
    fn seeded_features_block_duplicates() {
        let n = 150;
        let mut s = selector(n);
        s.seed("base_sig", &signal(n));
        let out = offer(&mut s, vec![("copy", signal(n))]);
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
        let batch: Vec<Vec<f64>> = (0..6)
            .map(|j| {
                signal(n)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v + ((i * (j + 3)) % 5) as f64 * 0.1)
                    .collect()
            })
            .collect();
        let names: Vec<String> = (0..6).map(|j| format!("f{j}")).collect();
        let out = s.offer(&names, &batch);
        assert!(out.relevant.len() <= 2);
    }

    #[test]
    fn relevance_off_passes_everything_through_unscored() {
        let n = 100;
        let mut s = StreamingSelector::new(labels(n), None, Some(RedundancyMethod::Mrmr), 3);
        let out = offer(&mut s, vec![("noi", noise(n, 2)), ("sig", signal(n))]);
        // Both reach redundancy; the signal is selected, noise has J ≈ 0.
        assert_eq!(out.relevant, vec![0, 1]);
        assert!(out.relevance_scores().is_empty(), "no analysis, no scores");
        assert!(out.selected.contains(&1));
        assert_eq!(out.redundancy_scores().len(), out.selected.len());
    }

    #[test]
    fn redundancy_off_keeps_all_relevant_unscored() {
        let n = 100;
        let mut s = StreamingSelector::new(labels(n), Some(RelevanceMethod::Spearman), None, 5);
        offer(&mut s, vec![("sig", signal(n))]);
        let out = offer(&mut s, vec![("copy", signal(n))]);
        assert_eq!(out.selected, vec![0], "copy kept when redundancy is off");
        assert_eq!(s.selected_names().len(), 2);
        // This used to report the relevance score a second time, as `J`, so
        // Algorithm 2 counted it twice where `AutoFeat::discover` — and the
        // Fig. 9 "Spearman-only" ablation built on it — counts it once.
        assert_eq!(out.relevance_scores().len(), 1);
        assert!(out.redundancy_scores().is_empty(), "no analysis, no scores");
    }

    #[test]
    fn skipping_redundancy_mid_stream_is_the_ablation_from_there_on() {
        let n = 100;
        let mut s = selector(n);
        offer(&mut s, vec![("sig", signal(n))]);
        assert!(s.skip_redundancy());
        assert!(!s.skip_redundancy(), "already off");
        let out = offer(&mut s, vec![("copy", signal(n))]);
        assert_eq!(out.selected, vec![0]);
        assert!(out.redundancy_scores().is_empty());
    }

    #[test]
    fn outcome_score_accessors() {
        let n = 100;
        let mut s = selector(n);
        let out = offer(&mut s, vec![("sig", signal(n))]);
        assert_eq!(out.relevance_scores().len(), 1);
        assert!(out.relevance_scores()[0] > 0.9);
        assert_eq!(out.redundancy_scores().len(), 1);
        assert!(out.redundancy_scores()[0] > 0.0);
    }

    #[test]
    fn relevance_then_admit_is_offer() {
        let n = 120;
        let names: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let data = vec![noise(n, 4), signal(n), noise(n, 9)];
        let mut whole = selector(n);
        let mut halves = whole.clone();
        let out = whole.offer(&names, &data);
        let (picks, codes) = halves.relevance(&data);
        let split = halves.admit(&names, picks, codes);
        assert_eq!(out.relevant, split.relevant);
        assert_eq!(out.selected, split.selected);
        assert_eq!(out.relevance_scores(), split.relevance_scores());
        assert_eq!(out.redundancy_scores(), split.redundancy_scores());
        assert_eq!(whole.selected_names(), halves.selected_names());
    }

    #[test]
    fn the_stage_scores_the_next_batch_while_the_selector_admits_this_one() {
        // What `discover` does: relevance of batch 2 is computed — here
        // first, there on another thread — with `admit(batch 1)` still to
        // come, and the outcome is that of offering them one after another.
        let n = 120;
        let batches = [
            (vec!["a".to_string(), "b".to_string()], vec![signal(n), noise(n, 4)]),
            (vec!["c".to_string()], vec![signal(n)]),
        ];
        let mut in_sequence = selector(n);
        let expected: Vec<BatchOutcome> =
            batches.iter().map(|(names, data)| in_sequence.offer(names, data)).collect();

        let mut overlapped = selector(n);
        let stage = overlapped.relevance_stage();
        let scored: Vec<_> = batches.iter().rev().map(|(_, data)| stage.relevance(data)).collect();
        for (((names, _), (picks, codes)), want) in
            batches.iter().zip(scored.into_iter().rev()).zip(&expected)
        {
            let got = overlapped.admit(names, picks, codes);
            assert_eq!(got.selected, want.selected);
            assert_eq!(got.relevance_scores(), want.relevance_scores());
            assert_eq!(got.redundancy_scores(), want.redundancy_scores());
        }
        assert_eq!(overlapped.selected_names(), in_sequence.selected_names());
        assert!(overlapped.skip_redundancy(), "the switch is the selector's, not the stage's");
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
        offer(&mut s, vec![("t1.f", first)]);
        offer(&mut s, vec![("t2.g", noise(n, 1).iter().zip(signal(n)).map(|(a, b)| a + 20.0 * b).collect())]);
        let out = offer(&mut s, vec![("t1.f", second.clone())]);
        assert_eq!(out.selected.len(), 1);
        assert_eq!(s.selected_names(), vec!["base", "t1.f", "t2.g"]);
        assert_eq!(s.selected.codes()[1], discretize_equal_frequency(&second, DEFAULT_BINS));
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn wrong_row_count_panics() {
        let mut s = selector(10);
        offer(&mut s, vec![("x", vec![1.0; 5])]);
    }
}
