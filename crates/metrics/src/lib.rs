//! # autofeat-metrics
//!
//! Information-theoretic and statistical feature-scoring library — §V of
//! "AutoFeat: Transitive Feature Discovery over Join Paths" (ICDE 2024).
//!
//! Provides:
//!
//! * discretization of continuous features for entropy estimation
//!   ([`discretize`]);
//! * entropy, mutual information, and conditional mutual information over
//!   discrete codes ([`mod@entropy`], [`mi`]);
//! * the five **relevance** measures evaluated in §V-C — Information Gain,
//!   Symmetrical Uncertainty, Pearson, Spearman, and Relief — as the
//!   variants of one [`RelevanceMethod`], scored by
//!   [`RelevanceMethod::scores`] ([`relevance`]);
//! * the five **redundancy** criteria of §V-D, all instances of the unified
//!   conditional-likelihood-maximisation framework (Eq. 1/2) — MIFS, MRMR,
//!   CIFE, JMI, and CMIM ([`redundancy`]);
//! * the *select-κ-best* heuristic and greedy non-redundant subset selection
//!   used by Algorithm 1 ([`selection`]).
//!
//! The paper's empirical study picks **Spearman** for relevance and **MRMR**
//! for redundancy; both are exposed here alongside the alternatives so the
//! ablation experiments (Fig. 9) can swap them.

mod contingency;
pub mod discretize;
pub mod entropy;
pub mod mi;
pub mod ranks;
pub mod redundancy;
pub mod relevance;
pub mod selection;
pub mod streaming;

pub use discretize::{discretize_equal_frequency, Discretized, MAX_BINS};
pub use redundancy::{RedundancyMethod, RedundancyScorer};
pub use relevance::RelevanceMethod;
