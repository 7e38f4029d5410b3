//! Per-regime evaluation summaries for the adverse-condition scenario sweep.
//!
//! The paper reports meta-classification quality (AUROC/AUPRC over the
//! "segment has IoU = 0" label) and the Bayes-vs-ML missed-segment counts on
//! one benign distribution; the scenario sweep reports the same numbers once
//! per degradation regime. [`RegimeSummary`] is that table row — a plain
//! serialisable record the sweep writes to `BENCH_scenarios.json` and CI
//! checks for finiteness.

use serde::{Deserialize, Serialize};

/// One regime's row of the scenario sweep: meta-classification quality plus
/// the false-negative-rescue comparison, all on streams degraded by that
/// regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeSummary {
    /// Stable regime name (`"benign"`, `"fog"`, `"dropout"`, …).
    pub regime: String,
    /// Number of degraded frames evaluated.
    pub frames: usize,
    /// Number of labelled segments pooled over the evaluation split.
    pub segments: usize,
    /// Fraction of evaluation segments with IoU = 0 (the positive
    /// meta-classification class).
    pub positive_fraction: f64,
    /// AUROC of the meta classifier for "IoU = 0" on the held-out split;
    /// `0.5` when the split is degenerate (a single class).
    pub auroc: f64,
    /// Average precision (AUPRC) of the meta classifier on the held-out
    /// split; the positive base rate when the split is degenerate.
    pub auprc: f64,
    /// Ground-truth person segments completely missed under the Bayes
    /// (argmax) decision rule.
    pub missed_segments_bayes: usize,
    /// Ground-truth person segments completely missed under the
    /// Maximum-Likelihood rule.
    pub missed_segments_ml: usize,
    /// Ground-truth person segments in the evaluation split.
    pub ground_truth_segments: usize,
}

impl RegimeSummary {
    /// Person segments the ML rule finds that Bayes misses — the paper's
    /// "rescued" false negatives, here per regime. Zero when ML misses at
    /// least as many (rescue never goes negative).
    pub fn rescued_segments(&self) -> usize {
        self.missed_segments_bayes
            .saturating_sub(self.missed_segments_ml)
    }

    /// Whether every floating-point metric of the row is finite — the CI
    /// smoke invariant: no degradation regime may drive the evaluation into
    /// NaN or infinity.
    pub fn is_finite(&self) -> bool {
        self.positive_fraction.is_finite() && self.auroc.is_finite() && self.auprc.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RegimeSummary {
        RegimeSummary {
            regime: "fog".to_string(),
            frames: 12,
            segments: 140,
            positive_fraction: 0.3,
            auroc: 0.84,
            auprc: 0.62,
            missed_segments_bayes: 10,
            missed_segments_ml: 4,
            ground_truth_segments: 25,
        }
    }

    #[test]
    fn rescue_arithmetic() {
        let row = summary();
        assert_eq!(row.rescued_segments(), 6);
        // ML missing more than Bayes never yields a negative rescue.
        let worse = RegimeSummary {
            missed_segments_ml: 15,
            ..row
        };
        assert_eq!(worse.rescued_segments(), 0);
    }

    #[test]
    fn finiteness_check_catches_nan_and_infinity() {
        assert!(summary().is_finite());
        for field in 0..3 {
            let mut row = summary();
            let slot = match field {
                0 => &mut row.positive_fraction,
                1 => &mut row.auroc,
                _ => &mut row.auprc,
            };
            *slot = f64::NAN;
            assert!(!row.is_finite());
        }
    }

    #[test]
    fn serialises_roundtrip() {
        let row = summary();
        let json = serde_json::to_string(&row).unwrap();
        let back: RegimeSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, row);
    }
}
