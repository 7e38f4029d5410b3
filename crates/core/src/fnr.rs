//! False-negative analysis via decision rules (Section IV of the paper).
//!
//! Compares the Bayes (MAP) decision rule against the Maximum-Likelihood rule
//! on a class of interest (by default `person`): segment-wise precision and
//! recall distributions, missed-segment counts, and the stochastic-dominance
//! relations the paper reports in Fig. 5.

use crate::pipeline::FrameBatch;
use metaseg_data::{Frame, LabelMap, SemanticClass};
use metaseg_eval::EmpiricalCdf;
use metaseg_rules::{segment_precision_recall, DecisionRule, PriorMap, SegmentScores};
use serde::{Deserialize, Serialize};

/// Aggregated segment-wise scores of one decision rule on one class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleOutcome {
    /// Name of the rule.
    pub rule: String,
    /// Pooled per-segment precision and recall values over all frames.
    pub scores: SegmentScores,
    /// Number of ground-truth segments that were completely missed.
    pub missed_segments: usize,
    /// Number of predicted segments with zero precision (pure false positives).
    pub false_positive_segments: usize,
    /// Total number of predicted segments of the class.
    pub predicted_segments: usize,
    /// Total number of ground-truth segments of the class.
    pub ground_truth_segments: usize,
}

impl RuleOutcome {
    /// Empirical CDF of the per-segment precision (`F^p` in the paper).
    /// `None` when the rule predicted no segment of the class at all — or
    /// when every pooled score is non-finite (the degraded-inputs case a
    /// long-running analysis must survive without panicking).
    pub fn precision_cdf(&self) -> Option<EmpiricalCdf> {
        EmpiricalCdf::try_new(self.scores.precision.iter().copied())
    }

    /// Empirical CDF of the per-segment recall (`F^r` in the paper), with
    /// the same degraded-inputs behaviour as
    /// [`RuleOutcome::precision_cdf`].
    pub fn recall_cdf(&self) -> Option<EmpiricalCdf> {
        EmpiricalCdf::try_new(self.scores.recall.iter().copied())
    }
}

/// The Bayes-vs-ML comparison of Section IV for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FalseNegativeReport {
    /// Class the analysis focuses on.
    pub class: SemanticClass,
    /// Outcome under the Bayes (argmax) rule.
    pub bayes: RuleOutcome,
    /// Outcome under the Maximum-Likelihood rule.
    pub maximum_likelihood: RuleOutcome,
}

impl FalseNegativeReport {
    /// Whether ML misses fewer ground-truth segments than Bayes — the
    /// paper's key claim `F^r_B(0) > F^r_ML(0)`.
    pub fn ml_reduces_missed_segments(&self) -> bool {
        self.maximum_likelihood.missed_segments <= self.bayes.missed_segments
    }
}

/// Estimates pixel-wise priors from the ground truth of labelled frames.
///
/// # Panics
///
/// Panics if `frames` contains no labelled frame.
pub fn estimate_priors(frames: &[Frame], smoothing: f64) -> PriorMap {
    let maps: Vec<LabelMap> = frames
        .iter()
        .filter_map(|f| f.ground_truth.clone())
        .collect();
    assert!(
        !maps.is_empty(),
        "prior estimation requires at least one labelled frame"
    );
    PriorMap::estimate(&maps, smoothing)
}

fn evaluate_rule(rule: &DecisionRule, frames: &[Frame], class: SemanticClass) -> RuleOutcome {
    // Rule application and per-frame scoring are independent across frames;
    // fan out through the pipeline's frame-parallel primitive and merge the
    // per-frame score pools in frame order.
    let per_frame = FrameBatch::new(frames).map_frames(|frame| {
        frame.ground_truth.as_ref().map(|ground_truth| {
            let decided = rule.apply(&frame.prediction);
            segment_precision_recall(&decided, ground_truth, class)
        })
    });
    let mut scores = SegmentScores::default();
    for frame_scores in per_frame.into_iter().flatten() {
        scores.merge(&frame_scores);
    }
    RuleOutcome {
        rule: rule.name().to_string(),
        missed_segments: scores.missed_segments(),
        false_positive_segments: scores.false_positive_segments(),
        predicted_segments: scores.precision.len(),
        ground_truth_segments: scores.recall.len(),
        scores,
    }
}

/// Runs the Bayes-vs-ML comparison on labelled evaluation frames, estimating
/// the position-specific priors from `prior_frames` (typically a separate
/// training split, as in the paper).
///
/// # Panics
///
/// Panics if `prior_frames` contains no labelled frame.
pub fn compare_decision_rules(
    prior_frames: &[Frame],
    eval_frames: &[Frame],
    class: SemanticClass,
    prior_smoothing: f64,
) -> FalseNegativeReport {
    let priors = estimate_priors(prior_frames, prior_smoothing);
    let bayes = evaluate_rule(&DecisionRule::Bayes, eval_frames, class);
    let ml = evaluate_rule(&DecisionRule::MaximumLikelihood(priors), eval_frames, class);
    FalseNegativeReport {
        class,
        bayes,
        maximum_likelihood: ml,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::FrameId;
    use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn frames(count: usize, seed: u64) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(NetworkProfile::weak());
        (0..count)
            .map(|i| {
                let scene = Scene::generate(&SceneConfig::small(), &mut rng);
                let gt = scene.render();
                let probs = sim.predict(&gt, &mut rng);
                Frame::labeled(FrameId::new(0, i), gt, probs).unwrap()
            })
            .collect()
    }

    #[test]
    fn ml_rule_finds_at_least_as_many_human_segments() {
        let train = frames(10, 1);
        let eval = frames(10, 2);
        let report = compare_decision_rules(&train, &eval, SemanticClass::Human, 1.0);
        assert!(report.ground_truth_counts_match());
        // ML predicts at least as many human segments as Bayes and misses no more.
        assert!(report.maximum_likelihood.predicted_segments >= report.bayes.predicted_segments);
        assert!(report.ml_reduces_missed_segments());
    }

    impl FalseNegativeReport {
        /// Both rules are evaluated against the same ground truth.
        fn ground_truth_counts_match(&self) -> bool {
            self.bayes.ground_truth_segments == self.maximum_likelihood.ground_truth_segments
        }
    }

    #[test]
    fn all_nan_score_columns_yield_no_cdf_instead_of_panicking() {
        // Regression: a degraded run whose pooled scores are all NaN used to
        // panic inside EmpiricalCdf::new; a long-running service must see
        // `None`, exactly like the no-segments case.
        let outcome = RuleOutcome {
            rule: "bayes".to_string(),
            scores: SegmentScores {
                precision: vec![f64::NAN, f64::NAN],
                recall: vec![f64::INFINITY],
            },
            missed_segments: 0,
            false_positive_segments: 0,
            predicted_segments: 2,
            ground_truth_segments: 1,
        };
        assert!(outcome.precision_cdf().is_none());
        assert!(outcome.recall_cdf().is_none());
        // Partially finite columns keep their finite part.
        let partially = RuleOutcome {
            scores: SegmentScores {
                precision: vec![f64::NAN, 0.5],
                recall: vec![0.25],
            },
            ..outcome
        };
        assert_eq!(partially.precision_cdf().unwrap().len(), 1);
        assert_eq!(partially.recall_cdf().unwrap().len(), 1);
    }

    #[test]
    fn outcome_cdfs_are_constructible() {
        let train = frames(6, 3);
        let eval = frames(6, 4);
        let report = compare_decision_rules(&train, &eval, SemanticClass::Human, 1.0);
        if let Some(cdf) = report.maximum_likelihood.recall_cdf() {
            assert!(cdf.evaluate(1.0) >= cdf.evaluate(0.0));
        }
        // Precision CDF exists for ML as soon as it predicts humans.
        if report.maximum_likelihood.predicted_segments > 0 {
            assert!(report.maximum_likelihood.precision_cdf().is_some());
        }
    }

    #[test]
    #[should_panic]
    fn prior_estimation_requires_labels() {
        let unlabeled = vec![Frame::unlabeled(
            FrameId::new(0, 0),
            metaseg_data::ProbMap::uniform(4, 4, 19),
        )];
        let _ = estimate_priors(&unlabeled, 1.0);
    }
}
