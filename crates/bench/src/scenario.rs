//! The adverse-condition scenario sweep: per-regime meta-classification and
//! false-negative-rescue evaluation.
//!
//! For every [`RegimeKind`] of a [`ScenarioSuite`], the sweep renders one
//! fully-labelled simulated clip, degrades it through the regime, extracts
//! segment records with the fused pipeline, fits the paper's logistic meta
//! classifier on a leading train split and reports held-out AUROC/AUPRC for
//! the "segment has IoU = 0" label plus the Bayes-vs-ML missed-person
//! comparison — one [`RegimeSummary`] row per regime, the paper's Table-I /
//! Fig.-5 numbers swept across conditions.
//!
//! Every regime degrades *the same underlying clip* (same video seed), so
//! rows are comparable: the only difference between "benign" and "fog" is
//! the degradation itself.

use metaseg::fnr::compare_decision_rules;
use metaseg::pipeline::FrameBatch;
use metaseg::{FeatureSet, MetaSeg, SegmentRecord};
use metaseg_data::{Frame, SemanticClass};
use metaseg_eval::{auroc, average_precision, RegimeSummary};
use metaseg_learners::{BinaryClassifier, LogisticConfig, LogisticRegression, StandardScaler};
use metaseg_sim::{
    FrameSource, NetworkProfile, NetworkSim, RegimeKind, ScenarioSuite, SceneConfig, VideoConfig,
    VideoStream,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Size and split parameters of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Frames rendered per regime (before jitter drops/duplicates).
    pub frames: usize,
    /// Simulated image width in pixels.
    pub width: usize,
    /// Simulated image height in pixels.
    pub height: usize,
    /// Seed of the underlying clip (shared by every regime) and the suite.
    pub seed: u64,
    /// Leading fraction of the degraded stream used for training (the rest
    /// is the held-out evaluation split).
    pub train_fraction: f64,
}

impl SweepConfig {
    /// The full-size sweep `BENCH_scenarios.json` is generated with.
    pub fn full() -> Self {
        Self {
            frames: 36,
            width: 96,
            height: 64,
            seed: 9000,
            train_fraction: 0.6,
        }
    }

    /// The bounded smoke sweep CI runs: a small scene, few frames.
    pub fn smoke() -> Self {
        Self {
            frames: 10,
            width: 48,
            height: 32,
            ..Self::full()
        }
    }

    fn video(&self) -> VideoConfig {
        // Pedestrians drift out of a small frame within a handful of steps;
        // one long sequence would leave the held-out tail person-free and
        // make the FNR comparison vacuous. Several short sequences re-seed
        // the scene, so both splits contain ground-truth person segments.
        let sequence_count = (self.frames / 9).max(1);
        VideoConfig {
            sequence_count,
            frames_per_sequence: self.frames.div_ceil(sequence_count),
            // Every frame keeps its label: the sweep needs IoU targets on
            // both splits, and degradations must not hide behind sparse
            // annotation.
            label_stride: 1,
            scene: SceneConfig {
                width: self.width,
                height: self.height,
                ..SceneConfig::small()
            },
        }
    }
}

/// Renders the shared clip and degrades it through `kind`.
fn degraded_frames(suite: &ScenarioSuite, kind: RegimeKind, config: &SweepConfig) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let video = config.video();
    // Every sequence of the clip, chained into one stream (a `VideoStream`
    // emits a single sequence); the blanket iterator impl makes the chain a
    // `FrameSource` again.
    let streams: Vec<VideoStream> = (0..video.sequence_count)
        .map(|sequence| {
            VideoStream::open(
                &video,
                NetworkSim::new(NetworkProfile::weak()),
                sequence,
                &mut rng,
            )
        })
        .collect();
    let mut source = suite.degrade(kind, streams.into_iter().flatten());
    let mut frames = Vec::new();
    while let Some(frame) = source.next_frame() {
        frames.push(frame);
    }
    frames
}

/// Fits the paper's logistic meta classifier on the train records and scores
/// the evaluation records for "IoU = 0". Returns `(auroc, auprc,
/// positive_fraction)`; falls back to chance-level values when either split
/// is degenerate (a single meta class, or an unfittable scaler) — degraded
/// streams must produce a finite row, never a panic.
fn meta_classification(
    train_records: &[SegmentRecord],
    eval_records: &[SegmentRecord],
) -> (f64, f64, f64) {
    let train = MetaSeg::build_dataset(train_records, FeatureSet::All);
    let eval = MetaSeg::build_dataset(eval_records, FeatureSet::All);
    if eval.is_empty() {
        return (0.5, 0.0, 0.0);
    }
    // `binary_targets` is true for IoU > 0; the paper's positive class is
    // the error segment (IoU = 0), so labels and scores are both flipped.
    let eval_positive: Vec<bool> = eval.binary_targets(0.0).iter().map(|&l| !l).collect();
    let positives = eval_positive.iter().filter(|&&l| l).count();
    let positive_fraction = positives as f64 / eval_positive.len() as f64;
    let chance = (0.5, positive_fraction, positive_fraction);

    let train_labels = train.binary_targets(0.0);
    let train_positives = train_labels.iter().filter(|&&l| l).count();
    if train.is_empty() || train_positives == 0 || train_positives == train_labels.len() {
        return chance;
    }
    let Ok(scaler) = StandardScaler::fit(&train.features) else {
        return chance;
    };
    let logistic = LogisticConfig {
        l2_penalty: 0.01,
        learning_rate: 0.5,
        max_iterations: 300,
        tolerance: 1e-7,
    };
    let train_features = scaler.transform(&train.features);
    let Ok(model) = LogisticRegression::fit(&train_features, &train_labels, logistic) else {
        return chance;
    };
    let eval_features = scaler.transform(&eval.features);
    let scores: Vec<f64> = model
        .predict_proba(&eval_features)
        .into_iter()
        .map(|p| 1.0 - p)
        .collect();
    (
        auroc(&scores, &eval_positive),
        average_precision(&scores, &eval_positive),
        positive_fraction,
    )
}

/// Evaluates one regime end to end, producing its sweep row.
fn evaluate_regime(suite: &ScenarioSuite, kind: RegimeKind, config: &SweepConfig) -> RegimeSummary {
    let frames = degraded_frames(suite, kind, config);
    let cut = ((frames.len() as f64 * config.train_fraction).round() as usize)
        .clamp(1, frames.len().saturating_sub(1).max(1));
    let (train_frames, eval_frames) = frames.split_at(cut.min(frames.len()));

    let train_records = FrameBatch::new(train_frames).labeled_records();
    let eval_records = FrameBatch::new(eval_frames).labeled_records();
    let (auroc, auprc, positive_fraction) = meta_classification(&train_records, &eval_records);

    // Bayes vs Maximum-Likelihood on the paper's rare class of interest —
    // the rescue numbers of Section IV, per regime. The position-specific
    // prior map requires one frame shape, so the comparison runs on the
    // stream's modal shape (under resolution switches, the dominant
    // resolution); it needs at least one labelled frame on each side, and a
    // jitter regime that dropped a whole split degrades to an empty
    // comparison.
    let mut shape_counts: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for frame in &frames {
        *shape_counts.entry(frame.prediction.shape()).or_default() += 1;
    }
    let modal_shape = shape_counts
        .into_iter()
        .max_by_key(|&(shape, count)| (count, shape))
        .map(|(shape, _)| shape);
    let at_modal = |fs: &[Frame]| -> Vec<Frame> {
        fs.iter()
            .filter(|f| Some(f.prediction.shape()) == modal_shape)
            .cloned()
            .collect()
    };
    let (train_fnr, eval_fnr) = (at_modal(train_frames), at_modal(eval_frames));
    let labelled = |fs: &[Frame]| fs.iter().any(|f| f.ground_truth.is_some());
    let (missed_bayes, missed_ml, gt_segments) = if labelled(&train_fnr) && labelled(&eval_fnr) {
        let report = compare_decision_rules(&train_fnr, &eval_fnr, SemanticClass::Human, 1.0);
        (
            report.bayes.missed_segments,
            report.maximum_likelihood.missed_segments,
            report.bayes.ground_truth_segments,
        )
    } else {
        (0, 0, 0)
    };

    RegimeSummary {
        regime: kind.name().to_string(),
        frames: frames.len(),
        segments: eval_records.iter().filter(|r| r.iou.is_some()).count(),
        positive_fraction,
        auroc,
        auprc,
        missed_segments_bayes: missed_bayes,
        missed_segments_ml: missed_ml,
        ground_truth_segments: gt_segments,
    }
}

/// Runs the sweep over every regime of the suite, in suite order.
pub fn run_sweep(suite: &ScenarioSuite, config: &SweepConfig) -> Vec<RegimeSummary> {
    suite
        .regimes()
        .iter()
        .map(|&kind| evaluate_regime(suite, kind, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_rows_are_finite_and_named() {
        let config = SweepConfig {
            frames: 6,
            width: 32,
            height: 24,
            ..SweepConfig::smoke()
        };
        let suite = ScenarioSuite::smoke(config.seed);
        let rows = run_sweep(&suite, &config);
        assert_eq!(rows.len(), suite.regimes().len());
        for (row, kind) in rows.iter().zip(suite.regimes()) {
            assert_eq!(row.regime, kind.name());
            assert!(
                row.is_finite(),
                "{} row must be finite: {row:?}",
                row.regime
            );
            assert!(row.frames > 0);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = SweepConfig {
            frames: 6,
            width: 32,
            height: 24,
            ..SweepConfig::smoke()
        };
        let suite = ScenarioSuite::smoke(config.seed);
        assert_eq!(run_sweep(&suite, &config), run_sweep(&suite, &config));
    }
}
