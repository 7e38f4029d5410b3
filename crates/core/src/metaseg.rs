//! The single-frame MetaSeg pipeline (Section II of the paper).
//!
//! Given a set of labelled frames, the pipeline
//!
//! 1. extracts the predicted segments and their metric vectors / IoU targets
//!    with the frame-parallel single-pass [`crate::pipeline::FrameBatch`],
//! 2. repeatedly splits the resulting structured dataset into meta-train and
//!    meta-test parts (80/20 in the paper),
//! 3. trains linear meta models — a logistic model for *meta classification*
//!    (`IoU = 0` vs `IoU > 0`) and a linear model for *meta regression*
//!    (predicting the IoU), each with the full metric vector and with the
//!    entropy-only baseline —
//! 4. and reports accuracy/AUROC and σ/R² averaged over the runs, which is
//!    exactly the structure of the paper's Table I.

use crate::error::MetaSegError;
use crate::metrics::{FeatureSet, MetricsConfig, SegmentRecord};
use crate::pipeline::FrameBatch;
use metaseg_data::Frame;
use metaseg_eval::{accuracy, auroc, r_squared, residual_sigma, RunStatistics};
use metaseg_learners::{
    BinaryClassifier, LinearRegression, LogisticConfig, LogisticRegression, Regressor,
    StandardScaler, TabularDataset,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the single-frame MetaSeg pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetaSegConfig {
    /// Number of random meta-train/meta-test splits to average over
    /// (10 in the paper).
    pub runs: usize,
    /// Fraction of segments used for meta training (0.8 in the paper).
    pub train_fraction: f64,
    /// Metric-construction configuration.
    pub metrics: MetricsConfig,
    /// L2 penalty of the "penalized" logistic meta classifier.
    pub logistic_penalty: f64,
    /// Seed for the split shuffling (each run derives its own sub-seed).
    pub seed: u64,
}

impl Default for MetaSegConfig {
    fn default() -> Self {
        Self {
            runs: 10,
            train_fraction: 0.8,
            metrics: MetricsConfig::default(),
            logistic_penalty: 0.01,
            seed: 1,
        }
    }
}

/// Accuracy / AUROC statistics of one meta classifier over the runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassificationReport {
    /// Accuracy on the meta-training split.
    pub train_acc: RunStatistics,
    /// Accuracy on the meta-test split.
    pub val_acc: RunStatistics,
    /// AUROC on the meta-training split.
    pub train_auroc: RunStatistics,
    /// AUROC on the meta-test split.
    pub val_auroc: RunStatistics,
}

/// σ / R² statistics of one meta regressor over the runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegressionReport {
    /// Residual standard deviation on the meta-training split.
    pub train_sigma: RunStatistics,
    /// Residual standard deviation on the meta-test split.
    pub val_sigma: RunStatistics,
    /// R² on the meta-training split.
    pub train_r2: RunStatistics,
    /// R² on the meta-test split.
    pub val_r2: RunStatistics,
}

/// The full Table-I style report of one network.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetaSegReport {
    /// Meta classification with the penalised logistic model on all metrics.
    pub classification: ClassificationReport,
    /// Meta classification with the unpenalised logistic model on all metrics.
    pub classification_unpenalized: ClassificationReport,
    /// Meta classification with the entropy-only baseline.
    pub classification_entropy: ClassificationReport,
    /// Naive baseline accuracy (majority-class / random-guessing rate).
    pub naive_baseline_acc: f64,
    /// Meta regression with the linear model on all metrics.
    pub regression: RegressionReport,
    /// Meta regression with the entropy-only baseline.
    pub regression_entropy: RegressionReport,
    /// Number of segments in the structured dataset.
    pub segment_count: usize,
    /// Fraction of segments with `IoU > 0`.
    pub positive_fraction: f64,
}

/// The single-frame MetaSeg pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaSeg {
    config: MetaSegConfig,
}

impl MetaSeg {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: MetaSegConfig) -> Self {
        Self { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &MetaSegConfig {
        &self.config
    }

    /// Extracts the segment records (with IoU targets) of all labelled
    /// frames, in parallel across frames via [`FrameBatch`].
    fn collect_records(&self, frames: &[Frame]) -> Vec<SegmentRecord> {
        FrameBatch::with_config(frames, self.config.metrics).labeled_records()
    }

    /// Builds a structured tabular dataset from segment records, selecting a
    /// feature subset. The target is the segment IoU.
    pub fn build_dataset(records: &[SegmentRecord], features: FeatureSet) -> TabularDataset {
        let mut dataset = TabularDataset::new();
        for record in records {
            if let Some(iou_value) = record.iou {
                dataset.push(features.select(&record.metrics), iou_value);
            }
        }
        dataset
    }

    /// Runs the full Table-I evaluation on the given labelled frames.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::NoLabeledData`] if no labelled segments are
    /// found and [`MetaSegError::DegenerateMetaLabels`] if all segments share
    /// one meta label (no false positives at all, or only false positives).
    pub fn run<R: Rng>(
        &self,
        frames: &[Frame],
        rng: &mut R,
    ) -> Result<MetaSegReport, MetaSegError> {
        let records = self.collect_records(frames);
        if records.is_empty() {
            return Err(MetaSegError::NoLabeledData);
        }
        let all = Self::build_dataset(&records, FeatureSet::All);
        let entropy_only = Self::build_dataset(&records, FeatureSet::EntropyOnly);
        self.evaluate_datasets(&all, &entropy_only, rng)
    }

    /// Runs the Table-I evaluation on pre-built datasets (full feature set
    /// plus entropy-only baseline on the same targets).
    ///
    /// # Errors
    ///
    /// See [`MetaSeg::run`].
    fn evaluate_datasets<R: Rng>(
        &self,
        all: &TabularDataset,
        entropy_only: &TabularDataset,
        rng: &mut R,
    ) -> Result<MetaSegReport, MetaSegError> {
        if all.is_empty() {
            return Err(MetaSegError::NoLabeledData);
        }
        if self.config.runs == 0 {
            return Err(MetaSegError::InvalidConfig(
                "runs must be at least 1".to_string(),
            ));
        }
        if !(0.0..1.0).contains(&self.config.train_fraction) || self.config.train_fraction <= 0.0 {
            return Err(MetaSegError::InvalidConfig(
                "train_fraction must lie strictly between 0 and 1".to_string(),
            ));
        }
        let labels = all.binary_targets(0.0);
        let positives = labels.iter().filter(|&&l| l).count();
        if positives == 0 || positives == labels.len() {
            return Err(MetaSegError::DegenerateMetaLabels);
        }

        let mut report = MetaSegReport {
            segment_count: all.len(),
            positive_fraction: positives as f64 / labels.len() as f64,
            naive_baseline_acc: (positives as f64 / labels.len() as f64)
                .max(1.0 - positives as f64 / labels.len() as f64),
            ..MetaSegReport::default()
        };

        for run in 0..self.config.runs {
            let mut split_rng =
                StdRng::seed_from_u64(self.config.seed ^ (run as u64) ^ rng.gen::<u64>());
            // One permutation shared by both feature sets so they see the
            // exact same segments in train and test.
            let mut order: Vec<usize> = (0..all.len()).collect();
            order.shuffle(&mut split_rng);
            let cut = ((all.len() as f64 * self.config.train_fraction).round() as usize)
                .clamp(1, all.len() - 1);
            let (train_idx, test_idx) = order.split_at(cut);

            let train_all = all.subset(train_idx);
            let test_all = all.subset(test_idx);
            let train_entropy = entropy_only.subset(train_idx);
            let test_entropy = entropy_only.subset(test_idx);

            // --- Meta classification -------------------------------------
            for (dataset_train, dataset_test, penalty, target) in [
                (
                    &train_all,
                    &test_all,
                    self.config.logistic_penalty,
                    &mut report.classification,
                ),
                (
                    &train_all,
                    &test_all,
                    0.0,
                    &mut report.classification_unpenalized,
                ),
                (
                    &train_entropy,
                    &test_entropy,
                    0.0,
                    &mut report.classification_entropy,
                ),
            ] {
                if let Some((train_scores, test_scores, train_labels, test_labels)) =
                    fit_classifier(dataset_train, dataset_test, penalty)
                {
                    let train_pred: Vec<bool> = train_scores.iter().map(|s| *s >= 0.5).collect();
                    let test_pred: Vec<bool> = test_scores.iter().map(|s| *s >= 0.5).collect();
                    target.train_acc.push(accuracy(&train_pred, &train_labels));
                    target.val_acc.push(accuracy(&test_pred, &test_labels));
                    target.train_auroc.push(auroc(&train_scores, &train_labels));
                    target.val_auroc.push(auroc(&test_scores, &test_labels));
                }
            }

            // --- Meta regression ------------------------------------------
            for (dataset_train, dataset_test, target) in [
                (&train_all, &test_all, &mut report.regression),
                (
                    &train_entropy,
                    &test_entropy,
                    &mut report.regression_entropy,
                ),
            ] {
                if let Some((train_pred, test_pred)) = fit_regressor(dataset_train, dataset_test) {
                    target
                        .train_sigma
                        .push(residual_sigma(&train_pred, &dataset_train.targets));
                    target
                        .val_sigma
                        .push(residual_sigma(&test_pred, &dataset_test.targets));
                    target
                        .train_r2
                        .push(r_squared(&train_pred, &dataset_train.targets));
                    target
                        .val_r2
                        .push(r_squared(&test_pred, &dataset_test.targets));
                }
            }
        }

        Ok(report)
    }
}

/// Fits a logistic meta classifier and returns (train scores, test scores,
/// train labels, test labels); `None` when the training split is degenerate.
fn fit_classifier(
    train: &TabularDataset,
    test: &TabularDataset,
    penalty: f64,
) -> Option<(Vec<f64>, Vec<f64>, Vec<bool>, Vec<bool>)> {
    let train_labels = train.binary_targets(0.0);
    let test_labels = test.binary_targets(0.0);
    let scaler = StandardScaler::fit(&train.features).ok()?;
    let train_features = scaler.transform(&train.features);
    let test_features = scaler.transform(&test.features);
    let config = LogisticConfig {
        l2_penalty: penalty,
        learning_rate: 0.5,
        max_iterations: 300,
        tolerance: 1e-7,
    };
    let model = LogisticRegression::fit(&train_features, &train_labels, config).ok()?;
    let train_scores = model.predict_proba(&train_features);
    let test_scores = model.predict_proba(&test_features);
    Some((train_scores, test_scores, train_labels, test_labels))
}

/// Fits a linear meta regressor and returns (train predictions, test
/// predictions) clipped to `[0, 1]`; `None` when fitting fails.
fn fit_regressor(train: &TabularDataset, test: &TabularDataset) -> Option<(Vec<f64>, Vec<f64>)> {
    let scaler = StandardScaler::fit(&train.features).ok()?;
    let train_features = scaler.transform(&train.features);
    let test_features = scaler.transform(&test.features);
    let model = LinearRegression::fit(&train_features, &train.targets).ok()?;
    let clip = |v: f64| v.clamp(0.0, 1.0);
    let train_pred: Vec<f64> = model
        .predict(&train_features)
        .into_iter()
        .map(clip)
        .collect();
    let test_pred: Vec<f64> = model
        .predict(&test_features)
        .into_iter()
        .map(clip)
        .collect();
    Some((train_pred, test_pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::FrameId;
    use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};

    fn make_frames(count: usize, seed: u64, profile: NetworkProfile) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(profile);
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
    fn pipeline_produces_sensible_report() {
        let frames = make_frames(8, 3, NetworkProfile::weak());
        let metaseg = MetaSeg::new(MetaSegConfig {
            runs: 2,
            ..MetaSegConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let report = metaseg.run(&frames, &mut rng).unwrap();
        assert!(report.segment_count > 20);
        assert!(report.positive_fraction > 0.0 && report.positive_fraction < 1.0);
        // All metrics must beat chance on the validation split.
        assert!(report.classification.val_auroc.mean() > 0.55);
        // All-metric classification beats the entropy baseline (the paper's
        // headline ~10 pp gap; we only require a positive gap here).
        assert!(
            report.classification.val_auroc.mean()
                >= report.classification_entropy.val_auroc.mean() - 0.02
        );
        // Regression R² with all metrics beats entropy-only.
        assert!(report.regression.val_r2.mean() >= report.regression_entropy.val_r2.mean() - 0.02);
        assert!(report.naive_baseline_acc >= 0.5);
    }

    #[test]
    fn collect_records_skips_unlabeled_frames() {
        let mut frames = make_frames(2, 5, NetworkProfile::strong());
        let unlabeled = Frame::unlabeled(FrameId::new(1, 0), frames[0].prediction.clone());
        frames.push(unlabeled);
        let metaseg = MetaSeg::new(MetaSegConfig::default());
        let records = metaseg.collect_records(&frames);
        assert!(!records.is_empty());
        // Only the two labelled frames contribute.
        let from_all = make_frames(2, 5, NetworkProfile::strong());
        let baseline = metaseg.collect_records(&from_all);
        assert_eq!(records.len(), baseline.len());
    }

    #[test]
    fn empty_input_is_an_error() {
        let metaseg = MetaSeg::new(MetaSegConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            metaseg.run(&[], &mut rng).unwrap_err(),
            MetaSegError::NoLabeledData
        );
    }

    #[test]
    fn invalid_config_is_an_error() {
        let frames = make_frames(2, 9, NetworkProfile::strong());
        let mut rng = StdRng::seed_from_u64(0);
        let zero_runs = MetaSeg::new(MetaSegConfig {
            runs: 0,
            ..MetaSegConfig::default()
        });
        assert!(matches!(
            zero_runs.run(&frames, &mut rng),
            Err(MetaSegError::InvalidConfig(_))
        ));
        let bad_fraction = MetaSeg::new(MetaSegConfig {
            train_fraction: 1.5,
            ..MetaSegConfig::default()
        });
        assert!(matches!(
            bad_fraction.run(&frames, &mut rng),
            Err(MetaSegError::InvalidConfig(_))
        ));
    }

    #[test]
    fn build_dataset_respects_feature_set() {
        let frames = make_frames(2, 11, NetworkProfile::strong());
        let metaseg = MetaSeg::new(MetaSegConfig::default());
        let records = metaseg.collect_records(&frames);
        let all = MetaSeg::build_dataset(&records, FeatureSet::All);
        let entropy = MetaSeg::build_dataset(&records, FeatureSet::EntropyOnly);
        assert_eq!(all.len(), entropy.len());
        assert_eq!(entropy.feature_dim(), 1);
        assert_eq!(all.feature_dim(), crate::metrics::METRIC_COUNT);
    }
}
