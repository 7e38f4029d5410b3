//! Time-dynamic MetaSeg (Section III of the paper).
//!
//! Segments of consecutive frames are matched by the light-weight tracker of
//! `metaseg-tracking`; each tracked segment's metric vector is extended to a
//! *time series* by concatenating the metric vectors of the same track in up
//! to `max_history` previous frames. Gradient boosting and a shallow MLP with
//! L2 penalty are then trained on these time-series features for both meta
//! tasks.

use crate::error::MetaSegError;
use crate::metrics::{MetricsConfig, SegmentRecord};
use crate::pipeline::FrameBatch;
use crate::stream::{MetaSegStream, StreamConfig, TrackWindows};
use metaseg_data::Sequence;
use metaseg_eval::{accuracy, auroc, r_squared, residual_sigma};
use metaseg_learners::{
    BoostingConfig, FittedClassifier, FittedRegressor, GradientBoostingClassifier,
    GradientBoostingRegressor, MetaPredictor, MlpClassifier, MlpConfig, MlpRegressor,
    StandardScaler, TabularDataset,
};
use metaseg_tracking::{SegmentTracker, TrackerConfig, TrackingResult};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration of the time-dynamic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeDynConfig {
    /// Maximum number of *previous* frames whose metrics are concatenated
    /// (the paper considers up to 10, i.e. time-series lengths 1..=11).
    pub max_history: usize,
    /// Metric-construction configuration.
    pub metrics: MetricsConfig,
    /// Tracker configuration.
    pub tracker: TrackerConfig,
}

impl Default for TimeDynConfig {
    fn default() -> Self {
        Self {
            max_history: 10,
            metrics: MetricsConfig::default(),
            tracker: TrackerConfig::default(),
        }
    }
}

/// Which meta model family is trained on the time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetaModel {
    /// Gradient-boosted trees.
    GradientBoosting,
    /// Shallow neural network with L2 penalisation.
    NeuralNetwork,
}

impl MetaModel {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            MetaModel::GradientBoosting => "gradient boosting",
            MetaModel::NeuralNetwork => "neural network (L2)",
        }
    }
}

/// Per-frame analysis of one sequence: segment records plus track assignments.
#[derive(Debug, Clone)]
pub struct SequenceAnalysis {
    /// Segment records of every frame (in temporal order).
    pub records: Vec<Vec<SegmentRecord>>,
    /// Tracking result over the predicted label maps of the sequence.
    pub tracking: TrackingResult,
    /// Indices of frames that carry (real or pseudo) ground truth.
    pub labeled_frames: Vec<usize>,
}

/// The time-dynamic MetaSeg pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeDynamic {
    config: TimeDynConfig,
}

impl TimeDynamic {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: TimeDynConfig) -> Self {
        Self { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &TimeDynConfig {
        &self.config
    }

    /// Extracts segment records and tracking for one sequence. Metric
    /// extraction runs frame-parallel through [`FrameBatch`]; the tracker
    /// gets each frame's Bayes label map, the same argmax the extraction
    /// kernel labels.
    pub fn analyze_sequence(&self, sequence: &Sequence) -> SequenceAnalysis {
        let batch = FrameBatch::with_config(&sequence.frames, self.config.metrics);
        let per_frame: Vec<(metaseg_data::LabelMap, Vec<SegmentRecord>)> =
            batch.map_frames(|frame| {
                let records = crate::pipeline::frame_metrics(
                    &frame.prediction,
                    frame.ground_truth.as_ref(),
                    batch.config(),
                );
                (frame.prediction.argmax_map(), records)
            });
        let (predicted_maps, records): (Vec<_>, Vec<_>) = per_frame.into_iter().unzip();
        let tracker = SegmentTracker::new(self.config.tracker);
        let tracking = tracker.track(&predicted_maps);

        SequenceAnalysis {
            records,
            tracking,
            labeled_frames: sequence.labeled_indices(),
        }
    }

    /// Builds the structured time-series dataset of one analysed sequence for
    /// a given time-series length (`length = 1` reproduces plain MetaSeg).
    ///
    /// Only segments of labelled frames with an IoU target contribute rows;
    /// missing history (track too young) is padded by repeating the oldest
    /// available metric vector, as in the reference implementation.
    ///
    /// The batch path is "drain the stream": the analysed clip is replayed
    /// through the same bounded [`TrackWindows`] ring buffers the online
    /// engine uses, so batch rows and streaming features share one assembly
    /// code path by construction.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero or exceeds `max_history + 1`.
    pub fn time_series_dataset(
        &self,
        analysis: &SequenceAnalysis,
        length: usize,
    ) -> TabularDataset {
        assert!(
            length >= 1 && length <= self.config.max_history + 1,
            "length must lie in 1..=max_history+1"
        );
        let labeled: HashSet<usize> = analysis.labeled_frames.iter().copied().collect();
        let mut windows = TrackWindows::new(length);
        let mut dataset = TabularDataset::new();
        for (frame_idx, frame_records) in analysis.records.iter().enumerate() {
            let frame_tracks = match analysis.tracking.frames().get(frame_idx) {
                Some(t) => t,
                None => continue,
            };
            for record in frame_records {
                if let Some(track_id) = frame_tracks.track_of_region(record.region_id) {
                    windows.observe(frame_idx, track_id, &record.metrics);
                }
            }
            if labeled.contains(&frame_idx) {
                for record in frame_records {
                    let target = match record.iou {
                        Some(v) => v,
                        None => continue,
                    };
                    let track_id = match frame_tracks.track_of_region(record.region_id) {
                        Some(id) => id,
                        None => continue,
                    };
                    let features = windows.features(frame_idx, track_id, &record.metrics);
                    dataset.push(features, target);
                }
            }
            windows.prune(frame_idx);
        }
        dataset
    }

    /// Trains the chosen meta-model family on `train` and returns the
    /// serializable inference handle (scaler + classifier + regressor) the
    /// online engine serves.
    ///
    /// # Errors
    ///
    /// Returns a [`MetaSegError`] if the dataset is empty or degenerate.
    pub fn fit_predictor(
        &self,
        model: MetaModel,
        train: &TabularDataset,
        seed: u64,
    ) -> Result<MetaPredictor, MetaSegError> {
        if train.is_empty() {
            return Err(MetaSegError::NoLabeledData);
        }
        let train_labels = train.binary_targets(0.0);
        let positives = train_labels.iter().filter(|&&l| l).count();
        if positives == 0 || positives == train_labels.len() {
            return Err(MetaSegError::DegenerateMetaLabels);
        }

        let scaler = StandardScaler::fit(&train.features)?;
        let train_features = scaler.transform(&train.features);

        let (classifier, regressor) = match model {
            MetaModel::GradientBoosting => {
                let config = BoostingConfig {
                    n_estimators: 40,
                    learning_rate: 0.15,
                    ..BoostingConfig::default()
                };
                (
                    FittedClassifier::Boosting(GradientBoostingClassifier::fit(
                        &train_features,
                        &train_labels,
                        config,
                    )?),
                    FittedRegressor::Boosting(GradientBoostingRegressor::fit(
                        &train_features,
                        &train.targets,
                        config,
                    )?),
                )
            }
            MetaModel::NeuralNetwork => {
                let config = MlpConfig {
                    hidden_units: 24,
                    l2_penalty: 1e-3,
                    epochs: 120,
                    seed,
                    ..MlpConfig::default()
                };
                (
                    FittedClassifier::Mlp(MlpClassifier::fit(
                        &train_features,
                        &train_labels,
                        config,
                    )?),
                    FittedRegressor::Mlp(MlpRegressor::fit(
                        &train_features,
                        &train.targets,
                        config,
                    )?),
                )
            }
        };
        Ok(MetaPredictor::new(scaler, classifier, regressor))
    }

    /// Opens a streaming engine serving a predictor fitted by
    /// [`TimeDynamic::fit_predictor`], with window, metric and tracker
    /// configuration matching this batch pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::InvalidConfig`] if the predictor's time-series
    /// depth exceeds `max_history + 1`.
    pub fn open_stream(&self, predictor: MetaPredictor) -> Result<MetaSegStream, MetaSegError> {
        MetaSegStream::new(StreamConfig::from(self.config), predictor)
    }

    /// Trains the chosen meta models on `train` and evaluates them on `test`,
    /// returning `(accuracy, auroc, sigma, r2)` on the test split.
    ///
    /// Implemented as [`TimeDynamic::fit_predictor`] followed by inference
    /// through the resulting handle — the same code path the streaming
    /// engine serves.
    ///
    /// # Errors
    ///
    /// Returns a [`MetaSegError`] if the datasets are empty or degenerate.
    pub fn fit_and_evaluate(
        &self,
        model: MetaModel,
        train: &TabularDataset,
        test: &TabularDataset,
        seed: u64,
    ) -> Result<TimeDynScores, MetaSegError> {
        if test.is_empty() {
            return Err(MetaSegError::NoLabeledData);
        }
        let predictor = self.fit_predictor(model, train, seed)?;
        let test_labels = test.binary_targets(0.0);
        let scores = predictor.score(&test.features);
        let predictions = predictor.predict_iou(&test.features);
        let hard: Vec<bool> = scores.iter().map(|s| *s >= 0.5).collect();

        Ok(TimeDynScores {
            accuracy: accuracy(&hard, &test_labels),
            auroc: auroc(&scores, &test_labels),
            sigma: residual_sigma(&predictions, &test.targets),
            r2: r_squared(&predictions, &test.targets),
        })
    }
}

/// Test-split scores of one time-dynamic training run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeDynScores {
    /// Meta-classification accuracy.
    pub accuracy: f64,
    /// Meta-classification AUROC.
    pub auroc: f64,
    /// Meta-regression residual standard deviation.
    pub sigma: f64,
    /// Meta-regression R².
    pub r2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::METRIC_COUNT;
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_scenario(seed: u64) -> VideoScenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(NetworkProfile::weak());
        VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng)
    }

    #[test]
    fn analysis_produces_records_and_tracks() {
        let scenario = small_scenario(1);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let analysis = pipeline.analyze_sequence(&scenario.dataset().sequences[0]);
        assert_eq!(analysis.records.len(), 12);
        assert_eq!(analysis.tracking.frames().len(), 12);
        assert_eq!(analysis.labeled_frames, vec![0, 4, 8]);
        assert!(analysis.tracking.track_count() > 0);
    }

    #[test]
    fn time_series_feature_dimensions_grow_with_length() {
        let scenario = small_scenario(2);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let analysis = pipeline.analyze_sequence(&scenario.dataset().sequences[0]);
        let ds1 = pipeline.time_series_dataset(&analysis, 1);
        let ds3 = pipeline.time_series_dataset(&analysis, 3);
        assert!(!ds1.is_empty());
        assert_eq!(ds1.len(), ds3.len());
        assert_eq!(ds1.feature_dim(), METRIC_COUNT);
        assert_eq!(ds3.feature_dim(), 3 * METRIC_COUNT);
    }

    #[test]
    #[should_panic]
    fn zero_length_panics() {
        let scenario = small_scenario(3);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let analysis = pipeline.analyze_sequence(&scenario.dataset().sequences[0]);
        let _ = pipeline.time_series_dataset(&analysis, 0);
    }

    #[test]
    fn fit_and_evaluate_produces_reasonable_scores() {
        let scenario = small_scenario(4);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let mut train = TabularDataset::new();
        let mut test = TabularDataset::new();
        for (i, sequence) in scenario.dataset().sequences.iter().enumerate() {
            let analysis = pipeline.analyze_sequence(sequence);
            let ds = pipeline.time_series_dataset(&analysis, 2);
            if i == 0 {
                test.extend_from(&ds);
            } else {
                train.extend_from(&ds);
            }
        }
        let scores = pipeline
            .fit_and_evaluate(MetaModel::GradientBoosting, &train, &test, 0)
            .unwrap();
        assert!(scores.auroc > 0.4);
        assert!((0.0..=1.0).contains(&scores.accuracy));
        assert!(scores.sigma >= 0.0);
        assert!(scores.r2 <= 1.0);
    }

    #[test]
    fn empty_data_is_an_error() {
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let empty = TabularDataset::new();
        assert!(matches!(
            pipeline.fit_and_evaluate(MetaModel::GradientBoosting, &empty, &empty, 0),
            Err(MetaSegError::NoLabeledData)
        ));
    }

    #[test]
    fn model_names() {
        assert_eq!(MetaModel::GradientBoosting.name(), "gradient boosting");
        assert_eq!(MetaModel::NeuralNetwork.name(), "neural network (L2)");
    }
}
