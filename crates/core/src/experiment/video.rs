//! Fig. 2 and Table II: time-dynamic meta classification / regression on
//! KITTI-like video sequences for different training-data compositions,
//! meta models and time-series lengths.

use crate::compositions::Composition;
use crate::error::MetaSegError;
use crate::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
use metaseg_eval::RunStatistics;
use metaseg_learners::{SmoteConfig, TabularDataset};
use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the video (Fig. 2 / Table II) experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoExperimentConfig {
    /// Video dataset configuration (sequences, frames, label stride).
    pub video: VideoConfig,
    /// Time-dynamic pipeline configuration.
    pub timedyn: TimeDynConfig,
    /// Time-series lengths to evaluate (the paper uses 1..=11).
    pub lengths: Vec<usize>,
    /// Meta models to evaluate.
    pub models: Vec<MetaModel>,
    /// Training-data compositions to evaluate.
    pub compositions: Vec<Composition>,
    /// Number of random train/val/test splits to average over.
    pub runs: usize,
    /// SMOTE configuration for the augmented compositions.
    pub smote: SmoteConfig,
    /// Fraction of sequences assigned to the test split.
    pub test_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for VideoExperimentConfig {
    fn default() -> Self {
        Self {
            video: VideoConfig {
                sequence_count: 12,
                frames_per_sequence: 24,
                label_stride: 6,
                scene: metaseg_sim::SceneConfig::cityscapes_like(),
            },
            timedyn: TimeDynConfig::default(),
            lengths: (1..=11).collect(),
            models: vec![MetaModel::GradientBoosting, MetaModel::NeuralNetwork],
            compositions: Composition::ALL.to_vec(),
            runs: 3,
            smote: SmoteConfig::default(),
            test_fraction: 0.2,
            seed: 33,
        }
    }
}

impl VideoExperimentConfig {
    /// Small configuration for the test suite.
    pub fn quick() -> Self {
        Self {
            video: VideoConfig::small(),
            timedyn: TimeDynConfig {
                max_history: 2,
                ..TimeDynConfig::default()
            },
            lengths: vec![1, 2],
            models: vec![MetaModel::GradientBoosting],
            compositions: vec![Composition::Real, Composition::RealPseudo],
            runs: 1,
            smote: SmoteConfig::default(),
            test_fraction: 0.34,
            seed: 5,
        }
    }
}

/// One cell of the Fig. 2 / Table II grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoCell {
    /// Meta model family of the cell.
    pub model: MetaModel,
    /// Training-data composition of the cell.
    pub composition: Composition,
    /// Time-series length (number of considered frames).
    pub length: usize,
    /// Meta-classification accuracy over the runs.
    pub accuracy: RunStatistics,
    /// Meta-classification AUROC over the runs.
    pub auroc: RunStatistics,
    /// Meta-regression residual sigma over the runs.
    pub sigma: RunStatistics,
    /// Meta-regression R² over the runs.
    pub r2: RunStatistics,
}

/// Result of the video experiment: the full grid of cells.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct VideoExperimentResult {
    /// All evaluated cells.
    pub cells: Vec<VideoCell>,
}

impl VideoExperimentResult {
    /// AUROC as a function of the time-series length for one model and
    /// composition — one curve of Fig. 2.
    pub fn auroc_series(&self, model: MetaModel, composition: Composition) -> Vec<(usize, f64)> {
        let mut series: Vec<(usize, f64)> = self
            .cells
            .iter()
            .filter(|c| c.model == model && c.composition == composition)
            .map(|c| (c.length, c.auroc.mean()))
            .collect();
        series.sort_by_key(|(length, _)| *length);
        series
    }

    /// The best cell (by AUROC) for one model and composition — one row of
    /// Table II's classification half.
    fn best_classification(
        &self,
        model: MetaModel,
        composition: Composition,
    ) -> Option<&VideoCell> {
        self.cells
            .iter()
            .filter(|c| c.model == model && c.composition == composition)
            .max_by(|a, b| {
                a.auroc
                    .mean()
                    .partial_cmp(&b.auroc.mean())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The best cell (by R²) for one model and composition — one row of
    /// Table II's regression half.
    fn best_regression(&self, model: MetaModel, composition: Composition) -> Option<&VideoCell> {
        self.cells
            .iter()
            .filter(|c| c.model == model && c.composition == composition)
            .max_by(|a, b| {
                a.r2.mean()
                    .partial_cmp(&b.r2.mean())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Formats the Table II style summary.
    pub fn format_table2(&self, models: &[MetaModel], compositions: &[Composition]) -> String {
        let mut out = String::new();
        out.push_str("Table II — best-over-length results per composition\n\n");
        out.push_str("Meta classification (IoU = 0 vs > 0)\n");
        out.push_str(&format!("{:<5}", "data"));
        for model in models {
            out.push_str(&format!("{:>44}", model.name()));
        }
        out.push('\n');
        for composition in compositions {
            out.push_str(&format!("{:<5}", composition.short_name()));
            for model in models {
                if let Some(cell) = self.best_classification(*model, *composition) {
                    out.push_str(&format!(
                        "  ACC {} AUROC {}^{}",
                        cell.accuracy.format_percent(1),
                        cell.auroc.format_percent(1),
                        cell.length
                    ));
                }
            }
            out.push('\n');
        }
        out.push_str("\nMeta regression (IoU)\n");
        for composition in compositions {
            out.push_str(&format!("{:<5}", composition.short_name()));
            for model in models {
                if let Some(cell) = self.best_regression(*model, *composition) {
                    out.push_str(&format!(
                        "  sigma {} R2 {}^{}",
                        cell.sigma.format_plain(3),
                        cell.r2.format_percent(1),
                        cell.length
                    ));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Runs the video experiment (Fig. 2 + Table II).
///
/// # Errors
///
/// Propagates [`MetaSegError`] if the generated data is degenerate.
pub fn run(config: &VideoExperimentConfig) -> Result<VideoExperimentResult, MetaSegError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let weak = NetworkSim::new(NetworkProfile::weak());
    let strong = NetworkSim::new(NetworkProfile::strong());

    // Generate the video data once: weak-network predictions with sparse real
    // labels, plus pseudo labels from the strong network on unlabelled frames.
    let scenario = VideoScenario::generate(&config.video, &weak, &mut rng);
    let real_dataset = scenario.dataset().clone();
    let pseudo_dataset = scenario.with_pseudo_labels(&strong, &mut rng);

    let pipeline = TimeDynamic::new(config.timedyn);

    // Per-sequence analyses, sharded across rayon workers — each video is an
    // independent stream, so one worker per sequence. Pseudo analyses are
    // restricted to the frames that had no real label so that RP/RAP do not
    // duplicate real samples.
    let real_analyses: Vec<_> = real_dataset
        .sequences
        .par_iter()
        .map(|s| pipeline.analyze_sequence(s))
        .collect();
    let pseudo_analyses: Vec<_> = (0..pseudo_dataset.sequences.len())
        .into_par_iter()
        .map(|i| {
            let pseudo_seq = &pseudo_dataset.sequences[i];
            let real_seq = &real_dataset.sequences[i];
            let mut analysis = pipeline.analyze_sequence(pseudo_seq);
            let real_labeled: std::collections::HashSet<usize> =
                real_seq.labeled_indices().into_iter().collect();
            analysis
                .labeled_frames
                .retain(|f| !real_labeled.contains(f));
            analysis
        })
        .collect();

    let sequence_count = real_dataset.sequences.len();
    let test_count = ((sequence_count as f64 * config.test_fraction).round() as usize)
        .clamp(1, sequence_count.saturating_sub(1).max(1));

    let mut result = VideoExperimentResult::default();
    // Pre-create cells.
    for &model in &config.models {
        for &composition in &config.compositions {
            for &length in &config.lengths {
                result.cells.push(VideoCell {
                    model,
                    composition,
                    length,
                    accuracy: RunStatistics::new(),
                    auroc: RunStatistics::new(),
                    sigma: RunStatistics::new(),
                    r2: RunStatistics::new(),
                });
            }
        }
    }

    for run_idx in 0..config.runs {
        let mut split_rng = StdRng::seed_from_u64(config.seed ^ ((run_idx as u64 + 1) * 7919));
        let mut order: Vec<usize> = (0..sequence_count).collect();
        order.shuffle(&mut split_rng);
        let (test_sequences, train_sequences) = order.split_at(test_count);

        for &length in &config.lengths {
            // Assemble the per-split datasets for this time-series length.
            let mut real_train = TabularDataset::new();
            let mut pseudo_train = TabularDataset::new();
            let mut test = TabularDataset::new();
            for &sequence in train_sequences {
                real_train
                    .extend_from(&pipeline.time_series_dataset(&real_analyses[sequence], length));
                pseudo_train
                    .extend_from(&pipeline.time_series_dataset(&pseudo_analyses[sequence], length));
            }
            for &sequence in test_sequences {
                test.extend_from(&pipeline.time_series_dataset(&real_analyses[sequence], length));
            }
            if test.is_empty() || real_train.is_empty() {
                continue;
            }

            for &composition in &config.compositions {
                let train =
                    composition.assemble(&real_train, &pseudo_train, config.smote, &mut split_rng);
                if train.is_empty() {
                    continue;
                }
                for &model in &config.models {
                    let scores = match pipeline.fit_and_evaluate(
                        model,
                        &train,
                        &test,
                        config.seed ^ run_idx as u64,
                    ) {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if let Some(cell) = result.cells.iter_mut().find(|c| {
                        c.model == model && c.composition == composition && c.length == length
                    }) {
                        cell.accuracy.push(scores.accuracy);
                        cell.auroc.push(scores.auroc);
                        cell.sigma.push(scores.sigma);
                        cell.r2.push(scores.r2);
                    }
                }
            }
        }
    }

    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_video_experiment_fills_the_grid() {
        let config = VideoExperimentConfig::quick();
        let result = run(&config).unwrap();
        // 1 model x 2 compositions x 2 lengths = 4 cells.
        assert_eq!(result.cells.len(), 4);
        let filled = result.cells.iter().filter(|c| !c.auroc.is_empty()).count();
        assert!(
            filled >= 2,
            "at least half of the cells must receive scores"
        );

        let series = result.auroc_series(MetaModel::GradientBoosting, Composition::Real);
        assert!(!series.is_empty());
        for (_, value) in &series {
            assert!((0.0..=1.0).contains(value));
        }
        assert!(result
            .best_classification(MetaModel::GradientBoosting, Composition::Real)
            .is_some());
        let table = result.format_table2(&config.models, &config.compositions);
        assert!(table.contains("Meta regression"));
    }
}
