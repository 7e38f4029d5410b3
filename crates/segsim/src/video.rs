//! Video scenarios: ego-motion sequences with sparse labelling.
//!
//! The paper's Section III experiments run on KITTI video streams: 29
//! sequences, ~12 k frames, but only 142 labelled frames. [`VideoScenario`]
//! reproduces that regime synthetically: every sequence shares one scene
//! whose objects move from frame to frame, the weak network is inferred on
//! every frame, and only a sparse subset of frames keeps its ground truth.

use crate::network::NetworkSim;
use crate::scene::{Scene, SceneConfig};
use metaseg_data::{Dataset, Frame, FrameId, Sequence};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic video dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoConfig {
    /// Number of independent sequences (the paper uses 29).
    pub sequence_count: usize,
    /// Number of frames per sequence.
    pub frames_per_sequence: usize,
    /// Every `label_stride`-th frame keeps its ground truth; all other frames
    /// are unlabelled (mimicking KITTI's sparse annotation).
    pub label_stride: usize,
    /// Scene geometry configuration shared by all sequences.
    pub scene: SceneConfig,
}

impl VideoConfig {
    /// A small configuration for tests: 3 sequences of 12 frames, every 4th labelled.
    pub fn small() -> Self {
        Self {
            sequence_count: 3,
            frames_per_sequence: 12,
            label_stride: 4,
            scene: SceneConfig::small(),
        }
    }

    /// A KITTI-like configuration scaled down to simulation size.
    fn kitti_like() -> Self {
        Self {
            sequence_count: 29,
            frames_per_sequence: 30,
            label_stride: 6,
            scene: SceneConfig::cityscapes_like(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn assert_valid(&self) {
        assert!(self.sequence_count > 0, "sequence_count must be positive");
        assert!(
            self.frames_per_sequence > 0,
            "frames_per_sequence must be positive"
        );
        assert!(self.label_stride > 0, "label_stride must be positive");
        self.scene.assert_valid();
    }
}

impl Default for VideoConfig {
    fn default() -> Self {
        Self::kitti_like()
    }
}

/// A generated video dataset: the rendered, network-inferred frames of one
/// scene per sequence.
#[derive(Debug, Clone)]
pub struct VideoScenario {
    config: VideoConfig,
    dataset: Dataset,
    /// Ground-truth maps of every frame (kept even for "unlabelled" frames so
    /// that evaluation and pseudo-label quality checks remain possible).
    full_ground_truth: Vec<Vec<metaseg_data::LabelMap>>,
}

impl VideoScenario {
    /// Generates the scenes and runs the network `sim` on every frame.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn generate<R: Rng>(config: &VideoConfig, sim: &NetworkSim, rng: &mut R) -> Self {
        config.assert_valid();
        let mut sequences = Vec::with_capacity(config.sequence_count);
        let mut full_ground_truth = Vec::with_capacity(config.sequence_count);

        for sequence_index in 0..config.sequence_count {
            let scene = Scene::generate(&config.scene, rng);
            let mut frames = Vec::with_capacity(config.frames_per_sequence);
            let mut gt_maps = Vec::with_capacity(config.frames_per_sequence);
            for t in 0..config.frames_per_sequence {
                let ground_truth = scene.render_at(t as f64);
                let prediction = sim.predict(&ground_truth, rng);
                let id = FrameId::new(sequence_index, t);
                let frame = if t % config.label_stride == 0 {
                    Frame::labeled(id, ground_truth.clone(), prediction)
                        .expect("scene and prediction share the same shape")
                } else {
                    Frame::unlabeled(id, prediction)
                };
                frames.push(frame);
                gt_maps.push(ground_truth);
            }
            sequences.push(Sequence::new(sequence_index, frames).expect("non-empty sequence"));
            full_ground_truth.push(gt_maps);
        }

        Self {
            config: config.clone(),
            dataset: Dataset { sequences },
            full_ground_truth,
        }
    }

    /// The configuration the scenario was generated from.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// The generated dataset (sparse labels, dense predictions).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The full (dense) ground truth of frame `t` of sequence `s`, if present.
    ///
    /// This is withheld from the dataset for unlabelled frames but kept here
    /// so evaluations can compare pseudo ground truth against reality.
    pub fn ground_truth(&self, sequence: usize, frame: usize) -> Option<&metaseg_data::LabelMap> {
        self.full_ground_truth.get(sequence)?.get(frame)
    }

    /// Streams the materialised frames of one sequence in temporal order, as
    /// a pull-based source for `metaseg::stream` consumers (`None` if the
    /// sequence index is out of range). For a source that never materialises
    /// the clip in the first place, see [`crate::VideoStream`].
    pub fn stream_sequence(&self, sequence: usize) -> Option<impl Iterator<Item = Frame> + '_> {
        Some(self.dataset.sequences.get(sequence)?.frames.iter().cloned())
    }

    /// Attaches pseudo ground truth (predictions of `reference` run on every
    /// unlabelled frame) and returns the resulting dataset. Labelled frames
    /// keep their real annotation.
    pub fn with_pseudo_labels<R: Rng>(&self, reference: &NetworkSim, rng: &mut R) -> Dataset {
        let mut sequences = Vec::with_capacity(self.dataset.sequences.len());
        for (s, sequence) in self.dataset.sequences.iter().enumerate() {
            let mut frames = Vec::with_capacity(sequence.frames.len());
            for (t, frame) in sequence.frames.iter().enumerate() {
                if frame.is_labeled() {
                    frames.push(frame.clone());
                } else {
                    let gt = &self.full_ground_truth[s][t];
                    let pseudo = reference.predict(gt, rng).argmax_map();
                    frames.push(
                        frame
                            .clone()
                            .with_pseudo_ground_truth(pseudo)
                            .expect("shapes match by construction"),
                    );
                }
            }
            sequences.push(Sequence::new(sequence.index, frames).expect("non-empty"));
        }
        Dataset { sequences }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkProfile;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generates_expected_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let config = VideoConfig::small();
        let scenario = VideoScenario::generate(&config, &sim, &mut rng);
        let ds = scenario.dataset();
        assert_eq!(ds.sequence_count(), 3);
        assert_eq!(ds.frame_count(), 36);
        // Every 4th frame labelled: 3 labelled frames per 12-frame sequence.
        assert_eq!(ds.labeled_frame_count(), 9);
    }

    #[test]
    fn ground_truth_is_kept_for_all_frames() {
        let mut rng = StdRng::seed_from_u64(5);
        let sim = NetworkSim::new(NetworkProfile::strong());
        let scenario = VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng);
        assert!(scenario.ground_truth(0, 0).is_some());
        assert!(scenario.ground_truth(2, 11).is_some());
        assert!(scenario.ground_truth(3, 0).is_none());
        assert!(scenario.ground_truth(0, 12).is_none());
    }

    #[test]
    fn pseudo_labels_make_every_frame_labeled() {
        let mut rng = StdRng::seed_from_u64(7);
        let weak = NetworkSim::new(NetworkProfile::weak());
        let strong = NetworkSim::new(NetworkProfile::strong());
        let scenario = VideoScenario::generate(&VideoConfig::small(), &weak, &mut rng);
        let pseudo = scenario.with_pseudo_labels(&strong, &mut rng);
        assert_eq!(pseudo.labeled_frame_count(), pseudo.frame_count());
        // Real labels of labelled frames are preserved verbatim.
        let original = &scenario.dataset().sequences[0].frames[0];
        let with_pseudo = &pseudo.sequences[0].frames[0];
        assert_eq!(original.ground_truth, with_pseudo.ground_truth);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let sim = NetworkSim::new(NetworkProfile::strong());
        let config = VideoConfig {
            label_stride: 0,
            ..VideoConfig::small()
        };
        let _ = VideoScenario::generate(&config, &sim, &mut rng);
    }
}
