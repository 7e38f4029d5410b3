//! # metaseg
//!
//! Reproduction of *"Detection of False Positive and False Negative Samples
//! in Semantic Segmentation"* (Rottmann et al., DATE 2020).
//!
//! The crate provides the paper's three contributions on top of the workspace
//! substrates:
//!
//! 1. **MetaSeg** (Section II): segment-wise *meta classification*
//!    (predicting whether a predicted segment has zero intersection with the
//!    ground truth, i.e. is a false positive) and *meta regression*
//!    (predicting the segment's IoU) from aggregated dispersion and geometry
//!    metrics of the softmax output — see [`metrics`] and [`MetaSeg`].
//! 2. **Time-dynamic MetaSeg** (Section III): the same meta tasks on video
//!    streams, with per-segment metric *time series* obtained from a
//!    light-weight tracking algorithm, sparse real labels, SMOTE
//!    augmentation and pseudo ground truth from a stronger reference network
//!    — see [`timedyn`] and [`compositions`].
//! 3. **False-negative reduction by decision rules** (Section IV): applying
//!    the Maximum-Likelihood rule instead of the Bayes rule to recover
//!    overlooked rare-class segments — see [`fnr`].
//!
//! Beyond the paper, the [`stream`] module turns the time-dynamic pipeline
//! into an **online, bounded-memory engine**: frames are pushed one at a
//! time, metric extraction runs single-pass, tracking is incremental, and a
//! pre-fitted [`metaseg_learners::MetaPredictor`] emits per-segment verdicts
//! in the same frame — with memory proportional to the last few frames, not
//! the clip.
//!
//! The [`experiment`] module contains one runner per table/figure of the
//! paper; the `metaseg-bench` crate wraps them in binaries.
//!
//! ```
//! use metaseg::{MetaSeg, MetaSegConfig};
//! use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let network = NetworkSim::new(NetworkProfile::strong());
//! let frames: Vec<_> = (0..6)
//!     .map(|_| {
//!         let scene = Scene::generate(&SceneConfig::small(), &mut rng);
//!         let gt = scene.render();
//!         let probs = network.predict(&gt, &mut rng);
//!         metaseg_data::Frame::labeled(metaseg_data::FrameId::new(0, 0), gt, probs).unwrap()
//!     })
//!     .collect();
//! let metaseg = MetaSeg::new(MetaSegConfig { runs: 1, ..MetaSegConfig::default() });
//! let report = metaseg.run(&frames, &mut rng).unwrap();
//! assert!(report.classification.val_auroc.mean() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compositions;
mod error;
pub mod experiment;
pub mod fnr;
pub mod metaseg;
pub mod metrics;
pub mod pipeline;
pub mod stream;
pub mod timedyn;
pub mod visualize;

pub use crate::metaseg::{
    ClassificationReport, MetaSeg, MetaSegConfig, MetaSegReport, RegressionReport,
};
pub use compositions::Composition;
pub use error::MetaSegError;
pub use metrics::{segment_metrics, FeatureSet, MetricsConfig, SegmentRecord};
pub use pipeline::{
    extract_frame, extract_frame_payload, frame_metrics, worker_threads, DispersionPrecision,
    ExtractionScratch, FrameBatch, ScratchStats,
};
pub use stream::{
    FrameVerdicts, MetaSegStream, SegmentVerdict, StreamConfig, StreamReport, WindowStats,
};
