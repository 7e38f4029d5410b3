//! # metaseg-sim
//!
//! Synthetic data substrate replacing the assets the original paper relies
//! on (Cityscapes, KITTI video sequences and DeepLabv3+ networks), which are
//! not available in this environment:
//!
//! * [`Scene`] / [`SceneConfig`] — a procedural street-scene generator that
//!   produces ground-truth [`LabelMap`]s with Cityscapes-like layout and
//!   class imbalance (sky on top, buildings, road at the bottom, cars on the
//!   road, rare small humans on the sidewalk),
//! * [`NetworkSim`] / [`NetworkProfile`] — a stochastic segmentation-network
//!   simulator that turns a ground-truth map into a softmax field
//!   [`ProbMap`] with realistic error modes: noisy boundaries, hallucinated
//!   false-positive segments, overlooked false-negative segments and
//!   miscalibrated confidence. Two profiles mimic the paper's strong
//!   (Xception65-like) and weak (MobilenetV2-like) backbones,
//! * [`VideoScenario`] — ego-motion video sequences with sparse labelling,
//!   the stand-in for the KITTI experiments of Section III,
//! * [`FrameSource`] / [`VideoStream`] — the pull-based streaming surface:
//!   any `Iterator<Item = Frame>` is a source, and `VideoStream` renders +
//!   infers frames lazily so online consumers never hold a whole clip,
//! * [`ScenarioSuite`] / [`RegimeKind`] — composable adverse-condition
//!   degradations (fog, occlusion bursts, NaN/zero sensor dropout, class
//!   imbalance, frame jitter/duplication, mid-stream resolution switches),
//!   each built into a seeded [`Regime`] and layered over any frame source
//!   by a [`RegimeSource`],
//! * [`ChaosProxy`] / [`FaultPlan`] — a seeded byte-level TCP fault proxy
//!   (trickle delivery, slow-loris stalls, torn frames, duplicated bytes,
//!   garbage preludes) for chaos-testing the serving transport.
//!
//! The simulator is deliberately *not* a neural network: MetaSeg only ever
//! consumes the softmax field and the ground truth, so any generator that
//! reproduces the statistical relationship between prediction errors and
//! softmax dispersion exercises the same code paths.
//!
//! ```
//! use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let scene = Scene::generate(&SceneConfig::small(), &mut rng);
//! let ground_truth = scene.render();
//! let network = NetworkSim::new(NetworkProfile::strong());
//! let prediction = network.predict(&ground_truth, &mut rng);
//! assert_eq!(prediction.shape(), ground_truth.shape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod network;
mod scenario;
mod scene;
mod source;
mod video;

pub use chaos::{ChaosProxy, ChaosStats, FaultPlan};
pub use metaseg_data::{LabelMap, ProbEncoding, ProbMap, ProbPayload};
pub use network::{NetworkProfile, NetworkSim};
pub use scenario::{Regime, RegimeKind, RegimeSource, ScenarioSuite};
pub use scene::{Scene, SceneConfig, SceneObject, ShapeKind};
pub use source::{CorpusFrameSource, DecodedFrameSource, FrameSource, VideoStream};
pub use video::{VideoConfig, VideoScenario};
