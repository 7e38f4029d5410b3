//! Adverse-condition scenario regimes: composable degradations over any
//! [`FrameSource`].
//!
//! The paper evaluates meta-classification on one benign data distribution;
//! a production scorer must hold up when the sensor fogs over, pixels drop
//! out, occluders block the lens, the class mix shifts, or the stream itself
//! misbehaves (dropped/duplicated frames, mid-stream resolution switches).
//! Each degradation is a [`RegimeKind`]; [`RegimeKind::build`] turns it into
//! a [`Regime`] with seeded determinism — the same seed always produces the
//! same degraded stream, so any regression found under a regime is
//! reproducible bit for bit.
//!
//! [`RegimeSource`] layers one regime over any frame source and is itself a
//! frame source, so regimes compose by nesting (fog over dropout over a
//! live [`crate::VideoStream`]). [`ScenarioSuite`] names the standard regime
//! set the eval sweep and the serve stress harness iterate over.
//!
//! ```
//! use metaseg_sim::{
//!     NetworkProfile, NetworkSim, RegimeKind, ScenarioSuite, VideoConfig, VideoStream,
//!     FrameSource,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let suite = ScenarioSuite::standard(7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let stream = VideoStream::open(
//!     &VideoConfig::small(),
//!     NetworkSim::new(NetworkProfile::weak()),
//!     0,
//!     &mut rng,
//! );
//! let mut foggy = suite.degrade(RegimeKind::Fog, stream);
//! let frame = foggy.next_frame().expect("the clip has frames");
//! // Fog flattens the softmax towards uniform but keeps it a distribution.
//! assert!(frame.prediction.validate().is_ok());
//! ```

use crate::source::FrameSource;
use metaseg_data::{Frame, FrameId, LabelMap, ProbMap, SemanticClass};
use metaseg_imgproc::resize_nearest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Per-frame fog strength `s`, drawn uniformly from this range.
const FOG_STRENGTH: std::ops::Range<f64> = 0.45..0.8;

/// An occluder appears every `OCCLUSION_PERIOD` frames…
const OCCLUSION_PERIOD: usize = 6;

/// …and stays for `OCCLUSION_BURST` consecutive frames.
const OCCLUSION_BURST: usize = 3;

/// Dropout loses `1..=DROPOUT_MAX_STRIPES` stripes per frame…
const DROPOUT_MAX_STRIPES: usize = 3;

/// …each `1..=DROPOUT_MAX_ROWS` rows thick.
const DROPOUT_MAX_ROWS: usize = 4;

/// Factor on the person and rider channels before renormalising.
const CLASS_IMBALANCE_FACTOR: f64 = 0.15;

/// Jitter drops a frame with this probability…
const JITTER_DROP_P: f64 = 0.2;

/// …and duplicates a surviving frame with this probability.
const JITTER_DUP_P: f64 = 0.25;

/// The resolution switch moves to the next scale every `RESOLUTION_PERIOD`
/// frames…
const RESOLUTION_PERIOD: usize = 4;

/// …cycling through these `(numerator, denominator)` scale factors.
const RESOLUTION_SCALES: [(usize, usize); 3] = [(1, 1), (2, 3), (1, 2)];

/// One composable stream degradation: a [`RegimeKind`] at its default
/// severity, with its own seeded state. Build one with
/// [`RegimeKind::build`].
///
/// A regime consumes frames one at a time and emits zero or more degraded
/// frames per input (zero models a dropped frame, two a duplicated one). Its
/// RNG is seeded at build, so a regime is a deterministic function of
/// `(seed, input stream)`.
#[derive(Debug)]
pub struct Regime {
    kind: RegimeKind,
    /// Fog, occlusion, dropout and jitter draw from it; the other kinds
    /// never do.
    rng: StdRng,
    /// Frames seen so far (occlusion bursts and resolution switches count).
    seen: usize,
    /// Occluded frames left in the current burst.
    occluded_left: usize,
    /// Fractional `(x0, y0, w, h)` of the active occluder, so it tracks
    /// resolution switches.
    occluder: (f64, f64, f64, f64),
}

impl Regime {
    /// Degrades one frame, appending the result(s) to `out`.
    fn apply(&mut self, mut frame: Frame, out: &mut Vec<Frame>) {
        match self.kind {
            RegimeKind::Benign => {}
            RegimeKind::Fog => {
                let strength = self.rng.gen_range(FOG_STRENGTH);
                let uniform = strength / frame.prediction.num_classes() as f64;
                rewrite_distributions(&mut frame.prediction, |dist| {
                    for p in dist.iter_mut() {
                        *p = (1.0 - strength) * *p + uniform;
                    }
                });
            }
            RegimeKind::Occlusion => self.occlude(&mut frame.prediction),
            RegimeKind::Dropout => self.drop_stripes(&mut frame.prediction),
            RegimeKind::ClassImbalance => {
                let rare = [
                    SemanticClass::Human.id() as usize,
                    SemanticClass::Rider.id() as usize,
                ];
                rewrite_distributions(&mut frame.prediction, |dist| {
                    for &c in &rare {
                        if c < dist.len() {
                            dist[c] *= CLASS_IMBALANCE_FACTOR;
                        }
                    }
                    let sum: f64 = dist.iter().sum();
                    if sum > 0.0 {
                        for p in dist.iter_mut() {
                            *p /= sum;
                        }
                    }
                });
            }
            RegimeKind::Jitter => {
                if self.rng.gen_bool(JITTER_DROP_P) {
                    return;
                }
                if self.rng.gen_bool(JITTER_DUP_P) {
                    out.push(frame.clone());
                }
            }
            RegimeKind::ResolutionSwitch => {
                let scale =
                    RESOLUTION_SCALES[(self.seen / RESOLUTION_PERIOD) % RESOLUTION_SCALES.len()];
                self.seen += 1;
                if scale != (1, 1) {
                    frame = rescale(frame, scale);
                }
            }
        }
        out.push(frame);
    }

    /// Starts a burst every [`OCCLUSION_PERIOD`] frames and paints the
    /// occluder into the frames of a running burst.
    fn occlude(&mut self, prediction: &mut ProbMap) {
        if self.seen.is_multiple_of(OCCLUSION_PERIOD) {
            // Start of a burst: draw a fresh occluder covering roughly a
            // fifth to a half of each image axis.
            self.occluded_left = OCCLUSION_BURST;
            let w = self.rng.gen_range(0.2..0.5);
            let h = self.rng.gen_range(0.2..0.5);
            let x0 = self.rng.gen_range(0.0..1.0 - w);
            let y0 = self.rng.gen_range(0.0..1.0 - h);
            self.occluder = (x0, y0, w, h);
        }
        self.seen += 1;
        if self.occluded_left == 0 {
            return;
        }
        self.occluded_left -= 1;
        let (width, height) = prediction.shape();
        let channels = prediction.num_classes();
        let occluder = SemanticClass::Building.id() as usize;
        // The network is *confidently wrong* about the occluder: 0.92 on
        // one class, the rest spread uniformly.
        let rest = 0.08 / (channels.saturating_sub(1)).max(1) as f64;
        let mut dist = vec![rest; channels];
        if occluder < channels {
            dist[occluder] = 0.92;
        }
        let (fx, fy, fw, fh) = self.occluder;
        let x0 = (fx * width as f64) as usize;
        let y0 = (fy * height as f64) as usize;
        let x1 = (((fx + fw) * width as f64) as usize).min(width);
        let y1 = (((fy + fh) * height as f64) as usize).min(height);
        for y in y0..y1 {
            for x in x0..x1 {
                prediction.set_distribution_unchecked(x, y, &dist);
            }
        }
    }

    /// Kills a seeded set of horizontal stripes, each all-NaN or all-zero
    /// across every channel (a seeded coin per stripe).
    fn drop_stripes(&mut self, prediction: &mut ProbMap) {
        let (width, height) = prediction.shape();
        let channels = prediction.num_classes();
        let stripes = self.rng.gen_range(1..=DROPOUT_MAX_STRIPES);
        for _ in 0..stripes {
            let thickness = self.rng.gen_range(1..=DROPOUT_MAX_ROWS).min(height);
            let y0 = self
                .rng
                .gen_range(0..height.saturating_sub(thickness).max(1));
            let value = if self.rng.gen_bool(0.5) {
                f64::NAN
            } else {
                0.0
            };
            let dead = vec![value; channels];
            for y in y0..(y0 + thickness).min(height) {
                for x in 0..width {
                    prediction.set_distribution_unchecked(x, y, &dead);
                }
            }
        }
    }
}

/// Rewrites every pixel's distribution through `f`, staging one channel
/// vector at a time (the `ProbMap` API has no mutable value view).
fn rewrite_distributions(probs: &mut ProbMap, mut f: impl FnMut(&mut [f64])) {
    let (width, height) = probs.shape();
    let channels = probs.num_classes();
    let mut dist = vec![0.0f64; channels];
    for y in 0..height {
        for x in 0..width {
            dist.copy_from_slice(probs.distribution(x, y));
            f(&mut dist);
            probs.set_distribution_unchecked(x, y, &dist);
        }
    }
}

/// Nearest-resizes a frame's softmax field *and* its ground truth by
/// `scale = (numerator, denominator)`, at least one pixel per axis.
fn rescale(frame: Frame, scale: (usize, usize)) -> Frame {
    let scaled = |extent: usize| (extent * scale.0 / scale.1).max(1);
    let (width, height) = frame.prediction.shape();
    let (new_w, new_h) = (scaled(width), scaled(height));
    let prediction = resize_probmap_nearest(&frame.prediction, new_w, new_h);
    match frame.ground_truth {
        Some(gt) => {
            let ids = resize_nearest(gt.ids(), new_w, new_h);
            let gt = LabelMap::from_ids(ids).expect("resized ids stay valid class ids");
            Frame::labeled(frame.id, gt, prediction)
                .expect("prediction and ground truth are resized to the same shape")
        }
        None => Frame::unlabeled(frame.id, prediction),
    }
}

/// Nearest-resizes a softmax field with the same source-pixel mapping as
/// [`resize_nearest`], copying whole channel vectors (no label or
/// probability mixing).
fn resize_probmap_nearest(probs: &ProbMap, new_width: usize, new_height: usize) -> ProbMap {
    let (w, h) = probs.shape();
    let mut resized = ProbMap::uniform(new_width, new_height, probs.num_classes());
    for y in 0..new_height {
        let sy = ((y as f64 + 0.5) * h as f64 / new_height as f64 - 0.5).round();
        let sy = sy.clamp(0.0, (h - 1) as f64) as usize;
        for x in 0..new_width {
            let sx = ((x as f64 + 0.5) * w as f64 / new_width as f64 - 0.5).round();
            let sx = sx.clamp(0.0, (w - 1) as f64) as usize;
            resized.set_distribution_unchecked(x, y, probs.distribution(sx, sy));
        }
    }
    resized
}

/// The named regimes of the scenario suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegimeKind {
    /// The no-op regime: frames pass through untouched. The identity element
    /// of regime composition, and the sweep's baseline row — its numbers must
    /// match the benign-pipeline numbers exactly.
    Benign,
    /// Fog / low contrast: flattens every softmax towards the uniform
    /// distribution, `p' = (1 - s) p + s / n`, with a per-frame strength `s`
    /// drawn uniformly from `[0.45, 0.8)`. Ground truth is untouched — fog
    /// degrades the sensor, not the world.
    Fog,
    /// Occlusion bursts: every 6 frames an opaque occluder appears for 3
    /// consecutive frames, overwriting a seeded rectangle of the softmax
    /// field with a confident wrong prediction (the network "sees" the
    /// occluder, the ground truth still shows the world behind it).
    Occlusion,
    /// Sensor dropout: each frame loses 1–3 seeded horizontal stripes of 1–4
    /// rows whose pixels read as all-NaN or all-zero across every channel,
    /// NaN or zero chosen per stripe, so one stream covers both wire
    /// behaviours: NaN is the hard case the extraction kernel must degrade
    /// gracefully on (see `DistributionScan`'s dropout sanitiser), zero the
    /// "defined" degenerate distribution. Ground truth is untouched, so
    /// dropout regions become guaranteed prediction errors.
    Dropout,
    /// Class-imbalanced catalog: multiplies the rare classes of interest
    /// (person, rider) in the softmax by 0.15 and renormalises — the network
    /// systematically under-reports exactly the classes the paper's
    /// false-negative analysis cares about. Draws nothing from the RNG.
    ClassImbalance,
    /// Frame jitter: drops frames (probability 0.2) and duplicates surviving
    /// ones (probability 0.25) at the source, the way a congested camera
    /// link does.
    Jitter,
    /// Mid-stream resolution switches: every 4 frames the stream flips to
    /// the next scale of `1/1 → 2/3 → 1/2`, nearest-resizing the softmax
    /// field *and* the ground truth — the shape-switch stress case for
    /// scratch reuse, wire framing and micro-batching. Draws nothing from
    /// the RNG.
    ResolutionSwitch,
}

impl RegimeKind {
    /// Every regime, in sweep order (benign first — the baseline row).
    pub fn all() -> &'static [RegimeKind] {
        &[
            RegimeKind::Benign,
            RegimeKind::Fog,
            RegimeKind::Occlusion,
            RegimeKind::Dropout,
            RegimeKind::ClassImbalance,
            RegimeKind::Jitter,
            RegimeKind::ResolutionSwitch,
        ]
    }

    /// The stable regime name, used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            RegimeKind::Benign => "benign",
            RegimeKind::Fog => "fog",
            RegimeKind::Occlusion => "occlusion",
            RegimeKind::Dropout => "dropout",
            RegimeKind::ClassImbalance => "class-imbalance",
            RegimeKind::Jitter => "jitter",
            RegimeKind::ResolutionSwitch => "resolution-switch",
        }
    }

    /// Parses a regime name (the inverse of [`RegimeKind::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        RegimeKind::all().iter().copied().find(|k| k.name() == name)
    }

    /// Builds the regime with its default severity, seeded deterministically
    /// from `seed` (each kind salts the seed differently, so a suite built
    /// from one seed gives every regime an independent stream).
    pub fn build(self, seed: u64) -> Regime {
        let salted = seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(self as u64 + 1);
        Regime {
            kind: self,
            rng: StdRng::seed_from_u64(salted),
            seen: 0,
            occluded_left: 0,
            occluder: (0.0, 0.0, 0.0, 0.0),
        }
    }
}

/// The standard set of adverse-condition regimes, with one seed governing
/// every regime's determinism.
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    seed: u64,
    regimes: Vec<RegimeKind>,
}

impl ScenarioSuite {
    /// The full suite: every [`RegimeKind`], benign first.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            regimes: RegimeKind::all().to_vec(),
        }
    }

    /// The bounded smoke suite CI runs: fog and dropout only — the two
    /// regimes that exercise the softmax-flattening and NaN-hardening paths.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            regimes: vec![RegimeKind::Fog, RegimeKind::Dropout],
        }
    }

    /// A suite over an explicit regime list.
    pub fn with_regimes(seed: u64, regimes: Vec<RegimeKind>) -> Self {
        Self { seed, regimes }
    }

    /// The regimes this suite sweeps, in order.
    pub fn regimes(&self) -> &[RegimeKind] {
        &self.regimes
    }

    /// Layers `kind` (at suite-seeded determinism) over a frame source.
    pub fn degrade<S: FrameSource>(&self, kind: RegimeKind, source: S) -> RegimeSource<S> {
        RegimeSource::new(kind.build(self.seed), source)
    }
}

/// A [`FrameSource`] that pulls from an inner source and pushes every frame
/// through a [`Regime`], re-stamping frame indices so the degraded stream
/// keeps monotone ids even when the regime drops or duplicates frames.
pub struct RegimeSource<S> {
    inner: S,
    regime: Regime,
    pending: VecDeque<Frame>,
    staging: Vec<Frame>,
    emitted: usize,
}

impl<S: FrameSource> RegimeSource<S> {
    /// Layers `regime` over `inner`.
    pub fn new(regime: Regime, inner: S) -> Self {
        Self {
            inner,
            regime,
            pending: VecDeque::new(),
            staging: Vec::new(),
            emitted: 0,
        }
    }
}

impl<S> std::fmt::Debug for RegimeSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegimeSource")
            .field("regime", &self.regime.kind.name())
            .field("pending", &self.pending.len())
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl<S: FrameSource> FrameSource for RegimeSource<S> {
    fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if let Some(mut frame) = self.pending.pop_front() {
                frame.id = FrameId::new(frame.id.sequence, self.emitted);
                self.emitted += 1;
                return Some(frame);
            }
            let frame = self.inner.next_frame()?;
            self.regime.apply(frame, &mut self.staging);
            self.pending.extend(self.staging.drain(..));
        }
    }

    fn frames_hint(&self) -> (usize, Option<usize>) {
        // Jitter-style regimes make the exact count unknowable; only the
        // already-degraded backlog is a certain lower bound.
        (self.pending.len(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkProfile, NetworkSim};
    use crate::source::VideoStream;
    use crate::video::VideoConfig;

    fn clip(seed: u64) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(NetworkProfile::weak());
        VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng).collect()
    }

    fn drain<S: FrameSource>(mut source: S) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some(frame) = source.next_frame() {
            frames.push(frame);
        }
        frames
    }

    /// A bit-preserving comparison key: dropout frames carry NaN, for which
    /// `Frame`'s `PartialEq` is (correctly) never true, so determinism is
    /// asserted on the lossless wire encoding instead.
    fn bitwise_key(
        frames: &[Frame],
    ) -> Vec<(FrameId, Option<LabelMap>, metaseg_data::ProbPayload)> {
        use metaseg_data::{ProbEncoding, ProbPayload};
        frames
            .iter()
            .map(|f| {
                (
                    f.id,
                    f.ground_truth.clone(),
                    ProbPayload::encode(&f.prediction, ProbEncoding::F64),
                )
            })
            .collect()
    }

    #[test]
    fn regime_names_roundtrip() {
        for &kind in RegimeKind::all() {
            assert_eq!(RegimeKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(RegimeKind::from_name("sunny"), None);
    }

    #[test]
    fn benign_regime_is_the_identity() {
        let frames = clip(21);
        let suite = ScenarioSuite::standard(5);
        let degraded = drain(suite.degrade(RegimeKind::Benign, frames.clone().into_iter()));
        assert_eq!(degraded, frames);
    }

    #[test]
    fn every_regime_is_deterministic_given_the_seed() {
        let frames = clip(22);
        for &kind in RegimeKind::all() {
            let suite = ScenarioSuite::standard(77);
            let a = drain(suite.degrade(kind, frames.clone().into_iter()));
            let b = drain(suite.degrade(kind, frames.clone().into_iter()));
            assert_eq!(
                bitwise_key(&a),
                bitwise_key(&b),
                "{} must be deterministic",
                kind.name()
            );
            // A different suite seed steers the stochastic regimes.
            if !matches!(
                kind,
                RegimeKind::Benign | RegimeKind::ClassImbalance | RegimeKind::ResolutionSwitch
            ) {
                let other = ScenarioSuite::standard(78);
                let c = drain(other.degrade(kind, frames.clone().into_iter()));
                assert_ne!(
                    bitwise_key(&a),
                    bitwise_key(&c),
                    "{} must respond to the seed",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn degraded_ids_stay_monotone_and_sequential() {
        let frames = clip(23);
        let suite = ScenarioSuite::standard(9);
        for &kind in RegimeKind::all() {
            let degraded = drain(suite.degrade(kind, frames.clone().into_iter()));
            for (i, frame) in degraded.iter().enumerate() {
                assert_eq!(frame.id.index, i, "{}", kind.name());
                assert_eq!(frame.id.sequence, 0);
            }
        }
    }

    #[test]
    fn fog_flattens_but_preserves_valid_distributions() {
        let frames = clip(24);
        let suite = ScenarioSuite::standard(3);
        let degraded = drain(suite.degrade(RegimeKind::Fog, frames.clone().into_iter()));
        assert_eq!(degraded.len(), frames.len());
        for (foggy, clear) in degraded.iter().zip(&frames) {
            foggy
                .prediction
                .validate()
                .expect("fog keeps distributions valid");
            // Flattening towards uniform never increases the top-1 mass.
            let (w, h) = clear.prediction.shape();
            for (x, y) in [(0, 0), (w / 2, h / 2), (w - 1, h - 1)] {
                let before = clear.prediction.top2(x, y).0;
                let after = foggy.prediction.top2(x, y).0;
                assert!(after <= before + 1e-12);
            }
        }
    }

    #[test]
    fn dropout_produces_non_finite_or_zero_stripes() {
        let frames = clip(25);
        let suite = ScenarioSuite::standard(4);
        let degraded = drain(suite.degrade(RegimeKind::Dropout, frames.clone().into_iter()));
        let mut dead_pixels = 0usize;
        for frame in &degraded {
            for dist in frame.prediction.distributions() {
                if dist.iter().all(|p| p.is_nan()) || dist.iter().all(|&p| p == 0.0) {
                    dead_pixels += 1;
                }
            }
        }
        assert!(dead_pixels > 0, "dropout must kill at least one pixel");
    }

    #[test]
    fn class_imbalance_suppresses_the_rare_channels() {
        let frames = clip(26);
        let suite = ScenarioSuite::standard(6);
        let degraded = drain(suite.degrade(RegimeKind::ClassImbalance, frames.clone().into_iter()));
        let mass = |frames: &[Frame]| -> f64 {
            frames
                .iter()
                .flat_map(|f| f.prediction.distributions())
                .map(|d| {
                    d[SemanticClass::Human.id() as usize] + d[SemanticClass::Rider.id() as usize]
                })
                .sum()
        };
        assert!(mass(&degraded) < mass(&frames) * 0.5);
        for frame in &degraded {
            frame
                .prediction
                .validate()
                .expect("renormalisation keeps distributions valid");
        }
    }

    #[test]
    fn jitter_changes_the_frame_count() {
        let frames = clip(27);
        let suite = ScenarioSuite::standard(8);
        let degraded = drain(suite.degrade(RegimeKind::Jitter, frames.clone().into_iter()));
        // With drop_p = 0.2 and dup_p = 0.25 over 12 frames the count moving
        // is overwhelmingly likely; the seed is fixed, so this is a stable
        // assertion, not a flaky one.
        assert_ne!(degraded.len(), frames.len());
    }

    #[test]
    fn resolution_switch_changes_shapes_mid_stream_consistently() {
        let frames = clip(28);
        let suite = ScenarioSuite::standard(2);
        let degraded =
            drain(suite.degrade(RegimeKind::ResolutionSwitch, frames.clone().into_iter()));
        let shapes: std::collections::HashSet<(usize, usize)> =
            degraded.iter().map(|f| f.prediction.shape()).collect();
        assert!(
            shapes.len() > 1,
            "the stream must actually switch resolution"
        );
        for frame in &degraded {
            if let Some(gt) = &frame.ground_truth {
                assert_eq!(gt.shape(), frame.prediction.shape());
            }
        }
    }

    #[test]
    fn occlusion_bursts_rewrite_a_rectangle() {
        let frames = clip(29);
        let suite = ScenarioSuite::standard(1);
        let degraded = drain(suite.degrade(RegimeKind::Occlusion, frames.clone().into_iter()));
        let occluded_pixels: usize = degraded
            .iter()
            .flat_map(|f| f.prediction.distributions())
            .filter(|d| d[SemanticClass::Building.id() as usize] > 0.9)
            .count();
        assert!(occluded_pixels > 0, "bursts must occlude pixels");
    }

    #[test]
    fn regimes_compose_by_nesting() {
        let frames = clip(30);
        let suite = ScenarioSuite::standard(11);
        let fog = suite.degrade(RegimeKind::Fog, frames.into_iter());
        let composed = drain(suite.degrade(RegimeKind::Dropout, fog));
        assert!(!composed.is_empty());
        // Deterministic end to end: rebuilding the nested chain reproduces it.
        let frames = clip(30);
        let fog = suite.degrade(RegimeKind::Fog, frames.into_iter());
        assert_eq!(
            bitwise_key(&drain(suite.degrade(RegimeKind::Dropout, fog))),
            bitwise_key(&composed)
        );
    }
}
