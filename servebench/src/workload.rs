//! The workloads and the seed-derived inputs of one run.
//!
//! Every input — the training split the meta model is fitted on and the pool
//! of frames the cameras replay — is rendered by the simulator from the
//! workload seed, so the program under test only ever sees generated data.

use crate::trace::Tracer;
use metaseg::stream::StreamConfig;
use metaseg::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
use metaseg::DispersionPrecision;
use metaseg_data::{Frame, ProbEncoding, ProbMap, ProbPayload};
use metaseg_learners::TabularDataset;
use metaseg_serve::{FrameFormat, ModelRegistry};
use metaseg_sim::{NetworkProfile, NetworkSim, SceneConfig, VideoConfig, VideoScenario};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Time-series depth of the served meta model (current frame plus two).
pub const SERIES_LENGTH: usize = 3;

/// Registry name the sessions open.
pub const MODEL: &str = "default";

/// One traffic mix.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Geometry and object counts of the rendered scenes.
    pub scene: SceneConfig,
    pub sessions: usize,
    /// Client connections; the sessions are split over them in blocks.
    pub connections: usize,
    /// Frames each connection keeps in flight.
    pub in_flight: usize,
    pub format: FrameFormat,
    pub dispersion: DispersionPrecision,
    /// Distinct clips in the frame pool, and frames per clip.
    pub clips: usize,
    pub clip_frames: usize,
    /// Clips concatenated into one session's loop.
    pub clips_per_session: usize,
    /// Training split: sequences and frames per sequence.
    pub train_sequences: usize,
    pub train_frames: usize,
    /// Every `label_stride`-th frame of a clip keeps its ground truth.
    pub label_stride: usize,
}

fn small_scene(width: usize, height: usize) -> SceneConfig {
    SceneConfig {
        width,
        height,
        ..SceneConfig::small()
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "fleet",
            why: "256 small u16 cameras, 8 frames in flight per connection: \
                  event loop, shard queues and micro-batching do the work, \
                  the engine little",
            scene: small_scene(48, 24),
            sessions: 256,
            connections: 2,
            in_flight: 8,
            format: FrameFormat::Binary(ProbEncoding::U16),
            dispersion: DispersionPrecision::F32,
            clips: 64,
            clip_frames: 6,
            clips_per_session: 1,
            train_sequences: 8,
            train_frames: 12,
            label_stride: 3,
        },
        Spec {
            name: "hires",
            why: "2 cameras of 192x96 f64 frames, one in flight: extraction, \
                  tracking, the payload checksum and the ~250-verdict codec \
                  do the work",
            scene: SceneConfig::cityscapes_like(),
            sessions: 2,
            connections: 2,
            in_flight: 1,
            format: FrameFormat::Binary(ProbEncoding::F64),
            dispersion: DispersionPrecision::F64,
            clips: 6,
            clip_frames: 6,
            clips_per_session: 3,
            train_sequences: 2,
            train_frames: 6,
            label_stride: 3,
        },
        Spec {
            name: "json",
            why: "8 small cameras on the default JSON-lines wire over one \
                  connection: line framing and float parsing on the event \
                  loop do the work",
            scene: small_scene(48, 24),
            sessions: 8,
            connections: 1,
            // Four, not one: the event loop is the bottleneck. With fewer
            // frames queued it idles while the client and a shard run, so
            // host scheduling stalls decide the result. With one in flight
            // p90 spread 36% over ten seeds; over eleven alternating 20 s
            // runs, two in flight spread frames/s and p50 by 0.20 and 0.28
            // of their medians, four by 0.10.
            in_flight: 4,
            format: FrameFormat::Json,
            dispersion: DispersionPrecision::F64,
            clips: 16,
            clip_frames: 6,
            clips_per_session: 2,
            train_sequences: 8,
            train_frames: 12,
            label_stride: 3,
        },
    ]
}

impl Spec {
    /// The pool frames session `index` loops over, as `(clip, frame)` pairs.
    pub fn session_frames(&self, index: usize) -> Vec<(usize, usize)> {
        (0..self.clips_per_session)
            .map(|j| (index * self.clips_per_session + j) % self.clips)
            .flat_map(|clip| (0..self.clip_frames).map(move |frame| (clip, frame)))
            .collect()
    }

    /// Global session indices served over connection `conn`.
    pub fn connection_sessions(&self, conn: usize) -> std::ops::Range<usize> {
        let per = self.sessions.div_ceil(self.connections);
        (conn * per).min(self.sessions)..((conn + 1) * per).min(self.sessions)
    }

    fn video(&self, sequences: usize, frames: usize) -> VideoConfig {
        VideoConfig {
            sequence_count: sequences,
            frames_per_sequence: frames,
            label_stride: self.label_stride,
            scene: self.scene.clone(),
        }
    }
}

/// The softmax field exactly as the server receives it: quantized wire
/// encodings are lossy, so their frames are compared after the round trip.
pub fn served_probs(probs: &ProbMap, format: FrameFormat) -> ProbMap {
    match format {
        FrameFormat::Binary(encoding) if !encoding.is_lossless() => {
            ProbPayload::encode(probs, encoding)
                .decode()
                .expect("a freshly encoded payload decodes")
        }
        _ => probs.clone(),
    }
}

/// Seed-derived inputs plus the registry holding the fitted model.
pub struct Inputs {
    pub pool: VideoScenario,
    pub registry: Arc<ModelRegistry>,
}

impl Inputs {
    pub fn frame(&self, (clip, frame): (usize, usize)) -> &Frame {
        &self.pool.dataset().sequences[clip].frames[frame]
    }
}

/// Renders the training split and the frame pool, fits the time-dynamic meta
/// model and round-trips it through a checkpoint into a fresh registry.
pub fn prepare(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Inputs {
    let sim = NetworkSim::new(NetworkProfile::weak());
    let span = tracer.start();
    let mut rng = StdRng::seed_from_u64(seed);
    let train = VideoScenario::generate(
        &spec.video(spec.train_sequences, spec.train_frames),
        &sim,
        &mut rng,
    );
    let pool = VideoScenario::generate(&spec.video(spec.clips, spec.clip_frames), &sim, &mut rng);
    tracer.end("sim.render", span);

    let span = tracer.start();
    let pipeline = TimeDynamic::new(TimeDynConfig::default());
    let mut dataset = TabularDataset::new();
    for sequence in &train.dataset().sequences {
        let analysis = pipeline.analyze_sequence(sequence);
        dataset.extend_from(&pipeline.time_series_dataset(&analysis, SERIES_LENGTH));
    }
    tracer.end("timedyn.dataset", span);

    let span = tracer.start();
    let predictor = pipeline
        .fit_predictor(MetaModel::GradientBoosting, &dataset, seed)
        .expect("the rendered training split is fittable");
    tracer.end("learners.fit", span);

    let span = tracer.start();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_checkpoint(
            MODEL,
            StreamConfig::default(),
            &predictor.to_container_bytes(),
        )
        .expect("a freshly written checkpoint loads");
    tracer.end("registry.load", span);
    Inputs { pool, registry }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_the_benchmark_declaration() {
        let declared = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits next to the benchmark directory");
        for spec in specs() {
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, spec.name, spec.why);
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(spec.connections <= 2, "at most two client connections");
        }
    }

    #[test]
    fn sessions_split_over_connections_in_blocks() {
        for spec in specs() {
            let mut all: Vec<usize> = (0..spec.connections)
                .flat_map(|c| spec.connection_sessions(c))
                .collect();
            all.dedup();
            assert_eq!(all, (0..spec.sessions).collect::<Vec<_>>(), "{}", spec.name);
            let frames = spec.session_frames(spec.sessions - 1);
            assert_eq!(frames.len(), spec.clips_per_session * spec.clip_frames);
        }
    }
}
