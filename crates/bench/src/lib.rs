//! # metaseg-bench
//!
//! Benchmark harness of the MetaSeg reproduction.
//!
//! * `src/bin/` contains one binary per paper artefact (`table1`, `figure1`,
//!   `figure2`, `table2`, `figure3`, `figure4`, `figure5`) that regenerates
//!   the corresponding table or figure and writes any image panels to
//!   `figures/`, plus the binaries behind the `BENCH_*.json` artifacts
//!   (`extraction_profile`, `scenario_sweep`, `serve_loadtest`) and
//!   `corpus_record`, which records the frame corpora they replay,
//! * [`serve_fixture`] holds the shared fit-a-small-model fixture and the
//!   simulated camera used by the serving demo, `corpus_record`,
//!   `serve_loadtest` and the serve integration tests,
//! * [`corpus`] loads a recorded frame corpus for replay,
//! * [`report`] is the on-disk shape of every `serve_loadtest` artifact
//!   and its one gate; the test-only `chaos` and `scale` modules (and
//!   [`corpus`]'s tests) hold that gate to the shapes of
//!   `BENCH_chaos.json`, `BENCH_serve_scale.json` and `BENCH_corpus.json`,
//! * [`scenario`] is the regime sweep behind `BENCH_scenarios.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

#[cfg(test)]
mod chaos;
pub mod corpus;
pub mod report;
#[cfg(test)]
mod scale;
pub mod scenario;

pub mod serve_fixture {
    //! Shared fixture for the serving surfaces (`serve_loadtest`,
    //! `corpus_record`, `examples/serve_demo.rs`, `tests/serve.rs`): one
    //! place that fits the small meta predictor and renders the simulated
    //! camera, so the demo, the recorder, the loadtest and the
    //! differential tests cannot drift apart.

    use metaseg::stream::StreamConfig;
    use metaseg::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
    use metaseg_learners::{MetaPredictor, TabularDataset};
    use metaseg_sim::{
        FrameSource, NetworkProfile, NetworkSim, RegimeKind, RegimeSource, SceneConfig,
        VideoConfig, VideoScenario, VideoStream,
    };
    use rand::{rngs::StdRng, SeedableRng};
    use std::time::Duration;

    /// Seed base of [`camera`] when none is chosen: `corpus_record`'s
    /// default `--seed`, and the seed of every live `serve_loadtest`
    /// camera.
    pub const CAMERA_SEED: u64 = 7200;

    /// A scaled-down video configuration (`width` x `height` pixels) so the
    /// per-frame wire payloads stay small.
    pub fn video_config(frames: usize, width: usize, height: usize) -> VideoConfig {
        VideoConfig {
            sequence_count: 1,
            frames_per_sequence: frames,
            scene: SceneConfig {
                width,
                height,
                ..SceneConfig::small()
            },
            ..VideoConfig::small()
        }
    }

    /// Camera `index` seeded from `seed`: the endless weak-network video
    /// simulation at `width` x `height` (rendered from `seed + index`),
    /// degraded through `regime` when one is given (seeded from
    /// `seed + 1000 + index`). Endless, like a live camera, so a
    /// frame-dropping regime never runs it dry. `corpus_record` records
    /// this camera and `serve_loadtest` drives it live: with the same seed
    /// they submit the same frames.
    pub fn camera(
        seed: u64,
        index: usize,
        width: usize,
        height: usize,
        regime: Option<RegimeKind>,
    ) -> Box<dyn FrameSource> {
        let mut rng = StdRng::seed_from_u64(seed + index as u64);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let stream =
            VideoStream::open_endless(&video_config(1, width, height), sim, index, &mut rng);
        match regime {
            Some(kind) => Box::new(RegimeSource::new(
                kind.build(seed + 1000 + index as u64),
                stream,
            )),
            None => Box::new(stream),
        }
    }

    /// Fits the gradient-boosting meta predictor on time series of
    /// `series_length` frames of a simulated weak-network video corpus,
    /// returning it with the default stream configuration it serves under.
    pub fn fit_predictor(
        config: &VideoConfig,
        series_length: usize,
        seed: u64,
    ) -> (StreamConfig, MetaPredictor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let scenario = VideoScenario::generate(config, &sim, &mut rng);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let mut train = TabularDataset::new();
        for sequence in &scenario.dataset().sequences {
            let analysis = pipeline.analyze_sequence(sequence);
            train.extend_from(&pipeline.time_series_dataset(&analysis, series_length));
        }
        let predictor = pipeline
            .fit_predictor(MetaModel::GradientBoosting, &train, 0)
            .expect("the fixture scenario is fittable");
        (StreamConfig::default(), predictor)
    }

    /// Lower empirical percentile of a sorted latency sample, in
    /// milliseconds; `0` for an empty sample.
    pub fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[idx - 1].as_secs_f64() * 1e3
    }
}

/// Directory the figure binaries write their PPM panels to.
pub fn figures_dir() -> PathBuf {
    let dir = Path::new("figures");
    if !dir.exists() {
        // A best-effort create; the caller reports the error if writing fails.
        let _ = std::fs::create_dir_all(dir);
    }
    dir.to_path_buf()
}

/// Returns the scale factor for experiment sizes taken from the
/// `METASEG_SCALE` environment variable (default `1.0`). Values below 1
/// shrink the experiments for quick smoke runs, values above 1 enlarge them.
pub fn scale() -> f64 {
    std::env::var("METASEG_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Scales a count by [`scale()`], keeping at least `minimum`.
pub fn scaled(base: usize, minimum: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(minimum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(10, 2) >= 2);
        assert_eq!(scaled(0, 3), 3);
    }

    #[test]
    fn figures_dir_is_creatable() {
        let dir = figures_dir();
        assert_eq!(dir.file_name().unwrap(), "figures");
    }
}
