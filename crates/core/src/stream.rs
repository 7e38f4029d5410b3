//! Online, bounded-memory time-dynamic MetaSeg — the streaming engine.
//!
//! The batch pipeline ([`crate::timedyn`]) materialises a whole clip, tracks
//! it, and assembles per-segment metric time series afterwards. That is the
//! right shape for reproducing the paper's tables, but useless for live
//! traffic: memory grows with clip length and no verdict exists until the
//! clip ends. This module restructures the same computation as a **push**
//! pipeline over one frame at a time:
//!
//! 1. [`MetaSegStream::push_frame`] runs the single-pass metric extraction of
//!    [`crate::pipeline`] on the incoming frame (no ground truth required),
//! 2. the frame's predicted label map goes through the *incremental* tracker
//!    ([`metaseg_tracking::IncrementalTracker`]), which keeps only tracks
//!    observable within the matching horizon,
//! 3. each tracked segment's metric vector is appended to its ring-buffer
//!    window in [`TrackWindows`] — at most the last `k` observations per
//!    track, `k` being the fitted time-series depth,
//! 4. the windowed time series is assembled (current frame first, missing
//!    history padded with the oldest available observation — exactly the
//!    convention of [`crate::timedyn::TimeDynamic::time_series_dataset`]) and
//!    fed through a pre-fitted [`MetaPredictor`], yielding an online
//!    [`SegmentVerdict`] per segment *in the same frame*.
//!
//! Nothing retains whole-clip state: tracker, windows and engine memory are
//! all proportional to the number of segments seen in the last few frames.
//! The batch path shares the exact window-assembly code (`TrackWindows`), so
//! streaming verdicts are bit-identical to scoring the batch dataset rows —
//! the differential test in `tests/streaming.rs` pins this.
//!
//! One engine serves one camera. Multi-camera serving runs one engine per
//! session on the `metaseg-serve` shard workers.

use crate::error::MetaSegError;
use crate::metrics::{MetricsConfig, SegmentRecord, METRIC_COUNT};
use crate::pipeline::{
    extract_frame, extract_frame_payload, DispersionPrecision, ExtractionScratch,
};
use crate::timedyn::TimeDynConfig;
use metaseg_data::{DataError, Frame, ProbPayload, SemanticClass};
use metaseg_learners::MetaPredictor;
use metaseg_sim::FrameSource;
use metaseg_tracking::{IncrementalTracker, TrackerConfig};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Configuration of the streaming engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Maximum time-series depth the engine supports (the ring buffers hold
    /// at most this many observations per track). Predictors fitted on any
    /// length `1..=window` can be served.
    pub window: usize,
    /// Metric-construction configuration (must match training).
    pub metrics: MetricsConfig,
    /// Tracker configuration (must match training).
    pub tracker: TrackerConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        TimeDynConfig::default().into()
    }
}

impl From<TimeDynConfig> for StreamConfig {
    /// The streaming window matching a batch configuration: time series of
    /// up to `max_history + 1` frames.
    fn from(config: TimeDynConfig) -> Self {
        Self {
            window: config.max_history + 1,
            metrics: config.metrics,
            tracker: config.tracker,
        }
    }
}

/// Bounded per-track metric history: a ring buffer of the most recent metric
/// vectors of every live track, plus the time-series assembly shared by the
/// batch and streaming paths.
///
/// Observations are keyed by absolute frame index because the paper's
/// padding convention cares about *which frame* an observation belongs to: a
/// track absent in frame `t - 1` but present in `t - 2` contributes
/// `[m_t, m_t, m_{t-2}]` to a length-3 series, not `[m_t, m_{t-2}, …]`.
#[derive(Debug, Clone, Default)]
pub struct TrackWindows {
    length: usize,
    windows: HashMap<usize, VecDeque<(usize, Vec<f64>)>>,
    entries: usize,
    peak_entries: usize,
    peak_tracks: usize,
    metric_dim: usize,
}

impl TrackWindows {
    /// Creates a window store for time series of `length` frames.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn new(length: usize) -> Self {
        assert!(length >= 1, "time-series length must be at least 1");
        Self {
            length,
            ..Self::default()
        }
    }

    /// The time-series depth the store was created for.
    pub fn series_length(&self) -> usize {
        self.length
    }

    /// Records the metric vector of `track_id` at `frame`. Each ring buffer
    /// holds at most [`TrackWindows::series_length`] observations; older ones
    /// are evicted on the spot.
    pub fn observe(&mut self, frame: usize, track_id: usize, metrics: &[f64]) {
        self.metric_dim = metrics.len();
        let window = self.windows.entry(track_id).or_default();
        if window.len() == self.length {
            window.pop_front();
            self.entries -= 1;
        }
        window.push_back((frame, metrics.to_vec()));
        self.entries += 1;
        self.peak_entries = self.peak_entries.max(self.entries);
        self.peak_tracks = self.peak_tracks.max(self.windows.len());
    }

    /// Assembles the time-series feature vector of a segment observed at
    /// `frame` with metric vector `current`: the current metrics first, then
    /// one step per previous frame, padding gaps with the oldest observation
    /// found so far — the exact convention of the batch
    /// [`crate::timedyn::TimeDynamic::time_series_dataset`].
    pub fn features(&self, frame: usize, track_id: usize, current: &[f64]) -> Vec<f64> {
        let mut features = Vec::with_capacity(self.length * current.len());
        features.extend_from_slice(current);
        let window = self.windows.get(&track_id);
        let mut last_start = 0;
        for step in 1..self.length {
            let past = frame.checked_sub(step).and_then(|pf| {
                window?
                    .iter()
                    .rev()
                    .find(|(entry_frame, _)| *entry_frame == pf)
            });
            match past {
                Some((_, metrics)) => {
                    last_start = features.len();
                    features.extend_from_slice(metrics);
                }
                // Track does not reach back this far: repeat the oldest
                // observation found so far.
                None => {
                    let pad: Vec<f64> = features[last_start..last_start + current.len()].to_vec();
                    features.extend_from_slice(&pad);
                }
            }
        }
        features
    }

    /// Drops every observation that can no longer be referenced once frame
    /// `frame` has been fully processed (i.e. anything older than
    /// `length - 1` frames behind the *next* frame), and forgets emptied
    /// tracks. This is what keeps memory bounded on endless streams.
    pub fn prune(&mut self, frame: usize) {
        let keep_from = (frame + 2).saturating_sub(self.length);
        let mut removed = 0;
        self.windows.retain(|_, window| {
            while window
                .front()
                .is_some_and(|(entry_frame, _)| *entry_frame < keep_from)
            {
                window.pop_front();
                removed += 1;
            }
            !window.is_empty()
        });
        self.entries -= removed;
    }

    /// Current and peak occupancy of the store — the RSS proxy reported by
    /// the `video_monitoring` example.
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            live_tracks: self.windows.len(),
            entries: self.entries,
            peak_entries: self.peak_entries,
            peak_tracks: self.peak_tracks,
            approx_bytes: self.entries * (self.metric_dim * 8 + 16),
            peak_approx_bytes: self.peak_entries * (self.metric_dim * 8 + 16),
        }
    }
}

/// Occupancy snapshot of a [`TrackWindows`] store.
///
/// `approx_bytes` counts the payload of the retained metric vectors (plus
/// the per-entry frame tag) — a deliberate *proxy* for resident memory that
/// moves with the windowed state and is exact enough to catch unbounded
/// growth in tests and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Tracks currently holding at least one windowed observation.
    pub live_tracks: usize,
    /// Windowed observations currently retained.
    pub entries: usize,
    /// Largest number of observations ever retained at once.
    pub peak_entries: usize,
    /// Largest number of live tracks ever retained at once.
    pub peak_tracks: usize,
    /// Approximate bytes currently held by the window store.
    pub approx_bytes: usize,
    /// Approximate peak bytes ever held by the window store.
    pub peak_approx_bytes: usize,
}

/// Snapshot of one engine's lifetime counters — the per-session statistics a
/// serving layer reports alongside (or instead of) raw verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SessionStats {
    /// Frames pushed into the engine so far.
    pub frames: usize,
    /// Segment verdicts emitted so far.
    pub verdicts: usize,
    /// Verdicts flagged as likely false positives at the `0.5` operating
    /// point.
    pub flagged: usize,
    /// Distinct tracks created so far.
    pub tracks_created: usize,
    /// Time-series depth served by the engine.
    pub series_length: usize,
    /// Current window-store occupancy (the RSS proxy).
    pub window: WindowStats,
}

/// The online meta verdict for one tracked segment of one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentVerdict {
    /// Frame the verdict belongs to.
    pub frame: usize,
    /// Persistent track id of the segment.
    pub track_id: usize,
    /// Connected-component id of the segment inside its frame.
    pub region_id: usize,
    /// Predicted semantic class of the segment.
    pub class: SemanticClass,
    /// Segment area in pixels.
    pub area: usize,
    /// Meta-classification score: estimated probability that the segment is
    /// a true positive (`IoU > 0`). Low scores flag likely false positives.
    pub tp_probability: f64,
    /// Meta-regression estimate of the segment's IoU, clamped to `[0, 1]`.
    pub predicted_iou: f64,
}

impl SegmentVerdict {
    /// Whether the engine flags this segment as a likely false positive at
    /// the given score threshold (the paper's operating point is `0.5`).
    pub fn flagged_false_positive(&self, threshold: f64) -> bool {
        self.tp_probability < threshold
    }
}

/// All verdicts of one pushed frame.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameVerdicts {
    /// Index of the frame inside the stream.
    pub frame: usize,
    /// One verdict per tracked segment, in record order.
    pub verdicts: Vec<SegmentVerdict>,
}

/// Aggregate report of draining one stream to its end. All counters cover
/// exactly the frames of that drain, even when the engine is reused across
/// several sources.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamReport {
    /// Number of frames consumed by this drain.
    pub frames: usize,
    /// Number of segment verdicts emitted by this drain.
    pub verdicts: usize,
    /// Number of verdicts flagged as likely false positives at `0.5`.
    pub flagged: usize,
    /// Distinct tracks created during this drain.
    pub tracks_created: usize,
    /// Window-store occupancy when the source was exhausted (the peak fields
    /// span the engine's lifetime).
    pub window: WindowStats,
    /// Per-frame verdicts, in stream order.
    pub frame_verdicts: Vec<FrameVerdicts>,
}

/// The incremental, bounded-memory streaming engine.
///
/// See the [module docs](self) for the per-frame data flow. An engine is
/// constructed from a [`StreamConfig`] plus a pre-fitted [`MetaPredictor`]
/// (typically from [`crate::timedyn::TimeDynamic::fit_predictor`]) and then
/// fed frames through [`MetaSegStream::push_frame`] — or drained wholesale
/// from any [`FrameSource`] with [`MetaSegStream::drain`].
#[derive(Debug, Clone)]
pub struct MetaSegStream {
    config: StreamConfig,
    series_length: usize,
    tracker: IncrementalTracker,
    windows: TrackWindows,
    predictor: MetaPredictor,
    /// Per-session extraction scratch: the kernel's planes, labelling state
    /// and accumulators are reused across every frame this engine serves, so
    /// steady-state extraction performs no internal heap allocation.
    scratch: ExtractionScratch,
    frames_seen: usize,
    verdicts_emitted: usize,
    flagged: usize,
}

impl MetaSegStream {
    /// Creates a streaming engine serving `predictor`.
    ///
    /// The time-series depth is inferred from the predictor's feature
    /// dimensionality (`feature_dim / METRIC_COUNT`).
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::InvalidConfig`] if the predictor's feature
    /// dimensionality is not a multiple of [`METRIC_COUNT`] or implies a
    /// time series deeper than `config.window`.
    pub fn new(config: StreamConfig, predictor: MetaPredictor) -> Result<Self, MetaSegError> {
        let series_length = validated_series_length(&config, predictor.feature_dim())?;
        Ok(Self {
            config,
            series_length,
            tracker: IncrementalTracker::new(config.tracker),
            windows: TrackWindows::new(series_length),
            predictor,
            scratch: ExtractionScratch::new(),
            frames_seen: 0,
            verdicts_emitted: 0,
            flagged: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Time-series depth served by the engine (inferred from the predictor).
    pub fn series_length(&self) -> usize {
        self.series_length
    }

    /// Number of frames pushed so far.
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Total distinct tracks created so far.
    pub fn tracks_created(&self) -> usize {
        self.tracker.track_count()
    }

    /// Total segment verdicts emitted so far.
    pub fn verdicts_emitted(&self) -> usize {
        self.verdicts_emitted
    }

    /// Verdicts so far flagged as likely false positives at the `0.5`
    /// operating point.
    pub fn flagged_count(&self) -> usize {
        self.flagged
    }

    /// Current window-store occupancy (the RSS proxy).
    pub fn window_stats(&self) -> WindowStats {
        self.windows.stats()
    }

    /// One-shot snapshot of all lifetime counters — what a serving layer
    /// reports as per-session statistics.
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            frames: self.frames_seen,
            verdicts: self.verdicts_emitted,
            flagged: self.flagged,
            tracks_created: self.tracker.track_count(),
            series_length: self.series_length,
            window: self.windows.stats(),
        }
    }

    /// Consumes the next frame of the stream and returns the online verdicts
    /// of its tracked segments. Only the frame's softmax field is read —
    /// ground truth, if present, is ignored.
    ///
    /// The frame's channel axis is scanned exactly once (the fused kernel
    /// derives the Bayes class and every dispersion value in one walk) and
    /// the frame is labelled exactly once: the connected components are
    /// shared between metric extraction and the incremental tracker (the
    /// engine requires matching connectivities at construction, so the two
    /// always agree on region ids). All kernel buffers come from the
    /// session's [`ExtractionScratch`].
    pub fn push_frame(&mut self, frame: &Frame) -> FrameVerdicts {
        let metrics_config = self.config.metrics;
        let (components, records) =
            extract_frame(&frame.prediction, None, &metrics_config, &mut self.scratch);
        let frame_tracks = self.tracker.observe_segments(components);
        self.ingest(frame_tracks, &records)
    }

    /// Consumes the next frame directly from its wire payload, without ever
    /// materialising a [`metaseg_data::ProbMap`]: the payload bytes are
    /// dequantized straight into the session's [`ExtractionScratch`] plane
    /// and the fused kernel runs over that plane.
    ///
    /// With [`DispersionPrecision::F64`] the verdicts are bit-identical to
    /// decoding the payload and calling [`MetaSegStream::push_frame`] (pinned
    /// by test); [`DispersionPrecision::F32`] trades ~1e-4 relative metric
    /// accuracy for a vectorisable dispersion scan. Fails only when the
    /// payload itself is malformed — the engine state is untouched in that
    /// case, so a stream can skip torn frames and continue.
    pub fn push_payload(
        &mut self,
        payload: &ProbPayload,
        precision: DispersionPrecision,
    ) -> Result<FrameVerdicts, DataError> {
        let metrics_config = self.config.metrics;
        let (components, records) =
            extract_frame_payload(payload, None, &metrics_config, &mut self.scratch, precision)?;
        let frame_tracks = self.tracker.observe_segments(components);
        Ok(self.ingest(frame_tracks, &records))
    }

    /// Shared tail of the push paths: window update, assembly, inference.
    fn ingest(
        &mut self,
        frame_tracks: metaseg_tracking::FrameTracks,
        records: &[SegmentRecord],
    ) -> FrameVerdicts {
        let frame = self.frames_seen;
        self.frames_seen += 1;

        let region_to_track: HashMap<usize, usize> = frame_tracks
            .segments
            .iter()
            .map(|s| (s.region_id, s.track_id))
            .collect();

        // First fold every tracked segment's metrics into its window, then
        // assemble features; assembly only looks at *previous* frames, so
        // the order of the two passes over the records does not matter.
        for record in records {
            if let Some(&track_id) = region_to_track.get(&record.region_id) {
                self.windows.observe(frame, track_id, &record.metrics);
            }
        }

        let mut verdicts = Vec::new();
        for record in records {
            let Some(&track_id) = region_to_track.get(&record.region_id) else {
                continue;
            };
            let features = self.windows.features(frame, track_id, &record.metrics);
            let (tp_probability, predicted_iou) = self.predictor.predict_one(&features);
            if tp_probability < 0.5 {
                self.flagged += 1;
            }
            self.verdicts_emitted += 1;
            verdicts.push(SegmentVerdict {
                frame,
                track_id,
                region_id: record.region_id,
                class: record.class,
                area: record.area,
                tp_probability,
                predicted_iou,
            });
        }

        self.windows.prune(frame);
        FrameVerdicts { frame, verdicts }
    }

    /// Drains `source` to exhaustion and returns the report of *this drain*
    /// (counters are deltas against the engine state at entry, so reusing an
    /// engine across sources yields per-source reports). The batch path is
    /// exactly this: "drain the stream".
    pub fn drain<S: FrameSource>(&mut self, mut source: S) -> StreamReport {
        let frames_before = self.frames_seen;
        let verdicts_before = self.verdicts_emitted;
        let flagged_before = self.flagged;
        let tracks_before = self.tracker.track_count();
        // Trust the hint for preallocation only up to a sane cap: endless
        // sources report usize::MAX and must not abort on with_capacity.
        let mut frame_verdicts = Vec::with_capacity(source.frames_hint().0.min(1 << 16));
        while let Some(frame) = source.next_frame() {
            frame_verdicts.push(self.push_frame(&frame));
        }
        StreamReport {
            frames: self.frames_seen - frames_before,
            verdicts: self.verdicts_emitted - verdicts_before,
            flagged: self.flagged - flagged_before,
            tracks_created: self.tracker.track_count() - tracks_before,
            window: self.windows.stats(),
            frame_verdicts,
        }
    }
}

// Serving layers move engines into worker threads and share read-only
// handles across a pool: the engine must stay thread-mobile. Compile-time
// pin so a future field (an `Rc`, a raw pointer) cannot silently break the
// multi-camera service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MetaSegStream>();
    assert_send_sync::<SessionStats>();
    assert_send_sync::<FrameVerdicts>();
};

/// Time-series depth implied by a predictor's feature dimensionality,
/// validated against the stream window; also rejects configurations whose
/// metric and tracker connectivities disagree (the engine shares one
/// labelling per frame, and mismatched connectivities would silently
/// mis-join region ids between records and tracks).
fn validated_series_length(
    config: &StreamConfig,
    feature_dim: usize,
) -> Result<usize, MetaSegError> {
    if config.metrics.connectivity != config.tracker.connectivity {
        return Err(MetaSegError::InvalidConfig(format!(
            "metric extraction uses {:?} connectivity but the tracker uses {:?}; \
             the streaming engine requires one shared labelling per frame",
            config.metrics.connectivity, config.tracker.connectivity
        )));
    }
    if feature_dim == 0 || !feature_dim.is_multiple_of(METRIC_COUNT) {
        return Err(MetaSegError::InvalidConfig(format!(
            "predictor feature dimension {feature_dim} is not a multiple of the \
             per-frame metric count {METRIC_COUNT}"
        )));
    }
    let series_length = feature_dim / METRIC_COUNT;
    if series_length > config.window {
        return Err(MetaSegError::InvalidConfig(format!(
            "predictor was fitted on time series of {series_length} frames, \
             but the stream window holds only {} frames",
            config.window
        )));
    }
    Ok(series_length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
    use metaseg_learners::TabularDataset;
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario, VideoStream};
    use rand::{rngs::StdRng, SeedableRng};

    fn windows_fixture() -> TrackWindows {
        let mut windows = TrackWindows::new(3);
        windows.observe(0, 7, &[1.0, 10.0]);
        windows.observe(1, 7, &[2.0, 20.0]);
        windows.observe(2, 7, &[3.0, 30.0]);
        windows
    }

    #[test]
    fn features_concatenate_history_most_recent_first() {
        let windows = windows_fixture();
        let features = windows.features(3, 7, &[4.0, 40.0]);
        assert_eq!(features, vec![4.0, 40.0, 3.0, 30.0, 2.0, 20.0]);
    }

    #[test]
    fn features_pad_gaps_with_the_oldest_observation_found() {
        let mut windows = TrackWindows::new(3);
        // Track observed at frames 0 and 2, absent at 1.
        windows.observe(0, 1, &[1.0]);
        windows.observe(2, 1, &[3.0]);
        // Series at frame 2: current, gap at 1 padded with current, frame 0.
        assert_eq!(windows.features(2, 1, &[3.0]), vec![3.0, 3.0, 1.0]);
        // Unknown track: everything padded with current.
        assert_eq!(windows.features(2, 99, &[5.0]), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn ring_buffer_is_bounded_and_prune_drops_stale_tracks() {
        let mut windows = TrackWindows::new(3);
        for frame in 0..50 {
            windows.observe(frame, 0, &[frame as f64]);
            windows.prune(frame);
        }
        let stats = windows.stats();
        assert_eq!(stats.live_tracks, 1);
        assert!(stats.entries <= 3);
        assert!(stats.peak_entries <= 3);
        // A track that stops being observed is forgotten entirely.
        let mut windows = TrackWindows::new(3);
        windows.observe(0, 0, &[0.0]);
        for frame in 1..5 {
            windows.prune(frame);
        }
        assert_eq!(windows.stats().live_tracks, 0);
        assert_eq!(windows.stats().entries, 0);
    }

    #[test]
    fn length_one_series_use_no_history() {
        let mut windows = TrackWindows::new(1);
        windows.observe(0, 0, &[1.0]);
        windows.prune(0);
        assert_eq!(windows.features(1, 0, &[2.0]), vec![2.0]);
        assert_eq!(windows.stats().entries, 0);
    }

    fn fitted_predictor(length: usize) -> metaseg_learners::MetaPredictor {
        let mut rng = StdRng::seed_from_u64(40);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let scenario = VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let mut train = TabularDataset::new();
        for sequence in &scenario.dataset().sequences {
            let analysis = pipeline.analyze_sequence(sequence);
            train.extend_from(&pipeline.time_series_dataset(&analysis, length));
        }
        pipeline
            .fit_predictor(MetaModel::GradientBoosting, &train, 0)
            .unwrap()
    }

    #[test]
    fn engine_rejects_mismatched_connectivities() {
        let predictor = fitted_predictor(2);
        let mut config = StreamConfig::default();
        config.tracker.connectivity = metaseg_imgproc::Connectivity::Four;
        assert!(matches!(
            MetaSegStream::new(config, predictor),
            Err(MetaSegError::InvalidConfig(_))
        ));
    }

    #[test]
    fn engine_rejects_mismatched_predictors() {
        let predictor = fitted_predictor(3);
        let config = StreamConfig {
            window: 2,
            ..StreamConfig::default()
        };
        assert!(matches!(
            MetaSegStream::new(config, predictor),
            Err(MetaSegError::InvalidConfig(_))
        ));
    }

    #[test]
    fn engine_emits_verdicts_per_frame_with_bounded_windows() {
        let predictor = fitted_predictor(3);
        let mut engine = MetaSegStream::new(StreamConfig::default(), predictor).unwrap();
        assert_eq!(engine.series_length(), 3);

        let mut rng = StdRng::seed_from_u64(41);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let mut stream = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng);
        let mut total = 0;
        for frame in stream.by_ref() {
            let verdicts = engine.push_frame(&frame);
            total += verdicts.verdicts.len();
            for verdict in &verdicts.verdicts {
                assert!((0.0..=1.0).contains(&verdict.tp_probability));
                assert!((0.0..=1.0).contains(&verdict.predicted_iou));
            }
            let stats = engine.window_stats();
            // Bounded memory: never more than series_length entries per track.
            assert!(stats.entries <= engine.series_length() * stats.live_tracks.max(1));
        }
        assert!(total > 0);
        assert_eq!(engine.frames_seen(), 12);
    }

    #[test]
    fn drain_matches_manual_pushes() {
        let predictor = fitted_predictor(2);
        let make_source = || {
            let mut rng = StdRng::seed_from_u64(42);
            let sim = NetworkSim::new(NetworkProfile::weak());
            VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
        };
        let mut drained = MetaSegStream::new(StreamConfig::default(), predictor.clone()).unwrap();
        let report = drained.drain(make_source());
        let mut manual = MetaSegStream::new(StreamConfig::default(), predictor).unwrap();
        let mut frame_verdicts = Vec::new();
        for frame in make_source() {
            frame_verdicts.push(manual.push_frame(&frame));
        }
        assert_eq!(report.frame_verdicts, frame_verdicts);
        assert_eq!(report.frames, 12);
        assert_eq!(
            report.verdicts,
            frame_verdicts
                .iter()
                .map(|f| f.verdicts.len())
                .sum::<usize>()
        );
    }

    /// Wire payloads pushed straight into the engine at f64 precision are
    /// bit-identical to decoding them first: the zero-copy path cannot change
    /// a verdict. The f32 fast path on the same stream keeps the verdict
    /// *structure* (same segments, same tracks) and probabilities in range,
    /// and a torn payload is rejected without disturbing the session.
    #[test]
    fn payload_pushes_match_decoded_frame_pushes() {
        use metaseg_data::{ProbEncoding, ProbPayload};
        let predictor = fitted_predictor(2);
        let frames: Vec<Frame> = {
            let mut rng = StdRng::seed_from_u64(47);
            let sim = NetworkSim::new(NetworkProfile::weak());
            VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng).collect()
        };
        let mut decoded = MetaSegStream::new(StreamConfig::default(), predictor.clone()).unwrap();
        let mut direct = MetaSegStream::new(StreamConfig::default(), predictor.clone()).unwrap();
        let mut fast = MetaSegStream::new(StreamConfig::default(), predictor).unwrap();
        for (index, frame) in frames.iter().enumerate() {
            let payload = ProbPayload::encode(&frame.prediction, ProbEncoding::U16);
            // F64 over the identical u16 wire bytes: decode-then-push and
            // push-payload see the same dequantized plane, bit for bit.
            let decoded_frame = Frame::unlabeled(frame.id, payload.decode().unwrap());
            let via_decode = decoded.push_frame(&decoded_frame);
            let via_payload = direct
                .push_payload(&payload, DispersionPrecision::F64)
                .unwrap();
            assert_eq!(via_decode, via_payload, "frame {index}");

            let verdicts = fast
                .push_payload(&payload, DispersionPrecision::F32)
                .unwrap();
            assert_eq!(verdicts.verdicts.len(), via_decode.verdicts.len());
            for (f32_verdict, f64_verdict) in verdicts.verdicts.iter().zip(&via_decode.verdicts) {
                assert_eq!(f32_verdict.track_id, f64_verdict.track_id);
                assert_eq!(f32_verdict.region_id, f64_verdict.region_id);
                assert_eq!(f32_verdict.class, f64_verdict.class);
                assert_eq!(f32_verdict.area, f64_verdict.area);
                assert!((0.0..=1.0).contains(&f32_verdict.tp_probability));
                assert!((0.0..=1.0).contains(&f32_verdict.predicted_iou));
            }
        }
        assert_eq!(direct.frames_seen(), frames.len());

        // A torn payload is an error, not a panic, and leaves the session
        // consistent: the next well-formed frame still matches the control.
        let mut torn = ProbPayload::encode(&frames[0].prediction, ProbEncoding::U16);
        torn.bytes.pop();
        assert!(direct
            .push_payload(&torn, DispersionPrecision::F64)
            .is_err());
        let payload = ProbPayload::encode(&frames[0].prediction, ProbEncoding::U16);
        let decoded_frame = Frame::unlabeled(frames[0].id, payload.decode().unwrap());
        assert_eq!(
            direct
                .push_payload(&payload, DispersionPrecision::F64)
                .unwrap(),
            decoded.push_frame(&decoded_frame)
        );
    }

    #[test]
    fn batched_pushes_are_bit_identical_to_sequential_pushes() {
        let predictor = fitted_predictor(2);
        let frames: Vec<Frame> = {
            let mut rng = StdRng::seed_from_u64(43);
            let sim = NetworkSim::new(NetworkProfile::weak());
            VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng).collect()
        };
        // One engine, one drain vs. frame-by-frame pushes.
        let mut batched = MetaSegStream::new(StreamConfig::default(), predictor.clone()).unwrap();
        let batch_verdicts = batched.drain(frames.iter().cloned()).frame_verdicts;
        let mut sequential =
            MetaSegStream::new(StreamConfig::default(), predictor.clone()).unwrap();
        let sequential_verdicts: Vec<FrameVerdicts> =
            frames.iter().map(|f| sequential.push_frame(f)).collect();
        assert_eq!(batch_verdicts, sequential_verdicts);
        assert_eq!(batched.session_stats(), sequential.session_stats());
    }

    /// One engine session (one [`ExtractionScratch`]) fed frames of two
    /// different shapes produces verdicts identical to the same engine fed
    /// fresh-scratch extraction results through its tracking/window tail —
    /// stale scratch state never leaks between frames of different extents
    /// — and the session scratch stops growing once both shapes have been
    /// seen.
    #[test]
    fn scratch_reuse_across_frame_shapes_matches_fresh_extraction() {
        let predictor = fitted_predictor(2);
        let config = StreamConfig::default();
        // Interleave two camera geometries into one session's frame order.
        let frames: Vec<Frame> = {
            let mut small_rng = StdRng::seed_from_u64(90);
            let small_sim = NetworkSim::new(NetworkProfile::weak());
            let small: Vec<Frame> =
                VideoStream::open(&VideoConfig::small(), small_sim, 0, &mut small_rng)
                    .take(4)
                    .collect();
            let mut large_rng = StdRng::seed_from_u64(91);
            let large_sim = NetworkSim::new(NetworkProfile::weak());
            let large_config = VideoConfig {
                scene: metaseg_sim::SceneConfig::cityscapes_like(),
                ..VideoConfig::small()
            };
            let large: Vec<Frame> = VideoStream::open(&large_config, large_sim, 1, &mut large_rng)
                .take(4)
                .collect();
            small
                .into_iter()
                .zip(large)
                .flat_map(|(s, l)| [s, l])
                .collect()
        };

        let mut streamed = MetaSegStream::new(config, predictor.clone()).unwrap();
        let mut manual = MetaSegStream::new(config, predictor).unwrap();
        for (index, frame) in frames.iter().enumerate() {
            let session_verdicts = streamed.push_frame(frame);
            // The control path extracts with a brand-new scratch per frame
            // and feeds the records through the tracking/window tail.
            let predicted = frame.prediction.argmax_map();
            let records = extract_frame(
                &frame.prediction,
                None,
                &config.metrics,
                &mut ExtractionScratch::new(),
            )
            .1;
            let frame_tracks = manual.tracker.observe(&predicted);
            let manual_verdicts = manual.ingest(frame_tracks, &records);
            assert_eq!(
                session_verdicts, manual_verdicts,
                "frame {index}: reused session scratch must match fresh-scratch extraction"
            );
        }
        assert_eq!(streamed.session_stats().frames, frames.len());
        // Steady state: replaying shapes the session has already served
        // grows no scratch buffer (the verdicts differ — the tracker has
        // history now — but extraction allocates nothing).
        let stats_after_first_lap = streamed.scratch.stats();
        for frame in &frames {
            streamed.push_frame(frame);
        }
        assert_eq!(
            streamed.scratch.stats(),
            stats_after_first_lap,
            "steady-state frames must not allocate session scratch"
        );
    }

    #[test]
    fn reused_engine_reports_per_drain_counters() {
        let predictor = fitted_predictor(2);
        let source = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let sim = NetworkSim::new(NetworkProfile::weak());
            VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
        };
        let mut engine = MetaSegStream::new(StreamConfig::default(), predictor).unwrap();
        let first = engine.drain(source(50));
        let second = engine.drain(source(51));
        // Each report covers exactly its own drain, not the engine lifetime.
        assert_eq!(first.frames, 12);
        assert_eq!(second.frames, 12);
        assert_eq!(engine.frames_seen(), 24);
        for report in [&first, &second] {
            assert_eq!(report.frame_verdicts.len(), report.frames);
            assert_eq!(
                report.verdicts,
                report
                    .frame_verdicts
                    .iter()
                    .map(|f| f.verdicts.len())
                    .sum::<usize>()
            );
        }
        assert_eq!(engine.verdicts_emitted(), first.verdicts + second.verdicts);
        assert_eq!(
            engine.tracks_created(),
            first.tracks_created + second.tracks_created
        );
    }

    #[test]
    fn session_stats_snapshot_lifetime_counters() {
        let predictor = fitted_predictor(2);
        let mut engine = MetaSegStream::new(StreamConfig::default(), predictor).unwrap();
        assert_eq!(
            engine.session_stats(),
            SessionStats {
                series_length: 2,
                ..SessionStats::default()
            }
        );
        let mut rng = StdRng::seed_from_u64(52);
        let sim = NetworkSim::new(NetworkProfile::weak());
        engine.drain(VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng));
        let stats = engine.session_stats();
        assert_eq!(stats.frames, engine.frames_seen());
        assert_eq!(stats.verdicts, engine.verdicts_emitted());
        assert_eq!(stats.flagged, engine.flagged_count());
        assert_eq!(stats.tracks_created, engine.tracks_created());
        assert_eq!(stats.window, engine.window_stats());
        assert!(stats.frames == 12 && stats.verdicts > 0);
    }
}
