//! Differential test of the streaming engine against the batch time-dynamic
//! path, plus bounded-memory guarantees — the acceptance gate of the online
//! subsystem.
//!
//! The batch pipeline materialises a clip, analyses it and scores the
//! structured dataset; the streaming engine consumes the *same frames one at
//! a time* with ring-buffer windows and must reproduce every verdict
//! exactly (the tolerance below is 1e-9, the assembly is shared code so the
//! observed deviation is 0).

use metaseg::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
use metaseg_learners::TabularDataset;
use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario};
use rand::{rngs::StdRng, SeedableRng};

fn scenario(seed: u64) -> VideoScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = NetworkSim::new(NetworkProfile::weak());
    VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng)
}

/// Batch rows of one analysed sequence keyed by `(frame, region_id)`, in the
/// exact order `time_series_dataset` emits them. Reconstructed from the
/// public analysis data so the test does not trust the dataset internals.
fn batch_row_keys(
    pipeline: &TimeDynamic,
    analysis: &metaseg::timedyn::SequenceAnalysis,
) -> Vec<(usize, usize)> {
    let mut keys = Vec::new();
    for &frame_idx in &analysis.labeled_frames {
        let frame_tracks = &analysis.tracking.frames()[frame_idx];
        for record in &analysis.records[frame_idx] {
            if record.iou.is_none() {
                continue;
            }
            if frame_tracks.track_of_region(record.region_id).is_none() {
                continue;
            }
            keys.push((frame_idx, record.region_id));
        }
    }
    // Sanity: the key list must line up 1:1 with the dataset rows.
    let dataset = pipeline.time_series_dataset(analysis, 1);
    assert_eq!(keys.len(), dataset.len());
    keys
}

#[test]
fn stream_verdicts_match_batch_scores_exactly() {
    let scenario = scenario(97);
    let pipeline = TimeDynamic::new(TimeDynConfig::default());
    let length = 3;

    // Train on all but the last sequence — batch path.
    let mut train = TabularDataset::new();
    let held_out = scenario.dataset().sequence_count() - 1;
    for (i, sequence) in scenario.dataset().sequences.iter().enumerate() {
        if i == held_out {
            continue;
        }
        let analysis = pipeline.analyze_sequence(sequence);
        train.extend_from(&pipeline.time_series_dataset(&analysis, length));
    }
    let predictor = pipeline
        .fit_predictor(MetaModel::GradientBoosting, &train, 0)
        .unwrap();

    // Batch scores of the held-out sequence.
    let sequence = &scenario.dataset().sequences[held_out];
    let analysis = pipeline.analyze_sequence(sequence);
    let batch = pipeline.time_series_dataset(&analysis, length);
    let keys = batch_row_keys(&pipeline, &analysis);
    let batch_scores = predictor.score(&batch.features);
    let batch_ious = predictor.predict_iou(&batch.features);

    // Stream the same frames one at a time.
    let mut engine = pipeline.open_stream(predictor).unwrap();
    assert_eq!(engine.series_length(), length);
    let mut online = std::collections::HashMap::new();
    for frame in scenario.stream_sequence(held_out).unwrap() {
        let verdicts = engine.push_frame(&frame);
        for verdict in verdicts.verdicts {
            online.insert((verdict.frame, verdict.region_id), verdict);
        }
        // Bounded memory while streaming: at most `length` window entries
        // per live track, ever.
        let stats = engine.window_stats();
        assert!(stats.entries <= length * stats.live_tracks.max(1));
        assert!(stats.peak_entries <= length * stats.peak_tracks.max(1));
    }

    // Every batch row has an online verdict with identical outputs.
    assert!(!keys.is_empty());
    for ((key, score), iou) in keys.iter().zip(&batch_scores).zip(&batch_ious) {
        let verdict = online
            .get(key)
            .unwrap_or_else(|| panic!("no online verdict for batch row {key:?}"));
        assert!(
            (verdict.tp_probability - score).abs() <= 1e-9,
            "classification verdict deviates at {key:?}: {} vs {score}",
            verdict.tp_probability
        );
        assert!(
            (verdict.predicted_iou - iou).abs() <= 1e-9,
            "regression verdict deviates at {key:?}: {} vs {iou}",
            verdict.predicted_iou
        );
    }
}

#[test]
fn stream_memory_stays_bounded_on_long_streams() {
    let scenario = scenario(101);
    let pipeline = TimeDynamic::new(TimeDynConfig::default());
    let length = 4;
    let mut train = TabularDataset::new();
    for sequence in &scenario.dataset().sequences {
        let analysis = pipeline.analyze_sequence(sequence);
        train.extend_from(&pipeline.time_series_dataset(&analysis, length));
    }
    let predictor = pipeline
        .fit_predictor(MetaModel::GradientBoosting, &train, 1)
        .unwrap();
    let mut engine = pipeline.open_stream(predictor).unwrap();

    // Loop the clip several times: 5x more frames than a clip, while the
    // window store must plateau instead of growing with stream length.
    let mut peak_after_first_lap = 0;
    for lap in 0..5 {
        for frame in scenario.stream_sequence(0).unwrap() {
            engine.push_frame(&frame);
        }
        if lap == 0 {
            peak_after_first_lap = engine.window_stats().peak_approx_bytes;
        }
    }
    let stats = engine.window_stats();
    assert_eq!(engine.frames_seen(), 5 * 12);
    // The steady-state plateau: later laps add no more than the slack of one
    // extra lap's churn (tracks die and respawn, so allow 2x, not 5x).
    assert!(
        stats.peak_approx_bytes <= 2 * peak_after_first_lap.max(1),
        "window store grew with stream length: {} vs first-lap peak {}",
        stats.peak_approx_bytes,
        peak_after_first_lap
    );
    // Track ids keep growing (never reused) even though memory does not.
    assert!(engine.tracks_created() > 0);
}

#[test]
fn batch_drain_equals_stream_consumption() {
    // "The batch path becomes drain the stream": feeding a materialised clip
    // through drain() equals pushing its frames one by one.
    let scenario = scenario(103);
    let pipeline = TimeDynamic::new(TimeDynConfig::default());
    let mut train = TabularDataset::new();
    for sequence in &scenario.dataset().sequences {
        let analysis = pipeline.analyze_sequence(sequence);
        train.extend_from(&pipeline.time_series_dataset(&analysis, 2));
    }
    let predictor = pipeline
        .fit_predictor(MetaModel::GradientBoosting, &train, 2)
        .unwrap();

    let mut drained = pipeline.open_stream(predictor.clone()).unwrap();
    let report = drained.drain(scenario.stream_sequence(1).unwrap());

    let mut pushed = pipeline.open_stream(predictor).unwrap();
    let mut frames = Vec::new();
    for frame in scenario.stream_sequence(1).unwrap() {
        frames.push(pushed.push_frame(&frame));
    }
    assert_eq!(report.frame_verdicts, frames);
    assert_eq!(report.frames, 12);
    assert_eq!(report.tracks_created, pushed.tracks_created());
}
