//! Golden-corpus regression test: a fixed-seed scenario whose per-frame
//! segment metrics and streaming verdicts are pinned to a checked-in
//! fixture.
//!
//! The differential tests (`tests/streaming.rs`, `tests/serve.rs`) prove
//! the pipeline's surfaces agree *with each other*; this test pins what
//! they agree *on*. A refactor of metric extraction, tracking, window
//! assembly, the learners or the serve codecs that changes any float of any
//! verdict — even one that keeps all the differential tests green by
//! changing every path identically — shows up here as a one-line diff
//! against a stable oracle.
//!
//! Each fixture is JSONL text: one JSON line per frame (metrics first, then
//! verdicts), using the same shortest-round-trip float encoding as the wire
//! protocol, so every `f64` is pinned bit-exactly and git diffs it line by
//! line. After an *intended* behaviour change, regenerate it with:
//!
//! ```text
//! METASEG_UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and review the fixture diff like any other code change.

use metaseg_bench::serve_fixture;
use metaseg_suite::metaseg::pipeline::frame_metrics;
use metaseg_suite::metaseg::stream::MetaSegStream;
use metaseg_suite::metaseg_data::{CorpusWriter, Frame, ProbEncoding, ProbPayload};
use metaseg_suite::metaseg_sim::{
    CorpusFrameSource, FrameSource, NetworkProfile, NetworkSim, RegimeKind, ScenarioSuite,
    VideoStream,
};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Serialize, Value};
use std::path::PathBuf;

/// Frames of the golden clip.
const GOLDEN_FRAMES: usize = 6;

/// Where a checked-in oracle lives.
fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// The fixed-seed golden clip, before any degradation.
fn golden_frames() -> Vec<Frame> {
    let video = serve_fixture::video_config(8, 32, 16);
    let mut rng = StdRng::seed_from_u64(5100);
    let sim = NetworkSim::new(NetworkProfile::weak());
    VideoStream::open(&video, sim, 0, &mut rng)
        .take(GOLDEN_FRAMES)
        .collect()
}

/// The adverse golden clip: the same fixed-seed frames degraded through fog
/// nested in sensor dropout (regimes compose by nesting), so the oracle pins
/// the NaN-stripe handling of the extraction kernel alongside the benign
/// behaviour.
fn adverse_frames() -> Vec<Frame> {
    let suite = ScenarioSuite::smoke(5150);
    let fogged = suite.degrade(RegimeKind::Fog, golden_frames().into_iter());
    let mut source = suite.degrade(RegimeKind::Dropout, fogged);
    let mut frames = Vec::new();
    while let Some(frame) = source.next_frame() {
        frames.push(frame);
    }
    frames
}

/// Streams `frames` through a fixed-seed fitted predictor, rendering one
/// JSON line per frame. Everything seeded: the training corpus, the fitted
/// predictor and the clip are all pure functions of their seed constants.
fn corpus_lines(frames: &[Frame]) -> Vec<String> {
    let video = serve_fixture::video_config(8, 32, 16);
    let (stream_config, predictor) = serve_fixture::fit_predictor(&video, 2, 5000);
    let mut engine =
        MetaSegStream::new(stream_config, predictor).expect("golden model fits its config");

    frames
        .iter()
        .map(|frame| {
            // The per-frame single-pass metrics (no ground truth, exactly
            // what the serving layer extracts)…
            let records = frame_metrics(&frame.prediction, None, &stream_config.metrics);
            // …and the streaming verdicts over the same frame.
            let verdicts = engine.push_frame(frame);
            let line = Value::Object(vec![
                ("frame".to_string(), verdicts.frame.serialize()),
                ("records".to_string(), records.serialize()),
                ("verdicts".to_string(), verdicts.verdicts.serialize()),
            ]);
            serde_json::to_string(&line).expect("document model serialization is infallible")
        })
        .collect()
}

/// Renders the golden corpus: the fixed-seed scenario, streamed through a
/// fixed-seed fitted predictor, as one JSON line per frame.
fn render_golden_corpus() -> Vec<String> {
    corpus_lines(&golden_frames())
}

/// Whether this run rewrites the oracles instead of checking them. One
/// `METASEG_UPDATE_GOLDEN=1 cargo test --test golden` invocation regenerates
/// every fixture — benign and adverse — in one pass.
fn updating() -> bool {
    std::env::var("METASEG_UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compares `actual` against the checked-in oracle at `name`, or rewrites
/// the oracle when `METASEG_UPDATE_GOLDEN` is set (covering every fixture
/// in one updater run).
fn check_or_update(name: &str, actual: &[String]) {
    let path = fixture_path(name);
    if updating() {
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("fixture directory is creatable");
        std::fs::write(&path, actual.join("\n") + "\n").expect("fixture is writable");
        println!("golden fixture regenerated at {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             regenerate it with METASEG_UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        expected.len(),
        actual.len(),
        "golden fixture {name} has {} frames, the scenario produced {} — if \
         this change is intended, regenerate with METASEG_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
    for (index, (expected_line, actual_line)) in expected.iter().zip(actual).enumerate() {
        if expected_line != actual_line {
            // Locate the first divergent byte so the failure is readable
            // even though each line holds hundreds of floats.
            let split = expected_line
                .bytes()
                .zip(actual_line.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expected_line.len().min(actual_line.len()));
            let context = |line: &str| -> String {
                let start = split.saturating_sub(60);
                let end = (split + 60).min(line.len());
                line[start..end].to_string()
            };
            panic!(
                "golden mismatch in {name} at frame {index}, byte {split}:\n  \
                 expected …{}…\n  \
                 actual   …{}…\nif this change is intended, regenerate the fixture with \
                 METASEG_UPDATE_GOLDEN=1 cargo test --test golden and review its diff",
                context(expected_line),
                context(actual_line)
            );
        }
    }
}

#[test]
fn golden_corpus_metrics_and_verdicts_match_the_checked_in_oracle() {
    let actual = render_golden_corpus();
    assert_eq!(actual.len(), GOLDEN_FRAMES);
    assert!(
        actual.iter().any(|line| line.contains("tp_probability")),
        "the golden clip must produce at least one verdict"
    );
    check_or_update("expected.jsonl", &actual);
}

#[test]
fn adverse_golden_corpus_matches_the_checked_in_oracle() {
    // The adverse oracle pins what the kernel computes on fog-flattened,
    // NaN-striped frames: a regression in the dropout sanitiser (or in a
    // regime's seeded determinism) shows up as a one-line fixture diff.
    let actual = corpus_lines(&adverse_frames());
    assert!(!actual.is_empty());
    assert!(
        actual
            .iter()
            .all(|line| !line.contains("NaN") && !line.contains("null,")),
        "degraded frames must never put a non-finite metric in a record"
    );
    check_or_update("expected_adverse.jsonl", &actual);
}

#[test]
fn benign_regime_is_the_identity_on_the_golden_clip() {
    // The sweep's baseline row is only a baseline if `benign` changes
    // nothing: the degraded clip must be bit-identical to the raw one
    // (compared through the lossless byte encoding, since `Frame`'s
    // `PartialEq` is NaN-hostile in general).
    let raw = golden_frames();
    let suite = ScenarioSuite::smoke(5150);
    let mut source = suite.degrade(RegimeKind::Benign, raw.clone().into_iter());
    let mut benign = Vec::new();
    while let Some(frame) = source.next_frame() {
        benign.push(frame);
    }
    let key = |frames: &[Frame]| -> Vec<(_, _, ProbPayload)> {
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
    };
    assert_eq!(key(&benign), key(&raw));
}

#[test]
fn corpus_replay_reproduces_live_rendered_verdicts_bit_identically() {
    // The acceptance invariant of corpus-driven loadtests: frames recorded
    // to the container format (lossless F64, ground truth included) and
    // replayed through `CorpusFrameSource` must drive the streaming engine
    // to byte-identical JSON lines — metrics, ids and verdicts — as the
    // live-rendered frames. NaN stripes of the adverse clip included: the
    // F64 chunk encoding is a bit-exact image of the field.
    for (name, frames) in [("golden", golden_frames()), ("adverse", adverse_frames())] {
        let mut writer = CorpusWriter::new(Vec::new(), true).expect("corpus header writes");
        for frame in &frames {
            writer
                .write_frame(frame, ProbEncoding::F64, 3)
                .expect("golden frames fit the corpus");
        }
        let bytes = writer.finish().expect("corpus finalises");
        let mut source = CorpusFrameSource::open(bytes.as_slice()).expect("corpus opens");
        let mut replayed = Vec::new();
        while let Some(frame) = source.next_frame() {
            replayed.push(frame);
        }
        assert!(
            source.read_error().is_none(),
            "{name}: replay must end cleanly, got {:?}",
            source.read_error()
        );
        assert_eq!(replayed.len(), frames.len());
        assert_eq!(
            corpus_lines(&replayed),
            corpus_lines(&frames),
            "{name}: replayed corpus must render identical verdict lines"
        );
    }
}

#[test]
fn the_golden_directory_holds_exactly_the_known_fixtures() {
    // Fixture sprawl guard: a renamed oracle would otherwise leave its stale
    // predecessor checked in, silently pinning nothing.
    let mut names: Vec<String> = std::fs::read_dir(fixture_path(""))
        .expect("fixture directory exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["expected.jsonl", "expected_adverse.jsonl"]);
}

#[test]
fn golden_corpus_rendering_is_deterministic() {
    // The oracle is only an oracle if re-rendering it is a pure function;
    // a hidden source of nondeterminism (thread ordering, uninitialised
    // state, time) would otherwise masquerade as a regression.
    assert_eq!(render_golden_corpus(), render_golden_corpus());
    assert_eq!(
        corpus_lines(&adverse_frames()),
        corpus_lines(&adverse_frames())
    );
}
