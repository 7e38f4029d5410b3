//! The in-process replay behind the per-layer breakdown.
//!
//! It feeds the served frames, in the same per-session order, through the
//! public functions the server calls on its request path and records one
//! span per call: the event loop's frame check or decode, the shard
//! worker's `MetaSegStream` push, the extraction, labelling and tracking
//! that push is made of (timed again on their own, on per-session state of
//! their own), and the event loop's verdict encode.

use crate::load::{encode_frame, Session};
use crate::trace::Tracer;
use crate::workload::{Inputs, Spec, MODEL};
use metaseg::pipeline::{extract_frame, extract_frame_payload, ExtractionScratch};
use metaseg::stream::{FrameVerdicts, MetaSegStream};
use metaseg_data::{Frame, FrameId, LabelMap, ProbEncoding};
use metaseg_serve::wire::{BinaryFrameHeader, BINARY_HEADER_LEN};
use metaseg_serve::{FrameFormat, Request, Response};
use metaseg_tracking::IncrementalTracker;
use std::time::{Duration, Instant};

/// Frames on which the codec the workload does not use is timed too (off
/// the served path; reported, but not part of the breakdown).
const OFF_PATH_FRAMES: usize = 16;

/// Request ids of replay spans start here, clear of the served ones.
const REPLAY_REQUESTS: u64 = 1 << 60;

/// Per-frame counts seen by the replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub frames: usize,
    pub segments: Vec<f64>,
    pub active_tracks: Vec<f64>,
    pub verdicts: Vec<f64>,
}

struct State {
    engine: MetaSegStream,
    scratch: ExtractionScratch,
    tracker: IncrementalTracker,
}

/// Replays whole passes over every session's loop, round-robin across
/// sessions as served, until at least `budget` has elapsed.
pub fn replay(
    spec: &Spec,
    inputs: &Inputs,
    sessions: &[&Session],
    budget: Duration,
    tracer: &mut Tracer,
) -> Counts {
    let entry = inputs.registry.get(MODEL).expect("model is registered");
    let config = *entry.config();
    let mut states: Vec<State> = sessions
        .iter()
        .map(|_| State {
            engine: entry.open_stream(),
            scratch: ExtractionScratch::new(),
            tracker: IncrementalTracker::new(config.tracker),
        })
        .collect();
    let loop_len = sessions.iter().map(|s| s.wire.len()).max().unwrap_or(0);
    let started = Instant::now();
    let mut counts = Counts::default();
    for n in 0.. {
        for (session, state) in sessions.iter().zip(&mut states) {
            tracer.within(REPLAY_REQUESTS + counts.frames as u64, "replay.frame");
            let root = tracer.start();
            let bytes = &session.wire[n % session.wire.len()];
            let (argmax, verdicts) = match spec.format {
                FrameFormat::Binary(_) => binary_frame(spec, bytes, state, &mut counts, tracer),
                FrameFormat::Json => json_frame(bytes, state, &mut counts, tracer),
            };
            let span = tracer.start();
            std::hint::black_box(argmax.segments(config.metrics.connectivity));
            tracer.end("imgproc.label", span);

            counts.verdicts.push(verdicts.verdicts.len() as f64);
            let response = Response::Verdicts {
                session: session.id,
                frame: verdicts.frame,
                verdicts: verdicts.verdicts,
            };
            let span = tracer.start();
            std::hint::black_box(response.encode());
            tracer.end("protocol.verdicts_encode", span);

            if counts.frames < OFF_PATH_FRAMES {
                off_path(spec, session, n, inputs, tracer);
            }
            tracer.within(REPLAY_REQUESTS + counts.frames as u64, "");
            tracer.end("replay.frame", root);
            counts.frames += 1;
        }
        if n + 1 >= loop_len && started.elapsed() >= budget {
            break;
        }
    }
    counts
}

/// The binary request path: checksum and payload check on the event loop,
/// then the shard worker's push of the verified payload.
fn binary_frame(
    spec: &Spec,
    bytes: &[u8],
    state: &mut State,
    counts: &mut Counts,
    tracer: &mut Tracer,
) -> (LabelMap, FrameVerdicts) {
    let body = bytes[BINARY_HEADER_LEN..].to_vec();
    let span = tracer.start();
    let payload = BinaryFrameHeader::parse(bytes)
        .and_then(|header| header.verified_payload(body))
        .expect("pre-encoded frames are well formed");
    tracer.end("wire.verify", span);

    let span = tracer.start();
    let verdicts = state
        .engine
        .push_payload(&payload, spec.dispersion)
        .expect("verified payloads decode");
    tracer.end("stream.push", span);

    let config = *state.engine.config();
    let span = tracer.start();
    let (components, records) = extract_frame_payload(
        &payload,
        None,
        &config.metrics,
        &mut state.scratch,
        spec.dispersion,
    )
    .expect("verified payloads decode");
    tracer.end("pipeline.extract", span);
    counts.segments.push(records.len() as f64);

    let span = tracer.start();
    std::hint::black_box(state.tracker.observe_segments(components));
    tracer.end("tracking.observe", span);
    counts
        .active_tracks
        .push(state.tracker.active_track_count() as f64);

    let argmax = payload
        .decode()
        .expect("verified payloads decode")
        .argmax_map();
    (argmax, verdicts)
}

/// The JSON request path: line decode on the event loop, then the shard
/// worker's push of the decoded field.
fn json_frame(
    bytes: &[u8],
    state: &mut State,
    counts: &mut Counts,
    tracer: &mut Tracer,
) -> (LabelMap, FrameVerdicts) {
    let text = std::str::from_utf8(bytes).expect("JSON frames are UTF-8");
    let span = tracer.start();
    let request = Request::decode(text.trim_end());
    tracer.end("protocol.frame_decode", span);
    let Ok(Request::Frame { session, probs }) = request else {
        panic!("pre-encoded JSON frames decode as frame requests");
    };
    let frame = Frame::unlabeled(
        FrameId::new(session as usize, state.engine.frames_seen()),
        probs,
    );

    let span = tracer.start();
    let verdicts = state.engine.push_frame(&frame);
    tracer.end("stream.push", span);

    let config = *state.engine.config();
    let span = tracer.start();
    let (components, records) =
        extract_frame(&frame.prediction, None, &config.metrics, &mut state.scratch);
    tracer.end("pipeline.extract", span);
    counts.segments.push(records.len() as f64);

    let span = tracer.start();
    std::hint::black_box(state.tracker.observe_segments(components));
    tracer.end("tracking.observe", span);
    counts
        .active_tracks
        .push(state.tracker.active_track_count() as f64);

    (frame.prediction.argmax_map(), verdicts)
}

/// Times the inbound codec this workload does not use on the same frame: the
/// JSON frame decode for binary workloads, the binary frame check for the
/// JSON one.
fn off_path(spec: &Spec, session: &Session, n: usize, inputs: &Inputs, tracer: &mut Tracer) {
    let probs = &inputs
        .frame(session.pool[n % session.pool.len()])
        .prediction;
    match spec.format {
        FrameFormat::Binary(_) => {
            let line = encode_frame(FrameFormat::Json, session.id, probs);
            let text = std::str::from_utf8(&line).expect("JSON frames are UTF-8");
            let span = tracer.start();
            std::hint::black_box(Request::decode(text.trim_end()).expect("valid frame line"));
            tracer.end("protocol.frame_decode", span);
        }
        FrameFormat::Json => {
            let format = FrameFormat::Binary(ProbEncoding::F64);
            let bytes = encode_frame(format, session.id, probs);
            let body = bytes[BINARY_HEADER_LEN..].to_vec();
            let span = tracer.start();
            let payload = BinaryFrameHeader::parse(&bytes)
                .and_then(|header| header.verified_payload(body))
                .expect("freshly encoded frames are well formed");
            tracer.end("wire.verify", span);
            std::hint::black_box(payload);
        }
    }
}
