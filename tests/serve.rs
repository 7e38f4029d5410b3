//! End-to-end integration test of the serve protocol: served verdicts must
//! be bit-identical to in-process `MetaSegStream` verdicts for the same
//! frame sequence, concurrent cameras must not interfere, and overload must
//! surface as the typed `backpressure` error without dropping the
//! connection.

use metaseg_bench::serve_fixture;
use metaseg_suite::metaseg::stream::{FrameVerdicts, MetaSegStream, StreamConfig};
use metaseg_suite::metaseg::DispersionPrecision;
use metaseg_suite::metaseg_data::{ProbEncoding, ProbPayload, SemanticClass};
use metaseg_suite::metaseg_learners::MetaPredictor;
use metaseg_suite::metaseg_serve::{
    ErrorCode, FrameFormat, ModelRegistry, Request, Response, ServeClient, Server, ServerConfig,
    ServerHandle,
};
use metaseg_suite::metaseg_sim::{
    DecodedFrameSource, NetworkProfile, NetworkSim, ProbMap, VideoConfig, VideoStream,
};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

/// Frames per simulated camera (kept small: each frame crosses the wire as
/// JSON).
const FRAMES_PER_CAMERA: usize = 5;

/// A scaled-down video configuration so the wire payloads stay small.
fn tiny_video_config() -> VideoConfig {
    serve_fixture::video_config(FRAMES_PER_CAMERA, 48, 24)
}

/// The fitted model is expensive (seconds); share one across all tests.
fn fitted() -> &'static (StreamConfig, MetaPredictor) {
    static FITTED: OnceLock<(StreamConfig, MetaPredictor)> = OnceLock::new();
    FITTED.get_or_init(|| serve_fixture::fit_predictor(&tiny_video_config(), 2, 4000))
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let (stream_config, predictor) = fitted().clone();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", stream_config, predictor)
        .expect("fixture model is valid");
    Server::spawn("127.0.0.1:0", registry, config).expect("ephemeral bind succeeds")
}

/// The softmax fields of one simulated camera.
fn camera_frames(camera: usize) -> Vec<ProbMap> {
    let mut rng = StdRng::seed_from_u64(4100 + camera as u64);
    let sim = NetworkSim::new(NetworkProfile::weak());
    VideoStream::open(&tiny_video_config(), sim, camera, &mut rng)
        .map(|f| f.prediction)
        .collect()
}

/// The ground truth: what an in-process engine says about the same frames,
/// fed through the wire-frame adapter.
fn in_process_verdicts(frames: &[ProbMap]) -> Vec<FrameVerdicts> {
    let (stream_config, predictor) = fitted().clone();
    let mut engine = MetaSegStream::new(stream_config, predictor).expect("fixture model is valid");
    let source = DecodedFrameSource::new(0, frames.to_vec());
    engine.drain(source).frame_verdicts
}

#[test]
fn served_verdicts_are_bit_identical_to_in_process_streaming() {
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.local_addr();

    // Two concurrent cameras, each on its own connection, racing through
    // the shared worker pool.
    let threads: Vec<_> = (0..2)
        .map(|camera| {
            thread::spawn(move || {
                let frames = camera_frames(camera);
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                let (session, series_length) =
                    client.open("default", &format!("cam-{camera}")).unwrap();
                assert_eq!(series_length, 2);
                let mut served = Vec::new();
                for probs in &frames {
                    let (frame, verdicts) = client.submit(session, probs).unwrap();
                    served.push(FrameVerdicts { frame, verdicts });
                }
                let stats = client.close(session).unwrap();
                assert_eq!(stats.frames, frames.len());
                (frames, served)
            })
        })
        .collect();

    for thread in threads {
        let (frames, served) = thread.join().expect("camera thread never panics");
        // Exact equality: every float of every verdict survived the JSON
        // round-trip and the server-side engine bit-identically.
        assert_eq!(served, in_process_verdicts(&frames));
        assert!(
            served.iter().map(|f| f.verdicts.len()).sum::<usize>() > 0,
            "the scenario must produce at least one verdict"
        );
    }

    let stats = handle.shutdown();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.frames_processed, 2 * FRAMES_PER_CAMERA);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn json_lines_split_across_writes_are_framed_in_order() {
    // The event loop resumes its newline search where the previous read
    // stopped. A frame line that arrives in pieces, whose last piece also
    // carries a whole second line and the head of a third, must still be
    // framed exactly: three replies, in order, bit-identical.
    let handle = spawn_server(ServerConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect succeeds");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_reply = move || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim_end()).unwrap()
    };

    let open = Request::Open {
        model: "default".into(),
        camera: "cam-split".into(),
    };
    writeln!(writer, "{}", open.encode()).unwrap();
    let Response::Opened { session, .. } = read_reply() else {
        panic!("open must succeed");
    };

    let frames = camera_frames(0);
    let lines: Vec<Vec<u8>> = frames[..3]
        .iter()
        .map(|probs| format!("{}\n", Request::encode_frame(session, probs)).into_bytes())
        .collect();
    let (first, second, third) = (&lines[0], &lines[1], &lines[2]);
    let (cut_a, cut_b, cut_c) = (first.len() / 3, 2 * first.len() / 3, third.len() / 2);
    let mut last = first[cut_b..].to_vec();
    last.extend_from_slice(second);
    last.extend_from_slice(&third[..cut_c]);
    for piece in [
        &first[..cut_a],
        &first[cut_a..cut_b],
        &last[..],
        &third[cut_c..],
    ] {
        writer.write_all(piece).unwrap();
        // Let each piece arrive as reads of its own.
        thread::sleep(Duration::from_millis(20));
    }

    let served: Vec<FrameVerdicts> = (0..3)
        .map(|_| match read_reply() {
            Response::Verdicts {
                frame, verdicts, ..
            } => FrameVerdicts { frame, verdicts },
            other => panic!("expected verdicts, got {other:?}"),
        })
        .collect();
    assert_eq!(served, in_process_verdicts(&frames[..3]));
    let stats = handle.shutdown();
    assert_eq!(stats.frames_processed, 3);
}

/// Drives `cameras` concurrent sessions against `addr` in the given frame
/// format and returns each camera's `(frames, served verdicts)`.
fn drive_cameras(
    addr: std::net::SocketAddr,
    cameras: usize,
    format: FrameFormat,
) -> Vec<(Vec<ProbMap>, Vec<FrameVerdicts>)> {
    let threads: Vec<_> = (0..cameras)
        .map(|camera| {
            thread::spawn(move || {
                let frames = camera_frames(camera);
                let mut client = ServeClient::connect(addr).expect("connect succeeds");
                if format != FrameFormat::Json {
                    client.negotiate(format).unwrap();
                }
                let (session, _) = client.open("default", &format!("cam-{camera}")).unwrap();
                let mut served = Vec::new();
                for probs in &frames {
                    let (frame, verdicts) = client.submit(session, probs).unwrap();
                    served.push(FrameVerdicts { frame, verdicts });
                }
                let stats = client.close(session).unwrap();
                assert_eq!(stats.frames, frames.len());
                (frames, served)
            })
        })
        .collect();
    threads
        .into_iter()
        .map(|t| t.join().expect("camera thread never panics"))
        .collect()
}

#[test]
fn binary_path_is_bit_identical_to_json_and_in_process_under_forced_micro_batching() {
    // One worker with a synthetic per-frame delay forces the queue to fill
    // while a batch is in flight, so the next drain picks up frames of
    // *distinct* sessions as one cross-session micro-batch (asserted below
    // via peak_batch). Verdicts must be unaffected.
    let handle = spawn_server(ServerConfig {
        workers: 1,
        batch_max: 8,
        queue_depth: 8,
        synthetic_delay_ms: 250,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    const CAMERAS: usize = 3;

    for format in [FrameFormat::Json, FrameFormat::Binary(ProbEncoding::F64)] {
        for (frames, served) in drive_cameras(addr, CAMERAS, format) {
            // Exact equality: the lossless binary payload and the JSON
            // payload both reproduce the in-process engine bit for bit,
            // batched or not.
            assert_eq!(
                served,
                in_process_verdicts(&frames),
                "{format} verdicts must match the in-process engine"
            );
        }
    }

    let stats = handle.shutdown();
    assert_eq!(stats.frames_processed, 2 * CAMERAS * FRAMES_PER_CAMERA);
    assert_eq!(stats.binary_frames, CAMERAS * FRAMES_PER_CAMERA);
    assert!(
        stats.peak_batch >= 2,
        "the scenario must actually exercise cross-session micro-batching \
         (largest drained batch: {})",
        stats.peak_batch
    );
    assert!(stats.batches < stats.frames_processed);
}

#[test]
fn lossy_binary_encodings_serve_within_tolerance() {
    // f32/u16 payloads are documented as lossy: verdicts need not be
    // bit-identical, but the meta-classifier scores must stay probabilities
    // and the segment structure (tracks, regions, areas) must be intact.
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.local_addr();
    for encoding in [ProbEncoding::F32, ProbEncoding::U16] {
        for (frames, served) in drive_cameras(addr, 1, FrameFormat::Binary(encoding)) {
            let reference = in_process_verdicts(&frames);
            assert_eq!(served.len(), reference.len());
            for (served_frame, reference_frame) in served.iter().zip(&reference) {
                assert_eq!(served_frame.frame, reference_frame.frame);
                for verdict in &served_frame.verdicts {
                    assert!((0.0..=1.0).contains(&verdict.tp_probability));
                    assert!((0.0..=1.0).contains(&verdict.predicted_iou));
                }
            }
        }
    }
    handle.shutdown();
}

#[test]
fn f32_dispersion_fast_path_serves_within_tolerance_of_the_f64_default() {
    // A connection that negotiates the f32 dispersion fast path gets the
    // vectorised scan server-side. The scan is documented as ~1e-4-relative
    // on the metrics, so verdicts need not be bit-identical to the f64
    // reference — but the segment structure must match frame for frame and
    // the scores must stay probabilities.
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.local_addr();
    let frames = camera_frames(0);
    let reference = in_process_verdicts(&frames);

    let mut client = ServeClient::connect(addr).expect("connect succeeds");
    client
        .negotiate_with_dispersion(
            FrameFormat::Binary(ProbEncoding::F64),
            metaseg_suite::metaseg::DispersionPrecision::F32,
        )
        .unwrap();
    let (session, _) = client.open("default", "cam-f32").unwrap();
    for (probs, reference_frame) in frames.iter().zip(&reference) {
        let (frame, verdicts) = client.submit(session, probs).unwrap();
        assert_eq!(frame, reference_frame.frame);
        assert_eq!(verdicts.len(), reference_frame.verdicts.len());
        for (served, exact) in verdicts.iter().zip(&reference_frame.verdicts) {
            assert_eq!(served.track_id, exact.track_id);
            assert_eq!(served.region_id, exact.region_id);
            assert_eq!(served.class, exact.class);
            assert_eq!(served.area, exact.area);
            assert!((0.0..=1.0).contains(&served.tp_probability));
            assert!((0.0..=1.0).contains(&served.predicted_iou));
        }
    }
    let stats = client.close(session).unwrap();
    assert_eq!(stats.frames, frames.len());
    handle.shutdown();
}

#[test]
fn frames_wider_than_the_class_catalogue_are_bad_requests_and_the_session_survives() {
    // A softmax with one channel more than the class catalogue, where the
    // extra channel wins, has no class to name its segment. It must get a
    // typed `bad-request` that leaves the session serving (not a kernel
    // panic answered `internal` that poisons the session), on the JSON wire
    // and on a binary-u16 session with the f32 dispersion scan.
    let handle = spawn_server(ServerConfig::default());
    let frames = camera_frames(0);
    let channels = SemanticClass::ALL.len() + 1;
    let mut wide = ProbMap::uniform(4, 4, channels);
    let mut dist = vec![0.0; channels];
    dist[channels - 1] = 1.0;
    wide.set_distribution_unchecked(2, 1, &dist);

    for (format, dispersion) in [
        (FrameFormat::Json, DispersionPrecision::F64),
        (
            FrameFormat::Binary(ProbEncoding::U16),
            DispersionPrecision::F32,
        ),
    ] {
        let mut client = ServeClient::connect(handle.local_addr()).expect("connect succeeds");
        client
            .negotiate_with_dispersion(format, dispersion)
            .unwrap();
        let (session, _) = client.open("default", "cam-wide").unwrap();
        let mut served = Vec::new();
        for probs in &frames[..2] {
            let error = client.submit(session, &wide).unwrap_err();
            assert_eq!(error.server_code(), Some(ErrorCode::BadRequest), "{format}");
            let (frame, verdicts) = client.submit(session, probs).unwrap();
            served.push(FrameVerdicts { frame, verdicts });
        }
        let expected = match format {
            FrameFormat::Json => in_process_verdicts(&frames[..2]),
            FrameFormat::Binary(encoding) => {
                let (stream_config, predictor) = fitted().clone();
                let mut engine = MetaSegStream::new(stream_config, predictor).unwrap();
                frames[..2]
                    .iter()
                    .map(|probs| {
                        let payload = ProbPayload::encode(probs, encoding);
                        engine.push_payload(&payload, dispersion).unwrap()
                    })
                    .collect()
            }
        };
        assert_eq!(served, expected, "{format} verdicts after a rejected frame");
        assert_eq!(client.close(session).unwrap().frames, 2);
    }
    handle.shutdown();
}

#[test]
fn backpressure_is_a_typed_error_and_the_connection_survives() {
    // One worker with an artificial 400 ms inference delay and a queue of
    // depth one: the third concurrent submission must be rejected.
    let handle = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        synthetic_delay_ms: 400,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let frames = camera_frames(0);
    let probs = frames[0].clone();

    let submit_in_thread = |probs: ProbMap| {
        thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect succeeds");
            let (session, _) = client.open("default", "cam-busy").unwrap();
            client.submit(session, &probs).unwrap();
        })
    };
    // First job occupies the worker, second fills the queue slot.
    let busy_worker = submit_in_thread(probs.clone());
    thread::sleep(Duration::from_millis(150));
    let queued = submit_in_thread(probs.clone());
    thread::sleep(Duration::from_millis(150));

    // Third submission: typed backpressure rejection, not a dropped
    // connection.
    let mut client = ServeClient::connect(addr).expect("connect succeeds");
    let (session, _) = client.open("default", "cam-rejected").unwrap();
    let err = client.submit(session, &probs).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Backpressure));

    // The rejected connection keeps working: once the pool drains, the
    // retried frame goes through on the same session.
    busy_worker.join().expect("first camera completes");
    queued.join().expect("second camera completes");
    let (frame, _) = client.submit(session, &probs).unwrap();
    assert_eq!(frame, 0);
    let stats = client.close(session).unwrap();
    assert_eq!(stats.frames, 1);

    let server_stats = handle.shutdown();
    assert_eq!(server_stats.rejected, 1);
    assert_eq!(server_stats.frames_processed, 3);
    // Regression: the peak is recorded only after a successful enqueue, so
    // the rejected third submission must not move it. The worker drains each
    // admitted frame before the next arrives, so the queue never holds more
    // than the one slot it has.
    assert_eq!(server_stats.peak_queue_depth, 1);
}

#[test]
fn shard_stats_sum_to_the_aggregate_under_forced_backpressure() {
    // Two shards, each with a single queue slot and a slow worker. Sessions
    // are opened sequentially, so their ids (1..=6) — and therefore their
    // shards (`id % workers`) — are known: each wave below lands one
    // session on each shard.
    let handle = spawn_server(ServerConfig {
        workers: 2,
        queue_depth: 1,
        synthetic_delay_ms: 400,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let probs = camera_frames(0).remove(0);

    let mut clients: Vec<ServeClient> = Vec::new();
    let mut sessions = Vec::new();
    for camera in 0..6 {
        let mut client = ServeClient::connect(addr).expect("connect succeeds");
        let (session, _) = client.open("default", &format!("cam-{camera}")).unwrap();
        assert_eq!(session, camera as u64 + 1, "sequential opens pin the ids");
        clients.push(client);
        sessions.push(session);
    }

    // Wave 1 (sessions 1, 2) lands one frame on each shard; both are
    // drained immediately and occupy their workers for the synthetic delay.
    // Wave 2 (sessions 3, 4) then fills the single queue slot of each shard.
    let submit = |mut client: ServeClient, session: u64, probs: ProbMap| {
        thread::spawn(move || {
            client.submit(session, &probs).unwrap();
            client
        })
    };
    let mut waves = Vec::new();
    for wave in 0..2 {
        let occupied: Vec<_> = (0..2)
            .map(|i| {
                let session = sessions[wave * 2 + i];
                submit(clients.remove(0), session, probs.clone())
            })
            .collect();
        thread::sleep(Duration::from_millis(150));
        waves.push(occupied);
    }

    // Wave 3 (sessions 5, 6): both shards are busy with a full queue, so
    // both submissions are rejected with the typed backpressure error.
    for (client, session) in clients.iter_mut().zip(&sessions[4..]) {
        let err = client.submit(*session, &probs).unwrap_err();
        assert_eq!(err.server_code(), Some(ErrorCode::Backpressure));
    }
    let mut done: Vec<_> = waves
        .into_iter()
        .flatten()
        .map(|t| t.join().expect("camera thread never panics"))
        .collect();
    // The rejected sessions retry once the shards drain; every camera ends
    // with exactly one processed frame.
    for (client, session) in clients.iter_mut().zip(&sessions[4..]) {
        client.submit(*session, &probs).unwrap();
    }
    done.append(&mut clients);
    for (client, session) in done.iter_mut().zip(&sessions) {
        let stats = client.close(*session).unwrap();
        assert_eq!(stats.frames, 1);
    }

    // The per-shard counters must reproduce the aggregate snapshot exactly:
    // counts by summation, peaks by maximum.
    let shards = handle.shard_stats();
    let stats = handle.shutdown();
    assert_eq!(shards.len(), 2);
    for (index, shard) in shards.iter().enumerate() {
        assert_eq!(shard.shard, index);
        assert_eq!(shard.frames_processed, 3);
        assert_eq!(shard.rejected, 1);
        assert_eq!(shard.peak_queue_depth, 1);
        // Batch sanity: the choreography drains every admitted frame alone,
        // and a batch can never exceed what the shard processed.
        assert!(shard.batches >= 1 && shard.batches <= shard.frames_processed);
        assert!(shard.peak_batch >= 1);
        assert!(shard.batches * shard.peak_batch >= shard.frames_processed);
    }
    assert_eq!(
        shards.iter().map(|s| s.frames_processed).sum::<usize>(),
        stats.frames_processed
    );
    assert_eq!(
        shards.iter().map(|s| s.rejected).sum::<usize>(),
        stats.rejected
    );
    assert_eq!(
        shards.iter().map(|s| s.batches).sum::<usize>(),
        stats.batches
    );
    assert_eq!(
        shards.iter().map(|s| s.peak_queue_depth).max(),
        Some(stats.peak_queue_depth)
    );
    assert_eq!(
        shards.iter().map(|s| s.peak_batch).max(),
        Some(stats.peak_batch)
    );
    // `frames_processed + rejected` accounts for every submission made.
    assert_eq!(stats.frames_processed + stats.rejected, 8);
    assert_eq!(stats.sessions_opened, 6);
    assert_eq!(stats.connections, 6);
}

#[test]
fn hot_swap_mid_stream_keeps_old_sessions_bit_identical_and_drops_none() {
    // A rolling model upgrade: sessions opened before the swap pin their
    // registry entry and must finish bit-identically on the old model;
    // sessions opened afterwards come up on the new one.
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.local_addr();
    let frames = camera_frames(0);
    let reference = in_process_verdicts(&frames);

    // A second model fitted on longer time series: distinguishable from the
    // fixture model by the `series_length` that `open` reports.
    let (swap_config, swap_predictor) = serve_fixture::fit_predictor(&tiny_video_config(), 3, 4000);

    let mut client = ServeClient::connect(addr).expect("connect succeeds");
    let (session, series_length) = client.open("default", "cam-old").unwrap();
    assert_eq!(series_length, 2);
    let mut served = Vec::new();
    for (index, probs) in frames.iter().enumerate() {
        if index == frames.len() / 2 {
            // Mid-stream hot reload through the checkpoint path, exactly as
            // an operator would push a new container file.
            let version = handle
                .registry()
                .swap_checkpoint("default", swap_config, &swap_predictor.to_container_bytes())
                .expect("the swapped checkpoint round-trips");
            assert_eq!(version, 2, "the first swap bumps the seed version");
        }
        let (frame, verdicts) = client.submit(session, probs).unwrap();
        served.push(FrameVerdicts { frame, verdicts });
    }
    // The pre-swap session was never rebound: every verdict — including the
    // ones served after the swap — matches the old model bit for bit.
    assert_eq!(served, reference);
    let stats = client.close(session).unwrap();
    assert_eq!(stats.frames, frames.len());

    // A session opened after the swap runs on the new model.
    assert_eq!(handle.registry().get("default").unwrap().version(), 2);
    let (fresh, fresh_series_length) = client.open("default", "cam-new").unwrap();
    assert_eq!(fresh_series_length, 3);
    let (frame, _) = client.submit(fresh, &frames[0]).unwrap();
    assert_eq!(frame, 0);
    client.close(fresh).unwrap();

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.frames_processed, frames.len() + 1);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect succeeds");
    let (session, _) = client.open("default", "cam").unwrap();
    let probs = camera_frames(0).remove(0);
    client.submit(session, &probs).unwrap();
    // Shutdown joins the acceptor, every connection thread and every
    // worker; the processed-frame counter proves nothing was dropped.
    let stats = handle.shutdown();
    assert_eq!(stats.frames_processed, 1);
    assert_eq!(stats.sessions_opened, 1);
}
