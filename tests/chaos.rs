//! Chaos-hardening integration tests: the serve stack driven through the
//! byte-level fault proxy (`metaseg_sim::ChaosProxy`), plus the server's
//! deadline / shedding / eviction defenses and the client's typed-timeout
//! and reconnect-resume behaviour — each pinned end to end over real TCP.

use metaseg_bench::serve_fixture;
use metaseg_suite::metaseg::stream::{FrameVerdicts, MetaSegStream, StreamConfig};
use metaseg_suite::metaseg_data::{ProbEncoding, ProbMap};
use metaseg_suite::metaseg_learners::MetaPredictor;
use metaseg_suite::metaseg_serve::{
    ClientConfig, ErrorCode, FrameFormat, ModelRegistry, Request, Response, ServeClient,
    ServeError, Server, ServerConfig, ServerHandle, Submission,
};
use metaseg_suite::metaseg_sim::{
    ChaosProxy, DecodedFrameSource, FaultPlan, NetworkProfile, NetworkSim, VideoConfig, VideoStream,
};
use rand::{rngs::StdRng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Frames per chaos camera (every byte of every frame crosses the proxy,
/// possibly one write at a time — keep the budget small).
const FRAMES: usize = 3;

fn tiny_video_config() -> VideoConfig {
    serve_fixture::video_config(FRAMES, 48, 24)
}

/// The fitted model is expensive (seconds); share one across all tests.
fn fitted() -> &'static (StreamConfig, MetaPredictor) {
    static FITTED: OnceLock<(StreamConfig, MetaPredictor)> = OnceLock::new();
    FITTED.get_or_init(|| serve_fixture::fit_predictor(&tiny_video_config(), 2, 4300))
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let (stream_config, predictor) = fitted().clone();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", stream_config, predictor)
        .expect("fixture model is valid");
    Server::spawn("127.0.0.1:0", registry, config).expect("ephemeral bind succeeds")
}

/// Deadline/linger settings tight enough for test-speed chaos recovery.
fn chaos_server_config() -> ServerConfig {
    ServerConfig {
        read_timeout_ms: 1_500,
        idle_timeout_ms: 20_000,
        session_linger_ms: 4_000,
        ..ServerConfig::default()
    }
}

/// A client policy with deadlines and retries matched to the test plans.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(3)),
        write_timeout: Some(Duration::from_secs(3)),
        max_retries: 30,
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(300),
        jitter_seed: 0x7E57,
    }
}

/// The softmax fields of one simulated camera.
fn camera_frames(camera: usize) -> Vec<ProbMap> {
    let mut rng = StdRng::seed_from_u64(4400 + camera as u64);
    let sim = NetworkSim::new(NetworkProfile::weak());
    VideoStream::open(&tiny_video_config(), sim, camera, &mut rng)
        .map(|f| f.prediction)
        .collect()
}

/// The ground truth: what an in-process engine says about the same frames.
fn in_process_verdicts(frames: &[ProbMap]) -> Vec<FrameVerdicts> {
    let (stream_config, predictor) = fitted().clone();
    let mut engine = MetaSegStream::new(stream_config, predictor).expect("fixture model is valid");
    engine
        .drain(DecodedFrameSource::new(0, frames.to_vec()))
        .frame_verdicts
}

#[test]
fn trickled_json_and_binary_frames_yield_bit_identical_verdicts() {
    // Maximal fragmentation: every byte of every request — JSON lines and
    // 36-byte binary headers alike — arrives as its own 1-byte read. The
    // incremental parsers must reassemble frames across arbitrarily torn
    // buffers without ever mis-decoding one.
    let handle = spawn_server(chaos_server_config());
    let proxy = ChaosProxy::spawn(handle.local_addr(), FaultPlan::trickle(), 11)
        .expect("proxy bind succeeds");
    let frames = camera_frames(0);
    let reference = in_process_verdicts(&frames);

    let submit_all = |format: Option<FrameFormat>| -> Vec<FrameVerdicts> {
        let mut client =
            ServeClient::connect_with(proxy.local_addr(), chaos_client_config()).unwrap();
        if let Some(format) = format {
            client.negotiate(format).unwrap();
        }
        let (session, _) = client.open("default", "trickle-cam").unwrap();
        let served = frames
            .iter()
            .map(|probs| {
                let (frame, verdicts) = client.submit(session, probs).unwrap();
                FrameVerdicts { frame, verdicts }
            })
            .collect();
        client.close(session).unwrap();
        served
    };

    let json = submit_all(None);
    let binary = submit_all(Some(FrameFormat::Binary(ProbEncoding::F64)));
    assert_eq!(json, reference, "JSON wire under trickle must stay exact");
    assert_eq!(
        binary, reference,
        "binary wire under trickle must stay exact"
    );

    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn oversized_lines_are_rejected_even_when_trickled() {
    // The line cap must trip on accumulated bytes, not on any single read:
    // a 1-byte-at-a-time flood has to be cut off just the same.
    let handle = spawn_server(ServerConfig {
        max_line_bytes: 1024,
        ..chaos_server_config()
    });
    let proxy = ChaosProxy::spawn(handle.local_addr(), FaultPlan::trickle(), 12)
        .expect("proxy bind succeeds");

    let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A newline-free flood past the cap; the server must drop the
    // connection without answering. The write may fail once the drop
    // propagates back through the proxy — both outcomes are the success
    // case.
    let _ = stream.write_all(&vec![b'x'; 8 * 1024]);
    let _ = stream.flush();
    let mut reply = String::new();
    let read = BufReader::new(stream).read_line(&mut reply);
    assert!(
        matches!(read, Ok(0)) || read.is_err(),
        "no response expected to an oversized trickled line, got {reply:?}"
    );

    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn binary_header_resync_survives_single_byte_delivery() {
    // A header lying about its shape is rejected by the typed error path,
    // and the connection must resynchronise on the declared length — even
    // when both the lie and the following valid frame trickle in byte by
    // byte.
    use metaseg_suite::metaseg_serve::wire::encode_binary_frame;

    let handle = spawn_server(chaos_server_config());
    let proxy = ChaosProxy::spawn(handle.local_addr(), FaultPlan::trickle(), 13)
        .expect("proxy bind succeeds");

    let stream = TcpStream::connect(proxy.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_reply = move || -> Response {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim_end()).unwrap()
    };

    writeln!(
        writer,
        "{}",
        Request::Negotiate {
            format: FrameFormat::Binary(ProbEncoding::F64),
            dispersion: metaseg_suite::metaseg::DispersionPrecision::F64,
        }
        .encode()
    )
    .unwrap();
    assert!(matches!(read_reply(), Response::Negotiated { .. }));
    writeln!(
        writer,
        "{}",
        Request::Open {
            model: "default".into(),
            camera: "resync-cam".into(),
        }
        .encode()
    )
    .unwrap();
    let Response::Opened { session, .. } = read_reply() else {
        panic!("open must succeed");
    };

    let frames = camera_frames(1);
    let mut lying = encode_binary_frame(session, &frames[0], ProbEncoding::F64);
    // Corrupt the width field; the payload length stays truthful, so the
    // server can skip exactly the declared bytes and recover.
    lying[12..16].copy_from_slice(&77u32.to_le_bytes());
    writer.write_all(&lying).unwrap();
    writer.flush().unwrap();
    assert!(
        matches!(
            read_reply(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "lying header must be rejected"
    );

    // The very next frame on the same trickled connection decodes cleanly.
    let valid = encode_binary_frame(session, &frames[0], ProbEncoding::F64);
    writer.write_all(&valid).unwrap();
    writer.flush().unwrap();
    match read_reply() {
        Response::Verdicts {
            frame, verdicts, ..
        } => {
            assert_eq!(frame, 0);
            assert_eq!(verdicts, in_process_verdicts(&frames[..1])[0].verdicts);
        }
        other => panic!("expected verdicts after resync, got {other:?}"),
    }

    proxy.shutdown();
    handle.shutdown();
}

#[test]
fn multibyte_utf8_camera_names_survive_maximal_fragmentation() {
    // A camera name full of multi-byte code points crosses the proxy one
    // byte at a time, so every read boundary falls inside a UTF-8 sequence
    // somewhere. The JSON decoder must reassemble it byte-exactly.
    let handle = spawn_server(chaos_server_config());
    let proxy = ChaosProxy::spawn(handle.local_addr(), FaultPlan::trickle(), 14)
        .expect("proxy bind succeeds");

    let mut client = ServeClient::connect_with(proxy.local_addr(), chaos_client_config()).unwrap();
    let name = "καμερα-日本-🎥-ü";
    let (session, _) = client.open("default", name).unwrap();
    let frames = camera_frames(2);
    let (frame, _) = client.submit(session, &frames[0]).unwrap();
    assert_eq!(frame, 0);
    client.close(session).unwrap();

    proxy.shutdown();
    let stats = handle.shutdown();
    assert_eq!(stats.sessions_opened, 1);
}

#[test]
fn session_survives_a_chaos_killed_connection_via_resume() {
    // THE chaos invariant: sessions are keyed by id, not by connection. A
    // torn wire kills the connection mid-stream; the retrying client
    // reconnects, resumes, and finishes the exact same session with
    // verdicts bit-identical to an unbroken in-process run.
    let handle = spawn_server(chaos_server_config());
    let proxy =
        ChaosProxy::spawn(handle.local_addr(), FaultPlan::torn(), 15).expect("proxy bind succeeds");
    let frames = camera_frames(3);
    let reference = in_process_verdicts(&frames);

    let mut client = ServeClient::connect_with(proxy.local_addr(), chaos_client_config()).unwrap();
    client
        .negotiate(FrameFormat::Binary(ProbEncoding::F64))
        .unwrap();
    let (session, _) = client.open("default", "torn-cam").unwrap();
    for (index, probs) in frames.iter().enumerate() {
        match client.submit_with_retry(session, probs).unwrap() {
            Submission::Served { frame, verdicts } => {
                assert_eq!(frame, index);
                assert_eq!(
                    verdicts, reference[index].verdicts,
                    "resumed session must stay bit-identical at frame {index}"
                );
            }
            Submission::Applied { frame } => assert_eq!(frame, index),
        }
    }
    assert!(
        client.reconnects() > 0,
        "the torn plan must actually kill at least one connection"
    );
    client.close_with_retry(session).unwrap();

    proxy.shutdown();
    let stats = handle.shutdown();
    assert!(stats.sessions_resumed > 0, "resume path must have run");
}

#[test]
fn every_session_of_a_client_survives_a_reconnect_made_for_another() {
    // Two sessions share one client through torn wires, submitting frames
    // alternately. A fault on one session's request reconnects the client,
    // which orphans both sessions server-side; the other session must be
    // resumed on the new connection before its next frame, not answered
    // `unknown-session`.
    let handle = spawn_server(chaos_server_config());
    let proxy =
        ChaosProxy::spawn(handle.local_addr(), FaultPlan::torn(), 16).expect("proxy bind succeeds");
    let frames = [camera_frames(5), camera_frames(6)];
    let reference = frames.each_ref().map(|f| in_process_verdicts(f));

    let mut client = ServeClient::connect_with(proxy.local_addr(), chaos_client_config()).unwrap();
    client
        .negotiate(FrameFormat::Binary(ProbEncoding::F64))
        .unwrap();
    let sessions = [
        client.open("default", "torn-cam-a").unwrap().0,
        client.open("default", "torn-cam-b").unwrap().0,
    ];
    for index in 0..FRAMES {
        for (camera, &session) in sessions.iter().enumerate() {
            match client
                .submit_with_retry(session, &frames[camera][index])
                .unwrap_or_else(|e| panic!("camera {camera} frame {index}: {e}"))
            {
                Submission::Served { frame, verdicts } => {
                    assert_eq!(frame, index);
                    assert_eq!(
                        verdicts, reference[camera][index].verdicts,
                        "camera {camera} must stay bit-identical at frame {index}"
                    );
                }
                Submission::Applied { frame } => assert_eq!(frame, index),
            }
        }
    }
    assert!(
        client.reconnects() > 0,
        "the torn plan must actually kill at least one connection"
    );
    for session in sessions {
        client.close_with_retry(session).unwrap();
    }

    proxy.shutdown();
    let stats = handle.shutdown();
    assert_eq!(stats.frames_processed, 2 * FRAMES);
}

#[test]
fn mid_frame_stalls_trip_the_read_deadline_and_idle_conns_expire() {
    let handle = spawn_server(ServerConfig {
        read_timeout_ms: 300,
        idle_timeout_ms: 500,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // A connection that sends half a request then stalls must be reaped by
    // the mid-frame read deadline…
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"{\"op\":\"ping\"").unwrap(); // no newline
    stalled.flush().unwrap();
    // …and a connection that completes its handshake then goes silent must
    // be reaped by the idle deadline.
    let mut idle = TcpStream::connect(addr).unwrap();
    writeln!(idle, "{}", Request::Ping.encode()).unwrap();
    let mut pong = String::new();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
    idle_reader.read_line(&mut pong).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().timed_out < 2 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(25));
    }
    let stats = handle.shutdown();
    assert!(
        stats.timed_out >= 2,
        "both the mid-frame stall and the idle connection must time out \
         (timed_out = {})",
        stats.timed_out
    );
}

#[test]
fn connections_beyond_the_cap_get_a_typed_overload_reply() {
    let handle = spawn_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let mut first = ServeClient::connect(addr).unwrap();
    let mut second = ServeClient::connect(addr).unwrap();
    first.ping().unwrap();
    second.ping().unwrap();

    // The third connection is shed at accept time with a typed reply, then
    // closed — it never gets to send a request.
    let third = TcpStream::connect(addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    BufReader::new(third).read_line(&mut reply).unwrap();
    match Response::decode(reply.trim_end()).unwrap() {
        Response::Error {
            code: ErrorCode::Overloaded,
            message,
        } => assert!(message.contains("connection limit"), "got: {message}"),
        other => panic!("expected a typed overload reply, got {other:?}"),
    }
    // The admitted connections keep working.
    first.ping().unwrap();
    second.ping().unwrap();

    drop(first);
    drop(second);
    let stats = handle.shutdown();
    assert_eq!(stats.shed_connections, 1);
}

#[test]
fn slow_consumers_are_evicted_once_their_output_backlog_exceeds_the_cap() {
    let handle = spawn_server(ServerConfig {
        max_outbuf_bytes: 4 * 1024,
        // Keep the deadlines out of the way: eviction must fire on bytes.
        idle_timeout_ms: 0,
        read_timeout_ms: 0,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Flood pings without ever reading a pong: the kernel socket buffers
    // fill, responses back up in the server's per-connection output
    // buffer, and the slow-consumer cap must cut the connection loose.
    let mut flood = TcpStream::connect(addr).unwrap();
    flood
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let line = format!("{}\n", Request::Ping.encode());
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().evicted_slow == 0 && Instant::now() < deadline {
        if flood.write_all(line.as_bytes()).is_err() {
            // The server closed on us — exactly the eviction we're after;
            // give the counter a beat to land.
            thread::sleep(Duration::from_millis(50));
        }
    }
    let stats = handle.shutdown();
    assert_eq!(
        stats.evicted_slow, 1,
        "the unread flood must evict exactly this connection"
    );
}

#[test]
fn resume_is_denied_while_the_owning_connection_is_alive() {
    let handle = spawn_server(chaos_server_config());
    let addr = handle.local_addr();

    let mut owner = ServeClient::connect(addr).unwrap();
    let (session, _) = owner.open("default", "owned-cam").unwrap();

    // A hijacker on a second connection must not be able to steal the
    // session while the owner is still attached.
    let mut hijacker = ServeClient::connect(addr).unwrap();
    let denied = hijacker.resume(session).unwrap_err();
    assert_eq!(denied.server_code(), Some(ErrorCode::UnknownSession));

    // The owner is unaffected.
    let frames = camera_frames(4);
    let (frame, _) = owner.submit(session, &frames[0]).unwrap();
    assert_eq!(frame, 0);
    owner.close(session).unwrap();
    handle.shutdown();
}

#[test]
fn orphaned_sessions_expire_after_their_linger_window() {
    let handle = spawn_server(ServerConfig {
        session_linger_ms: 300,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let mut client = ServeClient::connect(addr).unwrap();
    let (session, _) = client.open("default", "doomed-cam").unwrap();
    assert_eq!(handle.open_sessions(), 1);
    drop(client); // orphan the session

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.open_sessions() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(handle.open_sessions(), 0, "the orphan must expire");

    // A resume after expiry is a typed unknown-session, not a hang.
    let mut late = ServeClient::connect(addr).unwrap();
    let denied = late.resume(session).unwrap_err();
    assert_eq!(denied.server_code(), Some(ErrorCode::UnknownSession));

    let stats = handle.shutdown();
    assert_eq!(stats.sessions_expired, 1);
}

#[test]
fn a_wedged_server_surfaces_as_a_typed_timeout_not_a_hang() {
    // A listener that accepts and then never answers: the client's default
    // socket deadlines must turn this into the retryable TimedOut error.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let wedge = thread::spawn(move || {
        let (_conn, _) = listener.accept().unwrap();
        thread::sleep(Duration::from_secs(5));
    });

    let mut client = ServeClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, ServeError::TimedOut(_)),
        "expected the typed timeout, got {err:?}"
    );
    assert!(err.is_retryable());
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the deadline must fire long before the wedge clears"
    );
    wedge.join().unwrap();
}

/// A scripted server: accepts one connection per entry of `script` in turn
/// and answers each request line it reads with the next reply of that
/// entry; a `None` reply drops the connection on that request. Returns the
/// address and a handle yielding every request it read.
fn scripted_server(
    script: Vec<Vec<Option<&'static str>>>,
) -> (SocketAddr, thread::JoinHandle<Vec<Request>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let mut requests = Vec::new();
        for replies in script {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            for reply in replies {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                requests.push(Request::decode(line.trim_end()).unwrap());
                match reply {
                    Some(reply) => writeln!(conn, "{reply}").unwrap(),
                    None => break,
                }
            }
        }
        requests
    });
    (addr, server)
}

#[test]
fn an_undecodable_reply_is_one_protocol_error_with_one_prefix() {
    let (addr, server) = scripted_server(vec![vec![Some("not json")]]);
    let err = ServeClient::connect(addr).unwrap().ping().unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "protocol error: json error: at byte 0: unexpected character `n`"
    );
    assert!(err.is_retryable());
    assert_eq!(server.join().unwrap(), vec![Request::Ping]);
}

#[test]
fn a_resume_answered_bad_request_reconnects_and_the_frame_is_served() {
    // Connection 1 drops on the frame; connection 2 answers the resume with
    // `bad-request` (a resume line corrupted on the wire); connection 3
    // resumes at frame 0 and serves it. `bad-request` reconnects in every
    // retry loop, the resume loop included.
    let (addr, server) = scripted_server(vec![
        vec![
            Some(r#"{"ok":"opened","session":1,"series_length":2}"#),
            None,
        ],
        vec![Some(
            r#"{"err":"bad-request","message":"unknown op `rsume`"}"#,
        )],
        vec![
            Some(r#"{"ok":"resumed","session":1,"frames":0}"#),
            Some(r#"{"ok":"verdicts","session":1,"frame":0,"verdicts":[]}"#),
        ],
    ]);
    let probs = ProbMap::uniform(2, 1, 3);
    let mut client = ServeClient::connect(addr).unwrap();
    let (session, _) = client.open("default", "cam").unwrap();
    let submission = client.submit_with_retry(session, &probs).unwrap();
    assert_eq!(
        submission,
        Submission::Served {
            frame: 0,
            verdicts: Vec::new()
        }
    );
    assert_eq!(client.reconnects(), 2);
    let frame = Request::Frame { session, probs };
    let resume = Request::Resume { session };
    assert_eq!(
        server.join().unwrap(),
        vec![
            Request::Open {
                model: "default".into(),
                camera: "cam".into()
            },
            frame.clone(),
            resume.clone(),
            resume,
            frame,
        ]
    );
}
