//! # metaseg-serve
//!
//! An event-loop-based, multi-client inference service over the streaming
//! MetaSeg engine: many camera feeds, many models, one process, memory
//! bounded per session.
//!
//! The crate splits into:
//!
//! * [`ModelRegistry`] — named, cached, pre-validated [`MetaPredictor`]
//!   handles (insert fitted handles in-process, load their checkpoint
//!   containers, and hot-swap new versions under live traffic),
//! * [`Server`] / [`ServerHandle`] — the TCP server: one readiness-driven
//!   event-loop thread multiplexing every connection over nonblocking
//!   sockets (epoll via the vendored poller), plus **sharded** worker
//!   threads — sessions are keyed onto shards by `session_id % workers`, so
//!   per-session frame order is preserved by construction while distinct
//!   sessions run in parallel. The event loop frames each request; a JSON
//!   frame line as [`Request::encode_frame`] writes it is decoded on its
//!   session's shard worker, so JSON decoding runs in parallel too. Each
//!   shard drains **micro-batches** (up to `batch_max` queued jobs at a
//!   time) from its own bounded queue and rejects overload with a typed
//!   `backpressure` error instead of blocking or buffering unboundedly,
//! * [`Request`] / [`Response`] — the JSON-lines wire protocol,
//! * [`wire`] — the negotiated length-prefixed **binary frame fast path**
//!   for submissions (raw little-endian `f64`/`f32`/quantized-`u16` softmax
//!   payloads behind a fixed checksummed header; see the module docs for
//!   the byte layout),
//! * [`ServeClient`] — a small blocking client for tests, demos and load
//!   generators,
//! * [`ServeError`] — the one error type: every decoder and every client
//!   method returns it.
//!
//! [`MetaPredictor`]: metaseg_learners::MetaPredictor
//!
//! ## Wire format
//!
//! One compact JSON object per line; requests carry an `"op"`, success
//! responses an `"ok"`, errors an `"err"` code. The encoding is stable and
//! doc-tested:
//!
//! ```
//! use metaseg_serve::{ErrorCode, Request, Response};
//!
//! // A session-open request renders to one JSON line…
//! let open = Request::Open { model: "default".into(), camera: "cam-0".into() };
//! assert_eq!(
//!     open.encode(),
//!     r#"{"op":"open","model":"default","camera":"cam-0"}"#
//! );
//!
//! // …and the matching response parses back into typed form.
//! let reply = Response::decode(r#"{"ok":"opened","session":1,"series_length":3}"#).unwrap();
//! assert_eq!(reply, Response::Opened { session: 1, series_length: 3 });
//!
//! // Overload is a typed, retryable error — never a dropped connection.
//! let busy = Response::decode(
//!     r#"{"err":"backpressure","message":"inference queue is full (64 jobs)"}"#
//! ).unwrap();
//! assert!(matches!(busy, Response::Error { code: ErrorCode::Backpressure, .. }));
//! ```
//!
//! Frame submissions can additionally switch to the binary fast path, per
//! connection:
//!
//! ```
//! use metaseg::DispersionPrecision;
//! use metaseg_serve::{FrameFormat, Request, Response};
//! use metaseg_data::ProbEncoding;
//!
//! let negotiate = Request::Negotiate {
//!     format: FrameFormat::Binary(ProbEncoding::F64),
//!     dispersion: DispersionPrecision::F64,
//! };
//! assert_eq!(negotiate.encode(), r#"{"op":"negotiate","frames":"binary-f64"}"#);
//! let reply = Response::decode(r#"{"ok":"negotiated","frames":"binary-f64"}"#).unwrap();
//! assert_eq!(
//!     reply,
//!     Response::Negotiated {
//!         format: FrameFormat::Binary(ProbEncoding::F64),
//!         dispersion: DispersionPrecision::F64,
//!     }
//! );
//!
//! // Opting into the f32 dispersion fast path adds one key to the line.
//! let fast = Request::Negotiate {
//!     format: FrameFormat::Binary(ProbEncoding::U16),
//!     dispersion: DispersionPrecision::F32,
//! };
//! assert_eq!(
//!     fast.encode(),
//!     r#"{"op":"negotiate","frames":"binary-u16","dispersion":"f32"}"#
//! );
//! ```
//!
//! After that, each frame travels as a 36-byte header plus the raw
//! little-endian payload (layout doc-tested in [`wire`]); every response —
//! and every other request — stays a JSON line, so the two formats coexist
//! on one connection and pre-binary peers interoperate unchanged.
//!
//! ## Session lifecycle
//!
//! `open` creates a session owning a fresh
//! [`MetaSegStream`](metaseg::stream::MetaSegStream); each `frame`
//! submission runs the single-pass extraction → incremental tracking →
//! windowed inference pipeline and answers with per-segment verdicts
//! (predicted IoU, false-positive probability, track id) for *that* frame;
//! `stats` snapshots the session counters; `close` releases the session.
//!
//! Sessions are keyed by id, **not** by connection. When a connection dies
//! with sessions still open, those sessions are *orphaned* and linger for
//! [`ServerConfig::session_linger_ms`] — a reconnecting client re-attaches
//! with `resume` (see [`ServeClient::resume`]), which answers the
//! authoritative count of frames applied so far, routed through the
//! session's shard queue so it is ordered behind any in-flight frame. A
//! session that is never resumed expires at the end of its linger window,
//! so there is still no server-side session leak when a camera goes away
//! for good (`session_linger_ms: 0` restores strict die-with-connection
//! behaviour).
//!
//! ## Fault tolerance
//!
//! The server assumes clients misbehave: per-connection idle and mid-frame
//! read deadlines (a deadline heap swept each poll tick) reap wedged and
//! slow-loris peers, an accept-time `max_connections` cap sheds overload
//! with a typed [`ErrorCode::Overloaded`] reply, and a bounded
//! per-connection output buffer evicts slow consumers instead of buffering
//! without limit. The client assumes the network misbehaves: socket
//! deadlines by default, and one retry rule ([`ServeError::is_retryable`]):
//! jittered exponential backoff on overload, reconnect-resume on transport
//! faults, timeouts, undecodable replies and `bad-request`
//! ([`ClientConfig`], [`ServeClient::submit_with_retry`], [`Submission`]).
//! The whole stack is exercised end to end by the byte-level chaos proxy
//! (`metaseg_sim::ChaosProxy`) in the `chaos` integration tests and the
//! `serve_loadtest --chaos` survival bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
mod protocol;
mod registry;
mod server;
mod shard;
mod transport;
pub mod wire;

pub use client::{ClientConfig, ServeClient, Submission};
pub use error::ServeError;
pub use protocol::{ErrorCode, FrameFormat, Request, Response};
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats, ShardStats};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: a small fitted predictor over the simulator.

    use metaseg::stream::StreamConfig;
    use metaseg::timedyn::{MetaModel, TimeDynConfig, TimeDynamic};
    use metaseg_learners::{MetaPredictor, TabularDataset};
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoScenario};
    use rand::{rngs::StdRng, SeedableRng};

    /// Fits a gradient-boosting predictor on time series of `length` frames
    /// of the small simulated video scenario.
    pub fn fitted_model(length: usize) -> (StreamConfig, MetaPredictor) {
        let mut rng = StdRng::seed_from_u64(900);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let scenario = VideoScenario::generate(&VideoConfig::small(), &sim, &mut rng);
        let pipeline = TimeDynamic::new(TimeDynConfig::default());
        let mut train = TabularDataset::new();
        for sequence in &scenario.dataset().sequences {
            let analysis = pipeline.analyze_sequence(sequence);
            train.extend_from(&pipeline.time_series_dataset(&analysis, length));
        }
        let predictor = pipeline
            .fit_predictor(MetaModel::GradientBoosting, &train, 0)
            .expect("the small scenario is fittable");
        (StreamConfig::default(), predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fitted_model;
    use metaseg_data::{ProbMap, SemanticClass};
    use metaseg_sim::{NetworkProfile, NetworkSim, VideoConfig, VideoStream};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn registry_with_default(length: usize) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let (config, predictor) = fitted_model(length);
        registry
            .insert("default", config, predictor)
            .expect("fixture model is valid");
        registry
    }

    #[test]
    fn serve_one_camera_end_to_end() {
        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let mut client = ServeClient::connect(addr).unwrap();
        client.ping().unwrap();
        let (session, series_length) = client.open("default", "cam-0").unwrap();
        assert_eq!(series_length, 2);

        let mut rng = StdRng::seed_from_u64(901);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let frames: Vec<_> = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .take(4)
            .map(|f| f.prediction)
            .collect();
        for (i, probs) in frames.iter().enumerate() {
            let (frame, verdicts) = client.submit(session, probs).unwrap();
            assert_eq!(frame, i);
            for verdict in &verdicts {
                assert!((0.0..=1.0).contains(&verdict.tp_probability));
                assert!((0.0..=1.0).contains(&verdict.predicted_iou));
            }
        }
        let stats = client.stats(session).unwrap();
        assert_eq!(stats.frames, 4);
        let final_stats = client.close(session).unwrap();
        assert_eq!(final_stats.frames, 4);
        // Closed sessions are gone.
        assert_eq!(
            client.stats(session).unwrap_err().server_code(),
            Some(ErrorCode::UnknownSession)
        );

        let server_stats = handle.shutdown();
        assert_eq!(server_stats.connections, 1);
        assert_eq!(server_stats.sessions_opened, 1);
        assert_eq!(server_stats.frames_processed, 4);
        assert_eq!(server_stats.rejected, 0);
    }

    #[test]
    fn oversized_lines_drop_the_connection_instead_of_growing_memory() {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                max_line_bytes: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // A newline-free flood larger than the cap: the server must close
        // the connection (without ever answering) rather than buffer the
        // line forever. The write may fail mid-flood when the server
        // closes first; both outcomes are the success case.
        let _ = stream.write_all(&vec![b'x'; 64 * 1024]);
        let _ = stream.flush();
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        assert!(
            reply.is_empty(),
            "no response expected to an oversized partial line"
        );
        handle.shutdown();
    }

    #[test]
    fn unknown_model_and_malformed_lines_keep_the_connection_alive() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // A request with invalid UTF-8 inside a JSON string is rejected
        // outright (never lossily altered into a "valid" camera name), and
        // the connection survives for everything below.
        writer
            .write_all(b"{\"op\":\"open\",\"model\":\"default\",\"camera\":\"\xFF\xFE\"}\n")
            .unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::decode(reply.trim_end()).unwrap() {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("UTF-8"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        let mut roundtrip = |line: &[u8]| -> Response {
            writer.write_all(line).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };

        // A raw garbage line gets a typed bad-request error…
        assert!(matches!(
            roundtrip(b"this is not json"),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // …an unknown model a typed unknown-model error…
        assert!(matches!(
            roundtrip(
                Request::Open {
                    model: "missing".into(),
                    camera: "cam".into()
                }
                .encode()
                .as_bytes()
            ),
            Response::Error {
                code: ErrorCode::UnknownModel,
                ..
            }
        ));
        // …a frame for a never-opened session a typed unknown-session error…
        assert!(matches!(
            roundtrip(Request::Stats { session: 99 }.encode().as_bytes()),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        // …and the same connection still serves real requests afterwards.
        let open = Request::Open {
            model: "default".into(),
            camera: "cam".into(),
        }
        .encode();
        let Response::Opened { session, .. } = roundtrip(open.as_bytes()) else {
            panic!("open must succeed");
        };

        // Frame lines spelled exactly as `Request::encode_frame` writes them
        // are answered as any other frame line is. A body that does not
        // decode gets `bad-request` with the decoder's message, on a session
        // this connection owns and on one another connection owns: the
        // decode error wins over `unknown-session`.
        let bad_request_message = |reply: Response| match reply {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => message,
            other => panic!("unexpected response {other:?}"),
        };
        let mut other = ServeClient::connect(handle.local_addr()).unwrap();
        let (foreign, _) = other.open("default", "cam-other").unwrap();
        for session in [session, foreign] {
            let malformed = format!(r#"{{"op":"frame","session":{session},"probs":{{"width":2"#);
            assert_eq!(
                bad_request_message(roundtrip(malformed.as_bytes())),
                Request::decode(&malformed).unwrap_err().to_string()
            );
        }
        // Invalid UTF-8 after the prefix is rejected as on any other line.
        let mut invalid = format!(r#"{{"op":"frame","session":{session},"probs":""#).into_bytes();
        invalid.extend_from_slice(b"\xFF\"}");
        let message = bad_request_message(roundtrip(&invalid));
        assert!(message.contains("UTF-8"), "unexpected: {message}");
        // A frame wider than the class catalogue never reaches extraction.
        let wide = ProbMap::uniform(2, 1, SemanticClass::ALL.len() + 1);
        let message =
            bad_request_message(roundtrip(Request::encode_frame(session, &wide).as_bytes()));
        assert!(
            message.contains("softmax channels"),
            "unexpected: {message}"
        );

        // A frame with its keys in another order is served as the canonical
        // line is: the same verdicts from two fresh sessions.
        let mut rng = StdRng::seed_from_u64(903);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let probs = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .next()
            .expect("the stream yields a frame")
            .prediction;
        let mut served = Vec::new();
        for reorder in [false, true] {
            let Response::Opened { session, .. } = roundtrip(open.as_bytes()) else {
                panic!("open must succeed");
            };
            let canonical = Request::encode_frame(session, &probs);
            let line = if reorder {
                let prefix = format!(r#"{{"op":"frame","session":{session},"#);
                let probs_entry = canonical
                    .strip_prefix(&prefix)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .expect("the canonical spelling");
                format!(r#"{{"session":{session},{probs_entry},"op":"frame"}}"#)
            } else {
                canonical
            };
            let Response::Verdicts {
                frame, verdicts, ..
            } = roundtrip(line.as_bytes())
            else {
                panic!("a valid frame is served");
            };
            served.push((frame, verdicts));
        }
        assert!(!served[0].1.is_empty(), "the frame has segments to judge");
        assert_eq!(served[0], served[1]);
        handle.shutdown();
    }

    /// A frame line that meets a full shard queue is answered as it always
    /// was: a malformed one with `bad-request`, which never counts as
    /// rejected, and a valid one with `backpressure`, counted once.
    #[test]
    fn frame_lines_at_a_full_queue_get_bad_request_or_backpressure() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        use std::thread;
        use std::time::Duration;

        let registry = registry_with_default(2);
        let handle = Server::spawn(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                synthetic_delay_ms: 400,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
        };
        let mut read_reply = || {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };

        send(
            &Request::Open {
                model: "default".into(),
                camera: "cam".into(),
            }
            .encode(),
        );
        let Response::Opened { session, .. } = read_reply() else {
            panic!("open must succeed");
        };
        let frame = Request::encode_frame(session, &ProbMap::uniform(6, 4, 3));
        // The worker takes the first frame and sleeps on it; the second
        // fills the one queue slot.
        send(&frame);
        thread::sleep(Duration::from_millis(150));
        send(&frame);
        thread::sleep(Duration::from_millis(150));
        // Both of these meet the full queue.
        send(&format!(
            r#"{{"op":"frame","session":{session},"probs":[}}"#
        ));
        send(&frame);
        assert!(matches!(read_reply(), Response::Verdicts { frame: 0, .. }));
        assert!(matches!(read_reply(), Response::Verdicts { frame: 1, .. }));
        assert!(matches!(
            read_reply(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            read_reply(),
            Response::Error {
                code: ErrorCode::Backpressure,
                ..
            }
        ));

        let stats = handle.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.frames_processed, 2);
        assert_eq!(stats.peak_queue_depth, 1);
    }

    #[test]
    fn binary_frames_require_negotiation_and_malformed_ones_keep_the_connection() {
        use crate::wire::encode_binary_frame;
        use metaseg_data::ProbEncoding;
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let read_reply = |reader: &mut BufReader<TcpStream>| -> Response {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };
        let probs = ProbMap::uniform(6, 4, 3);
        let frame = encode_binary_frame(1, &probs, ProbEncoding::F64);

        // A binary frame before negotiation is a typed error, not a
        // dropped connection (the header's length field lets the server
        // skip the payload and resynchronise).
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
        let reply = read_reply(&mut reader);
        assert!(matches!(
            reply,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));

        // Negotiate binary framing, open a session — both JSON lines.
        writeln!(
            writer,
            "{}",
            Request::Negotiate {
                format: FrameFormat::Binary(ProbEncoding::F64),
                dispersion: metaseg::DispersionPrecision::F64
            }
            .encode()
        )
        .unwrap();
        assert!(matches!(
            read_reply(&mut reader),
            Response::Negotiated {
                format: FrameFormat::Binary(ProbEncoding::F64),
                ..
            }
        ));
        writeln!(
            writer,
            "{}",
            Request::Open {
                model: "default".into(),
                camera: "cam".into()
            }
            .encode()
        )
        .unwrap();
        let Response::Opened { session, .. } = read_reply(&mut reader) else {
            panic!("open must succeed");
        };

        // A corrupt payload (checksum mismatch) is a typed error and the
        // connection survives…
        let mut corrupt = encode_binary_frame(session, &probs, ProbEncoding::F64);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        writer.write_all(&corrupt).unwrap();
        writer.flush().unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("checksum"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        // …as is a header that lies about its dimensions…
        let mut lying = encode_binary_frame(session, &probs, ProbEncoding::F64);
        lying[12..16].copy_from_slice(&77u32.to_le_bytes());
        writer.write_all(&lying).unwrap();
        writer.flush().unwrap();
        match read_reply(&mut reader) {
            Response::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(message.contains("shape requires"), "unexpected: {message}"),
            other => panic!("unexpected response {other:?}"),
        }

        // …and a binary frame for a session that was never opened.
        let unknown = encode_binary_frame(9999, &probs, ProbEncoding::F64);
        writer.write_all(&unknown).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_reply(&mut reader),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));

        // The same connection still processes a valid binary frame.
        let valid = encode_binary_frame(session, &probs, ProbEncoding::F64);
        writer.write_all(&valid).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_reply(&mut reader),
            Response::Verdicts { frame: 0, .. }
        ));

        let stats = handle.shutdown();
        assert_eq!(stats.frames_processed, 1);
        // Arrival counter: only the valid frame counts — pre-negotiation,
        // unknown-session and malformed frames are all rejected before
        // their payload is ever decoded.
        assert_eq!(stats.binary_frames, 1);
    }

    /// `count` softmax fields of the small simulated video (96x48), each
    /// cropped to its bottom-centre `width` x `height` window.
    fn video_crops(width: usize, height: usize, count: usize, seed: u64) -> Vec<ProbMap> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = NetworkSim::new(NetworkProfile::weak());
        VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .take(count)
            .map(|frame| {
                let probs = frame.prediction;
                let left = (probs.width() - width) / 2;
                let top = probs.height() - height;
                let values = (top..top + height)
                    .flat_map(|y| (left..left + width).map(move |x| (x, y)))
                    .flat_map(|(x, y)| probs.distribution(x, y).to_vec())
                    .collect();
                ProbMap::from_values(width, height, probs.num_classes(), values)
                    .expect("a window of a valid field")
            })
            .collect()
    }

    /// One write carries small binary frames, several to a read, a JSON
    /// `stats` line, a 64x48x19 f64 frame (~467 KB) that spans many reads,
    /// and one more frame right behind it. The replies come back in request
    /// order and equal what the in-process engine answers.
    #[test]
    fn pipelined_binary_frames_are_read_whole_and_answered_in_order() {
        use crate::wire::encode_binary_frame;
        use metaseg_data::{Frame, FrameId, ProbEncoding};
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let model = registry.get("default").expect("registered above");
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut read_reply = || {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };
        let negotiate = Request::Negotiate {
            format: FrameFormat::Binary(ProbEncoding::F64),
            dispersion: metaseg::DispersionPrecision::F64,
        };
        writeln!(writer, "{}", negotiate.encode()).unwrap();
        assert!(matches!(read_reply(), Response::Negotiated { .. }));
        let mut sessions = Vec::new();
        for camera in ["cam-small", "cam-large"] {
            let open = Request::Open {
                model: "default".into(),
                camera: camera.into(),
            };
            writeln!(writer, "{}", open.encode()).unwrap();
            let Response::Opened { session, .. } = read_reply() else {
                panic!("open must succeed");
            };
            sessions.push(session);
        }
        let (small_session, large_session) = (sessions[0], sessions[1]);

        let small = video_crops(6, 4, 4, 904);
        let large = video_crops(64, 48, 1, 905);
        // The first three fit in one 16 KiB read of the event loop.
        assert!(3 * (36 + small[0].values().len() * 8) < 16 * 1024);
        assert_eq!(large[0].values().len() * 8, 64 * 48 * 19 * 8);
        let mut small_engine = model.open_stream();
        let mut large_engine = model.open_stream();
        let push = |engine: &mut metaseg::stream::MetaSegStream, session: u64, probs: &ProbMap| {
            let id = FrameId::new(session as usize, engine.frames_seen());
            let pushed = engine.push_frame(&Frame::unlabeled(id, probs.clone()));
            Response::Verdicts {
                session,
                frame: pushed.frame,
                verdicts: pushed.verdicts,
            }
        };

        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for probs in &small[..3] {
            bytes.extend(encode_binary_frame(small_session, probs, ProbEncoding::F64));
            expected.push(push(&mut small_engine, small_session, probs));
        }
        bytes.extend(
            Request::Stats {
                session: small_session,
            }
            .encode()
            .as_bytes(),
        );
        bytes.push(b'\n');
        expected.push(Response::Stats {
            session: small_session,
            stats: small_engine.session_stats(),
        });
        bytes.extend(encode_binary_frame(
            large_session,
            &large[0],
            ProbEncoding::F64,
        ));
        expected.push(push(&mut large_engine, large_session, &large[0]));
        bytes.extend(encode_binary_frame(
            small_session,
            &small[3],
            ProbEncoding::F64,
        ));
        expected.push(push(&mut small_engine, small_session, &small[3]));
        writer.write_all(&bytes).unwrap();

        let served: Vec<Response> = expected.iter().map(|_| read_reply()).collect();
        assert_eq!(served, expected);
        assert!(
            served.iter().any(
                |reply| matches!(reply, Response::Verdicts { verdicts, .. } if !verdicts.is_empty())
            ),
            "the frames have segments to judge"
        );
        let stats = handle.shutdown();
        assert_eq!(stats.binary_frames, 5);
        assert_eq!(stats.frames_processed, 5);
    }

    /// A payload declared larger than the server can allocate is answered
    /// `bad-request` and its connection closed, and the server lives on.
    #[test]
    fn an_unallocatable_payload_is_refused_and_the_server_lives_on() {
        use crate::wire::BinaryFrameHeader;
        use metaseg_data::ProbEncoding;
        use std::io::{BufRead, BufReader, Read, Write};
        use std::net::TcpStream;
        use std::time::Duration;

        let registry = registry_with_default(2);
        let handle = Server::spawn(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                max_line_bytes: usize::MAX,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut roundtrip = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::decode(reply.trim_end()).unwrap()
        };
        let negotiate = Request::Negotiate {
            format: FrameFormat::Binary(ProbEncoding::F64),
            dispersion: metaseg::DispersionPrecision::F64,
        };
        assert!(matches!(
            roundtrip(&negotiate.encode()),
            Response::Negotiated { .. }
        ));
        let open = Request::Open {
            model: "default".into(),
            camera: "cam".into(),
        };
        let Response::Opened { session, .. } = roundtrip(&open.encode()) else {
            panic!("open must succeed");
        };

        // A consistent 2^20 x 2^20 x 2^19 f64 shape: a 2^62-byte payload,
        // within the cap, for a session this connection owns.
        let header = BinaryFrameHeader {
            session,
            encoding: ProbEncoding::F64,
            width: 1 << 20,
            height: 1 << 20,
            channels: 1 << 19,
            payload_len: 1 << 62,
            checksum: 0,
        };
        assert_eq!(header.checked_payload_len(u64::MAX).unwrap(), 1 << 62);
        writer.write_all(&header.to_bytes()).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        let mut lines = rest.lines();
        assert!(matches!(
            Response::decode(lines.next().expect("one reply")).unwrap(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert_eq!(lines.next(), None, "then the connection closes");

        let mut client = ServeClient::connect(handle.local_addr()).unwrap();
        client.ping().unwrap();
        let (session, _) = client.open("default", "cam").unwrap();
        let probs = ProbMap::uniform(6, 4, 3);
        assert_eq!(client.submit(session, &probs).unwrap().0, 0);
        handle.shutdown();
    }

    #[test]
    fn negotiate_confirms_the_dispersion_precision_frames_actually_get() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut roundtrip = |line: &str| -> String {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };

        // JSON frames decode to an f64 field and always scan at f64, so a
        // JSON negotiation confirms f64 (the default, absent from the line)…
        assert_eq!(
            roundtrip(r#"{"op":"negotiate","frames":"json","dispersion":"f32"}"#),
            r#"{"ok":"negotiated","frames":"json"}"#
        );
        // …while a binary negotiation echoes the precision it asked for.
        assert_eq!(
            roundtrip(r#"{"op":"negotiate","frames":"binary-u16","dispersion":"f32"}"#),
            r#"{"ok":"negotiated","frames":"binary-u16","dispersion":"f32"}"#
        );
        assert_eq!(
            roundtrip(r#"{"op":"negotiate","frames":"binary-f64"}"#),
            r#"{"ok":"negotiated","frames":"binary-f64"}"#
        );
        handle.shutdown();
    }

    #[test]
    fn negotiated_client_submits_binary_frames_with_identical_verdicts() {
        use metaseg_data::ProbEncoding;

        let registry = registry_with_default(2);
        let handle = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let mut rng = StdRng::seed_from_u64(902);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let frames: Vec<_> = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .take(3)
            .map(|f| f.prediction)
            .collect();

        let submit_all = |format: Option<FrameFormat>| {
            let mut client = ServeClient::connect(addr).unwrap();
            if let Some(format) = format {
                client.negotiate(format).unwrap();
                assert_eq!(client.frame_format(), format);
            }
            let (session, _) = client.open("default", "cam").unwrap();
            let verdicts: Vec<_> = frames
                .iter()
                .map(|probs| client.submit(session, probs).unwrap())
                .collect();
            client.close(session).unwrap();
            verdicts
        };

        let json = submit_all(None);
        let binary = submit_all(Some(FrameFormat::Binary(ProbEncoding::F64)));
        // The lossless binary path yields bit-identical verdicts.
        assert_eq!(json, binary);

        let stats = handle.shutdown();
        assert_eq!(stats.frames_processed, 6);
        assert_eq!(stats.binary_frames, 3);
    }
}
