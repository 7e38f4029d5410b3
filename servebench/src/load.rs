//! The load generator: an in-process server on loopback, raw client
//! connections carrying pre-encoded frames, and a closed loop per connection.
//!
//! Each connection keeps up to `in_flight` frames outstanding, picks sessions
//! round-robin and never has two frames of one session in flight, so every
//! session sees its frames in loop order. Latency runs from writing a frame's
//! first byte to having its reply decoded with `Response::decode`.

use crate::check::digest;
use crate::trace::{quantile, Tracer};
use crate::workload::{prepare, Inputs, Spec, MODEL, SERIES_LENGTH};
use metaseg::stream::SegmentVerdict;
use metaseg_data::ProbMap;
use metaseg_serve::wire::encode_binary_frame;
use metaseg_serve::{
    ErrorCode, FrameFormat, Request, Response, Server, ServerConfig, ServerHandle,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Shard workers of the server under test.
pub const SHARD_WORKERS: usize = 2;

/// Backpressure replies a frame may draw before it counts as failed.
const MAX_RETRIES: usize = 8;

/// One camera session on a client connection.
pub struct Session {
    /// Global session index (which pool frames it loops over).
    pub index: usize,
    /// Server-assigned session id.
    pub id: u64,
    /// Pool frames of the loop, as `(clip, frame)`.
    pub pool: Vec<(usize, usize)>,
    /// The loop's frames, pre-encoded for the negotiated wire.
    pub wire: Vec<Vec<u8>>,
    /// Frames submitted so far; frame `n` is `wire[n % wire.len()]`.
    sent: usize,
    dead: bool,
}

impl Session {
    /// Session `index` of `spec` under server id `id`; its frames are not
    /// encoded yet.
    pub fn new(spec: &Spec, index: usize, id: u64) -> Session {
        Session {
            index,
            id,
            pool: spec.session_frames(index),
            wire: Vec::new(),
            sent: 0,
            dead: false,
        }
    }

    /// Pre-encodes the session's loop for the workload's wire, one
    /// `wire.encode` span per frame.
    pub fn encode(&mut self, spec: &Spec, inputs: &Inputs, tracer: &mut Tracer) {
        self.wire = self
            .pool
            .iter()
            .map(|&at| {
                let span = tracer.start();
                let bytes = encode_frame(spec.format, self.id, &inputs.frame(at).prediction);
                tracer.end("wire.encode", span);
                bytes
            })
            .collect();
    }
}

/// One served frame.
#[derive(Debug, Clone)]
pub struct Served {
    pub session: usize,
    /// Frame number within the session.
    pub n: usize,
    pub start: Instant,
    pub done: Instant,
    /// `check::digest` of the frame's verdicts.
    pub digest: u64,
    /// The verdicts themselves, kept on the warm-up pass only: the quality
    /// metrics read them, and keeping every timed frame's would make
    /// `peak_rss_mb` grow with throughput.
    pub verdicts: Vec<SegmentVerdict>,
}

impl Served {
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// What one closed loop did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub served: Vec<Served>,
    pub attempted: usize,
    pub failed: usize,
    pub retries: usize,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.served.extend(other.served);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
    }
}

/// When a closed loop stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After every session has submitted its whole loop once.
    OnePass,
    /// At this instant; frames in flight then still complete.
    At(Instant),
}

/// A raw client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    pub sessions: Vec<Session>,
}

fn io_err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Serialises one frame submission for the negotiated wire.
pub fn encode_frame(format: FrameFormat, session: u64, probs: &ProbMap) -> Vec<u8> {
    match format {
        FrameFormat::Json => {
            let mut line = Request::encode_frame(session, probs).into_bytes();
            line.push(b'\n');
            line
        }
        FrameFormat::Binary(encoding) => encode_binary_frame(session, probs, encoding),
    }
}

impl Conn {
    /// Connects, negotiates the workload's wire and opens `sessions`.
    fn open(
        addr: SocketAddr,
        spec: &Spec,
        sessions: std::ops::Range<usize>,
    ) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("nodelay"))?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err("clone"))?);
        let mut conn = Conn {
            writer: stream,
            reader,
            line: String::new(),
            sessions: Vec::new(),
        };
        if let FrameFormat::Binary(_) = spec.format {
            let request = Request::Negotiate {
                format: spec.format,
                dispersion: spec.dispersion,
            };
            match conn.call(&request)? {
                Response::Negotiated { format, dispersion }
                    if format == spec.format && dispersion == spec.dispersion => {}
                other => return Err(format!("negotiate answered {other:?}")),
            }
        }
        for index in sessions {
            let request = Request::Open {
                model: MODEL.into(),
                camera: format!("cam-{index}"),
            };
            match conn.call(&request)? {
                Response::Opened {
                    session,
                    series_length: SERIES_LENGTH,
                } => conn.sessions.push(Session::new(spec, index, session)),
                other => return Err(format!("open answered {other:?}")),
            }
        }
        Ok(conn)
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(io_err("write"))?;
        self.read_line()?;
        Response::decode(self.line.trim_end()).map_err(|e| format!("reply: {e}"))
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Writes frame `n` of session `local`; returns the instant just before
    /// its first byte was handed to the socket.
    fn send(&mut self, local: usize, n: usize, tracer: &mut Tracer) -> Result<Instant, String> {
        let session = &self.sessions[local];
        let bytes = &session.wire[n % session.wire.len()];
        let start = Instant::now();
        self.writer
            .write_all(bytes)
            .map_err(io_err("write frame"))?;
        tracer.end("client.write", Some(start));
        Ok(start)
    }

    /// Next session, round-robin from `cursor`, that may submit now.
    fn next_session(&self, cursor: &mut usize, busy: &[bool], stop: Stop) -> Option<usize> {
        let count = self.sessions.len();
        for _ in 0..count {
            let local = *cursor;
            *cursor = (*cursor + 1) % count;
            let session = &self.sessions[local];
            let more = match stop {
                Stop::OnePass => session.sent < session.wire.len(),
                Stop::At(_) => true,
            };
            if more && !busy[local] && !session.dead {
                return Some(local);
            }
        }
        None
    }

    /// Runs the closed loop until `stop`, then drains the frames in flight.
    /// Spans are tagged with request ids from `request_base` upwards.
    fn drive(
        &mut self,
        in_flight: usize,
        stop: Stop,
        tracer: &mut Tracer,
        request_base: u64,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut pending: VecDeque<(usize, usize, Instant, usize, u64)> = VecDeque::new();
        let mut busy = vec![false; self.sessions.len()];
        let mut cursor = 0;
        let mut stopped = false;
        loop {
            while !stopped && pending.len() < in_flight {
                let Some(local) = self.next_session(&mut cursor, &busy, stop) else {
                    break;
                };
                let n = self.sessions[local].sent;
                self.sessions[local].sent += 1;
                busy[local] = true;
                let request = request_base + out.attempted as u64;
                out.attempted += 1;
                tracer.within(request, "served.frame");
                let start = self.send(local, n, tracer)?;
                pending.push_back((local, n, start, 0, request));
            }
            let Some((local, n, start, retries, request)) = pending.pop_front() else {
                break;
            };
            self.read_line()?;
            tracer.within(request, "served.frame");
            let span = tracer.start();
            let response = Response::decode(self.line.trim_end());
            tracer.end("protocol.verdicts_decode", span);
            let session = &self.sessions[local];
            match response {
                Ok(Response::Verdicts {
                    session: id,
                    frame,
                    verdicts,
                }) if id == session.id && frame == n => {
                    let done = Instant::now();
                    tracer.within(request, "");
                    tracer.end("served.frame", Some(start));
                    out.served.push(Served {
                        session: session.index,
                        n,
                        start,
                        done,
                        digest: digest(&verdicts),
                        verdicts: match stop {
                            Stop::OnePass => verdicts,
                            Stop::At(_) => Vec::new(),
                        },
                    });
                    busy[local] = false;
                }
                Ok(Response::Error {
                    code: ErrorCode::Backpressure,
                    ..
                }) if retries < MAX_RETRIES => {
                    out.retries += 1;
                    self.send(local, n, tracer)?;
                    pending.push_back((local, n, start, retries + 1, request));
                }
                other => {
                    eprintln!("servebench: session {} frame {n}: {other:?}", session.id);
                    out.failed += 1;
                    busy[local] = false;
                    self.sessions[local].dead = true;
                }
            }
            if let Stop::At(deadline) = stop {
                stopped = Instant::now() >= deadline;
            }
        }
        Ok(out)
    }
}

/// Runs one closed loop per connection: the first on the calling thread,
/// the others (at most one, see `Spec::connections`) on scoped threads.
pub fn drive_all(
    conns: &mut [Conn],
    in_flight: usize,
    stop: Stop,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let (first, rest) = conns
        .split_first_mut()
        .expect("a workload has at least one connection");
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let mut local = tracer.fork();
                let base = ((i + 1) as u64) << 40;
                scope.spawn(move || (conn.drive(in_flight, stop, &mut local, base), local))
            })
            .collect();
        let mut total = first.drive(in_flight, stop, tracer, 0)?;
        for handle in handles {
            let (outcome, local) = handle.join().expect("a client thread panicked");
            total.merge(outcome?);
            tracer.absorb(local);
        }
        Ok(total)
    })
}

/// A workload ready to measure: inputs rendered, model fitted and loaded,
/// server running, sessions open, frames encoded and one loop served.
pub struct Setup {
    pub inputs: Inputs,
    pub server: ServerHandle,
    pub conns: Vec<Conn>,
    /// Connect + negotiate + open time per session, one value per
    /// connection.
    pub open_ms: Vec<f64>,
    /// The warm-up loop: every session's first pass over its frames.
    pub warmup: Outcome,
    pub seconds: f64,
}

impl Setup {
    pub fn new(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
        let started = Instant::now();
        let inputs = prepare(spec, seed, tracer);
        let config = ServerConfig {
            workers: SHARD_WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", inputs.registry.clone(), config)
            .map_err(io_err("spawn server"))?;
        let mut conns = Vec::with_capacity(spec.connections);
        let mut open_ms = Vec::with_capacity(spec.connections);
        for c in 0..spec.connections {
            let t = Instant::now();
            let conn = Conn::open(server.local_addr(), spec, spec.connection_sessions(c))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3 / conn.sessions.len().max(1) as f64);
            conns.push(conn);
        }
        // Frames embed their session id, so they are encoded once the
        // server has assigned the ids.
        for session in conns.iter_mut().flat_map(|c| &mut c.sessions) {
            session.encode(spec, &inputs, tracer);
        }
        let warmup = drive_all(&mut conns, spec.in_flight, Stop::OnePass, tracer)?;
        Ok(Setup {
            inputs,
            server,
            conns,
            open_ms,
            warmup,
            seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Every session, in global index order.
    pub fn sessions(&self) -> Vec<&Session> {
        let mut all: Vec<&Session> = self.conns.iter().flat_map(|c| &c.sessions).collect();
        all.sort_by_key(|s| s.index);
        all
    }

    /// Serves closed loops for `seconds`.
    pub fn measure(
        &mut self,
        spec: &Spec,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<Timed, String> {
        let start = Instant::now();
        let length = Duration::from_secs_f64(seconds);
        let outcome = drive_all(
            &mut self.conns,
            spec.in_flight,
            Stop::At(start + length),
            tracer,
        )?;
        Ok(Timed {
            start,
            length,
            outcome,
        })
    }

    /// Closes the connections and stops the server.
    pub fn teardown(self) -> (Inputs, Vec<Session>) {
        let Setup {
            inputs,
            server,
            conns,
            ..
        } = self;
        let sessions = conns.into_iter().flat_map(|c| c.sessions).collect();
        server.shutdown();
        (inputs, sessions)
    }
}

/// One timed window of closed-loop serving.
pub struct Timed {
    pub start: Instant,
    pub length: Duration,
    pub outcome: Outcome,
}

/// Latency and throughput of one timed window, over every frame that
/// completed inside it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub frames_per_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

impl Timed {
    pub fn summary(&self) -> Summary {
        let end = self.start + self.length;
        let latencies: Vec<f64> = self
            .outcome
            .served
            .iter()
            .filter(|served| served.done <= end)
            .map(Served::latency_ms)
            .collect();
        Summary {
            p50_ms: quantile(&latencies, 0.5),
            p90_ms: quantile(&latencies, 0.9),
            frames_per_s: latencies.len() as f64 / self.length.as_secs_f64(),
            samples: latencies.len(),
        }
    }
}
