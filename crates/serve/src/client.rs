//! A small blocking client for the serve protocol.
//!
//! Used by the integration tests, the demo example and the loadtest binary;
//! production consumers in other languages just speak the JSON-lines
//! protocol directly.
//!
//! The client is *deadline-bounded and retrying* by default:
//! [`ServeClient::connect`] applies the [`ClientConfig::default`] socket
//! deadlines (a stalled server surfaces as [`ServeError::TimedOut`] instead
//! of hanging a thread forever), and the `*_with_retry` helpers follow one
//! rule, which [`ServeError::is_retryable`] reports:
//!
//! * `backpressure` and `overloaded`: back off (jittered, exponential) and
//!   retry on the same connection;
//! * transport failures, timeouts, undecodable replies and `bad-request`:
//!   reconnect and resume the session;
//! * `unknown-model`, `shutting-down` and `internal`: fail;
//! * `unknown-session`: final for a submit, "already gone" for a close, and
//!   retried for a resume while the dying connection still owns the
//!   session.
//!
//! A chaos-killed connection does not kill its sessions — the client
//! re-attaches with [`Request::Resume`] and picks up exactly where the
//! server says it stopped.

use crate::protocol::{ErrorCode, FrameFormat, Request, Response};
use crate::wire::encode_binary_frame;
use crate::ServeError;
use metaseg::stream::{SegmentVerdict, SessionStats};
use metaseg::DispersionPrecision;
use metaseg_data::ProbMap;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// What a `*_with_retry` loop does after a failed request: the one retry
/// rule of the module docs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// Overload: back off, then retry on the same connection.
    Backoff,
    /// The connection is suspect: reconnect and resume.
    Reconnect,
    /// The session is not open on this connection; each loop decides.
    UnknownSession,
    /// A verdict, not weather: retrying cannot help.
    Fail,
}

impl ServeError {
    /// Whether the client's retry rule retries this error: overload
    /// rejections back off and retry on the same connection; transport
    /// failures, timeouts, undecodable replies and `bad-request` retry on a
    /// *fresh* connection (the current stream may hold partial garbage).
    /// `unknown-model`, `unknown-session`, `shutting-down`, `internal` and
    /// the binary frame decode errors are final.
    pub fn is_retryable(&self) -> bool {
        matches!(self.recovery(), Recovery::Backoff | Recovery::Reconnect)
    }

    fn recovery(&self) -> Recovery {
        match self {
            ServeError::Io(_) | ServeError::TimedOut(_) | ServeError::Protocol(_) => {
                Recovery::Reconnect
            }
            ServeError::Server { code, .. } => match code {
                ErrorCode::Backpressure | ErrorCode::Overloaded => Recovery::Backoff,
                // A request corrupted on the wire fails its decode (a binary
                // frame its checksum) and is rejected without being applied;
                // the stream past the corruption is suspect.
                ErrorCode::BadRequest => Recovery::Reconnect,
                ErrorCode::UnknownSession => Recovery::UnknownSession,
                ErrorCode::UnknownModel | ErrorCode::ShuttingDown | ErrorCode::Internal => {
                    Recovery::Fail
                }
            },
            // The binary frame and payload variants come from decoding a
            // frame, which only the server does.
            _ => Recovery::Fail,
        }
    }
}

/// Socket deadlines and retry policy of a [`ServeClient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Socket read deadline (`None` blocks forever — the pre-chaos
    /// behaviour; opt into it explicitly if you must).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Attempts per `*_with_retry` operation (including the first).
    pub max_retries: usize,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed of the deterministic backoff jitter (multiplies each delay by
    /// a factor in `[0.5, 1.5)` so a fleet of retrying cameras does not
    /// stampede in lockstep).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_retries: 8,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0xC0FF_EE00,
        }
    }
}

/// What [`ServeClient::submit_with_retry`] concluded about one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// The server answered this submission directly.
    Served {
        /// Index of the frame within the session.
        frame: usize,
        /// One verdict per tracked segment, in record order.
        verdicts: Vec<SegmentVerdict>,
    },
    /// The frame was applied server-side but its response was lost to a
    /// connection fault: after reconnect-and-resume the server reported a
    /// frames-applied count past this frame, so resubmitting would
    /// double-apply. The verdicts are gone with the dead connection.
    Applied {
        /// Index of the frame within the session.
        frame: usize,
    },
}

/// A blocking connection to a serve instance.
///
/// Starts on the JSON-lines protocol; [`ServeClient::negotiate`] switches
/// frame submissions to the length-prefixed binary framing of
/// [`crate::wire`] (control operations and all responses stay JSON lines).
///
/// The client remembers the resolved peer addresses, the negotiated frame
/// format/dispersion and the per-session applied-frame counts, so the
/// `*_with_retry` helpers can transparently reconnect, renegotiate and
/// [`ServeClient::resume`] sessions after a connection fault — every
/// session of the client, not only the one whose request hit the fault.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    format: FrameFormat,
    dispersion: DispersionPrecision,
    config: ClientConfig,
    peers: Vec<SocketAddr>,
    /// Per-session count of frames the server has *acknowledged applying*
    /// (open → 0, each served frame `n` → `n + 1`, resume → server's
    /// authoritative count). Lets `submit_with_retry` detect the
    /// applied-but-response-lost case without double-applying.
    acked: HashMap<u64, usize>,
    /// Sessions bound to the current connection (opened or resumed on
    /// it). A reconnect clears it; the `*_with_retry` helpers resume any
    /// other session of `acked` before its next request.
    bound: HashSet<u64>,
    reconnects: usize,
    jitter_state: u64,
}

impl ServeClient {
    /// Connects to a running server with [`ClientConfig::default`]: frame
    /// format JSON until negotiated, and — deliberately — socket read/write
    /// deadlines applied, so a wedged or maliciously slow server surfaces
    /// as [`ServeError::TimedOut`] instead of hanging the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the transport error when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit deadline/retry policy.
    ///
    /// # Errors
    ///
    /// Returns the transport error when resolution or connection fails.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServeError> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let (reader, writer) = Self::establish(&peers, &config)?;
        Ok(Self {
            reader,
            writer,
            format: FrameFormat::Json,
            dispersion: DispersionPrecision::F64,
            jitter_state: config.jitter_seed,
            config,
            peers,
            acked: HashMap::new(),
            bound: HashSet::new(),
            reconnects: 0,
        })
    }

    /// Dials the first reachable resolved peer and applies the socket
    /// deadlines from the config.
    fn establish(
        peers: &[SocketAddr],
        config: &ClientConfig,
    ) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
        let mut last: Option<io::Error> = None;
        for peer in peers {
            match TcpStream::connect_timeout(peer, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok((reader, stream));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to")
        }))
    }

    /// How many times this client has re-established its connection.
    pub fn reconnects(&self) -> usize {
        self.reconnects
    }

    /// The frame-submission format currently in effect.
    pub fn frame_format(&self) -> FrameFormat {
        self.format
    }

    /// Negotiates the connection's frame-submission format; subsequent
    /// [`ServeClient::submit`] calls use it. A server predating binary
    /// framing rejects the op with `bad-request`, in which case the
    /// connection stays on JSON — callers wanting graceful fallback can
    /// match on [`ServeError::server_code`].
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection; the format in
    /// effect is unchanged on failure.
    pub fn negotiate(&mut self, format: FrameFormat) -> Result<(), ServeError> {
        self.negotiate_with_dispersion(format, DispersionPrecision::F64)
    }

    /// Like [`ServeClient::negotiate`], but additionally asks the server to
    /// run its dispersion scan at the given precision for this connection's
    /// binary frames; the client keeps the precision the server confirms,
    /// which is always f64 for JSON. [`DispersionPrecision::F32`] is the
    /// vectorised fast path (metrics within ~1e-4 relative of the exact f64
    /// scan); [`DispersionPrecision::F64`] is the exact default and keeps the
    /// negotiation line byte-identical to what pre-fast-path clients send.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection; the format in
    /// effect is unchanged on failure.
    pub fn negotiate_with_dispersion(
        &mut self,
        format: FrameFormat,
        dispersion: DispersionPrecision,
    ) -> Result<(), ServeError> {
        self.expect(&Request::Negotiate { format, dispersion }, |r| match r {
            Response::Negotiated { format, dispersion } => Ok((format, dispersion)),
            other => Err(other),
        })
        .map(|(format, dispersion)| {
            // The confirmed terms, remembered so a reconnect can
            // renegotiate them.
            self.format = format;
            self.dispersion = dispersion;
        })
    }

    /// One already-encoded line out, one response in.
    fn roundtrip(&mut self, line: &str) -> Result<Response, ServeError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads one JSON response line (every response is a JSON line, whatever
    /// format the request went out in).
    fn read_response(&mut self) -> Result<Response, ServeError> {
        let mut reply = String::new();
        let read = self.reader.read_line(&mut reply)?;
        if read == 0 {
            return Err(ServeError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        Response::decode(reply.trim_end())
    }

    fn finish<T>(
        &mut self,
        response: Response,
        extract: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ServeError> {
        match response {
            Response::Error { code, message } => Err(ServeError::Server { code, message }),
            other => extract(other)
                .map_err(|r| ServeError::Protocol(format!("unexpected response {r:?}"))),
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        extract: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ServeError> {
        let response = self.roundtrip(&request.encode())?;
        self.finish(response, extract)
    }

    /// Opens a camera session; returns `(session id, series length)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn open(&mut self, model: &str, camera: &str) -> Result<(u64, usize), ServeError> {
        self.expect(
            &Request::Open {
                model: model.to_string(),
                camera: camera.to_string(),
            },
            |r| match r {
                Response::Opened {
                    session,
                    series_length,
                } => Ok((session, series_length)),
                other => Err(other),
            },
        )
        .inspect(|(session, _)| {
            self.acked.insert(*session, 0);
            self.bound.insert(*session);
        })
    }

    /// Submits one frame in the negotiated format; returns `(frame index,
    /// verdicts)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection —
    /// [`ErrorCode::Backpressure`] is the retryable overload signal.
    pub fn submit(
        &mut self,
        session: u64,
        probs: &ProbMap,
    ) -> Result<(usize, Vec<SegmentVerdict>), ServeError> {
        let response = match self.format {
            // Encode from the borrowed field — no per-frame ProbMap clone.
            FrameFormat::Json => self.roundtrip(&Request::encode_frame(session, probs))?,
            FrameFormat::Binary(encoding) => {
                // Length-prefixed binary frame out (no newline), JSON
                // response line back.
                let frame = encode_binary_frame(session, probs, encoding);
                self.writer.write_all(&frame)?;
                self.writer.flush()?;
                self.read_response()?
            }
        };
        self.finish(response, |r| match r {
            // Guard on the session id so a desynchronised stream can never
            // mis-attribute another session's verdicts to this frame.
            Response::Verdicts {
                session: s,
                frame,
                verdicts,
            } if s == session => Ok((frame, verdicts)),
            other => Err(other),
        })
        .inspect(|(frame, _)| {
            self.acked.insert(session, frame + 1);
        })
    }

    /// Fetches the session's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn stats(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        self.expect(&Request::Stats { session }, |r| match r {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(other),
        })
    }

    /// Closes a session; returns its final statistics.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn close(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        self.expect(&Request::Close { session }, |r| match r {
            Response::Closed { stats, .. } => Ok(stats),
            other => Err(other),
        })
        .inspect(|_| {
            self.acked.remove(&session);
            self.bound.remove(&session);
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.expect(&Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Re-attaches a session opened on an earlier (possibly dead)
    /// connection of this server; returns the server's authoritative count
    /// of frames applied so far. Sessions are keyed by id server-side and
    /// linger for a configurable window after their connection dies, so a
    /// chaos-killed connection does not lose its stream state.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a typed server rejection —
    /// [`ErrorCode::UnknownSession`] when the session expired, was closed,
    /// or is still owned by another live connection.
    pub fn resume(&mut self, session: u64) -> Result<usize, ServeError> {
        self.expect(&Request::Resume { session }, |r| match r {
            Response::Resumed {
                session: s, frames, ..
            } if s == session => Ok(frames),
            other => Err(other),
        })
        .inspect(|frames| {
            self.acked.insert(session, *frames);
            self.bound.insert(session);
        })
    }

    /// Tears down the current stream and dials a fresh connection to the
    /// remembered peers, renegotiating the previously confirmed frame
    /// format and dispersion precision. On failure the desired terms are
    /// retained, so a later attempt negotiates them again.
    ///
    /// # Errors
    ///
    /// Fails when no peer accepts the connection or renegotiation fails.
    pub fn reconnect(&mut self) -> Result<(), ServeError> {
        // Hasten the server-side EOF of the old connection so the session
        // orphaning (and thus resume) happens promptly.
        let _ = self.writer.shutdown(Shutdown::Both);
        let (reader, writer) = Self::establish(&self.peers, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        self.reconnects += 1;
        // The server orphaned every session of the old connection.
        self.bound.clear();
        // A fresh connection starts on JSON/f64 server-side; restore the
        // negotiated terms before any frame goes out. `self.format` is only
        // trusted once the server confirms, so a failure here leaves the
        // client unable to submit — callers retry reconnect().
        if !matches!(self.format, FrameFormat::Json) || self.dispersion != DispersionPrecision::F64
        {
            let (format, dispersion) = (self.format, self.dispersion);
            self.negotiate_with_dispersion(format, dispersion)?;
        }
        Ok(())
    }

    /// Resumes `session` under the retry rule, on a fresh connection from
    /// the first attempt when `reconnect` is set and from the first failure
    /// that calls for one otherwise. An `unknown-session` denial backs off
    /// and retries like overload: right after a connection fault the server
    /// may not have processed the old connection's death yet, so the dying
    /// connection still owns the session and resume is briefly denied.
    fn resume_with_retry(
        &mut self,
        session: u64,
        mut reconnect: bool,
    ) -> Result<usize, ServeError> {
        let mut last = None;
        for attempt in 0..self.config.max_retries.max(1) {
            let resumed = if reconnect {
                self.reconnect().and_then(|()| self.resume(session))
            } else {
                self.resume(session)
            };
            let e = match resumed {
                Ok(frames) => return Ok(frames),
                Err(e) => e,
            };
            match e.recovery() {
                Recovery::Fail => return Err(e),
                Recovery::Reconnect => reconnect = true,
                Recovery::Backoff | Recovery::UnknownSession => {}
            }
            last = Some(e);
            self.backoff(attempt);
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("resume attempts exhausted".to_string())))
    }

    /// Resumes `session` on the current connection when a reconnect made
    /// for another session left it orphaned.
    fn rebind(&mut self, session: u64) -> Result<(), ServeError> {
        if self.bound.contains(&session) || !self.acked.contains_key(&session) {
            return Ok(());
        }
        self.resume_with_retry(session, false).map(drop)
    }

    /// Submits one frame under the retry rule. After a reconnect-and-resume
    /// the frame is resubmitted unless the server reports it as already
    /// applied: that applied-but-response-lost case comes back as
    /// [`Submission::Applied`], so the stream never double-applies a frame.
    /// A session left on an earlier connection, when a fault on another
    /// session of this client reconnected it, is resumed before the frame
    /// goes out.
    ///
    /// # Errors
    ///
    /// Fails when retries are exhausted, on `unknown-session`, or on an
    /// error the rule calls final.
    pub fn submit_with_retry(
        &mut self,
        session: u64,
        probs: &ProbMap,
    ) -> Result<Submission, ServeError> {
        self.rebind(session)?;
        let expected = self.acked.get(&session).copied().unwrap_or(0);
        let mut last = None;
        for attempt in 0..self.config.max_retries.max(1) {
            let e = match self.submit(session, probs) {
                Ok((frame, verdicts)) => return Ok(Submission::Served { frame, verdicts }),
                Err(e) => e,
            };
            match e.recovery() {
                Recovery::Backoff => self.backoff(attempt),
                Recovery::Reconnect => {
                    // Unless the server rejected the frame, we cannot know
                    // whether it landed: the resumed applied count decides.
                    let frames = self.resume_with_retry(session, true)?;
                    if frames > expected {
                        return Ok(Submission::Applied { frame: frames - 1 });
                    }
                }
                Recovery::UnknownSession | Recovery::Fail => return Err(e),
            }
            last = Some(e);
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("submit attempts exhausted".to_string())))
    }

    /// Closes a session under the retry rule. Returns `Ok(None)` when the
    /// session is already gone server-side — closed by a racing request
    /// whose response was lost, or expired past its linger window — in
    /// which case the final statistics are unavailable.
    ///
    /// # Errors
    ///
    /// Fails when retries are exhausted or on an error the rule calls
    /// final.
    pub fn close_with_retry(&mut self, session: u64) -> Result<Option<SessionStats>, ServeError> {
        let mut last = None;
        for attempt in 0..self.config.max_retries.max(1) {
            let e = match self.rebind(session).and_then(|()| self.close(session)) {
                Ok(stats) => return Ok(Some(stats)),
                Err(e) => e,
            };
            let e = match e.recovery() {
                // A close line corrupted on the wire, or a reply lost with
                // its connection: resume on a fresh one, then close again.
                Recovery::Reconnect => match self.resume_with_retry(session, true) {
                    Ok(_) => continue,
                    Err(resume_error) => resume_error,
                },
                _ => e,
            };
            match e.recovery() {
                Recovery::UnknownSession => {
                    // The close landed and its response was lost, or the
                    // linger expired: either way the session is gone.
                    self.acked.remove(&session);
                    return Ok(None);
                }
                Recovery::Fail => return Err(e),
                Recovery::Backoff | Recovery::Reconnect => self.backoff(attempt),
            }
            last = Some(e);
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("close attempts exhausted".to_string())))
    }

    /// Sleeps the jittered exponential backoff delay for `attempt`
    /// (0-based): `base * 2^attempt`, capped at `backoff_max`, scaled by a
    /// deterministic factor in `[0.5, 1.5)` from a splitmix64 stream (the
    /// serve crate deliberately has no runtime RNG dependency).
    fn backoff(&mut self, attempt: usize) {
        let base = self.config.backoff_base.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.config.backoff_max.max(base));
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        thread::sleep(capped.mul_f64(0.5 + unit));
    }
}
