//! The JSON-lines wire protocol of the inference service.
//!
//! Every message is one compact JSON object per line. Requests carry an
//! `"op"` discriminator, successful responses an `"ok"` discriminator, and
//! error responses an `"err"` code plus a human-readable `"message"`:
//!
//! ```text
//! -> {"op":"open","model":"default","camera":"cam-0"}
//! <- {"ok":"opened","session":1,"series_length":3}
//! -> {"op":"frame","session":1,"probs":{...softmax field...}}
//! <- {"ok":"verdicts","session":1,"frame":0,"verdicts":[...]}
//! -> {"op":"close","session":1}
//! <- {"ok":"closed","session":1,"stats":{...}}
//! ```
//!
//! Payload types ([`ProbMap`], [`SegmentVerdict`], [`SessionStats`]) use
//! their derived serde encodings, so a served verdict is *bit-identical* to
//! the in-process one after the round-trip (floats travel in shortest
//! round-trip form).
//!
//! The two hot messages, the `frame` request and the `verdicts` reply, are
//! written and read directly in that derived spelling, between text and
//! [`ProbMap`] / [`SegmentVerdict`], with no [`Value`] tree in between.
//! [`Request::encode_frame`] and [`Response::encode`] write them through
//! `serde_json`'s own number and string writers, byte for byte what the
//! [`Value`] rendering writes. [`Request::decode`] and [`Response::decode`]
//! first try a reader of exactly that spelling (fixed key order, no
//! whitespace, no escapes, nothing after the last `}`), which reads its
//! numbers through `serde_json`'s own number reader. At the first byte
//! that differs the line takes the [`Value`] path instead, which also
//! decodes every other message, builds every error, and is the oracle the
//! tests hold the direct codec to.
//!
//! Decoding is total: any malformed line becomes a
//! [`ServeError::Protocol`], which the server answers with
//! [`ErrorCode::BadRequest`] instead of dropping the connection — one
//! garbled camera payload must not kill a session.

use crate::ServeError;
use metaseg::stream::{SegmentVerdict, SessionStats};
use metaseg::DispersionPrecision;
use metaseg_data::{ProbEncoding, ProbMap, SemanticClass};
use serde::{Deserialize, Serialize, Value};
use serde_json::{write_number, write_string};
use std::fmt;

/// The frame-submission format of a connection.
///
/// Connections start in [`FrameFormat::Json`] (every frame is a JSON `frame`
/// line — the backward-compatible default). A client that wants the binary
/// fast path sends [`Request::Negotiate`]; once the server confirms with
/// [`Response::Negotiated`], the client may submit frames as length-prefixed
/// binary frames (see [`crate::wire`]) on the same connection. Control
/// operations and every response stay JSON lines in either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFormat {
    /// JSON-lines `frame` submissions (default, always accepted).
    Json,
    /// Binary frame submissions with the given payload encoding.
    Binary(ProbEncoding),
}

impl FrameFormat {
    /// The wire spelling of the format.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameFormat::Json => "json",
            FrameFormat::Binary(ProbEncoding::F64) => "binary-f64",
            FrameFormat::Binary(ProbEncoding::F32) => "binary-f32",
            FrameFormat::Binary(ProbEncoding::U16) => "binary-u16",
        }
    }

    /// Parses the wire spelling.
    pub fn from_str_opt(text: &str) -> Option<Self> {
        Some(match text {
            "json" => FrameFormat::Json,
            "binary-f64" => FrameFormat::Binary(ProbEncoding::F64),
            "binary-f32" => FrameFormat::Binary(ProbEncoding::F32),
            "binary-u16" => FrameFormat::Binary(ProbEncoding::U16),
            _ => return None,
        })
    }

    /// Whether frame payloads decode to the exact field that was encoded
    /// (and therefore yield bit-identical verdicts to in-process serving).
    pub fn is_lossless(self) -> bool {
        match self {
            FrameFormat::Json => true,
            FrameFormat::Binary(encoding) => encoding.is_lossless(),
        }
    }
}

impl fmt::Display for FrameFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a camera session served by the named model.
    Open {
        /// Registry name of the model that should serve the session.
        model: String,
        /// Free-form camera label for the client's own bookkeeping. The
        /// server rejects a line that is not valid UTF-8 but keeps no copy
        /// of the label.
        camera: String,
    },
    /// Submits the next frame of a session (a decoded softmax field).
    Frame {
        /// Session the frame belongs to.
        session: u64,
        /// The frame's softmax field.
        probs: ProbMap,
    },
    /// Requests the session's lifetime statistics.
    Stats {
        /// Session to report on.
        session: u64,
    },
    /// Closes a session, returning its final statistics.
    Close {
        /// Session to close.
        session: u64,
    },
    /// Re-attaches this connection to a session opened (and possibly
    /// orphaned) by an earlier connection. Answered with
    /// [`Response::Resumed`] carrying the number of frames the server has
    /// applied, so a reconnecting client knows exactly where to pick up
    /// without double-applying an in-flight frame.
    Resume {
        /// Session to re-attach to.
        session: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`] without touching any
    /// session.
    Ping,
    /// Negotiates the connection's frame-submission format. Answered with
    /// [`Response::Negotiated`] on success; servers predating binary framing
    /// answer `bad-request` (unknown op), which a client treats as "JSON
    /// only".
    Negotiate {
        /// The format the client wants to submit frames in.
        format: FrameFormat,
        /// The dispersion-scan precision the client asks the server to run
        /// on its binary frames; JSON frames always scan at f64. Encoded on
        /// the wire only when it deviates from the
        /// [`DispersionPrecision::F64`] default, so negotiation lines from
        /// older clients (and to older servers) are unchanged.
        dispersion: DispersionPrecision,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// Server-assigned session id (unique per server lifetime).
        session: u64,
        /// Time-series depth of the serving engine.
        series_length: usize,
    },
    /// Per-segment verdicts of one submitted frame.
    Verdicts {
        /// Session the verdicts belong to.
        session: u64,
        /// Index of the frame within the session.
        frame: usize,
        /// One verdict per tracked segment, in record order.
        verdicts: Vec<SegmentVerdict>,
    },
    /// Session statistics snapshot.
    Stats {
        /// Session reported on.
        session: u64,
        /// The statistics snapshot.
        stats: SessionStats,
    },
    /// A session was closed.
    Closed {
        /// The closed session.
        session: u64,
        /// Final statistics of the session.
        stats: SessionStats,
    },
    /// A session was re-attached to this connection.
    Resumed {
        /// The resumed session.
        session: u64,
        /// Frames the server has applied to the session so far; the next
        /// submitted frame is frame `frames`.
        frames: usize,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The connection's frame-submission format was switched.
    Negotiated {
        /// The format now in effect for this connection.
        format: FrameFormat,
        /// The dispersion precision the server will actually run on this
        /// connection's frames: the requested one for a binary format,
        /// always [`DispersionPrecision::F64`] for JSON (omitted on the
        /// wire when it is the f64 default).
        dispersion: DispersionPrecision,
    },
    /// A typed error. The connection stays usable afterwards.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// Machine-readable error classes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The worker queue is full; retry after draining. The request had no
    /// effect.
    Backpressure,
    /// The requested model is not in the registry.
    UnknownModel,
    /// The session id is not open on this connection.
    UnknownSession,
    /// The request line could not be decoded or carried an inconsistent
    /// payload.
    BadRequest,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The server is at its connection limit and shed this connection at
    /// accept time. Back off and retry; nothing was processed.
    Overloaded,
    /// The server hit an internal failure serving this session (e.g. a
    /// panic mid-inference left the engine in an unknown state). The
    /// session is dead; open a new one. The connection stays usable.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling.
    pub fn from_str_opt(text: &str) -> Option<Self> {
        Some(match text {
            "backpressure" => ErrorCode::Backpressure,
            "unknown-model" => ErrorCode::UnknownModel,
            "unknown-session" => ErrorCode::UnknownSession,
            "bad-request" => ErrorCode::BadRequest,
            "shutting-down" => ErrorCode::ShuttingDown,
            "overloaded" => ErrorCode::Overloaded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn required<'a>(value: &'a Value, key: &str) -> Result<&'a Value, ServeError> {
    value
        .get(key)
        .ok_or_else(|| ServeError::Protocol(format!("missing field `{key}`")))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, ServeError> {
    required(value, key)?.as_u64().ok_or_else(|| {
        ServeError::Protocol(format!("field `{key}` must be a non-negative integer"))
    })
}

/// Optional `"dispersion"` field of negotiation messages: an absent key is
/// the f64 default, so pre-fast-path peers interoperate unchanged.
fn dispersion_field(value: &Value) -> Result<DispersionPrecision, ServeError> {
    match value.get("dispersion") {
        None => Ok(DispersionPrecision::F64),
        Some(field) => {
            let text = field.as_str().ok_or_else(|| {
                ServeError::Protocol("field `dispersion` must be a string".into())
            })?;
            DispersionPrecision::from_name(text).ok_or_else(|| {
                ServeError::Protocol(format!("unknown dispersion precision `{text}`"))
            })
        }
    }
}

fn string_field(value: &Value, key: &str) -> Result<String, ServeError> {
    Ok(required(value, key)?
        .as_str()
        .ok_or_else(|| ServeError::Protocol(format!("field `{key}` must be a string")))?
        .to_string())
}

/// How [`Request::encode_frame`] starts every frame line.
const FRAME_LINE_PREFIX: &str = r#"{"op":"frame","session":"#;

/// The session of a frame line spelled as [`Request::encode_frame`] writes
/// it: [`FRAME_LINE_PREFIX`], then 1–15 ASCII digits without a leading zero,
/// then a `,`. Nothing later in the line can change the op or the session,
/// because the decoder's object lookup takes the first of duplicate keys,
/// and up to 15 digits read exactly through the decoder's f64 numbers. So
/// the line either fails to decode or decodes to a frame of this session.
/// `None` for every other line.
pub(crate) fn canonical_frame_session(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(FRAME_LINE_PREFIX.as_bytes())?;
    let digits = rest
        .iter()
        .take(16)
        .take_while(|b| b.is_ascii_digit())
        .count();
    let canonical = (1..=15).contains(&digits)
        && rest.get(digits) == Some(&b',')
        && (digits == 1 || rest[0] != b'0');
    canonical.then(|| {
        rest[..digits]
            .iter()
            .fold(0, |session, &digit| session * 10 + u64::from(digit - b'0'))
    })
}

/// The derived serde spelling of each class, indexed by class id: what
/// `SemanticClass::serialize` writes (`"Car"`, not the catalogue name
/// `"car"`), so the verdict codec needs no heap string per verdict.
const CLASS_SPELLINGS: [&str; SemanticClass::ALL.len()] = [
    "Road",
    "Sidewalk",
    "Building",
    "Wall",
    "Fence",
    "Pole",
    "TrafficLight",
    "TrafficSign",
    "Vegetation",
    "Terrain",
    "Sky",
    "Human",
    "Rider",
    "Car",
    "Truck",
    "Bus",
    "Train",
    "Motorcycle",
    "Bicycle",
    "Void",
];

/// Writes a `verdicts` reply as the [`Value`] rendering would, straight
/// into one string.
fn encode_verdicts(session: u64, frame: usize, verdicts: &[SegmentVerdict]) -> String {
    let mut out = String::with_capacity(64 + 160 * verdicts.len());
    out.push_str(r#"{"ok":"verdicts","session":"#);
    write_number(&mut out, session as f64);
    out.push_str(r#","frame":"#);
    write_number(&mut out, frame as f64);
    out.push_str(r#","verdicts":["#);
    for (i, verdict) in verdicts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"frame":"#);
        write_number(&mut out, verdict.frame as f64);
        out.push_str(r#","track_id":"#);
        write_number(&mut out, verdict.track_id as f64);
        out.push_str(r#","region_id":"#);
        write_number(&mut out, verdict.region_id as f64);
        out.push_str(r#","class":"#);
        write_string(&mut out, CLASS_SPELLINGS[usize::from(verdict.class.id())]);
        out.push_str(r#","area":"#);
        write_number(&mut out, verdict.area as f64);
        out.push_str(r#","tp_probability":"#);
        write_number(&mut out, verdict.tp_probability);
        out.push_str(r#","predicted_iou":"#);
        write_number(&mut out, verdict.predicted_iou);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// A reader of the one spelling the hot-message writers emit. Every step
/// returns `None` at the first byte that differs from it, and the caller
/// then decodes the whole line through the [`Value`] path instead. Each
/// value it does read is the one the [`Value`] path would read.
struct CanonicalReader<'a> {
    rest: &'a str,
}

impl CanonicalReader<'_> {
    /// Consumes `text` if the line continues with it.
    fn eat(&mut self, text: &str) -> bool {
        match self.rest.strip_prefix(text) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// [`CanonicalReader::eat`], as a step that must succeed.
    fn literal(&mut self, text: &str) -> Option<()> {
        self.eat(text).then_some(())
    }

    /// The end of the line.
    fn end(&self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }

    /// A float: `null` is NaN, as `f64::deserialize` reads it, and a
    /// number goes through the document parser's own number reader.
    fn float(&mut self) -> Option<f64> {
        match self.rest.as_bytes().first()? {
            b'n' => self.literal("null").map(|()| f64::NAN),
            b'-' | b'0'..=b'9' => {
                let (len, number) = serde_json::read_number(self.rest);
                self.rest = &self.rest[len..];
                number
            }
            _ => None,
        }
    }

    /// An integer spelled as the writers spell one, ASCII digits without a
    /// leading zero, as a document number.
    fn integer(&mut self) -> Option<Value> {
        let digits = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 || (digits > 1 && self.rest.starts_with('0')) {
            return None;
        }
        let (len, number) = serde_json::read_number(self.rest);
        // A longer token has a fraction, an exponent or a sign after the
        // digits.
        if len != digits {
            return None;
        }
        self.rest = &self.rest[len..];
        number.map(Value::Number)
    }

    /// A session id, read as [`Value::as_u64`] reads it.
    fn session(&mut self) -> Option<u64> {
        self.integer()?.as_u64()
    }

    /// Any other integer, read as `usize::deserialize` reads it.
    fn size(&mut self) -> Option<usize> {
        usize::deserialize(&self.integer()?).ok()
    }

    /// A class in its derived spelling.
    fn class(&mut self) -> Option<SemanticClass> {
        let (name, rest) = self.rest.strip_prefix('"')?.split_once('"')?;
        let id = CLASS_SPELLINGS
            .iter()
            .position(|&spelling| spelling == name)?;
        self.rest = rest;
        Some(SemanticClass::ALL[id])
    }

    /// One verdict object, keys in field order.
    fn verdict(&mut self) -> Option<SegmentVerdict> {
        self.literal(r#"{"frame":"#)?;
        let frame = self.size()?;
        self.literal(r#","track_id":"#)?;
        let track_id = self.size()?;
        self.literal(r#","region_id":"#)?;
        let region_id = self.size()?;
        self.literal(r#","class":"#)?;
        let class = self.class()?;
        self.literal(r#","area":"#)?;
        let area = self.size()?;
        self.literal(r#","tp_probability":"#)?;
        let tp_probability = self.float()?;
        self.literal(r#","predicted_iou":"#)?;
        let predicted_iou = self.float()?;
        self.literal("}")?;
        Some(SegmentVerdict {
            frame,
            track_id,
            region_id,
            class,
            area,
            tp_probability,
            predicted_iou,
        })
    }
}

/// Reads a `frame` request spelled exactly as [`Request::encode_frame`]
/// writes it. `None` at the first byte that differs, and for a shape
/// [`ProbMap::from_values`] rejects, which the [`Value`] path decodes and
/// the server's shape check answers.
fn read_frame(line: &str) -> Option<Request> {
    let mut line = CanonicalReader { rest: line };
    line.literal(FRAME_LINE_PREFIX)?;
    let session = line.session()?;
    line.literal(r#","probs":{"width":"#)?;
    let width = line.size()?;
    line.literal(r#","height":"#)?;
    let height = line.size()?;
    line.literal(r#","num_classes":"#)?;
    let num_classes = line.size()?;
    line.literal(r#","data":["#)?;
    // The shape is untrusted: reserve no more values than the rest of the
    // line can hold, at two bytes (a digit and a comma) or more each.
    let claimed = width
        .checked_mul(height)
        .and_then(|pixels| pixels.checked_mul(num_classes))
        .unwrap_or(0);
    let mut data = Vec::with_capacity(claimed.min(line.rest.len() / 2));
    loop {
        data.push(line.float()?);
        if !line.eat(",") {
            break;
        }
    }
    line.literal("]}}")?;
    line.end()?;
    let probs = ProbMap::from_values(width, height, num_classes, data)?;
    Some(Request::Frame { session, probs })
}

/// Reads a `verdicts` reply spelled exactly as [`Response::encode`] writes
/// it. `None` at the first byte that differs.
fn read_verdicts(line: &str) -> Option<Response> {
    let mut line = CanonicalReader { rest: line };
    line.literal(r#"{"ok":"verdicts","session":"#)?;
    let session = line.session()?;
    line.literal(r#","frame":"#)?;
    let frame = line.size()?;
    line.literal(r#","verdicts":["#)?;
    let mut verdicts = Vec::new();
    if !line.eat("]") {
        loop {
            verdicts.push(line.verdict()?);
            if !line.eat(",") {
                break;
            }
        }
        line.literal("]")?;
    }
    line.literal("}")?;
    line.end()?;
    Some(Response::Verdicts {
        session,
        frame,
        verdicts,
    })
}

impl Request {
    /// Renders a frame submission from borrowed parts — the hot-path
    /// encoder: submitting a frame must not require cloning the softmax
    /// field into an owned [`Request`] first. Writes the [`Value`]
    /// rendering's bytes straight into one string.
    pub fn encode_frame(session: u64, probs: &ProbMap) -> String {
        let values = probs.values();
        // Room for the keys and a typical shortest-form probability each.
        let mut out = String::with_capacity(96 + 24 * values.len());
        out.push_str(FRAME_LINE_PREFIX);
        write_number(&mut out, session as f64);
        out.push_str(r#","probs":{"width":"#);
        write_number(&mut out, probs.width() as f64);
        out.push_str(r#","height":"#);
        write_number(&mut out, probs.height() as f64);
        out.push_str(r#","num_classes":"#);
        write_number(&mut out, probs.num_classes() as f64);
        out.push_str(r#","data":["#);
        for (i, &value) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_number(&mut out, value);
        }
        out.push_str("]}}");
        out
    }

    /// Renders the request as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Request::Open { model, camera } => object(vec![
                ("op", Value::String("open".into())),
                ("model", model.serialize()),
                ("camera", camera.serialize()),
            ]),
            Request::Frame { session, probs } => return Self::encode_frame(*session, probs),
            Request::Stats { session } => object(vec![
                ("op", Value::String("stats".into())),
                ("session", session.serialize()),
            ]),
            Request::Close { session } => object(vec![
                ("op", Value::String("close".into())),
                ("session", session.serialize()),
            ]),
            Request::Resume { session } => object(vec![
                ("op", Value::String("resume".into())),
                ("session", session.serialize()),
            ]),
            Request::Ping => object(vec![("op", Value::String("ping".into()))]),
            Request::Negotiate { format, dispersion } => {
                let mut entries = vec![
                    ("op", Value::String("negotiate".into())),
                    ("frames", Value::String(format.as_str().into())),
                ];
                if *dispersion != DispersionPrecision::F64 {
                    entries.push(("dispersion", Value::String(dispersion.as_str().into())));
                }
                object(entries)
            }
        };
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// Decodes one request line: a frame line spelled as
    /// [`Request::encode_frame`] writes it directly, every other line
    /// through the [`Value`] document, to the same request.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON, an unknown `op`,
    /// or a missing/mistyped field; the server answers these with
    /// [`ErrorCode::BadRequest`] rather than closing the connection.
    pub fn decode(line: &str) -> Result<Self, ServeError> {
        read_frame(line).map_or_else(|| Self::decode_value(line), Ok)
    }

    /// [`Request::decode`] through the [`Value`] document, for every
    /// spelling.
    fn decode_value(line: &str) -> Result<Self, ServeError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| ServeError::Protocol(e.to_string()))?;
        let op = string_field(&value, "op")?;
        match op.as_str() {
            "open" => Ok(Request::Open {
                model: string_field(&value, "model")?,
                camera: string_field(&value, "camera")?,
            }),
            "frame" => Ok(Request::Frame {
                session: u64_field(&value, "session")?,
                probs: ProbMap::deserialize(required(&value, "probs")?)?,
            }),
            "stats" => Ok(Request::Stats {
                session: u64_field(&value, "session")?,
            }),
            "close" => Ok(Request::Close {
                session: u64_field(&value, "session")?,
            }),
            "resume" => Ok(Request::Resume {
                session: u64_field(&value, "session")?,
            }),
            "ping" => Ok(Request::Ping),
            "negotiate" => {
                let text = string_field(&value, "frames")?;
                let format = FrameFormat::from_str_opt(&text).ok_or_else(|| {
                    ServeError::Protocol(format!("unknown frame format `{text}`"))
                })?;
                Ok(Request::Negotiate {
                    format,
                    dispersion: dispersion_field(&value)?,
                })
            }
            other => Err(ServeError::Protocol(format!("unknown op `{other}`"))),
        }
    }
}

impl Response {
    /// Renders the response as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Response::Opened {
                session,
                series_length,
            } => object(vec![
                ("ok", Value::String("opened".into())),
                ("session", session.serialize()),
                ("series_length", series_length.serialize()),
            ]),
            Response::Verdicts {
                session,
                frame,
                verdicts,
            } => return encode_verdicts(*session, *frame, verdicts),
            Response::Stats { session, stats } => object(vec![
                ("ok", Value::String("stats".into())),
                ("session", session.serialize()),
                ("stats", stats.serialize()),
            ]),
            Response::Closed { session, stats } => object(vec![
                ("ok", Value::String("closed".into())),
                ("session", session.serialize()),
                ("stats", stats.serialize()),
            ]),
            Response::Resumed { session, frames } => object(vec![
                ("ok", Value::String("resumed".into())),
                ("session", session.serialize()),
                ("frames", frames.serialize()),
            ]),
            Response::Pong => object(vec![("ok", Value::String("pong".into()))]),
            Response::Negotiated { format, dispersion } => {
                let mut entries = vec![
                    ("ok", Value::String("negotiated".into())),
                    ("frames", Value::String(format.as_str().into())),
                ];
                if *dispersion != DispersionPrecision::F64 {
                    entries.push(("dispersion", Value::String(dispersion.as_str().into())));
                }
                object(entries)
            }
            Response::Error { code, message } => object(vec![
                ("err", Value::String(code.as_str().into())),
                ("message", message.serialize()),
            ]),
        };
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// Decodes one response line: a `verdicts` reply spelled as
    /// [`Response::encode`] writes it directly, every other line through
    /// the [`Value`] document, to the same response.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON, an unknown
    /// `ok`/`err` discriminator, or a missing/mistyped field.
    pub fn decode(line: &str) -> Result<Self, ServeError> {
        read_verdicts(line).map_or_else(|| Self::decode_value(line), Ok)
    }

    /// [`Response::decode`] through the [`Value`] document, for every
    /// spelling.
    fn decode_value(line: &str) -> Result<Self, ServeError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| ServeError::Protocol(e.to_string()))?;
        if let Some(err) = value.get("err") {
            let code_text = err
                .as_str()
                .ok_or_else(|| ServeError::Protocol("field `err` must be a string".into()))?;
            let code = ErrorCode::from_str_opt(code_text)
                .ok_or_else(|| ServeError::Protocol(format!("unknown error code `{code_text}`")))?;
            return Ok(Response::Error {
                code,
                message: string_field(&value, "message")?,
            });
        }
        let ok = string_field(&value, "ok")?;
        match ok.as_str() {
            "opened" => Ok(Response::Opened {
                session: u64_field(&value, "session")?,
                series_length: usize::deserialize(required(&value, "series_length")?)?,
            }),
            "verdicts" => Ok(Response::Verdicts {
                session: u64_field(&value, "session")?,
                frame: usize::deserialize(required(&value, "frame")?)?,
                verdicts: Vec::<SegmentVerdict>::deserialize(required(&value, "verdicts")?)?,
            }),
            "stats" => Ok(Response::Stats {
                session: u64_field(&value, "session")?,
                stats: SessionStats::deserialize(required(&value, "stats")?)?,
            }),
            "closed" => Ok(Response::Closed {
                session: u64_field(&value, "session")?,
                stats: SessionStats::deserialize(required(&value, "stats")?)?,
            }),
            "resumed" => Ok(Response::Resumed {
                session: u64_field(&value, "session")?,
                frames: usize::deserialize(required(&value, "frames")?)?,
            }),
            "pong" => Ok(Response::Pong),
            "negotiated" => {
                let text = string_field(&value, "frames")?;
                let format = FrameFormat::from_str_opt(&text).ok_or_else(|| {
                    ServeError::Protocol(format!("unknown frame format `{text}`"))
                })?;
                Ok(Response::Negotiated {
                    format,
                    dispersion: dispersion_field(&value)?,
                })
            }
            other => Err(ServeError::Protocol(format!("unknown response `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{check_probs, decode_line};
    use proptest::prelude::*;

    fn tiny_probs() -> ProbMap {
        let mut probs = ProbMap::uniform(2, 1, 3);
        probs
            .set_distribution(0, 0, &[0.5, 0.25, 0.25])
            .expect("valid distribution");
        probs
    }

    #[test]
    fn requests_roundtrip() {
        let requests = vec![
            Request::Open {
                model: "default".into(),
                camera: "cam-0".into(),
            },
            Request::Frame {
                session: 7,
                probs: tiny_probs(),
            },
            Request::Stats { session: 7 },
            Request::Close { session: 7 },
            Request::Resume { session: 7 },
            Request::Ping,
            Request::Negotiate {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::F64),
                dispersion: DispersionPrecision::F64,
            },
            Request::Negotiate {
                format: FrameFormat::Json,
                dispersion: DispersionPrecision::F64,
            },
            Request::Negotiate {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::U16),
                dispersion: DispersionPrecision::F32,
            },
        ];
        for request in requests {
            let line = request.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), request);
        }
    }

    /// The f64 default travels as an *absent* key, so negotiation lines are
    /// byte-compatible with peers that predate the dispersion fast path.
    #[test]
    fn default_dispersion_is_absent_from_the_wire() {
        let request = Request::Negotiate {
            format: FrameFormat::Json,
            dispersion: DispersionPrecision::F64,
        };
        assert!(!request.encode().contains("dispersion"));
        let response = Response::Negotiated {
            format: FrameFormat::Json,
            dispersion: DispersionPrecision::F64,
        };
        assert!(!response.encode().contains("dispersion"));
        let fast = Request::Negotiate {
            format: FrameFormat::Json,
            dispersion: DispersionPrecision::F32,
        };
        assert!(fast.encode().contains("\"dispersion\":\"f32\""));
    }

    #[test]
    fn borrowed_frame_encoder_matches_the_owned_one() {
        let probs = tiny_probs();
        let line = Request::encode_frame(7, &probs);
        assert_eq!(line, Request::Frame { session: 7, probs }.encode());
        // The server decodes frame lines on the shard workers only when they
        // start exactly like this; any other spelling is decoded on the
        // event loop.
        assert!(line.starts_with(r#"{"op":"frame","session":7,"#), "{line}");
        assert_eq!(canonical_frame_session(line.as_bytes()), Some(7));
    }

    #[test]
    fn responses_roundtrip() {
        let verdict = SegmentVerdict {
            frame: 3,
            track_id: 9,
            region_id: 1,
            class: SemanticClass::Car,
            area: 42,
            tp_probability: 0.875,
            predicted_iou: 1.0 / 3.0,
        };
        let responses = vec![
            Response::Opened {
                session: 1,
                series_length: 3,
            },
            Response::Verdicts {
                session: 1,
                frame: 3,
                verdicts: vec![verdict],
            },
            Response::Stats {
                session: 1,
                stats: SessionStats::default(),
            },
            Response::Closed {
                session: 1,
                stats: SessionStats::default(),
            },
            Response::Resumed {
                session: 1,
                frames: 17,
            },
            Response::Pong,
            Response::Negotiated {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::U16),
                dispersion: DispersionPrecision::F64,
            },
            Response::Negotiated {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::U16),
                dispersion: DispersionPrecision::F32,
            },
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "queue full".into(),
            },
        ];
        for response in responses {
            let line = response.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(Response::decode(&line).unwrap(), response);
        }
    }

    #[test]
    fn verdict_floats_roundtrip_bit_identically() {
        let verdict = SegmentVerdict {
            frame: 0,
            track_id: 0,
            region_id: 0,
            class: SemanticClass::Human,
            area: 1,
            tp_probability: std::f64::consts::FRAC_1_SQRT_2,
            predicted_iou: 2.0 / 7.0,
        };
        let line = Response::Verdicts {
            session: 0,
            frame: 0,
            verdicts: vec![verdict.clone()],
        }
        .encode();
        match Response::decode(&line).unwrap() {
            Response::Verdicts { verdicts, .. } => {
                assert!(verdicts[0].tp_probability == verdict.tp_probability);
                assert!(verdicts[0].predicted_iou == verdict.predicted_iou);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_produce_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"open\"}",
            "{\"op\":\"frame\",\"session\":-1,\"probs\":{}}",
            "{\"op\":\"frame\",\"session\":1,\"probs\":{\"width\":1}}",
            "{\"op\":\"frame\",\"session\":1}",
            "{\"op\":\"negotiate\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-f16\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-u16\",\"dispersion\":\"f16\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-u16\",\"dispersion\":7}",
        ] {
            assert!(Request::decode(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "{}",
            "{\"ok\":\"nope\"}",
            "{\"err\":\"nope\",\"message\":\"x\"}",
        ] {
            assert!(Response::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn truncated_verdicts_error_instead_of_decoding_to_nan() {
        // A verdict object missing a field (truncated document, mismatched
        // peer) must be a decode error — never a silently-NaN probability.
        let bad = "{\"ok\":\"verdicts\",\"session\":1,\"frame\":0,\"verdicts\":\
                   [{\"frame\":0,\"track_id\":0,\"region_id\":0,\"class\":\"Car\",\"area\":1}]}";
        let err = Response::decode(bad).unwrap_err();
        assert!(
            err.to_string().contains("missing field"),
            "unexpected error: {err}"
        );
        // Explicit null is still the valid encoding of a non-finite float.
        let null_prob = "{\"ok\":\"verdicts\",\"session\":1,\"frame\":0,\"verdicts\":\
                         [{\"frame\":0,\"track_id\":0,\"region_id\":0,\"class\":\"Car\",\
                         \"area\":1,\"tp_probability\":null,\"predicted_iou\":0.5}]}";
        match Response::decode(null_prob).unwrap() {
            Response::Verdicts { verdicts, .. } => assert!(verdicts[0].tp_probability.is_nan()),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Backpressure,
            ErrorCode::UnknownModel,
            ErrorCode::UnknownSession,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::Overloaded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_str_opt(code.as_str()), Some(code));
            assert_eq!(code.to_string(), code.as_str());
        }
        assert_eq!(ErrorCode::from_str_opt("nope"), None);
    }

    #[test]
    fn frame_formats_roundtrip() {
        use metaseg_data::ProbEncoding;
        for format in [
            FrameFormat::Json,
            FrameFormat::Binary(ProbEncoding::F64),
            FrameFormat::Binary(ProbEncoding::F32),
            FrameFormat::Binary(ProbEncoding::U16),
        ] {
            assert_eq!(FrameFormat::from_str_opt(format.as_str()), Some(format));
            assert_eq!(format.to_string(), format.as_str());
        }
        assert_eq!(FrameFormat::from_str_opt("binary"), None);
        assert!(FrameFormat::Json.is_lossless());
        assert!(FrameFormat::Binary(ProbEncoding::F64).is_lossless());
        assert!(!FrameFormat::Binary(ProbEncoding::F32).is_lossless());
        assert!(!FrameFormat::Binary(ProbEncoding::U16).is_lossless());
    }

    /// The [`Value`] rendering of a frame request: the oracle
    /// [`Request::encode_frame`] must equal byte for byte.
    fn frame_value_line(session: u64, probs: &ProbMap) -> String {
        let value = object(vec![
            ("op", Value::String("frame".into())),
            ("session", session.serialize()),
            ("probs", probs.serialize()),
        ]);
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// The [`Value`] rendering of a `verdicts` reply: the oracle
    /// [`Response::encode`] must equal byte for byte.
    fn verdicts_value_line(session: u64, frame: usize, verdicts: &[SegmentVerdict]) -> String {
        let value = object(vec![
            ("ok", Value::String("verdicts".into())),
            ("session", session.serialize()),
            ("frame", frame.serialize()),
            ("verdicts", verdicts.serialize()),
        ]);
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// A decode result spelled out. `Debug` prints every finite float in
    /// shortest round-trip form and keeps the sign of zero, so two results
    /// print alike exactly when they are equal bit for bit (any NaN prints
    /// as `NaN`) and an error prints its message.
    fn spelled<T: fmt::Debug>(decoded: &Result<T, ServeError>) -> String {
        format!("{decoded:?}")
    }

    /// A float of the drawn kind: kinds below 6 print short, the rest
    /// include the longest spellings (subnormals, `±MAX`) and any bits.
    fn float_of((kind, bits): (u32, u64)) -> f64 {
        match kind {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => 1.0,
            4 | 5 => (bits >> 11) as f64 / (1u64 << 53) as f64,
            6 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            7 => f64::from_bits(bits & 1 << 63 | f64::MAX.to_bits()),
            _ => f64::from_bits(bits),
        }
    }

    /// An integer of the drawn kind: any bits, small, at least 2^53 (no
    /// longer exact through the wire's f64 numbers), or the maximum.
    fn u64_of((kind, bits): (u32, u64)) -> u64 {
        match kind {
            0 => bits,
            1 => bits % 1000,
            2 => bits | 1 << 53,
            _ => u64::MAX,
        }
    }

    fn usize_of(drawn: (u32, u64)) -> usize {
        u64_of(drawn) as usize
    }

    fn verdict_of(sizes: &[(u32, u64)], class: usize, floats: &[(u32, u64)]) -> SegmentVerdict {
        SegmentVerdict {
            frame: usize_of(sizes[0]),
            track_id: usize_of(sizes[1]),
            region_id: usize_of(sizes[2]),
            class: SemanticClass::ALL[class],
            area: usize_of(sizes[3]),
            tp_probability: float_of(floats[0]),
            predicted_iou: float_of(floats[1]),
        }
    }

    /// `line` with the byte at `position` (modulo its length) cut off or
    /// changed. `pick` below 64 picks a byte that means something in JSON
    /// numbers and structure, and is the ASCII byte itself otherwise.
    fn changed(line: &str, position: u64, pick: u8, truncate: bool) -> String {
        const MEANINGFUL: &[u8] = b"0123456789-+.eE,:{}[]\"\\ nul";
        let mut bytes = line.as_bytes().to_vec();
        let position = (position % bytes.len() as u64) as usize;
        if truncate {
            bytes.truncate(position);
        } else if pick < 64 {
            bytes[position] = MEANINGFUL[usize::from(pick) % MEANINGFUL.len()];
        } else {
            bytes[position] = pick;
        }
        String::from_utf8(bytes).expect("an ASCII byte in an ASCII line")
    }

    #[test]
    fn class_spellings_are_the_derived_ones() {
        for (id, class) in SemanticClass::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(class.id()), id);
            assert_eq!(
                class.serialize(),
                Value::String(CLASS_SPELLINGS[id].into()),
                "{class:?}"
            );
        }
    }

    /// Spellings the direct readers leave to the [`Value`] path, which
    /// decodes them as it always has.
    #[test]
    fn other_spellings_take_the_value_path() {
        let frame = Request::encode_frame(7, &tiny_probs());
        let verdict = SegmentVerdict {
            frame: 3,
            track_id: 9,
            region_id: 1,
            class: SemanticClass::Car,
            area: 42,
            tp_probability: 0.875,
            predicted_iou: 0.5,
        };
        let verdicts = Response::Verdicts {
            session: 7,
            frame: 3,
            verdicts: vec![verdict],
        }
        .encode();
        let in_frame = |from: &str, to: &str| frame.replacen(from, to, 1);
        let in_verdicts = |from: &str, to: &str| verdicts.replacen(from, to, 1);
        // (line, whether the `Value` path decodes it)
        let requests = [
            (in_frame(r#""op":"frame","#, r#""op": "frame","#), true),
            (in_frame(",0.25,", ", 0.25,"), true),
            (
                in_frame(
                    r#"{"op":"frame","session":7,"#,
                    r#"{"session":7,"op":"frame","#,
                ),
                true,
            ),
            (in_frame(r#""session""#, r#""s\u0065ssion""#), true),
            (in_frame(r#""width":2"#, r#""width":2.0"#), true),
            (in_frame(r#""session":7"#, r#""session":1e1"#), true),
            (in_frame(r#""session":7"#, r#""session":07"#), true),
            (in_frame(r#""session":7"#, r#""session":-0"#), true),
            (in_frame(r#""width":2"#, r#""width":2,"width":2"#), true),
            (format!("{frame} "), true),
            (in_frame(r#""width":2"#, r#""width":1"#), true),
            (in_frame(r#""data":[0.5"#, r#""data":[true"#), false),
        ];
        for (line, decodes) in requests {
            assert!(read_frame(&line).is_none(), "{line}");
            let decoded = Request::decode(&line);
            assert_eq!(spelled(&decoded), spelled(&Request::decode_value(&line)));
            assert_eq!(decoded.is_ok(), decodes, "{line}");
        }
        let responses = [
            (
                in_verdicts(r#""ok":"verdicts","#, r#""ok": "verdicts","#),
                true,
            ),
            (
                in_verdicts(r#""session":7,"frame":3"#, r#""frame":3,"session":7"#),
                true,
            ),
            (in_verdicts(r#""area":42"#, r#""area":42.0"#), true),
            (in_verdicts(r#""area""#, r#""\u0061rea""#), true),
            (in_verdicts(r#""track_id":9"#, r#""track_id":09"#), true),
            (in_verdicts(r#""Car""#, r#""car""#), false),
            (in_verdicts(r#""Car""#, r#""C\u0061r""#), true),
            (format!("{verdicts} "), true),
        ];
        for (line, decodes) in responses {
            assert!(read_verdicts(&line).is_none(), "{line}");
            let decoded = Response::decode(&line);
            assert_eq!(spelled(&decoded), spelled(&Response::decode_value(&line)));
            assert_eq!(decoded.is_ok(), decodes, "{line}");
        }
        // A frame whose shape does not hold its values decodes, and the
        // server answers it with the message it always has.
        let lying = in_frame(r#""width":2"#, r#""width":3"#);
        let Ok(Request::Frame { probs, .. }) = Request::decode(&lying) else {
            panic!("{lying} decodes");
        };
        assert_eq!(
            check_probs(&probs),
            Err(Response::Error {
                code: ErrorCode::BadRequest,
                message: "frame payload has an inconsistent shape".into(),
            })
        );
    }

    /// One character of the given class, each a case the JSON string scan
    /// treats differently: printable ASCII, the two stop bytes `"` and `\`,
    /// `/`, raw control characters U+0000–U+001F, DEL, and 2-, 3- and 4-byte
    /// code points (surrogates skipped).
    fn scan_char(class: u32, pick: u32) -> char {
        let code = match class {
            0 => 0x20 + pick % 0x5F,
            1 => u32::from(b'"'),
            2 => u32::from(b'\\'),
            3 => u32::from(b'/'),
            4 => pick % 0x20,
            5 => 0x7F,
            6 => 0x80 + pick % (0x800 - 0x80),
            7 => match 0x800 + pick % 0xF000 {
                code if code >= 0xD800 => code + 0x800,
                code => code,
            },
            _ => 0x1_0000 + pick % (0x11_0000 - 0x1_0000),
        };
        char::from_u32(code).expect("every class maps to a scalar value")
    }

    fn scan_string(picks: &[(u32, u32)]) -> String {
        picks
            .iter()
            .map(|&(class, pick)| scan_char(class, pick))
            .collect()
    }

    /// The session of the frame a line decodes to; `None` when it does not
    /// decode or is some other request.
    fn decoded_frame_session(line: &[u8]) -> Option<u64> {
        match decode_line(line) {
            Ok(Request::Frame { session, .. }) => Some(session),
            _ => None,
        }
    }

    /// The router's contract: a line it hands to a shard either fails to
    /// decode there or decodes to a frame of exactly the routed session.
    fn routes_as_decoded(line: &[u8]) -> bool {
        canonical_frame_session(line).is_none_or(|routed| {
            decode_line(line).map_or(
                true,
                |request| matches!(request, Request::Frame { session, .. } if session == routed),
            )
        })
    }

    #[test]
    fn only_the_encoder_spelling_routes_a_frame_line() {
        let canonical = Request::encode_frame(7, &ProbMap::uniform(2, 1, 3));
        let probs = canonical
            .strip_prefix(r#"{"op":"frame","session":7,"#)
            .expect("the encoder's spelling");
        let line = |head: &str| format!("{head}{probs}");
        // (line, session routed to a shard, session the decoder reads)
        let cases = [
            (canonical.clone(), Some(7), Some(7)),
            (
                line(r#"{"op":"frame","session":999999999999999,"#),
                Some(999_999_999_999_999),
                Some(999_999_999_999_999),
            ),
            (line(r#"{"op":"frame","session":0,"#), Some(0), Some(0)),
            (line(r#"{ "op":"frame","session":7,"#), None, Some(7)),
            (line(r#"{"session":7,"op":"frame","#), None, Some(7)),
            (line(r#"{"op":"frame","session":1.0,"#), None, Some(1)),
            (line(r#"{"op":"frame","session":-1,"#), None, None),
            (
                line(r#"{"op":"frame","session":1000000000000000,"#),
                None,
                Some(1_000_000_000_000_000),
            ),
            (line(r#"{"op":"frame","session":07,"#), None, Some(7)),
            // The decoder takes the first of duplicate keys, and so does
            // the router.
            (
                line(r#"{"op":"frame","session":7,"op":"stats","#),
                Some(7),
                Some(7),
            ),
            (
                line(r#"{"op":"frame","session":7,"session":8,"#),
                Some(7),
                Some(7),
            ),
        ];
        for (line, routed, decoded) in cases {
            assert_eq!(canonical_frame_session(line.as_bytes()), routed, "{line}");
            assert_eq!(decoded_frame_session(line.as_bytes()), decoded, "{line}");
            assert!(routes_as_decoded(line.as_bytes()), "{line}");
        }
    }

    proptest! {
        #[test]
        fn prop_the_router_reads_the_session_the_decoder_reads(
            session in 0u64..1_000_000_000_000_000,
            digits in 1u32..16,
            position in any::<u64>(),
            byte in 0u8..=255,
            truncate in any::<bool>()
        ) {
            // Sessions of every length, not mostly 15-digit ones.
            let session = session % 10u64.pow(digits);
            let line = Request::encode_frame(session, &ProbMap::uniform(1, 1, 2)).into_bytes();
            prop_assert_eq!(canonical_frame_session(&line), Some(session));
            // One byte changed, or the line cut short, anywhere; the line is
            // short, so many changes land in the prefix or the session.
            let mut changed = line;
            let position = (position % changed.len() as u64) as usize;
            if truncate {
                changed.truncate(position);
            } else {
                changed[position] = byte;
            }
            prop_assert!(
                routes_as_decoded(&changed),
                "{}",
                String::from_utf8_lossy(&changed)
            );
        }
    }

    // The codec's equivalence with the `Value` path. CI runs these four
    // with many more cases than the default.
    proptest! {
        #[test]
        fn prop_codec_frame_writer_matches_the_value_rendering(
            session in (0u32..4, any::<u64>()),
            shape in (1usize..4, 1usize..4, 1usize..4),
            values in proptest::collection::vec((0u32..9, any::<u64>()), 27),
            lying in proptest::collection::vec((0u32..4, any::<u64>()), 3)
        ) {
            let session = u64_of(session);
            let (width, height, classes) = shape;
            let data: Vec<f64> = values[..width * height * classes]
                .iter()
                .map(|&drawn| float_of(drawn))
                .collect();
            let probs = ProbMap::from_values(width, height, classes, data.clone())
                .expect("a consistent shape");
            let line = Request::encode_frame(session, &probs);
            prop_assert_eq!(&line, &frame_value_line(session, &probs));
            // The reader takes every line the writer writes, and reads what
            // the `Value` path reads.
            prop_assert!(read_frame(&line).is_some(), "{line}");
            prop_assert_eq!(
                spelled(&Request::decode(&line)),
                spelled(&Request::decode_value(&line))
            );
            // A map of any shape, as the `Value` path decodes one, writes as
            // the `Value` rendering does too.
            let lying = ProbMap::deserialize(&object(vec![
                ("width", usize_of(lying[0]).serialize()),
                ("height", usize_of(lying[1]).serialize()),
                ("num_classes", usize_of(lying[2]).serialize()),
                ("data", data.serialize()),
            ]))
            .expect("the derive takes any shape");
            prop_assert_eq!(
                Request::encode_frame(session, &lying),
                frame_value_line(session, &lying)
            );
        }

        #[test]
        fn prop_codec_verdicts_writer_matches_the_value_rendering(
            session in (0u32..4, any::<u64>()),
            frame in (0u32..4, any::<u64>()),
            verdicts in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..4, any::<u64>()), 4),
                    0usize..20,
                    proptest::collection::vec((0u32..9, any::<u64>()), 2),
                ),
                0..5
            )
        ) {
            let (session, frame) = (u64_of(session), usize_of(frame));
            let verdicts: Vec<SegmentVerdict> = verdicts
                .iter()
                .map(|(sizes, class, floats)| verdict_of(sizes, *class, floats))
                .collect();
            let line = Response::Verdicts {
                session,
                frame,
                verdicts: verdicts.clone(),
            }
            .encode();
            prop_assert_eq!(&line, &verdicts_value_line(session, frame, &verdicts));
            prop_assert!(read_verdicts(&line).is_some(), "{line}");
            prop_assert_eq!(
                spelled(&Response::decode(&line)),
                spelled(&Response::decode_value(&line))
            );
        }

        #[test]
        fn prop_codec_frame_reader_matches_the_value_path_on_changed_lines(
            session in (0u32..4, any::<u64>()),
            shape in (1usize..3, 1usize..3, 1usize..3),
            values in proptest::collection::vec((0u32..6, any::<u64>()), 8),
            position in any::<u64>(),
            pick in 0u8..128,
            truncate in any::<bool>()
        ) {
            let (width, height, classes) = shape;
            let data = values[..width * height * classes]
                .iter()
                .map(|&drawn| float_of(drawn))
                .collect();
            let probs = ProbMap::from_values(width, height, classes, data)
                .expect("a consistent shape");
            let line = Request::encode_frame(u64_of(session), &probs);
            let line = changed(&line, position, pick, truncate);
            prop_assert_eq!(
                spelled(&Request::decode(&line)),
                spelled(&Request::decode_value(&line)),
                "{}",
                line
            );
        }

        #[test]
        fn prop_codec_verdicts_reader_matches_the_value_path_on_changed_lines(
            session in (0u32..4, any::<u64>()),
            verdicts in proptest::collection::vec(
                (
                    proptest::collection::vec((1u32..3, any::<u64>()), 4),
                    0usize..20,
                    proptest::collection::vec((0u32..6, any::<u64>()), 2),
                ),
                0..3
            ),
            position in any::<u64>(),
            pick in 0u8..128,
            truncate in any::<bool>()
        ) {
            let line = Response::Verdicts {
                session: u64_of(session),
                frame: 3,
                verdicts: verdicts
                    .iter()
                    .map(|(sizes, class, floats)| verdict_of(sizes, *class, floats))
                    .collect(),
            }
            .encode();
            let line = changed(&line, position, pick, truncate);
            prop_assert_eq!(
                spelled(&Response::decode(&line)),
                spelled(&Response::decode_value(&line)),
                "{}",
                line
            );
        }
    }

    proptest! {
        #[test]
        fn prop_open_requests_roundtrip_arbitrary_strings(
            model in proptest::collection::vec((0u32..9, any::<u32>()), 0..24),
            camera in proptest::collection::vec((0u32..9, any::<u32>()), 0..24)
        ) {
            let request = Request::Open {
                model: scan_string(&model),
                camera: scan_string(&camera),
            };
            let line = request.encode();
            prop_assert!(!line.contains('\n'), "one message per line: {line:?}");
            prop_assert_eq!(Request::decode(&line).unwrap(), request);
        }
    }
}
