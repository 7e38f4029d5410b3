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
//! Decoding is total: any malformed line becomes a
//! [`ServeError::Protocol`], which the server answers with
//! [`ErrorCode::BadRequest`] instead of dropping the connection — one
//! garbled camera payload must not kill a session.

use crate::ServeError;
use metaseg::stream::{SegmentVerdict, SessionStats};
use metaseg::DispersionPrecision;
use metaseg_data::{ProbEncoding, ProbMap};
use serde::{Deserialize, Serialize, Value};
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

impl Request {
    /// Renders a frame submission from borrowed parts — the hot-path
    /// encoder: submitting a frame must not require cloning the softmax
    /// field into an owned [`Request`] first.
    pub fn encode_frame(session: u64, probs: &ProbMap) -> String {
        let value = object(vec![
            ("op", Value::String("frame".into())),
            ("session", session.serialize()),
            ("probs", probs.serialize()),
        ]);
        serde_json::to_string(&value).expect("document model serialization is infallible")
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

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON, an unknown `op`,
    /// or a missing/mistyped field; the server answers these with
    /// [`ErrorCode::BadRequest`] rather than closing the connection.
    pub fn decode(line: &str) -> Result<Self, ServeError> {
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
            } => object(vec![
                ("ok", Value::String("verdicts".into())),
                ("session", session.serialize()),
                ("frame", frame.serialize()),
                ("verdicts", verdicts.serialize()),
            ]),
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

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON, an unknown
    /// `ok`/`err` discriminator, or a missing/mistyped field.
    pub fn decode(line: &str) -> Result<Self, ServeError> {
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
    use metaseg_data::SemanticClass;
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
        assert_eq!(
            crate::transport::canonical_frame_session(line.as_bytes()),
            Some(7)
        );
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
