//! The one error type of the serve crate.

use crate::protocol::ErrorCode;
use crate::wire::BINARY_FRAME_VERSION;
use metaseg_data::DataError;
use serde::DeserializeError;
use std::{fmt, io};

/// Everything that can go wrong between a camera and the server.
///
/// Every decoder returns it: [`Request::decode`](crate::Request::decode),
/// [`Response::decode`](crate::Response::decode) and the binary frame
/// decoders of [`crate::wire`], whose variants are typed so the server can
/// answer a precise `bad-request` message (this type's `Display`) and stay
/// in sync. Every fallible [`ServeClient`](crate::ServeClient) method
/// returns it too, adding transport faults and the server's typed
/// rejections.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed.
    Io(io::Error),
    /// A socket deadline expired mid-request. The stream may hold a
    /// half-read response, so the retrying client resumes on a fresh
    /// connection.
    TimedOut(io::Error),
    /// A JSON line that does not decode, or a reply with the wrong shape.
    Protocol(String),
    /// The input ended before the fixed header or the declared payload.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it found.
        found: usize,
    },
    /// The first byte is not [`BINARY_FRAME_MAGIC`](crate::wire::BINARY_FRAME_MAGIC).
    BadMagic(u8),
    /// The header declares a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// The header's encoding tag is not a known
    /// [`ProbEncoding`](metaseg_data::ProbEncoding).
    UnknownEncoding(u8),
    /// The reserved header byte is non-zero.
    NonZeroReserved(u8),
    /// The declared shape has a zero dimension.
    ZeroDimension {
        /// Declared width.
        width: u32,
        /// Declared height.
        height: u32,
        /// Declared channels.
        channels: u32,
    },
    /// The declared payload length does not equal
    /// `width * height * channels * bytes_per_value`.
    LengthMismatch {
        /// Payload length the header declares.
        declared: u64,
        /// Payload length the shape implies.
        expected: u64,
    },
    /// The declared payload exceeds the receiver's size cap; nothing was
    /// allocated.
    PayloadTooLarge {
        /// Payload length the header declares.
        declared: u64,
        /// The receiver's cap in bytes.
        limit: u64,
    },
    /// The payload's CRC-32 does not match the header.
    ChecksumMismatch {
        /// Checksum the header declares.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The payload failed the byte-level
    /// [`ProbMap`](metaseg_data::ProbMap) decode.
    Data(DataError),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

impl ServeError {
    /// The typed server error code, when this is a server-side rejection.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ServeError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::TimedOut(e) => write!(f, "request deadline expired: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Truncated { needed, found } => {
                write!(
                    f,
                    "binary frame truncated: needed {needed} bytes, got {found}"
                )
            }
            ServeError::BadMagic(byte) => {
                write!(f, "not a binary frame: first byte {byte:#04x}")
            }
            ServeError::UnsupportedVersion(version) => write!(
                f,
                "unsupported binary frame version {version} (this build speaks \
                 {BINARY_FRAME_VERSION})"
            ),
            ServeError::UnknownEncoding(tag) => {
                write!(f, "unknown payload encoding tag {tag}")
            }
            ServeError::NonZeroReserved(byte) => {
                write!(f, "reserved header byte must be 0, got {byte:#04x}")
            }
            ServeError::ZeroDimension {
                width,
                height,
                channels,
            } => write!(
                f,
                "frame header declares a zero dimension ({width}x{height}x{channels})"
            ),
            ServeError::LengthMismatch { declared, expected } => write!(
                f,
                "frame header declares {declared} payload bytes but its shape requires {expected}"
            ),
            ServeError::PayloadTooLarge { declared, limit } => write!(
                f,
                "frame payload of {declared} bytes exceeds the receiver's cap of {limit}"
            ),
            ServeError::ChecksumMismatch { declared, computed } => write!(
                f,
                "payload checksum mismatch: header declares {declared:#010x}, \
                 payload hashes to {computed:#010x}"
            ),
            ServeError::Data(e) => write!(f, "payload decode failed: {e}"),
            ServeError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) | ServeError::TimedOut(e) => Some(e),
            ServeError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(value: io::Error) -> Self {
        // On Unix an expired `SO_RCVTIMEO`/`SO_SNDTIMEO` surfaces as
        // `WouldBlock`, on Windows as `TimedOut`; fold both into the typed
        // variant so every `?` site classifies deadlines for free.
        match value.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ServeError::TimedOut(value),
            _ => ServeError::Io(value),
        }
    }
}

impl From<DataError> for ServeError {
    fn from(value: DataError) -> Self {
        ServeError::Data(value)
    }
}

impl From<DeserializeError> for ServeError {
    fn from(value: DeserializeError) -> Self {
        ServeError::Protocol(value.to_string())
    }
}
