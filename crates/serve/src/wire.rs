//! Length-prefixed binary framing for frame submissions.
//!
//! JSON text dominates the per-frame budget of the serve protocol: a
//! 48x24x19 softmax field is ~400 KiB of decimal floats but only ~171 KiB of
//! raw little-endian `f64`s — and decoding the latter is a bounds check, a
//! checksum and a `memcpy` instead of a float parser. This module defines
//! the binary frame a client may send *instead of* a JSON `frame` line once
//! it has negotiated binary framing on the connection (see
//! [`Request::Negotiate`](crate::Request)); every other operation, and every
//! response, stays on the JSON-lines protocol.
//!
//! ## Frame layout
//!
//! One frame is a fixed 36-byte header followed by the payload bytes; all
//! multi-byte integers are little-endian:
//!
//! ```text
//! offset len  field
//! 0      1    magic      0xB5 (never the first byte of a JSON line)
//! 1      1    version    1
//! 2      1    encoding   0 = f64 | 1 = f32 | 2 = u16   (ProbEncoding tag)
//! 3      1    reserved   must be 0
//! 4      8    session    u64 session id
//! 12     4    width      u32 field width in pixels
//! 16     4    height     u32 field height in pixels
//! 20     4    channels   u32 softmax channels per pixel
//! 24     8    payload    u64 payload length in bytes
//! 32     4    checksum   CRC-32 (IEEE) of the payload bytes
//! 36     …    payload    width * height * channels values, little-endian,
//!                        row-major pixel-major (see ProbEncoding)
//! ```
//!
//! The header is self-describing and the payload length is bounded before
//! anything is allocated, so a server can always either decode the frame or
//! answer a typed error and resynchronise on the next message — decoding is
//! *total*: no input, however corrupt, panics or desynchronises the stream
//! (the property tests below pin this).
//!
//! ```
//! use metaseg_data::{ProbEncoding, ProbMap};
//! use metaseg_serve::wire::{decode_binary_frame, encode_binary_frame, BINARY_FRAME_MAGIC};
//!
//! let probs = ProbMap::uniform(2, 1, 3);
//! let bytes = encode_binary_frame(7, &probs, ProbEncoding::F64);
//!
//! // Fixed header: magic, version 1, encoding tag, reserved zero…
//! assert_eq!(bytes[0], BINARY_FRAME_MAGIC);
//! assert_eq!(&bytes[1..4], &[1, ProbEncoding::F64.tag(), 0]);
//! // …then session, dimensions and payload length, all little-endian…
//! assert_eq!(&bytes[4..12], &7u64.to_le_bytes());
//! assert_eq!(&bytes[12..16], &2u32.to_le_bytes());
//! assert_eq!(&bytes[16..20], &1u32.to_le_bytes());
//! assert_eq!(&bytes[20..24], &3u32.to_le_bytes());
//! assert_eq!(&bytes[24..32], &(2u64 * 1 * 3 * 8).to_le_bytes());
//! // …and the whole frame decodes back bit-identically.
//! let (session, decoded) = decode_binary_frame(&bytes, 1 << 20).unwrap();
//! assert_eq!((session, decoded), (7, probs));
//! ```

use crate::ServeError;
use metaseg_data::{ProbEncoding, ProbMap, ProbPayload};

/// First byte of every binary frame. JSON lines from this protocol always
/// start with `{`, so one peeked byte routes a connection's next message.
pub const BINARY_FRAME_MAGIC: u8 = 0xB5;

/// Protocol version encoded in (and required by) the header.
pub const BINARY_FRAME_VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const BINARY_HEADER_LEN: usize = 36;

/// CRC-32 (IEEE) of a byte slice — the payload checksum of the frame header.
///
/// Re-exported from `metaseg_data`: the wire protocol and the chunked
/// container format (`metaseg_data::container`) share one CRC implementation
/// so the two byte formats can never drift apart on polynomial, reflection
/// or initial value. The framing stays byte-identical (the property tests
/// below pin it, including the IEEE reference vector).
pub use metaseg_data::crc32;

/// The parsed fixed header of a binary frame.
///
/// [`BinaryFrameHeader::parse`] performs the *syntactic* checks (magic,
/// version, encoding tag, reserved byte);
/// [`BinaryFrameHeader::checked_payload_len`] performs the *semantic* ones
/// (non-zero shape, declared length consistent with the shape, receiver
/// cap) — split so a server can bound-check before reading the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryFrameHeader {
    /// Session the frame belongs to.
    pub session: u64,
    /// Payload value encoding.
    pub encoding: ProbEncoding,
    /// Field width in pixels.
    pub width: u32,
    /// Field height in pixels.
    pub height: u32,
    /// Softmax channels per pixel.
    pub channels: u32,
    /// Declared payload length in bytes.
    pub payload_len: u64,
    /// Declared CRC-32 of the payload.
    pub checksum: u32,
}

/// Little-endian field reader over the fixed header buffer.
fn le_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(
        bytes[offset..offset + 4]
            .try_into()
            .expect("fixed 4-byte slice"),
    )
}

fn le_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(
        bytes[offset..offset + 8]
            .try_into()
            .expect("fixed 8-byte slice"),
    )
}

impl BinaryFrameHeader {
    /// Parses and syntactically validates a fixed header.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Truncated`], [`ServeError::BadMagic`],
    /// [`ServeError::UnsupportedVersion`], [`ServeError::UnknownEncoding`] or
    /// [`ServeError::NonZeroReserved`].
    pub fn parse(bytes: &[u8]) -> Result<Self, ServeError> {
        if bytes.len() < BINARY_HEADER_LEN {
            return Err(ServeError::Truncated {
                needed: BINARY_HEADER_LEN,
                found: bytes.len(),
            });
        }
        if bytes[0] != BINARY_FRAME_MAGIC {
            return Err(ServeError::BadMagic(bytes[0]));
        }
        if bytes[1] != BINARY_FRAME_VERSION {
            return Err(ServeError::UnsupportedVersion(bytes[1]));
        }
        let encoding =
            ProbEncoding::from_tag(bytes[2]).ok_or(ServeError::UnknownEncoding(bytes[2]))?;
        if bytes[3] != 0 {
            return Err(ServeError::NonZeroReserved(bytes[3]));
        }
        Ok(Self {
            session: le_u64(bytes, 4),
            encoding,
            width: le_u32(bytes, 12),
            height: le_u32(bytes, 16),
            channels: le_u32(bytes, 20),
            payload_len: le_u64(bytes, 24),
            checksum: le_u32(bytes, 32),
        })
    }

    /// Semantically validates the declared payload length against the shape
    /// and a receiver-side cap, returning it as a `usize` safe to allocate.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroDimension`] for empty shapes,
    /// [`ServeError::LengthMismatch`] when the header lies about its own
    /// shape, and [`ServeError::PayloadTooLarge`] beyond `max_payload_bytes`.
    pub fn checked_payload_len(&self, max_payload_bytes: u64) -> Result<usize, ServeError> {
        if self.width == 0 || self.height == 0 || self.channels == 0 {
            return Err(ServeError::ZeroDimension {
                width: self.width,
                height: self.height,
                channels: self.channels,
            });
        }
        // u128: the product of three u32s and a small constant cannot
        // overflow, so the comparison with the declared u64 is exact.
        let expected = u128::from(self.width)
            * u128::from(self.height)
            * u128::from(self.channels)
            * self.encoding.bytes_per_value() as u128;
        if expected != u128::from(self.payload_len) {
            return Err(ServeError::LengthMismatch {
                declared: self.payload_len,
                expected: expected.min(u128::from(u64::MAX)) as u64,
            });
        }
        if self.payload_len > max_payload_bytes {
            return Err(ServeError::PayloadTooLarge {
                declared: self.payload_len,
                limit: max_payload_bytes,
            });
        }
        usize::try_from(self.payload_len).map_err(|_| ServeError::PayloadTooLarge {
            declared: self.payload_len,
            limit: usize::MAX as u64,
        })
    }

    /// Decodes a received payload against this header: checksum first, then
    /// the byte-level field decode.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ChecksumMismatch`] or [`ServeError::Data`].
    /// Call [`BinaryFrameHeader::checked_payload_len`] first; a
    /// payload of a different length than declared fails the size check of
    /// the inner decode.
    fn decode_payload(&self, payload: &[u8]) -> Result<ProbMap, ServeError> {
        Ok(self.verified_payload(payload.to_vec())?.decode()?)
    }

    /// Verifies a received payload's checksum and wraps it as a
    /// [`ProbPayload`] *without decoding a single value* — the ingest path:
    /// the server reads the payload from the socket into the buffer passed
    /// here, which the payload then owns unchanged, and dequantization
    /// happens later, directly into the extraction scratch of whichever
    /// worker picks the frame up.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ChecksumMismatch`] when the bytes do not match
    /// the declared CRC-32, and [`ServeError::Data`] when the header's
    /// shape disagrees with the byte count. On error the payload bytes are
    /// dropped; the connection stays usable.
    pub fn verified_payload(&self, payload: Vec<u8>) -> Result<ProbPayload, ServeError> {
        let computed = crc32(&payload);
        if computed != self.checksum {
            return Err(ServeError::ChecksumMismatch {
                declared: self.checksum,
                computed,
            });
        }
        let payload = ProbPayload {
            width: self.width as usize,
            height: self.height as usize,
            channels: self.channels as usize,
            encoding: self.encoding,
            bytes: payload,
        };
        payload.checked_value_count()?;
        Ok(payload)
    }

    /// Renders the 36-byte fixed header.
    pub fn to_bytes(&self) -> [u8; BINARY_HEADER_LEN] {
        let mut bytes = [0u8; BINARY_HEADER_LEN];
        bytes[0] = BINARY_FRAME_MAGIC;
        bytes[1] = BINARY_FRAME_VERSION;
        bytes[2] = self.encoding.tag();
        bytes[3] = 0;
        bytes[4..12].copy_from_slice(&self.session.to_le_bytes());
        bytes[12..16].copy_from_slice(&self.width.to_le_bytes());
        bytes[16..20].copy_from_slice(&self.height.to_le_bytes());
        bytes[20..24].copy_from_slice(&self.channels.to_le_bytes());
        bytes[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        bytes[32..36].copy_from_slice(&self.checksum.to_le_bytes());
        bytes
    }
}

/// The declared payload length of a raw header buffer, read without any
/// validation — the one field a receiver needs even from a header that
/// fails [`BinaryFrameHeader::parse`], because it is what allows skipping
/// the payload and resynchronising on the next message. Kept here so the
/// byte offsets of the layout live in exactly one module.
pub fn declared_payload_len(header_bytes: &[u8; BINARY_HEADER_LEN]) -> u64 {
    le_u64(header_bytes, 24)
}

/// Encodes one frame submission as a binary frame (header + payload).
///
/// Single-allocation hot path: the payload is encoded straight into the
/// frame buffer after a header-sized placeholder, then the header (which
/// needs the payload's length and checksum) is written into place — no
/// second full-payload copy per frame.
///
/// # Panics
///
/// Panics if the field's dimensions do not fit `u32` — softmax fields are
/// camera images, and a >4-billion-pixel axis is a caller bug, not a wire
/// condition.
pub fn encode_binary_frame(session: u64, probs: &ProbMap, encoding: ProbEncoding) -> Vec<u8> {
    let payload_len =
        probs.width() * probs.height() * probs.num_classes() * encoding.bytes_per_value();
    let mut bytes = Vec::with_capacity(BINARY_HEADER_LEN + payload_len);
    bytes.resize(BINARY_HEADER_LEN, 0);
    probs.extend_payload_bytes(encoding, &mut bytes);
    debug_assert_eq!(bytes.len(), BINARY_HEADER_LEN + payload_len);
    let header = BinaryFrameHeader {
        session,
        encoding,
        width: u32::try_from(probs.width()).expect("field width fits u32"),
        height: u32::try_from(probs.height()).expect("field height fits u32"),
        channels: u32::try_from(probs.num_classes()).expect("channel count fits u32"),
        payload_len: payload_len as u64,
        checksum: crc32(&bytes[BINARY_HEADER_LEN..]),
    };
    bytes[..BINARY_HEADER_LEN].copy_from_slice(&header.to_bytes());
    bytes
}

/// Decodes one complete binary frame from a byte slice: header syntax,
/// payload bounds (against `max_payload_bytes`), checksum, field decode.
///
/// Total: returns a typed [`ServeError`] on any malformed input — truncated,
/// corrupt, lying about its dimensions, over-long — and never panics. The
/// slice must contain exactly one frame (no trailing bytes).
///
/// # Errors
///
/// A binary-frame variant of [`ServeError`] or [`ServeError::Data`], as
/// produced by the stage that failed.
pub fn decode_binary_frame(
    bytes: &[u8],
    max_payload_bytes: u64,
) -> Result<(u64, ProbMap), ServeError> {
    let header = BinaryFrameHeader::parse(bytes)?;
    let payload_len = header.checked_payload_len(max_payload_bytes)?;
    let body = &bytes[BINARY_HEADER_LEN..];
    if body.len() != payload_len {
        return Err(ServeError::Truncated {
            needed: BINARY_HEADER_LEN + payload_len,
            found: bytes.len(),
        });
    }
    let probs = header.decode_payload(body)?;
    Ok((header.session, probs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small field with non-trivial, exactly-representable values.
    fn sample_map(width: usize, height: usize, channels: usize, values: &[f64]) -> ProbMap {
        let mut map = ProbMap::uniform(width, height, channels);
        let mut cursor = values.iter().cycle();
        for y in 0..height {
            for x in 0..width {
                let dist: Vec<f64> = (0..channels).map(|_| *cursor.next().unwrap()).collect();
                map.set_distribution_unchecked(x, y, &dist);
            }
        }
        map
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips_bit_exactly_in_f64() {
        let map = sample_map(4, 3, 5, &[0.125, 0.5, 1.0 / 3.0, 0.0625, 1e-9]);
        let bytes = encode_binary_frame(42, &map, ProbEncoding::F64);
        assert_eq!(bytes.len(), BINARY_HEADER_LEN + 4 * 3 * 5 * 8);
        let (session, decoded) = decode_binary_frame(&bytes, 1 << 20).unwrap();
        assert_eq!(session, 42);
        assert_eq!(decoded, map);
    }

    #[test]
    fn declared_payload_len_reads_the_length_field_of_any_header() {
        let map = ProbMap::uniform(4, 3, 5);
        let bytes = encode_binary_frame(1, &map, ProbEncoding::F32);
        let header: [u8; BINARY_HEADER_LEN] = bytes[..BINARY_HEADER_LEN].try_into().unwrap();
        assert_eq!(declared_payload_len(&header), 4 * 3 * 5 * 4);
        // Still readable from a header that fails validation — that is the
        // point: it is what lets a receiver skip the payload and resync.
        let mut invalid = header;
        invalid[1] = 99;
        assert!(BinaryFrameHeader::parse(&invalid).is_err());
        assert_eq!(declared_payload_len(&invalid), 4 * 3 * 5 * 4);
    }

    #[test]
    fn header_syntax_errors_are_typed() {
        let map = ProbMap::uniform(2, 2, 3);
        let good = encode_binary_frame(1, &map, ProbEncoding::F32);

        let mut bad = good.clone();
        bad[0] = b'{';
        assert!(matches!(
            BinaryFrameHeader::parse(&bad),
            Err(ServeError::BadMagic(b'{'))
        ));

        let mut bad = good.clone();
        bad[1] = 9;
        assert!(matches!(
            BinaryFrameHeader::parse(&bad),
            Err(ServeError::UnsupportedVersion(9))
        ));

        let mut bad = good.clone();
        bad[2] = 77;
        assert!(matches!(
            BinaryFrameHeader::parse(&bad),
            Err(ServeError::UnknownEncoding(77))
        ));

        let mut bad = good.clone();
        bad[3] = 1;
        assert!(matches!(
            BinaryFrameHeader::parse(&bad),
            Err(ServeError::NonZeroReserved(1))
        ));

        assert!(matches!(
            BinaryFrameHeader::parse(&good[..10]),
            Err(ServeError::Truncated {
                needed: BINARY_HEADER_LEN,
                found: 10
            })
        ));
    }

    #[test]
    fn headers_that_lie_about_their_shape_are_rejected_before_allocation() {
        let map = ProbMap::uniform(2, 2, 3);
        let good = encode_binary_frame(1, &map, ProbEncoding::F64);

        // Zero dimension.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_binary_frame(&bad, 1 << 20),
            Err(ServeError::ZeroDimension { .. })
        ));

        // Inflated width with the original payload length: mismatch.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            decode_binary_frame(&bad, 1 << 20),
            Err(ServeError::LengthMismatch { .. })
        ));

        // A consistent header whose payload would be enormous: the size cap
        // fires without any allocation (the body is absent entirely).
        let huge = BinaryFrameHeader {
            session: 0,
            encoding: ProbEncoding::F64,
            width: 1 << 20,
            height: 1 << 20,
            channels: 64,
            payload_len: (1u64 << 40) * 64 * 8,
            checksum: 0,
        };
        assert!(matches!(
            decode_binary_frame(&huge.to_bytes(), 1 << 20),
            Err(ServeError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_payloads_fail_the_checksum() {
        let map = sample_map(3, 2, 4, &[0.25, 0.5, 0.125]);
        let mut bytes = encode_binary_frame(5, &map, ProbEncoding::U16);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_binary_frame(&bytes, 1 << 20),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frames_report_how_much_was_needed() {
        let map = ProbMap::uniform(2, 2, 3);
        let bytes = encode_binary_frame(1, &map, ProbEncoding::U16);
        let cut = bytes.len() - 5;
        assert!(matches!(
            decode_binary_frame(&bytes[..cut], 1 << 20),
            Err(ServeError::Truncated { needed, found }) if needed == bytes.len() && found == cut
        ));
    }

    proptest! {
        #[test]
        fn prop_frames_roundtrip(
            dims in (1usize..5, 1usize..4, 1usize..6),
            values in proptest::collection::vec(0.0f64..=1.0, 16),
            session in any::<u64>(),
            tag in 0u8..3
        ) {
            let (width, height, channels) = dims;
            let encoding = ProbEncoding::from_tag(tag).expect("tag in range");
            let map = sample_map(width, height, channels, &values);
            let bytes = encode_binary_frame(session, &map, encoding);
            let (decoded_session, decoded) = decode_binary_frame(&bytes, u64::MAX)
                .expect("well-formed frames decode");
            prop_assert_eq!(decoded_session, session);
            if encoding.is_lossless() {
                prop_assert_eq!(&decoded, &map);
            } else {
                // Lossy modes: decoding is stable (a relay re-encoding the
                // decoded field reproduces the same frame bytes).
                prop_assert_eq!(
                    encode_binary_frame(session, &decoded, encoding),
                    bytes
                );
            }
        }

        #[test]
        fn prop_single_byte_corruption_is_detected(
            values in proptest::collection::vec(0.0f64..=1.0, 12),
            position in any::<u64>(),
            flip in 1u8..=255
        ) {
            // Any single-byte corruption outside the session field must be
            // detected (the session id is payload-opaque routing data; the
            // checksum covers the payload, the semantic checks the header).
            let map = sample_map(2, 2, 3, &values);
            let good = encode_binary_frame(3, &map, ProbEncoding::F64);
            let position = (position % good.len() as u64) as usize;
            prop_assume!(!(4..12).contains(&position));
            let mut bad = good.clone();
            bad[position] ^= flip;
            prop_assert!(decode_binary_frame(&bad, u64::MAX).is_err());
        }

        #[test]
        fn prop_truncation_never_decodes(
            values in proptest::collection::vec(0.0f64..=1.0, 12),
            cut in any::<u64>()
        ) {
            let map = sample_map(2, 2, 3, &values);
            let bytes = encode_binary_frame(3, &map, ProbEncoding::F32);
            let cut = (cut % bytes.len() as u64) as usize;
            prop_assert!(matches!(
                decode_binary_frame(&bytes[..cut], u64::MAX),
                Err(ServeError::Truncated { .. })
            ));
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..128),
            force_magic in any::<bool>()
        ) {
            let mut bytes = bytes;
            if force_magic && !bytes.is_empty() {
                bytes[0] = BINARY_FRAME_MAGIC;
                if bytes.len() > 1 {
                    bytes[1] = BINARY_FRAME_VERSION;
                }
            }
            // Total decoding: any byte soup yields Ok or a typed error.
            let _ = decode_binary_frame(&bytes, 1 << 16);
        }
    }
}
