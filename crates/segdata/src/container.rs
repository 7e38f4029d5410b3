//! The chunked container — one byte format for checkpoints and frame
//! corpora.
//!
//! `MetaPredictor` checkpoints and recorded prediction streams share one
//! on-disk form: a versioned, chunked, optionally-compressed container whose
//! payload chunks carry a CRC-32 each ([`crate::crc32`], shared with the
//! wire protocol), so both get the same corruption detection and the same
//! typed errors. The golden oracle stays JSONL text, which git diffs.
//!
//! ## Container layout
//!
//! Every container starts with a fixed 8-byte header; all multi-byte
//! integers are little-endian:
//!
//! ```text
//! offset len  field
//! 0      4    magic      "MSGC"
//! 4      1    version    1
//! 5      1    kind       1 = checkpoint | 2 = frame corpus (ContainerKind tag)
//! 6      1    flags      bit 0: chunks may be PackBits-compressed
//! 7      1    reserved   must be 0
//! ```
//!
//! The body is a sequence of chunks, each a 16-byte chunk header followed by
//! the stored bytes:
//!
//! ```text
//! offset len  field
//! 0      4    tag        band index, or a marker tag (TAG_*)
//! 4      4    raw_len    chunk length after decompression
//! 8      4    stored_len bytes that follow; < raw_len means compressed
//! 12     4    checksum   CRC-32 (IEEE) of the stored bytes
//! 16     …    stored bytes
//! ```
//!
//! A *checkpoint* wraps a predictor's canonical JSON in a single checksummed
//! [`TAG_CHECKPOINT`] chunk:
//!
//! ```
//! use metaseg_data::container::{self, CHUNK_HEADER_LEN, CONTAINER_HEADER_LEN, TAG_CHECKPOINT};
//! use metaseg_data::crc32;
//!
//! let json = r#"{"classifier":"logistic"}"#;
//! let bytes = container::write_checkpoint(json, false).unwrap();
//!
//! // 8-byte file header: magic, version 1, kind 1 (checkpoint), flags, reserved…
//! assert_eq!(&bytes[0..4], b"MSGC");
//! assert_eq!(&bytes[4..8], &[1, 1, 0, 0]);
//! // …then one chunk: the checkpoint tag, the JSON stored raw
//! // (stored_len == raw_len), CRC-32 last.
//! let len = json.len() as u32;
//! assert_eq!(&bytes[8..12], &TAG_CHECKPOINT.to_le_bytes());
//! assert_eq!(&bytes[12..16], &len.to_le_bytes());
//! assert_eq!(&bytes[16..20], &len.to_le_bytes());
//! let body = &bytes[CONTAINER_HEADER_LEN + CHUNK_HEADER_LEN..];
//! assert_eq!(body, json.as_bytes());
//! assert_eq!(&bytes[20..24], &crc32(body).to_le_bytes());
//! // …and the container decodes back to the same text.
//! assert_eq!(container::read_checkpoint(&bytes).unwrap(), json);
//! ```
//!
//! A *frame corpus* is a stream of frames, each a 32-byte frame descriptor
//! chunk ([`TAG_FRAME`]: sequence and index as `u64`; width, height and
//! channels as `u32`; the encoding tag, the band count, a flag for attached
//! ground truth and a reserved byte), one chunk per horizontal band of the
//! prediction payload, and optionally one [`TAG_GROUND_TRUTH`] chunk of
//! `u16` class ids. End of stream is only valid at a frame boundary, so a
//! torn file is a typed [`ContainerError::Truncated`], never a short read.
//! Decoding is *total*: no input, however corrupt, panics, and every header
//! length is bounded before anything is allocated from untrusted bytes.

use crate::crc::crc32;
use crate::error::DataError;
use crate::frame::{Frame, FrameId};
use crate::labelmap::LabelMap;
use crate::probmap::{ProbEncoding, ProbPayload};
use metaseg_imgproc::Grid;
use std::fmt;
use std::io::{Read, Write};

/// First four bytes of every container.
pub const CONTAINER_MAGIC: [u8; 4] = *b"MSGC";

/// Container format version written by (and required by) this build.
const CONTAINER_VERSION: u8 = 1;

/// Size of the fixed container header in bytes.
pub const CONTAINER_HEADER_LEN: usize = 8;

/// Size of a chunk header in bytes.
pub const CHUNK_HEADER_LEN: usize = 16;

/// Size of the shape descriptor inside a frame descriptor.
const SHAPE_DESC_LEN: usize = 16;

/// Size of a frame descriptor chunk's decompressed body.
const FRAME_DESC_LEN: usize = 32;

/// Chunk tag of a frame descriptor in a frame corpus.
pub const TAG_FRAME: u32 = 0xFFFF_FF01;

/// Chunk tag of a ground-truth label chunk in a frame corpus.
pub const TAG_GROUND_TRUTH: u32 = 0xFFFF_FF02;

/// Chunk tag of the single JSON chunk in a checkpoint container.
pub const TAG_CHECKPOINT: u32 = 0xFFFF_FF03;

/// Cap on one frame's decoded payload (1 GiB): descriptors declaring more
/// are rejected before any allocation.
pub const MAX_GRID_BYTES: u64 = 1 << 30;

/// Default cap on a decompressed text chunk (checkpoint JSON): 64 MiB.
pub const MAX_TEXT_CHUNK_BYTES: u64 = 64 << 20;

/// Flag bit: chunks of this container may be PackBits-compressed.
const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Flag bit in a frame descriptor: a ground-truth chunk follows the bands.
const FRAME_FLAG_GROUND_TRUTH: u8 = 0b0000_0001;

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// One serialized `MetaPredictor` (canonical JSON in a single chunk).
    Checkpoint,
    /// A stream of frames (predictions plus optional ground truth).
    FrameCorpus,
}

impl ContainerKind {
    /// The one-byte header tag of the kind.
    pub fn tag(self) -> u8 {
        match self {
            ContainerKind::Checkpoint => 1,
            ContainerKind::FrameCorpus => 2,
        }
    }

    /// Parses a header tag. Tags 0 and 3 are never assigned: they named a
    /// retired single-payload kind and a retired text-record kind, so such
    /// files are rejected, not misread.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => ContainerKind::Checkpoint,
            2 => ContainerKind::FrameCorpus,
            _ => return None,
        })
    }

    /// Human-readable name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ContainerKind::Checkpoint => "checkpoint",
            ContainerKind::FrameCorpus => "frame-corpus",
        }
    }
}

/// A container that could not be decoded. Every variant is typed so callers
/// can distinguish truncation from corruption from version skew.
#[derive(Debug, Clone, PartialEq)]
pub enum ContainerError {
    /// An underlying I/O operation failed (streaming readers/writers only).
    Io(std::io::ErrorKind),
    /// The input ended before a complete header, descriptor or chunk.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it found.
        found: usize,
    },
    /// The first four bytes are not [`CONTAINER_MAGIC`].
    BadMagic([u8; 4]),
    /// The header declares a format version this build does not speak.
    UnsupportedVersion(u8),
    /// The header's kind tag is not a known [`ContainerKind`].
    UnknownKind(u8),
    /// The container is well-formed but of a different kind than asked for.
    WrongKind {
        /// Kind the caller required.
        expected: ContainerKind,
        /// Kind the header declares.
        found: ContainerKind,
    },
    /// The header sets flag bits this build does not know.
    UnknownFlags(u8),
    /// A reserved header or descriptor field is non-zero.
    NonZeroReserved(u32),
    /// A descriptor's encoding tag is not a known [`ProbEncoding`].
    UnknownEncoding(u8),
    /// A descriptor declares a band count of zero or more bands than rows.
    InvalidBandCount {
        /// Declared band count.
        bands: u8,
        /// Field height in rows.
        height: usize,
    },
    /// A chunk carries a different tag than the format requires here.
    UnexpectedTag {
        /// Tag the format requires at this position.
        expected: u32,
        /// Tag the chunk header declares.
        found: u32,
    },
    /// A declared length exceeds the receiver's cap; nothing was allocated.
    ChunkTooLarge {
        /// Length the header declares, in bytes.
        declared: u64,
        /// The receiver's cap in bytes.
        limit: u64,
    },
    /// A chunk's declared decompressed length contradicts the format (e.g. a
    /// band chunk whose `raw_len` is not that band's byte count).
    ChunkLengthMismatch {
        /// Tag of the offending chunk.
        tag: u32,
        /// Length the format requires.
        expected: usize,
        /// Length the chunk header declares.
        found: usize,
    },
    /// A chunk's stored bytes do not hash to the declared CRC-32.
    ChecksumMismatch {
        /// Tag of the offending chunk.
        tag: u32,
        /// Checksum the chunk header declares.
        declared: u32,
        /// Checksum computed over the stored bytes.
        computed: u32,
    },
    /// A chunk claims compression the header forbids, its compressed stream
    /// is malformed, or it does not decompress to exactly `raw_len` bytes.
    InvalidCompression {
        /// Tag of the offending chunk.
        tag: u32,
    },
    /// Bytes remain after the last chunk of a fixed-size container.
    TrailingBytes(usize),
    /// A text chunk (checkpoint JSON) is not valid UTF-8.
    NotUtf8 {
        /// Tag of the offending chunk.
        tag: u32,
    },
    /// A stored integer does not fit the platform's `usize`.
    FieldOverflow(&'static str),
    /// A decoded payload or label map failed data-model validation.
    Data(DataError),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(kind) => write!(f, "container i/o failed: {kind}"),
            ContainerError::Truncated { needed, found } => {
                write!(f, "container truncated: needed {needed} bytes, got {found}")
            }
            ContainerError::BadMagic(magic) => {
                write!(f, "not a container: magic bytes {magic:02x?}")
            }
            ContainerError::UnsupportedVersion(version) => write!(
                f,
                "unsupported container version {version} (this build speaks {CONTAINER_VERSION})"
            ),
            ContainerError::UnknownKind(tag) => write!(f, "unknown container kind tag {tag}"),
            ContainerError::WrongKind { expected, found } => write!(
                f,
                "expected a {} container, found a {} container",
                expected.name(),
                found.name()
            ),
            ContainerError::UnknownFlags(flags) => {
                write!(f, "unknown container flag bits {flags:#010b}")
            }
            ContainerError::NonZeroReserved(value) => {
                write!(f, "reserved container field must be 0, got {value:#x}")
            }
            ContainerError::UnknownEncoding(tag) => {
                write!(f, "unknown payload encoding tag {tag}")
            }
            ContainerError::InvalidBandCount { bands, height } => write!(
                f,
                "descriptor declares {bands} bands for a {height}-row field"
            ),
            ContainerError::UnexpectedTag { expected, found } => write!(
                f,
                "chunk tag {found:#010x} where the format requires {expected:#010x}"
            ),
            ContainerError::ChunkTooLarge { declared, limit } => write!(
                f,
                "declared chunk of {declared} bytes exceeds the receiver's cap of {limit}"
            ),
            ContainerError::ChunkLengthMismatch {
                tag,
                expected,
                found,
            } => write!(
                f,
                "chunk {tag:#010x} declares {found} decompressed bytes, the format requires \
                 {expected}"
            ),
            ContainerError::ChecksumMismatch {
                tag,
                declared,
                computed,
            } => write!(
                f,
                "chunk {tag:#010x} checksum mismatch: header declares {declared:#010x}, stored \
                 bytes hash to {computed:#010x}"
            ),
            ContainerError::InvalidCompression { tag } => {
                write!(f, "chunk {tag:#010x} has a malformed compressed stream")
            }
            ContainerError::TrailingBytes(count) => {
                write!(f, "{count} trailing bytes after the final chunk")
            }
            ContainerError::NotUtf8 { tag } => {
                write!(f, "text chunk {tag:#010x} is not valid UTF-8")
            }
            ContainerError::FieldOverflow(field) => {
                write!(f, "stored {field} does not fit this platform's usize")
            }
            ContainerError::Data(e) => write!(f, "container payload invalid: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for ContainerError {
    fn from(value: DataError) -> Self {
        ContainerError::Data(value)
    }
}

/// Rows `[start, end)` of band `band` in the even `bands`-way horizontal
/// partition of `height` rows.
fn band_rows(band: usize, bands: usize, height: usize) -> (usize, usize) {
    (band * height / bands, (band + 1) * height / bands)
}

/// Byte length of band `band` of a payload with the given shape.
fn band_byte_len(
    band: usize,
    bands: usize,
    height: usize,
    width: usize,
    channels: usize,
    encoding: ProbEncoding,
) -> usize {
    let (start, end) = band_rows(band, bands, height);
    (end - start) * width * channels * encoding.bytes_per_value()
}

// ---------------------------------------------------------------------------
// PackBits compression
// ---------------------------------------------------------------------------

/// Compresses `src` with PackBits-style run-length encoding: a control byte
/// `c < 128` copies `c + 1` literal bytes, `c > 128` repeats the next byte
/// `257 - c` times; `128` is never emitted.
fn compress_packbits(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 2);
    let mut i = 0;
    while i < src.len() {
        let mut run = 1;
        while run < 128 && i + run < src.len() && src[i + run] == src[i] {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(src[i]);
            i += run;
        } else {
            let start = i;
            let mut len = run;
            i += run;
            while len < 128 && i < src.len() {
                let mut next_run = 1;
                while next_run < 3 && i + next_run < src.len() && src[i + next_run] == src[i] {
                    next_run += 1;
                }
                if next_run >= 3 {
                    break;
                }
                let take = next_run.min(128 - len);
                len += take;
                i += take;
            }
            out.push((len - 1) as u8);
            out.extend_from_slice(&src[start..start + len]);
        }
    }
    out
}

/// Decompresses a PackBits stream into `out`, which must be filled exactly.
fn decompress_packbits_into(src: &[u8], out: &mut [u8]) -> Result<(), ()> {
    let mut si = 0;
    let mut oi = 0;
    while si < src.len() {
        let control = src[si];
        si += 1;
        if control < 128 {
            let n = control as usize + 1;
            if si + n > src.len() || oi + n > out.len() {
                return Err(());
            }
            out[oi..oi + n].copy_from_slice(&src[si..si + n]);
            si += n;
            oi += n;
        } else if control == 128 {
            // The compressor never emits the no-op control byte.
            return Err(());
        } else {
            let n = 257 - control as usize;
            if si >= src.len() || oi + n > out.len() {
                return Err(());
            }
            out[oi..oi + n].fill(src[si]);
            si += 1;
            oi += n;
        }
    }
    if oi == out.len() {
        Ok(())
    } else {
        Err(())
    }
}

/// Worst-case PackBits output for `raw` input bytes (one control byte per
/// 128-literal block, plus slack) — the bound streaming readers place on a
/// chunk's stored length before allocating its read buffer.
fn packbits_bound(raw: usize) -> usize {
    raw + raw / 128 + 2
}

// ---------------------------------------------------------------------------
// Header and chunk primitives
// ---------------------------------------------------------------------------

/// Renders the fixed 8-byte container header.
fn encode_header(kind: ContainerKind, compress: bool) -> [u8; CONTAINER_HEADER_LEN] {
    let flags = if compress { FLAG_COMPRESSED } else { 0 };
    let mut header = [0u8; CONTAINER_HEADER_LEN];
    header[..4].copy_from_slice(&CONTAINER_MAGIC);
    header[4] = CONTAINER_VERSION;
    header[5] = kind.tag();
    header[6] = flags;
    header
}

/// Parses and validates the fixed header, returning whether chunks may be
/// compressed. Version and kind are checked before anything downstream reads
/// a length field, so unknown versions are rejected before any allocation.
fn parse_header(
    bytes: &[u8; CONTAINER_HEADER_LEN],
    expected: ContainerKind,
) -> Result<bool, ContainerError> {
    if bytes[..4] != CONTAINER_MAGIC {
        return Err(ContainerError::BadMagic(
            bytes[..4].try_into().expect("fixed 4-byte slice"),
        ));
    }
    if bytes[4] != CONTAINER_VERSION {
        return Err(ContainerError::UnsupportedVersion(bytes[4]));
    }
    let kind = ContainerKind::from_tag(bytes[5]).ok_or(ContainerError::UnknownKind(bytes[5]))?;
    if kind != expected {
        return Err(ContainerError::WrongKind {
            expected,
            found: kind,
        });
    }
    if bytes[6] & !FLAG_COMPRESSED != 0 {
        return Err(ContainerError::UnknownFlags(bytes[6]));
    }
    if bytes[7] != 0 {
        return Err(ContainerError::NonZeroReserved(u32::from(bytes[7])));
    }
    Ok(bytes[6] & FLAG_COMPRESSED != 0)
}

/// A parsed 16-byte chunk header.
#[derive(Debug, Clone, Copy)]
struct ChunkHeader {
    tag: u32,
    raw_len: u32,
    stored_len: u32,
    checksum: u32,
}

impl ChunkHeader {
    fn parse(bytes: &[u8; CHUNK_HEADER_LEN]) -> Self {
        let le = |offset: usize| {
            u32::from_le_bytes(
                bytes[offset..offset + 4]
                    .try_into()
                    .expect("fixed 4-byte slice"),
            )
        };
        Self {
            tag: le(0),
            raw_len: le(4),
            stored_len: le(8),
            checksum: le(12),
        }
    }

    fn compressed(&self) -> bool {
        self.stored_len != self.raw_len
    }
}

/// Appends one chunk (header + stored bytes) to `out`, compressing when
/// allowed and profitable.
fn emit_chunk(
    out: &mut Vec<u8>,
    tag: u32,
    raw: &[u8],
    compress: bool,
) -> Result<(), ContainerError> {
    let raw_len = u32::try_from(raw.len()).map_err(|_| ContainerError::ChunkTooLarge {
        declared: raw.len() as u64,
        limit: u64::from(u32::MAX),
    })?;
    let packed;
    let stored: &[u8] = if compress {
        packed = compress_packbits(raw);
        if packed.len() < raw.len() {
            &packed
        } else {
            raw
        }
    } else {
        raw
    };
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(stored).to_le_bytes());
    out.extend_from_slice(stored);
    Ok(())
}

/// Verifies a chunk's checksum and materialises its decompressed bytes into
/// `out` (whose length must already equal the chunk's `raw_len`).
fn decode_chunk_into(
    tag: u32,
    checksum: u32,
    stored: &[u8],
    out: &mut [u8],
) -> Result<(), ContainerError> {
    let computed = crc32(stored);
    if computed != checksum {
        return Err(ContainerError::ChecksumMismatch {
            tag,
            declared: checksum,
            computed,
        });
    }
    if stored.len() == out.len() {
        out.copy_from_slice(stored);
        Ok(())
    } else {
        decompress_packbits_into(stored, out)
            .map_err(|()| ContainerError::InvalidCompression { tag })
    }
}

/// Borrowed view of one chunk inside an in-memory container.
#[derive(Debug, Clone, Copy)]
struct SliceChunk<'a> {
    tag: u32,
    raw_len: usize,
    checksum: u32,
    stored: &'a [u8],
}

/// Cursor over an in-memory container body.
struct SliceReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ContainerError> {
        let remaining = self.bytes.len() - self.cursor;
        if remaining < len {
            return Err(ContainerError::Truncated {
                needed: len,
                found: remaining,
            });
        }
        let slice = &self.bytes[self.cursor..self.cursor + len];
        self.cursor += len;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.cursor
    }

    /// Parses the next chunk header and borrows its stored bytes, or returns
    /// `None` at a clean end of input.
    fn next_chunk(
        &mut self,
        compressed_allowed: bool,
    ) -> Result<Option<SliceChunk<'a>>, ContainerError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let header = ChunkHeader::parse(
            self.take(CHUNK_HEADER_LEN)?
                .try_into()
                .expect("take returned CHUNK_HEADER_LEN bytes"),
        );
        if header.compressed() && !compressed_allowed {
            return Err(ContainerError::InvalidCompression { tag: header.tag });
        }
        let stored = self.take(header.stored_len as usize)?;
        Ok(Some(SliceChunk {
            tag: header.tag,
            raw_len: header.raw_len as usize,
            checksum: header.checksum,
            stored,
        }))
    }
}

/// Verifies and materialises an owned text chunk, capping the
/// allocation at `max_raw` bytes.
fn chunk_to_vec(chunk: &SliceChunk<'_>, max_raw: u64) -> Result<Vec<u8>, ContainerError> {
    if chunk.raw_len as u64 > max_raw {
        return Err(ContainerError::ChunkTooLarge {
            declared: chunk.raw_len as u64,
            limit: max_raw,
        });
    }
    let mut raw = vec![0u8; chunk.raw_len];
    decode_chunk_into(chunk.tag, chunk.checksum, chunk.stored, &mut raw)?;
    Ok(raw)
}

// ---------------------------------------------------------------------------
// Frame shape descriptors
// ---------------------------------------------------------------------------

/// Renders the 16-byte shape descriptor: width, height and channels as
/// `u32`, then the encoding tag, the band count and two zero bytes.
fn shape_descriptor(
    payload: &ProbPayload,
    bands: usize,
) -> Result<[u8; SHAPE_DESC_LEN], ContainerError> {
    let dim = |value: usize, field: &'static str| {
        u32::try_from(value).map_err(|_| ContainerError::FieldOverflow(field))
    };
    let mut desc = [0u8; SHAPE_DESC_LEN];
    desc[0..4].copy_from_slice(&dim(payload.width, "width")?.to_le_bytes());
    desc[4..8].copy_from_slice(&dim(payload.height, "height")?.to_le_bytes());
    desc[8..12].copy_from_slice(&dim(payload.channels, "channels")?.to_le_bytes());
    desc[12] = payload.encoding.tag();
    desc[13] = bands as u8;
    Ok(desc)
}

/// The parsed shape descriptor fields of a frame.
struct FrameShape {
    width: usize,
    height: usize,
    channels: usize,
    encoding: ProbEncoding,
    bands: usize,
    payload_len: usize,
}

/// Validates descriptor fields and derives the payload length, capped at
/// [`MAX_GRID_BYTES`] — the one place untrusted shape bytes turn into an
/// allocation size.
fn checked_shape(
    width: u32,
    height: u32,
    channels: u32,
    encoding_tag: u8,
    bands: u8,
) -> Result<FrameShape, ContainerError> {
    let encoding = ProbEncoding::from_tag(encoding_tag)
        .ok_or(ContainerError::UnknownEncoding(encoding_tag))?;
    let (width, height, channels) = (width as usize, height as usize, channels as usize);
    let payload_len =
        encoding
            .payload_len(width, height, channels)
            .ok_or(DataError::InvalidPayloadShape {
                width,
                height,
                channels,
            })?;
    if payload_len as u64 > MAX_GRID_BYTES {
        return Err(ContainerError::ChunkTooLarge {
            declared: payload_len as u64,
            limit: MAX_GRID_BYTES,
        });
    }
    if bands == 0 || bands as usize > height {
        return Err(ContainerError::InvalidBandCount { bands, height });
    }
    Ok(FrameShape {
        width,
        height,
        channels,
        encoding,
        bands: bands as usize,
        payload_len,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint containers
// ---------------------------------------------------------------------------

/// Wraps a predictor's canonical JSON in a checksummed checkpoint container.
///
/// # Errors
///
/// Returns [`ContainerError::ChunkTooLarge`] only when the JSON exceeds the
/// 4 GiB chunk ceiling.
pub fn write_checkpoint(json: &str, compress: bool) -> Result<Vec<u8>, ContainerError> {
    let mut out = Vec::with_capacity(CONTAINER_HEADER_LEN + CHUNK_HEADER_LEN + json.len());
    out.extend_from_slice(&encode_header(ContainerKind::Checkpoint, compress));
    emit_chunk(&mut out, TAG_CHECKPOINT, json.as_bytes(), compress)?;
    Ok(out)
}

/// Extracts the canonical JSON from a checkpoint container, verifying its
/// checksum. Decompressed size is capped at [`MAX_TEXT_CHUNK_BYTES`].
///
/// # Errors
///
/// Any [`ContainerError`]; never panics, whatever the bytes contain.
pub fn read_checkpoint(bytes: &[u8]) -> Result<String, ContainerError> {
    let mut reader = SliceReader { bytes, cursor: 0 };
    let compressed_allowed = parse_header(
        reader
            .take(CONTAINER_HEADER_LEN)?
            .try_into()
            .expect("take returned CONTAINER_HEADER_LEN bytes"),
        ContainerKind::Checkpoint,
    )?;
    let chunk = reader
        .next_chunk(compressed_allowed)?
        .ok_or(ContainerError::Truncated {
            needed: CHUNK_HEADER_LEN,
            found: 0,
        })?;
    if chunk.tag != TAG_CHECKPOINT {
        return Err(ContainerError::UnexpectedTag {
            expected: TAG_CHECKPOINT,
            found: chunk.tag,
        });
    }
    if reader.remaining() != 0 {
        return Err(ContainerError::TrailingBytes(reader.remaining()));
    }
    let raw = chunk_to_vec(&chunk, MAX_TEXT_CHUNK_BYTES)?;
    String::from_utf8(raw).map_err(|_| ContainerError::NotUtf8 {
        tag: TAG_CHECKPOINT,
    })
}

// ---------------------------------------------------------------------------
// Frame corpora
// ---------------------------------------------------------------------------

/// One frame read back from a frame corpus: the recorded identity, the
/// prediction payload exactly as stored, and the ground truth when the
/// recorded frame carried labels.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusFrame {
    /// Identity the frame was recorded under.
    pub id: FrameId,
    /// The stored prediction payload (whatever encoding it was recorded in).
    pub payload: ProbPayload,
    /// Ground-truth labels, when the recorded frame carried them.
    pub ground_truth: Option<LabelMap>,
}

impl CorpusFrame {
    /// Decodes the stored payload into a full [`Frame`]. For
    /// [`ProbEncoding::F64`] corpora the result is bit-identical to the
    /// frame that was recorded.
    ///
    /// # Errors
    ///
    /// The payload's typed decode errors ([`DataError`]).
    pub fn to_frame(&self) -> Result<Frame, DataError> {
        let prediction = self.payload.decode()?;
        match &self.ground_truth {
            Some(labels) => Frame::labeled(self.id, labels.clone(), prediction),
            None => Ok(Frame::unlabeled(self.id, prediction)),
        }
    }
}

/// Streaming writer for a frame corpus: an 8-byte header, then per frame a
/// descriptor chunk, the prediction's band chunks and (optionally) a
/// ground-truth chunk, all checksummed.
#[derive(Debug)]
pub struct CorpusWriter<W: Write> {
    sink: W,
    compress: bool,
    frames_written: usize,
}

impl<W: Write> CorpusWriter<W> {
    /// Starts a corpus: writes the container header to `sink`.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Io`] when the sink rejects the header.
    pub fn new(mut sink: W, compress: bool) -> Result<Self, ContainerError> {
        sink.write_all(&encode_header(ContainerKind::FrameCorpus, compress))
            .map_err(|e| ContainerError::Io(e.kind()))?;
        Ok(Self {
            sink,
            compress,
            frames_written: 0,
        })
    }

    /// Appends one already-encoded payload (plus optional ground truth),
    /// split into `bands` band chunks (clamped to `[1, min(height, 255)]`).
    ///
    /// # Errors
    ///
    /// [`ContainerError::Data`] for an inconsistent payload or a ground
    /// truth of a different shape, [`ContainerError::Io`] on sink failure.
    pub fn write_payload(
        &mut self,
        id: FrameId,
        payload: &ProbPayload,
        ground_truth: Option<&LabelMap>,
        bands: usize,
    ) -> Result<(), ContainerError> {
        payload.checked_value_count()?;
        if let Some(labels) = ground_truth {
            if (labels.width(), labels.height()) != (payload.width, payload.height) {
                return Err(ContainerError::Data(DataError::FrameShapeMismatch {
                    ground_truth: (labels.width(), labels.height()),
                    prediction: (payload.width, payload.height),
                }));
            }
        }
        let bands = bands.clamp(1, payload.height.min(255));

        let mut desc = [0u8; FRAME_DESC_LEN];
        desc[0..8].copy_from_slice(&(id.sequence as u64).to_le_bytes());
        desc[8..16].copy_from_slice(&(id.index as u64).to_le_bytes());
        desc[16..32].copy_from_slice(&shape_descriptor(payload, bands)?);
        // The shape descriptor's first zero byte carries the frame flags
        // (bit 0: ground truth follows).
        desc[30] = if ground_truth.is_some() {
            FRAME_FLAG_GROUND_TRUTH
        } else {
            0
        };

        let mut buffer = Vec::with_capacity(
            CHUNK_HEADER_LEN * (bands + 2) + FRAME_DESC_LEN + payload.bytes.len(),
        );
        emit_chunk(&mut buffer, TAG_FRAME, &desc, self.compress)?;
        let mut offset = 0;
        for band in 0..bands {
            let len = band_byte_len(
                band,
                bands,
                payload.height,
                payload.width,
                payload.channels,
                payload.encoding,
            );
            emit_chunk(
                &mut buffer,
                band as u32,
                &payload.bytes[offset..offset + len],
                self.compress,
            )?;
            offset += len;
        }
        debug_assert_eq!(offset, payload.bytes.len());
        if let Some(labels) = ground_truth {
            let mut ids = Vec::with_capacity(labels.width() * labels.height() * 2);
            for &id in labels.ids().as_slice() {
                ids.extend_from_slice(&id.to_le_bytes());
            }
            emit_chunk(&mut buffer, TAG_GROUND_TRUTH, &ids, self.compress)?;
        }
        self.sink
            .write_all(&buffer)
            .map_err(|e| ContainerError::Io(e.kind()))?;
        self.frames_written += 1;
        Ok(())
    }

    /// Appends one frame, encoding its prediction in `encoding` and storing
    /// its ground truth when present.
    ///
    /// # Errors
    ///
    /// As [`CorpusWriter::write_payload`].
    pub fn write_frame(
        &mut self,
        frame: &Frame,
        encoding: ProbEncoding,
        bands: usize,
    ) -> Result<(), ContainerError> {
        let payload = ProbPayload::encode(&frame.prediction, encoding);
        self.write_payload(frame.id, &payload, frame.ground_truth.as_ref(), bands)
    }

    /// Frames appended so far.
    pub fn frames_written(&self) -> usize {
        self.frames_written
    }

    /// Flushes and returns the sink. A frame corpus needs no trailer: end of
    /// stream at a frame boundary *is* the valid end of the corpus.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Io`] when the flush fails.
    pub fn finish(mut self) -> Result<W, ContainerError> {
        self.sink
            .flush()
            .map_err(|e| ContainerError::Io(e.kind()))?;
        Ok(self.sink)
    }
}

/// Streaming reader for a frame corpus.
#[derive(Debug)]
pub struct CorpusReader<R: Read> {
    source: R,
    compressed_allowed: bool,
}

impl<R: Read> CorpusReader<R> {
    /// Opens a corpus: reads and validates the container header.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`] of header validation.
    pub fn open(mut source: R) -> Result<Self, ContainerError> {
        let mut header = [0u8; CONTAINER_HEADER_LEN];
        if fill(&mut source, &mut header, false)?.is_none() {
            unreachable!("fill with allow_clean_eof=false never yields None");
        }
        let compressed_allowed = parse_header(&header, ContainerKind::FrameCorpus)?;
        Ok(Self {
            source,
            compressed_allowed,
        })
    }

    /// Reads the next frame, or `None` at a clean end of stream (which is
    /// only valid at a frame boundary — a torn file is
    /// [`ContainerError::Truncated`]).
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`]; never panics, whatever the stream contains.
    pub fn next_frame(&mut self) -> Result<Option<CorpusFrame>, ContainerError> {
        let Some(desc_chunk) = self.read_chunk_header(true)? else {
            return Ok(None);
        };
        if desc_chunk.tag != TAG_FRAME {
            return Err(ContainerError::UnexpectedTag {
                expected: TAG_FRAME,
                found: desc_chunk.tag,
            });
        }
        if desc_chunk.raw_len as usize != FRAME_DESC_LEN {
            return Err(ContainerError::ChunkLengthMismatch {
                tag: desc_chunk.tag,
                expected: FRAME_DESC_LEN,
                found: desc_chunk.raw_len as usize,
            });
        }
        let mut desc = [0u8; FRAME_DESC_LEN];
        self.read_chunk_body(&desc_chunk, &mut desc)?;

        let le64 = |offset: usize| {
            u64::from_le_bytes(desc[offset..offset + 8].try_into().expect("8-byte field"))
        };
        let le32 = |offset: usize| {
            u32::from_le_bytes(desc[offset..offset + 4].try_into().expect("4-byte field"))
        };
        let sequence = usize::try_from(le64(0))
            .map_err(|_| ContainerError::FieldOverflow("frame sequence"))?;
        let index =
            usize::try_from(le64(8)).map_err(|_| ContainerError::FieldOverflow("frame index"))?;
        let flags = desc[30];
        if flags & !FRAME_FLAG_GROUND_TRUTH != 0 {
            return Err(ContainerError::UnknownFlags(flags));
        }
        if desc[31] != 0 {
            return Err(ContainerError::NonZeroReserved(u32::from(desc[31])));
        }
        let shape = checked_shape(le32(16), le32(20), le32(24), desc[28], desc[29])?;

        let mut bytes = vec![0u8; shape.payload_len];
        let mut rest = bytes.as_mut_slice();
        for band in 0..shape.bands {
            let chunk = match self.read_chunk_header(false)? {
                Some(chunk) => chunk,
                None => unreachable!("read_chunk_header without clean EOF never yields None"),
            };
            if chunk.tag != band as u32 {
                return Err(ContainerError::UnexpectedTag {
                    expected: band as u32,
                    found: chunk.tag,
                });
            }
            let expected = band_byte_len(
                band,
                shape.bands,
                shape.height,
                shape.width,
                shape.channels,
                shape.encoding,
            );
            if chunk.raw_len as usize != expected {
                return Err(ContainerError::ChunkLengthMismatch {
                    tag: chunk.tag,
                    expected,
                    found: chunk.raw_len as usize,
                });
            }
            let (slice, tail) = rest.split_at_mut(expected);
            rest = tail;
            self.read_chunk_body(&chunk, slice)?;
        }
        debug_assert!(rest.is_empty());

        let ground_truth = if flags & FRAME_FLAG_GROUND_TRUTH != 0 {
            let chunk = match self.read_chunk_header(false)? {
                Some(chunk) => chunk,
                None => unreachable!("read_chunk_header without clean EOF never yields None"),
            };
            if chunk.tag != TAG_GROUND_TRUTH {
                return Err(ContainerError::UnexpectedTag {
                    expected: TAG_GROUND_TRUTH,
                    found: chunk.tag,
                });
            }
            let expected = shape.width * shape.height * 2;
            if chunk.raw_len as usize != expected {
                return Err(ContainerError::ChunkLengthMismatch {
                    tag: chunk.tag,
                    expected,
                    found: chunk.raw_len as usize,
                });
            }
            let mut id_bytes = vec![0u8; expected];
            self.read_chunk_body(&chunk, &mut id_bytes)?;
            let ids: Vec<u16> = id_bytes
                .chunks_exact(2)
                .map(|pair| u16::from_le_bytes(pair.try_into().expect("2-byte pair")))
                .collect();
            let grid = Grid::from_vec(shape.width, shape.height, ids)
                .map_err(|e| ContainerError::Data(e.into()))?;
            Some(LabelMap::from_ids(grid)?)
        } else {
            None
        };

        Ok(Some(CorpusFrame {
            id: FrameId::new(sequence, index),
            payload: ProbPayload {
                width: shape.width,
                height: shape.height,
                channels: shape.channels,
                encoding: shape.encoding,
                bytes,
            },
            ground_truth,
        }))
    }

    /// Reads one chunk header; `allow_clean_eof` makes an EOF at the header
    /// boundary a valid end of corpus.
    fn read_chunk_header(
        &mut self,
        allow_clean_eof: bool,
    ) -> Result<Option<ChunkHeader>, ContainerError> {
        let mut buf = [0u8; CHUNK_HEADER_LEN];
        match fill(&mut self.source, &mut buf, allow_clean_eof)? {
            Some(()) => {
                let header = ChunkHeader::parse(&buf);
                if header.compressed() && !self.compressed_allowed {
                    return Err(ContainerError::InvalidCompression { tag: header.tag });
                }
                Ok(Some(header))
            }
            None => Ok(None),
        }
    }

    /// Reads a chunk's stored bytes (bounded by the PackBits worst case for
    /// the already-validated `raw_len`), verifies the checksum and
    /// materialises the decompressed body into `out`.
    fn read_chunk_body(
        &mut self,
        chunk: &ChunkHeader,
        out: &mut [u8],
    ) -> Result<(), ContainerError> {
        debug_assert_eq!(chunk.raw_len as usize, out.len());
        let bound = packbits_bound(chunk.raw_len as usize);
        if chunk.stored_len as usize > bound {
            return Err(ContainerError::InvalidCompression { tag: chunk.tag });
        }
        let mut stored = vec![0u8; chunk.stored_len as usize];
        if fill(&mut self.source, &mut stored, false)?.is_none() {
            unreachable!("fill with allow_clean_eof=false never yields None");
        }
        decode_chunk_into(chunk.tag, chunk.checksum, &stored, out)
    }
}

/// Fills `buf` from `source`, mapping a mid-buffer EOF to
/// [`ContainerError::Truncated`]. With `allow_clean_eof`, an EOF before the
/// first byte yields `Ok(None)` instead.
fn fill<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    allow_clean_eof: bool,
) -> Result<Option<()>, ContainerError> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && allow_clean_eof {
                    return Ok(None);
                }
                return Err(ContainerError::Truncated {
                    needed: buf.len(),
                    found: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ContainerError::Io(e.kind())),
        }
    }
    Ok(Some(()))
}

/// Serializes frames as an in-memory frame corpus — the one-call form of
/// [`CorpusWriter`] used by tests and the golden replay path.
///
/// # Errors
///
/// As [`CorpusWriter::write_frame`].
pub fn write_corpus(
    frames: &[Frame],
    encoding: ProbEncoding,
    bands: usize,
    compress: bool,
) -> Result<Vec<u8>, ContainerError> {
    let mut writer = CorpusWriter::new(Vec::new(), compress)?;
    for frame in frames {
        writer.write_frame(frame, encoding, bands)?;
    }
    writer.finish()
}

/// Reads every frame of an in-memory frame corpus.
///
/// # Errors
///
/// As [`CorpusReader::next_frame`].
pub fn read_corpus(bytes: &[u8]) -> Result<Vec<CorpusFrame>, ContainerError> {
    let mut reader = CorpusReader::open(bytes)?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}
