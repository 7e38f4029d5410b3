//! Adversarial and differential tests for the chunked container format.
//!
//! Two properties the rest of the workspace leans on are pinned here:
//! decoding is *total* (no input — corrupt, truncated, version-skewed —
//! panics or allocates from unvalidated lengths), and every chunk's CRC-32
//! detects single-byte corruption. The frame corpus carries most cases: it
//! is the one band-chunked reader.

use metaseg_data::container::{
    self, CHUNK_HEADER_LEN, CONTAINER_HEADER_LEN, MAX_GRID_BYTES, MAX_TEXT_CHUNK_BYTES,
};
use metaseg_data::{
    crc32, ContainerError, Frame, FrameId, LabelMap, ProbEncoding, ProbMap, ProbPayload,
    SemanticClass,
};
use proptest::prelude::*;

/// A map of the given shape filled with arbitrary (not necessarily
/// normalized) values — the container must not care about distribution
/// validity, exactly like the payload codec.
fn arbitrary_map(width: usize, height: usize, channels: usize, values: &[f64]) -> ProbMap {
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

/// Byte ranges of every chunk's stored body inside a container, recovered
/// by walking the layout (header, then chunks).
fn chunk_bodies(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut bodies = Vec::new();
    let mut pos = CONTAINER_HEADER_LEN;
    while pos + CHUNK_HEADER_LEN <= bytes.len() {
        let stored_len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        let body = pos + CHUNK_HEADER_LEN..pos + CHUNK_HEADER_LEN + stored_len;
        assert!(body.end <= bytes.len(), "walker stays inside the container");
        bodies.push(body);
        pos += CHUNK_HEADER_LEN + stored_len;
    }
    bodies
}

/// A small checkpoint container around a stand-in JSON document.
fn sample_checkpoint(compress: bool) -> (&'static str, Vec<u8>) {
    let json = r#"{"scaler":{"mean":[0.1,0.2]},"classifier":"logistic"}"#;
    (json, container::write_checkpoint(json, compress).unwrap())
}

#[test]
fn truncation_at_every_boundary_never_panics_and_always_errors() {
    let (_, bytes) = sample_checkpoint(true);
    for cut in 0..bytes.len() {
        assert!(
            container::read_checkpoint(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
    // Appending bytes is just as invalid as removing them.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        container::read_checkpoint(&padded),
        Err(ContainerError::TrailingBytes(1))
    ));
}

#[test]
fn unknown_version_and_kind_are_rejected_before_any_allocation() {
    let bytes = container::write_corpus(&corpus_frames(), ProbEncoding::F32, 2, false).unwrap();
    let read_with = |offset: usize, value: u8| {
        let mut skewed = bytes.clone();
        skewed[offset] = value;
        container::read_corpus(&skewed)
    };

    assert_eq!(read_with(4, 9), Err(ContainerError::UnsupportedVersion(9)));
    assert_eq!(read_with(5, 200), Err(ContainerError::UnknownKind(200)));
    // Tags 0 and 3 belonged to retired kinds; they are as unknown as any
    // other.
    assert_eq!(read_with(5, 0), Err(ContainerError::UnknownKind(0)));
    assert_eq!(read_with(5, 3), Err(ContainerError::UnknownKind(3)));
    // A checkpoint container handed to the corpus reader.
    assert!(matches!(
        read_with(5, 1),
        Err(ContainerError::WrongKind { .. })
    ));
    assert!(matches!(
        read_with(6, 0b1000_0000),
        Err(ContainerError::UnknownFlags(_))
    ));

    // A checkpoint chunk declaring a huge decompressed size is capped
    // before its buffer exists.
    let mut checkpoint = container::write_checkpoint("x", true).unwrap();
    let declared = (MAX_TEXT_CHUNK_BYTES + 1) as u32;
    checkpoint[CONTAINER_HEADER_LEN + 4..CONTAINER_HEADER_LEN + 8]
        .copy_from_slice(&declared.to_le_bytes());
    assert!(matches!(
        container::read_checkpoint(&checkpoint),
        Err(ContainerError::ChunkTooLarge {
            limit: MAX_TEXT_CHUNK_BYTES,
            ..
        })
    ));
}

proptest! {
    /// Flipping any single byte of any chunk body of a frame corpus —
    /// descriptor, band or ground truth — yields the typed CRC error:
    /// corruption can never be mistaken for data.
    #[test]
    fn prop_chunk_body_corruption_yields_a_checksum_mismatch(
        bands in 1usize..5,
        compress in any::<bool>(),
        position in any::<u64>(),
        flip in 1u8..=255
    ) {
        let bytes = container::write_corpus(&corpus_frames(), ProbEncoding::U16, bands, compress)
            .unwrap();
        let bodies = chunk_bodies(&bytes);
        let total: usize = bodies.iter().map(|b| b.len()).sum();
        // Pick the corruption position uniformly over the body bytes.
        let mut offset = (position % total as u64) as usize;
        let target = bodies
            .iter()
            .find_map(|body| {
                if offset < body.len() {
                    Some(body.start + offset)
                } else {
                    offset -= body.len();
                    None
                }
            })
            .expect("offset lies inside some body");
        let mut corrupt = bytes.clone();
        corrupt[target] ^= flip;
        prop_assert!(matches!(
            container::read_corpus(&corrupt),
            Err(ContainerError::ChecksumMismatch { .. })
        ));
    }

    /// Flipping any single byte of a checkpoint container never panics: the
    /// result is a typed error, or (for the one semantically inert bit, the
    /// compression-allowed flag over a raw chunk) the original document.
    #[test]
    fn prop_any_single_byte_flip_is_total(
        compress in any::<bool>(),
        position in any::<u64>(),
        flip in 1u8..=255
    ) {
        let (json, bytes) = sample_checkpoint(compress);
        let position = (position % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[position] ^= flip;
        match container::read_checkpoint(&corrupt) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, json),
        }
    }

    /// Arbitrary byte soup (optionally with a forced-valid prefix) never
    /// panics any reader.
    #[test]
    fn prop_arbitrary_bytes_never_panic_any_reader(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
        force_magic in any::<bool>()
    ) {
        let mut bytes = bytes;
        if force_magic && bytes.len() >= 6 {
            bytes[..4].copy_from_slice(b"MSGC");
            bytes[4] = 1;
        }
        let _ = container::read_checkpoint(&bytes);
        let _ = container::read_corpus(&bytes);
    }

    /// Frame corpora round-trip arbitrary payloads across every encoding,
    /// band count and compression setting.
    #[test]
    fn prop_frame_corpus_roundtrips(
        dims in (1usize..6, 1usize..7, 1usize..4),
        values in proptest::collection::vec(0.0f64..=1.0, 24),
        tag in 0u8..3,
        bands in 1usize..9,
        compress in any::<bool>()
    ) {
        let (width, height, channels) = dims;
        let encoding = ProbEncoding::from_tag(tag).unwrap();
        let payload = ProbPayload::encode(&arbitrary_map(width, height, channels, &values), encoding);
        let mut writer = container::CorpusWriter::new(Vec::new(), compress).unwrap();
        writer.write_payload(FrameId::new(1, 2), &payload, None, bands).unwrap();
        let replayed = container::read_corpus(&writer.finish().unwrap()).unwrap();
        prop_assert_eq!(replayed.len(), 1);
        prop_assert_eq!(&replayed[0].payload, &payload);
    }
}

#[test]
fn compression_shrinks_runs_and_survives_the_roundtrip() {
    // A one-hot field is byte-run heavy: PackBits must actually shrink it.
    let labels = LabelMap::filled(32, 16, SemanticClass::Road);
    let map = ProbMap::one_hot(&labels, 19);
    let frames = [Frame::labeled(FrameId::new(0, 0), labels, map).unwrap()];
    let raw = container::write_corpus(&frames, ProbEncoding::U16, 4, false).unwrap();
    let packed = container::write_corpus(&frames, ProbEncoding::U16, 4, true).unwrap();
    assert!(
        packed.len() * 4 < raw.len(),
        "one-hot corpus must compress at least 4x ({} vs {})",
        packed.len(),
        raw.len()
    );
    assert_eq!(
        container::read_corpus(&packed).unwrap(),
        container::read_corpus(&raw).unwrap()
    );
    assert_eq!(
        container::read_corpus(&raw).unwrap()[0].payload,
        ProbPayload::encode(&frames[0].prediction, ProbEncoding::U16)
    );
}

/// A labelled frame with structured ground truth and a NaN planted in the
/// prediction: the F64 corpus must preserve the NaN bit pattern exactly.
fn corpus_frames() -> Vec<Frame> {
    let mut frames = Vec::new();
    for index in 0..3 {
        let labels = LabelMap::from_fn(6, 5, |x, y| {
            if (x + y + index) % 2 == 0 {
                SemanticClass::Road
            } else {
                SemanticClass::Car
            }
        });
        let mut prediction = arbitrary_map(6, 5, 4, &[0.1, 0.2, 0.3, 0.4, 0.5]);
        prediction.set_distribution_unchecked(1, 1, &[f64::NAN, 0.5, 0.25, 0.25]);
        frames.push(Frame::labeled(FrameId::new(2, index), labels, prediction).unwrap());
    }
    frames.push(Frame::unlabeled(
        FrameId::new(3, 0),
        arbitrary_map(6, 5, 4, &[0.7, 0.1, 0.1, 0.1]),
    ));
    frames
}

#[test]
fn frame_corpus_roundtrips_ids_ground_truth_and_nan_bits() {
    let frames = corpus_frames();
    // Every encoding × band count × compression setting stores the payload
    // bytes exactly; band counts beyond the 5-row height clamp.
    for encoding in [ProbEncoding::F64, ProbEncoding::F32, ProbEncoding::U16] {
        for bands in [1usize, 2, 3, 5, 64] {
            for compress in [false, true] {
                let bytes = container::write_corpus(&frames, encoding, bands, compress).unwrap();
                let replayed = container::read_corpus(&bytes).unwrap();
                assert_eq!(replayed.len(), frames.len());
                for (original, replay) in frames.iter().zip(&replayed) {
                    assert_eq!(replay.id, original.id);
                    assert_eq!(replay.ground_truth, original.ground_truth);
                    assert_eq!(
                        replay.payload,
                        ProbPayload::encode(&original.prediction, encoding),
                        "encoding {} bands {bands} compress {compress}",
                        encoding.name()
                    );
                }
            }
        }
    }
    // Bit-exact through the lossless encoding, NaN included: the payload
    // bytes are the `to_le_bytes` image of the field.
    let bytes = container::write_corpus(&frames, ProbEncoding::F64, 2, true).unwrap();
    for (original, replay) in frames.iter().zip(container::read_corpus(&bytes).unwrap()) {
        let frame = replay.to_frame().unwrap();
        assert_eq!(frame.id, original.id);
        assert_eq!(frame.ground_truth, original.ground_truth);
        assert_eq!(
            frame
                .prediction
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            original
                .prediction
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn frame_corpus_end_of_stream_is_only_valid_at_frame_boundaries() {
    let frames = corpus_frames();
    let bytes = container::write_corpus(&frames, ProbEncoding::F32, 2, false).unwrap();

    // Locate the frame boundaries by re-reading with a counting reader.
    let mut boundaries = vec![CONTAINER_HEADER_LEN];
    let mut pos = CONTAINER_HEADER_LEN;
    while pos < bytes.len() {
        // Each chunk: 16-byte header + stored bytes. Frames are delimited by
        // TAG_FRAME chunks.
        let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let stored = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        if tag == container::TAG_FRAME && pos != CONTAINER_HEADER_LEN {
            boundaries.push(pos);
        }
        pos += CHUNK_HEADER_LEN + stored;
    }
    boundaries.push(bytes.len());
    assert_eq!(boundaries.len(), frames.len() + 1);

    for cut in 0..=bytes.len() {
        match container::read_corpus(&bytes[..cut]) {
            Ok(replayed) => {
                let frames_before_cut = boundaries
                    .iter()
                    .filter(|&&b| b <= cut)
                    .count()
                    .saturating_sub(1);
                assert_eq!(
                    boundaries[frames_before_cut], cut,
                    "a successful read must end exactly on a frame boundary"
                );
                assert_eq!(replayed.len(), frames_before_cut);
            }
            Err(_) => {
                assert!(
                    !boundaries.contains(&cut) || cut < CONTAINER_HEADER_LEN,
                    "a cut at frame boundary {cut} must replay cleanly"
                );
            }
        }
    }
}

#[test]
fn frame_corpus_respects_the_frame_limit_before_allocating() {
    let bytes = container::write_corpus(&corpus_frames(), ProbEncoding::F64, 1, false).unwrap();
    // Re-declare the first frame as 6e6 x 6e6 x 4 f64 values (~1 PB) and
    // re-seal its descriptor chunk, so only the cap can stop the reader.
    let mut huge = bytes.clone();
    let body = CONTAINER_HEADER_LEN + CHUNK_HEADER_LEN;
    huge[body + 16..body + 20].copy_from_slice(&6_000_000u32.to_le_bytes());
    huge[body + 20..body + 24].copy_from_slice(&6_000_000u32.to_le_bytes());
    let checksum = crc32(&huge[body..body + 32]);
    huge[body - 4..body].copy_from_slice(&checksum.to_le_bytes());
    assert!(matches!(
        container::read_corpus(&huge),
        Err(ContainerError::ChunkTooLarge {
            limit: MAX_GRID_BYTES,
            ..
        })
    ));
}

proptest! {
    /// Any truncation or single-byte corruption of a frame corpus is total:
    /// a typed error, a prefix of the recorded frames, or (for the inert
    /// compression flag over raw chunks) the recorded frames themselves.
    #[test]
    fn prop_frame_corpus_damage_is_total(
        cut in any::<u64>(),
        position in any::<u64>(),
        flip in 1u8..=255,
        compress in any::<bool>()
    ) {
        let bytes = container::write_corpus(&corpus_frames(), ProbEncoding::U16, 3, compress)
            .unwrap();
        let recorded = container::read_corpus(&bytes).unwrap();
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        if let Ok(prefix) = container::read_corpus(&bytes[..cut]) {
            prop_assert_eq!(&prefix[..], &recorded[..prefix.len()]);
        }
        let position = (position % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[position] ^= flip;
        if let Ok(replayed) = container::read_corpus(&corrupt) {
            prop_assert_eq!(replayed, recorded);
        }
    }
}

#[test]
fn checkpoint_containers_roundtrip_and_detect_corruption() {
    let json = r#"{"scaler":{"mean":[0.1,0.2]},"classifier":"logistic"}"#;
    for compress in [false, true] {
        let bytes = container::write_checkpoint(json, compress).unwrap();
        assert_eq!(container::read_checkpoint(&bytes).unwrap(), json);
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            container::read_checkpoint(&corrupt),
            Err(ContainerError::ChecksumMismatch { .. }
                | ContainerError::Truncated { .. }
                | ContainerError::InvalidCompression { .. })
        ));
    }
}

#[test]
fn container_errors_render_useful_messages() {
    let (_, bytes) = sample_checkpoint(false);
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    let message = container::read_checkpoint(&corrupt)
        .unwrap_err()
        .to_string();
    assert!(
        message.contains("checksum"),
        "checksum failures must say so: {message}"
    );
    assert!(
        container::read_checkpoint(&bytes[..5])
            .unwrap_err()
            .to_string()
            .contains("truncated"),
        "truncation must say so"
    );
}
