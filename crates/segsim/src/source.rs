//! Pull-based frame sources for streaming consumers.
//!
//! The streaming engine (`metaseg::stream`) consumes video one frame at a
//! time and must never require the whole clip in memory. [`FrameSource`] is
//! the pull contract it drains: anything that can hand out the next [`Frame`]
//! qualifies, and every `Iterator<Item = Frame>` is a source for free.
//! [`VideoStream`] is the lazy producer: it renders the scene, runs the
//! network simulator and decides labelling *per frame, on demand* — the
//! simulated analogue of a camera driver handing out frames as they arrive.

use crate::network::NetworkSim;
use crate::scene::Scene;
use crate::video::VideoConfig;
use metaseg_data::{ContainerError, CorpusReader, Frame, FrameId, ProbMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pull-based supplier of video frames.
///
/// Implementors hand out frames one at a time until the stream ends; nothing
/// about the contract allows (or requires) looking ahead, which is what lets
/// consumers hold memory bounded by their own window rather than by the clip
/// length.
///
/// Every `Iterator<Item = Frame>` is a `FrameSource` through the blanket
/// implementation, so materialised clips (`Vec<Frame>` drained via
/// `into_iter()`) and lazy producers such as [`VideoStream`] share one
/// consumer API.
pub trait FrameSource {
    /// Produces the next frame of the stream, or `None` when it has ended.
    fn next_frame(&mut self) -> Option<Frame>;

    /// Bounds on the number of remaining frames, mirroring
    /// [`Iterator::size_hint`]; `(0, None)` when unknown.
    fn frames_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

impl<I: Iterator<Item = Frame>> FrameSource for I {
    fn next_frame(&mut self) -> Option<Frame> {
        self.next()
    }

    fn frames_hint(&self) -> (usize, Option<usize>) {
        self.size_hint()
    }
}

/// A [`FrameSource`] over softmax fields decoded from a transport layer —
/// the adapter that turns "camera payloads arriving over the wire" into the
/// pull contract the streaming engine drains.
///
/// A serving layer receives per-frame [`ProbMap`]s (e.g. JSON-decoded by
/// `metaseg-serve`); the engine wants [`Frame`]s with sequential ids. This
/// adapter wraps any iterator of decoded maps, stamps monotone
/// [`FrameId`]s for the configured camera/sequence index, and emits
/// unlabelled frames (wire frames never carry ground truth). It is lazy:
/// memory stays bounded by whatever the underlying iterator holds.
#[derive(Debug, Clone)]
pub struct DecodedFrameSource<I> {
    inner: I,
    sequence: usize,
    next_index: usize,
}

impl<I> DecodedFrameSource<I>
where
    I: Iterator<Item = ProbMap>,
{
    /// Wraps an iterator of decoded softmax fields as camera `sequence`,
    /// numbering frames from zero.
    pub fn new(sequence: usize, inner: impl IntoIterator<Item = ProbMap, IntoIter = I>) -> Self {
        Self {
            inner: inner.into_iter(),
            sequence,
            next_index: 0,
        }
    }
}

impl<I: Iterator<Item = ProbMap>> FrameSource for DecodedFrameSource<I> {
    fn next_frame(&mut self) -> Option<Frame> {
        let probs = self.inner.next()?;
        let id = FrameId::new(self.sequence, self.next_index);
        self.next_index += 1;
        Some(Frame::unlabeled(id, probs))
    }

    fn frames_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A [`FrameSource`] replaying a recorded frame corpus — the chunked
/// container format of `metaseg_data::container` streamed frame by frame
/// from any [`std::io::Read`] (a corpus file on disk, an in-memory capture).
///
/// This closes the record/replay loop: a live feed ([`VideoStream`], a wire
/// capture) dumped through `metaseg_data::CorpusWriter` replays here with
/// the *original* frame ids and ground truth intact, so loadtests and
/// evaluation sweeps can re-run real traffic deterministically. Frames are
/// decoded lazily, one per pull — memory stays bounded by a single frame
/// regardless of corpus length.
///
/// Replay is total: the first torn or corrupt frame (truncation, CRC
/// mismatch, shape skew) ends the stream, and the typed [`ContainerError`]
/// is retrievable via [`CorpusFrameSource::read_error`] — never a panic.
#[derive(Debug)]
pub struct CorpusFrameSource<R: std::io::Read> {
    reader: CorpusReader<R>,
    error: Option<ContainerError>,
}

impl<R: std::io::Read> CorpusFrameSource<R> {
    /// Opens a corpus over any byte source, validating the container header
    /// eagerly so an outright-wrong file fails at open time, not mid-replay.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ContainerError`] when the header is truncated,
    /// carries the wrong magic/kind, or declares an unsupported version.
    pub fn open(source: R) -> Result<Self, ContainerError> {
        Ok(Self {
            reader: CorpusReader::open(source)?,
            error: None,
        })
    }

    /// The container error that ended the replay, if any. `None` after a
    /// clean end-of-corpus (or before the stream has ended).
    pub fn read_error(&self) -> Option<&ContainerError> {
        self.error.as_ref()
    }
}

impl<R: std::io::Read> FrameSource for CorpusFrameSource<R> {
    fn next_frame(&mut self) -> Option<Frame> {
        if self.error.is_some() {
            return None;
        }
        let corpus_frame = match self.reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return None,
            Err(e) => {
                self.error = Some(e);
                return None;
            }
        };
        match corpus_frame.to_frame() {
            Ok(frame) => Some(frame),
            Err(e) => {
                self.error = Some(e.into());
                None
            }
        }
    }
}

/// A lazily generated video feed: one scene, rendered and network-inferred
/// frame by frame.
///
/// Unlike [`crate::VideoScenario`], which materialises every frame of every
/// sequence up front, a `VideoStream` holds only the scene geometry, the
/// network simulator and an RNG — each call to [`Iterator::next`] renders
/// ground truth at the current time step, runs the simulated network on it
/// and (every `label_stride`-th frame) attaches the ground truth as a sparse
/// label. Memory stays constant no matter how long the stream runs.
#[derive(Debug, Clone)]
pub struct VideoStream {
    scene: Scene,
    sim: NetworkSim,
    rng: StdRng,
    sequence: usize,
    label_stride: usize,
    next_t: usize,
    total_frames: usize,
}

impl VideoStream {
    /// Opens a stream for sequence `sequence` of a video configuration:
    /// generates the scene from `seed` and prepares lazy inference with
    /// `sim`. The stream ends after `config.frames_per_sequence` frames.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn open<R: Rng>(
        config: &VideoConfig,
        sim: NetworkSim,
        sequence: usize,
        rng: &mut R,
    ) -> Self {
        config.assert_valid();
        let scene = Scene::generate(&config.scene, rng);
        Self {
            scene,
            sim,
            rng: StdRng::seed_from_u64(rng.gen()),
            sequence,
            label_stride: config.label_stride,
            next_t: 0,
            total_frames: config.frames_per_sequence,
        }
    }

    /// An endless variant of [`VideoStream::open`]: the stream never reports
    /// exhaustion, mimicking a live camera. Useful for soak benchmarks.
    pub fn open_endless<R: Rng>(
        config: &VideoConfig,
        sim: NetworkSim,
        sequence: usize,
        rng: &mut R,
    ) -> Self {
        let mut stream = Self::open(config, sim, sequence, rng);
        stream.total_frames = usize::MAX;
        stream
    }

    /// The scene backing the stream.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }
}

impl Iterator for VideoStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next_t >= self.total_frames {
            return None;
        }
        let t = self.next_t;
        self.next_t += 1;
        let ground_truth = self.scene.render_at(t as f64);
        let prediction = self.sim.predict(&ground_truth, &mut self.rng);
        let id = FrameId::new(self.sequence, t);
        Some(if t.is_multiple_of(self.label_stride) {
            Frame::labeled(id, ground_truth, prediction)
                .expect("scene and prediction share the same shape")
        } else {
            Frame::unlabeled(id, prediction)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.total_frames == usize::MAX {
            return (usize::MAX, None);
        }
        let remaining = self.total_frames - self.next_t;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkProfile;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn stream_produces_the_configured_number_of_frames() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = VideoConfig::small();
        let sim = NetworkSim::new(NetworkProfile::weak());
        let stream = VideoStream::open(&config, sim, 0, &mut rng);
        assert_eq!(stream.size_hint(), (12, Some(12)));
        let frames: Vec<Frame> = stream.collect();
        assert_eq!(frames.len(), config.frames_per_sequence);
        // Sparse labelling: every label_stride-th frame carries ground truth.
        for (t, frame) in frames.iter().enumerate() {
            assert_eq!(frame.id.index, t);
            assert_eq!(frame.is_labeled(), t % config.label_stride == 0);
        }
    }

    #[test]
    fn frame_source_blanket_impl_covers_iterators() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = VideoConfig::small();
        let sim = NetworkSim::new(NetworkProfile::strong());
        let frames: Vec<Frame> = VideoStream::open(&config, sim, 1, &mut rng).collect();
        let expected = frames.len();

        fn drain<S: FrameSource>(mut source: S) -> usize {
            let mut count = 0;
            while source.next_frame().is_some() {
                count += 1;
            }
            count
        }
        // A materialised Vec drains through the same trait as the lazy stream.
        assert_eq!(drain(frames.into_iter()), expected);
        let mut rng = StdRng::seed_from_u64(4);
        let sim = NetworkSim::new(NetworkProfile::strong());
        assert_eq!(
            drain(VideoStream::open(&VideoConfig::small(), sim, 1, &mut rng)),
            expected
        );
    }

    #[test]
    fn decoded_frame_source_stamps_sequential_unlabeled_frames() {
        let mut rng = StdRng::seed_from_u64(8);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let maps: Vec<_> = VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
            .map(|f| f.prediction)
            .collect();
        let mut source = DecodedFrameSource::new(3, maps.clone());
        assert_eq!(source.frames_hint(), (maps.len(), Some(maps.len())));
        let mut count = 0;
        while let Some(frame) = source.next_frame() {
            assert_eq!(frame.id.sequence, 3);
            assert_eq!(frame.id.index, count);
            assert!(!frame.is_labeled());
            assert_eq!(frame.prediction, maps[count]);
            count += 1;
        }
        assert_eq!(count, maps.len());
    }

    #[test]
    fn corpus_frame_source_replays_a_recorded_stream_bit_exactly() {
        use metaseg_data::{container, CorpusWriter, ProbEncoding};

        let mut rng = StdRng::seed_from_u64(11);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let frames: Vec<Frame> =
            VideoStream::open(&VideoConfig::small(), sim, 4, &mut rng).collect();

        // Record the live stream, ground truth and all, then replay it.
        let mut writer = CorpusWriter::new(Vec::new(), true).unwrap();
        for frame in &frames {
            writer.write_frame(frame, ProbEncoding::F64, 2).unwrap();
        }
        let bytes = writer.finish().unwrap();

        let mut replay = CorpusFrameSource::open(bytes.as_slice()).unwrap();
        for original in &frames {
            let frame = replay.next_frame().unwrap();
            assert_eq!(frame.id, original.id);
            assert_eq!(frame.ground_truth, original.ground_truth);
            // F64 is lossless: the replayed field is bit-identical.
            assert_eq!(frame.prediction, original.prediction);
        }
        assert!(replay.next_frame().is_none());
        assert!(replay.read_error().is_none());

        // A torn corpus ends the replay with a typed error, not a panic.
        let cut = bytes.len() - 3;
        let mut torn = CorpusFrameSource::open(&bytes[..cut]).unwrap();
        let replayed = std::iter::from_fn(|| torn.next_frame()).count();
        assert!(replayed < frames.len());
        assert!(matches!(
            torn.read_error(),
            Some(container::ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn endless_stream_keeps_producing() {
        let mut rng = StdRng::seed_from_u64(5);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let mut stream = VideoStream::open_endless(&VideoConfig::small(), sim, 0, &mut rng);
        let twentieth = stream.nth(19).expect("an endless stream never ends");
        assert_eq!(twentieth.id.index, 19);
        assert_eq!(stream.size_hint().1, None);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let make = || {
            let mut rng = StdRng::seed_from_u64(11);
            let sim = NetworkSim::new(NetworkProfile::weak());
            VideoStream::open(&VideoConfig::small(), sim, 0, &mut rng)
                .map(|f| f.prediction)
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }
}
