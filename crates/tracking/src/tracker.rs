//! Overlap-based segment tracking with expected-location shifting.

use metaseg_data::{LabelMap, SemanticClass};
use metaseg_imgproc::{ComponentLabels, Connectivity};
use serde::{Deserialize, Serialize};

/// Configuration of the [`SegmentTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Minimum overlap (IoU between the shifted previous segment and the new
    /// segment) required to continue a track.
    pub min_overlap: f64,
    /// Number of past frames whose segments may still be matched (the paper
    /// matches over multiple frames so short occlusions do not break tracks).
    pub max_gap: usize,
    /// Connectivity used when extracting segments from the label maps.
    pub connectivity: Connectivity,
    /// Ignore segments smaller than this many pixels (they flicker anyway and
    /// matching them is meaningless).
    pub min_segment_area: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            min_overlap: 0.1,
            max_gap: 2,
            connectivity: Connectivity::Eight,
            min_segment_area: 1,
        }
    }
}

/// One segment of one frame together with its assigned track id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackedSegment {
    /// Persistent track id shared across frames.
    pub track_id: usize,
    /// Index of the frame the segment belongs to.
    pub frame: usize,
    /// Connected-component id of the segment inside its frame.
    pub region_id: usize,
    /// Semantic class of the segment.
    pub class: SemanticClass,
    /// Centroid of the segment in pixel coordinates.
    pub centroid: (f64, f64),
    /// Number of pixels.
    pub area: usize,
}

/// All tracked segments of one frame.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameTracks {
    /// Segments of the frame with their track assignments.
    pub segments: Vec<TrackedSegment>,
}

impl FrameTracks {
    /// Track id of the segment with the given region id, if it was tracked.
    pub fn track_of_region(&self, region_id: usize) -> Option<usize> {
        self.segments
            .iter()
            .find(|s| s.region_id == region_id)
            .map(|s| s.track_id)
    }
}

/// Result of tracking a whole sequence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrackingResult {
    frames: Vec<FrameTracks>,
    track_count: usize,
}

impl TrackingResult {
    /// Per-frame track assignments.
    pub fn frames(&self) -> &[FrameTracks] {
        &self.frames
    }

    /// Total number of distinct tracks created.
    pub fn track_count(&self) -> usize {
        self.track_count
    }
}

/// Internal per-track state used while matching.
#[derive(Debug, Clone)]
struct TrackState {
    /// Persistent track id (assigned once, never reused).
    id: usize,
    class: SemanticClass,
    /// Pixels of the most recent observation, in row-major order.
    pixels: Vec<(usize, usize)>,
    /// Centroid of the most recent observation.
    centroid: (f64, f64),
    /// Estimated velocity in pixels per frame.
    velocity: (f64, f64),
    /// Frame of the most recent observation.
    last_frame: usize,
}

/// Incremental, bounded-memory segment tracker.
///
/// The streaming counterpart of [`SegmentTracker::track`]: frames are fed one
/// at a time through [`IncrementalTracker::observe`], which returns the track
/// assignments of that frame immediately. Tracks that have not been observed
/// for more than [`TrackerConfig::max_gap`] frames can never be matched again
/// and are pruned, so the tracker's state stays proportional to the number of
/// segments seen in the last `max_gap + 1` frames — not to the length of the
/// stream. Track ids are assigned from a monotone counter and are **never
/// reused**, even after a track is pruned.
///
/// Feeding the frames of a clip through `observe` in order produces exactly
/// the same assignments as the batch [`SegmentTracker::track`] call (which is
/// implemented as precisely that loop).
///
/// Matching one frame costs O(live-track pixels + frame pixels): each live
/// track's pixels are shifted to its expected location once and counted
/// into the region the label grid holds under them, so a region weighs only
/// the same-class tracks that overlap it. At `min_overlap == 0` a region
/// that no unclaimed track overlaps also scans the live tracks for the
/// earliest unclaimed one of its class.
#[derive(Debug, Clone)]
pub struct IncrementalTracker {
    config: TrackerConfig,
    /// Live tracks in creation order (creation order makes the best-overlap
    /// tie-break identical to the historical batch implementation).
    active: Vec<TrackState>,
    /// Next track id to assign; doubles as the total number of tracks created.
    next_track_id: usize,
    /// Index of the next frame `observe` will see.
    next_frame: usize,
}

impl IncrementalTracker {
    /// Creates an incremental tracker with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `min_overlap` is not in `[0, 1]`.
    pub fn new(config: TrackerConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.min_overlap),
            "min_overlap must be in [0, 1]"
        );
        Self {
            config,
            active: Vec::new(),
            next_track_id: 0,
            next_frame: 0,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Number of frames observed so far.
    pub fn frames_seen(&self) -> usize {
        self.next_frame
    }

    /// Total number of distinct tracks created so far (pruned tracks count;
    /// ids are never reused).
    pub fn track_count(&self) -> usize {
        self.next_track_id
    }

    /// Number of tracks currently held in memory (the bounded working set).
    pub fn active_track_count(&self) -> usize {
        self.active.len()
    }

    /// Consumes the next frame of the stream and returns its track
    /// assignments. Region ids refer to the connected components extracted
    /// from `map` with the configured connectivity.
    pub fn observe(&mut self, map: &LabelMap) -> FrameTracks {
        self.observe_segments(&map.segments(self.config.connectivity))
    }

    /// [`IncrementalTracker::observe`] with caller-supplied connected
    /// components of the frame's label map — for consumers (the streaming
    /// engine) that already labelled the frame for metric extraction and
    /// share one labelling per frame. `components` must use the tracker's
    /// configured connectivity.
    pub fn observe_segments(&mut self, components: &ComponentLabels) -> FrameTracks {
        let frame_idx = self.next_frame;
        self.next_frame += 1;

        // Tracks that already exceed the matching horizon can never be
        // continued; dropping them here is what bounds the working set.
        self.active
            .retain(|t| frame_idx.saturating_sub(t.last_frame) <= self.config.max_gap);

        let mut frame_tracks = FrameTracks::default();
        // Sort candidate segments by size (large segments claim tracks first,
        // which stabilises matching when small fragments split off).
        let mut region_order: Vec<usize> = (0..components.component_count()).collect();
        region_order.sort_by_key(|&id| {
            std::cmp::Reverse(components.region(id).map(|r| r.area()).unwrap_or(0))
        });
        let mut claimed: Vec<bool> = vec![false; self.active.len()];

        // The class of every matchable region; `None` for regions that never
        // join a track (unevaluated classes, segments below the size floor).
        let region_class: Vec<Option<SemanticClass>> = components
            .regions()
            .iter()
            .map(|region| {
                let class = SemanticClass::from_id(region.class_id).expect("valid class id");
                (class.is_evaluated() && region.area() >= self.config.min_segment_area)
                    .then_some(class)
            })
            .collect();
        // Bucket the pixels of every matchable region in one row-major walk
        // of the label grid — O(pixels) total, where per-region
        // `pixels_of` bounding-box scans would cost O(Σ bbox areas).
        let mut region_pixels: Vec<Vec<(usize, usize)>> = components
            .regions()
            .iter()
            .map(|region| match region_class[region.id] {
                Some(_) => Vec::with_capacity(region.area()),
                None => Vec::new(),
            })
            .collect();
        let labels = components.labels();
        for ((x, y), &id) in labels.iter_pixels() {
            if region_class[id].is_some() {
                region_pixels[id].push((x, y));
            }
        }

        // One walk over each live track's pixels, shifted to the expected
        // location and rounded one by one: half-away-from-zero rounding is
        // not translation-invariant, so a single integer offset would land
        // some pixels elsewhere. `shifted_len[t]` is the size of track `t`'s
        // shifted pixel set: rounding under a constant shift is injective,
        // so every non-negative pixel counts, off-grid ones included.
        // `overlaps[r]` lists `(track, intersection)` for each same-class
        // track that covers region `r`, in creation order.
        let mut shifted_len: Vec<usize> = Vec::with_capacity(self.active.len());
        let mut overlaps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); region_class.len()];
        for (track_idx, track) in self.active.iter().enumerate() {
            let gap = (frame_idx - track.last_frame) as f64;
            let shift_x = track.velocity.0 * gap;
            let shift_y = track.velocity.1 * gap;
            let mut len = 0;
            for &(x, y) in &track.pixels {
                let nx = x as f64 + shift_x;
                let ny = y as f64 + shift_y;
                if nx < 0.0 || ny < 0.0 {
                    continue;
                }
                len += 1;
                let (nx, ny) = (nx.round() as usize, ny.round() as usize);
                if nx >= labels.width() || ny >= labels.height() {
                    continue;
                }
                let region_id = *labels.get(nx, ny);
                if region_class[region_id] != Some(track.class) {
                    continue;
                }
                let list = &mut overlaps[region_id];
                match list.last_mut() {
                    Some((last, inter)) if *last == track_idx => *inter += 1,
                    _ => list.push((track_idx, 1)),
                }
            }
            shifted_len.push(len);
        }

        for region_id in region_order {
            let Some(class) = region_class[region_id] else {
                continue;
            };
            let region = components
                .region(region_id)
                .expect("region id comes from the same labelling");
            let centroid = region.centroid();

            // Find the best matching existing track of the same class.
            // `overlap` is the IoU `metaseg_imgproc::iou` gives the shifted
            // track's and the region's pixel sets, from the same integers;
            // the strict `>` keeps the earliest-created track on ties.
            let mut best: Option<(usize, f64)> = None;
            for &(track_idx, inter) in &overlaps[region_id] {
                if claimed[track_idx] {
                    continue;
                }
                let inter = inter as f64;
                let overlap = inter / ((shifted_len[track_idx] + region.area()) as f64 - inter);
                if overlap >= self.config.min_overlap && best.is_none_or(|(_, b)| overlap > b) {
                    best = Some((track_idx, overlap));
                }
            }
            // At `min_overlap == 0` a track without overlap qualifies too:
            // with no overlapping track left, the earliest unclaimed track of
            // the class scores the best IoU, zero.
            if best.is_none() && self.config.min_overlap == 0.0 {
                best = (0..self.active.len())
                    .find(|&i| !claimed[i] && self.active[i].class == class)
                    .map(|i| (i, 0.0));
            }
            let pixels = std::mem::take(&mut region_pixels[region_id]);

            let track_id = match best {
                Some((track_idx, _)) => {
                    claimed[track_idx] = true;
                    let track = &mut self.active[track_idx];
                    let gap = (frame_idx - track.last_frame).max(1) as f64;
                    track.velocity = (
                        (centroid.0 - track.centroid.0) / gap,
                        (centroid.1 - track.centroid.1) / gap,
                    );
                    track.pixels = pixels;
                    track.centroid = centroid;
                    track.last_frame = frame_idx;
                    track.id
                }
                None => {
                    let id = self.next_track_id;
                    self.next_track_id += 1;
                    self.active.push(TrackState {
                        id,
                        class,
                        pixels,
                        centroid,
                        velocity: (0.0, 0.0),
                        last_frame: frame_idx,
                    });
                    claimed.push(true);
                    id
                }
            };

            frame_tracks.segments.push(TrackedSegment {
                track_id,
                frame: frame_idx,
                region_id,
                class,
                centroid,
                area: region.area(),
            });
        }
        frame_tracks
    }
}

/// The overlap-based tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentTracker {
    config: TrackerConfig,
}

impl SegmentTracker {
    /// Creates a tracker with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `min_overlap` is not in `[0, 1]`.
    pub fn new(config: TrackerConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.min_overlap),
            "min_overlap must be in [0, 1]"
        );
        Self { config }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Starts an incremental tracking session with this tracker's
    /// configuration — the streaming entry point.
    fn begin(&self) -> IncrementalTracker {
        IncrementalTracker::new(self.config)
    }

    /// Tracks the segments of a sequence of predicted label maps.
    ///
    /// Returns one [`FrameTracks`] per input frame; region ids refer to the
    /// connected components extracted with the configured connectivity.
    ///
    /// This is the batch convenience over [`IncrementalTracker`]: the clip is
    /// drained through [`IncrementalTracker::observe`] frame by frame.
    pub fn track(&self, frames: &[LabelMap]) -> TrackingResult {
        let mut session = self.begin();
        let frames = frames.iter().map(|map| session.observe(map)).collect();
        TrackingResult {
            frames,
            track_count: session.track_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_imgproc::PixelSet;
    use proptest::prelude::*;

    /// A map with one moving car rectangle and one static human ellipse-ish blob.
    fn moving_scene(t: usize) -> LabelMap {
        LabelMap::from_fn(40, 16, |x, y| {
            let car = (10..14).contains(&y) && (4 + 2 * t..12 + 2 * t).contains(&x);
            let human = (4..8).contains(&y) && (30..33).contains(&x);
            if car {
                SemanticClass::Car
            } else if human {
                SemanticClass::Human
            } else if y >= 9 {
                SemanticClass::Road
            } else {
                SemanticClass::Building
            }
        })
    }

    #[test]
    fn moving_object_keeps_its_track_id() {
        let frames: Vec<LabelMap> = (0..5).map(moving_scene).collect();
        let tracker = SegmentTracker::new(TrackerConfig::default());
        let result = tracker.track(&frames);
        assert_eq!(result.frames().len(), 5);

        let car_ids: Vec<usize> = result
            .frames()
            .iter()
            .flat_map(|f| f.segments.iter())
            .filter(|s| s.class == SemanticClass::Car)
            .map(|s| s.track_id)
            .collect();
        assert_eq!(car_ids.len(), 5);
        assert!(car_ids.iter().all(|&id| id == car_ids[0]));

        let human_ids: Vec<usize> = result
            .frames()
            .iter()
            .flat_map(|f| f.segments.iter())
            .filter(|s| s.class == SemanticClass::Human)
            .map(|s| s.track_id)
            .collect();
        assert_eq!(human_ids.len(), 5);
        assert!(human_ids.iter().all(|&id| id == human_ids[0]));
        assert_ne!(car_ids[0], human_ids[0]);
    }

    #[test]
    fn different_classes_never_match() {
        // A car that "turns into" a bus at the same location must start a new track.
        let frame_car = LabelMap::from_fn(20, 10, |x, y| {
            if (5..12).contains(&x) && (3..7).contains(&y) {
                SemanticClass::Car
            } else {
                SemanticClass::Road
            }
        });
        let frame_bus = LabelMap::from_fn(20, 10, |x, y| {
            if (5..12).contains(&x) && (3..7).contains(&y) {
                SemanticClass::Bus
            } else {
                SemanticClass::Road
            }
        });
        let tracker = SegmentTracker::new(TrackerConfig::default());
        let result = tracker.track(&[frame_car, frame_bus]);
        let first: Vec<_> = result.frames()[0]
            .segments
            .iter()
            .filter(|s| s.class == SemanticClass::Car)
            .collect();
        let second: Vec<_> = result.frames()[1]
            .segments
            .iter()
            .filter(|s| s.class == SemanticClass::Bus)
            .collect();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].track_id, second[0].track_id);
    }

    #[test]
    fn track_survives_a_one_frame_gap() {
        // The object disappears in frame 1 and reappears in frame 2.
        let present = moving_scene(0);
        let absent = LabelMap::from_fn(40, 16, |_, y| {
            if y >= 9 {
                SemanticClass::Road
            } else {
                SemanticClass::Building
            }
        });
        let back = moving_scene(1);
        let tracker = SegmentTracker::new(TrackerConfig {
            max_gap: 2,
            ..TrackerConfig::default()
        });
        let result = tracker.track(&[present, absent, back]);
        let car_ids: Vec<usize> = result
            .frames()
            .iter()
            .flat_map(|f| f.segments.iter())
            .filter(|s| s.class == SemanticClass::Car)
            .map(|s| s.track_id)
            .collect();
        assert_eq!(car_ids.len(), 2);
        assert_eq!(car_ids[0], car_ids[1]);
    }

    #[test]
    fn region_lookup_works() {
        let frames: Vec<LabelMap> = (0..2).map(moving_scene).collect();
        let tracker = SegmentTracker::new(TrackerConfig::default());
        let result = tracker.track(&frames);
        let frame0 = &result.frames()[0];
        for segment in &frame0.segments {
            assert_eq!(
                frame0.track_of_region(segment.region_id),
                Some(segment.track_id)
            );
        }
        assert_eq!(frame0.track_of_region(9999), None);
    }

    #[test]
    #[should_panic]
    fn invalid_overlap_threshold_panics() {
        let _ = SegmentTracker::new(TrackerConfig {
            min_overlap: 1.5,
            ..TrackerConfig::default()
        });
    }

    /// A frame with no evaluated segments at all (everything void).
    fn void_scene() -> LabelMap {
        LabelMap::from_fn(40, 16, |_, _| SemanticClass::Void)
    }

    /// Independent reimplementation of the historical clip-at-once tracker
    /// (every track kept forever in a vec, track ids = vec indices, stale
    /// tracks skipped during matching instead of pruned). Retained as the
    /// oracle for the incremental tracker, mirroring how
    /// `metaseg::pipeline::reference` pins the single-pass metric extraction.
    fn reference_batch_track(
        config: &TrackerConfig,
        frames: &[LabelMap],
    ) -> (Vec<FrameTracks>, usize) {
        struct RefTrack {
            class: SemanticClass,
            pixels: PixelSet,
            centroid: (f64, f64),
            velocity: (f64, f64),
            last_frame: usize,
        }
        let mut tracks: Vec<RefTrack> = Vec::new();
        let mut result = Vec::new();
        for (frame_idx, map) in frames.iter().enumerate() {
            let components = map.segments(config.connectivity);
            let mut frame_tracks = FrameTracks::default();
            let mut region_order: Vec<usize> = (0..components.component_count()).collect();
            region_order.sort_by_key(|&id| {
                std::cmp::Reverse(components.region(id).map(|r| r.area()).unwrap_or(0))
            });
            let mut claimed: Vec<bool> = vec![false; tracks.len()];
            for region_id in region_order {
                let region = components.region(region_id).unwrap();
                let class = SemanticClass::from_id(region.class_id).unwrap();
                if !class.is_evaluated() || region.area() < config.min_segment_area {
                    continue;
                }
                let pixels: PixelSet = components.pixels_of(region_id).collect();
                let centroid = region.centroid();
                let mut best: Option<(usize, f64)> = None;
                for (track_idx, track) in tracks.iter().enumerate() {
                    if claimed[track_idx]
                        || track.class != class
                        || frame_idx.saturating_sub(track.last_frame) > config.max_gap
                    {
                        continue;
                    }
                    let gap = (frame_idx - track.last_frame) as f64;
                    let shifted: PixelSet = track
                        .pixels
                        .iter()
                        .filter_map(|&(x, y)| {
                            let nx = x as f64 + track.velocity.0 * gap;
                            let ny = y as f64 + track.velocity.1 * gap;
                            if nx < 0.0 || ny < 0.0 {
                                None
                            } else {
                                Some((nx.round() as usize, ny.round() as usize))
                            }
                        })
                        .collect();
                    let overlap = metaseg_imgproc::iou(&shifted, &pixels);
                    if overlap >= config.min_overlap && best.is_none_or(|(_, b)| overlap > b) {
                        best = Some((track_idx, overlap));
                    }
                }
                let track_id = match best {
                    Some((track_idx, _)) => {
                        claimed[track_idx] = true;
                        let track = &mut tracks[track_idx];
                        let gap = (frame_idx - track.last_frame).max(1) as f64;
                        track.velocity = (
                            (centroid.0 - track.centroid.0) / gap,
                            (centroid.1 - track.centroid.1) / gap,
                        );
                        track.pixels = pixels;
                        track.centroid = centroid;
                        track.last_frame = frame_idx;
                        track_idx
                    }
                    None => {
                        tracks.push(RefTrack {
                            class,
                            pixels,
                            centroid,
                            velocity: (0.0, 0.0),
                            last_frame: frame_idx,
                        });
                        claimed.push(true);
                        tracks.len() - 1
                    }
                };
                frame_tracks.segments.push(TrackedSegment {
                    track_id,
                    frame: frame_idx,
                    region_id,
                    class,
                    centroid,
                    area: region.area(),
                });
            }
            result.push(frame_tracks);
        }
        (result, tracks.len())
    }

    /// The oracle at serve scale: the Bayes label maps of rendered 192x96
    /// cityscapes-like clips put hundreds of tracks in the working set, each
    /// of up to thousands of pixels, so one region meets far longer lists of
    /// overlapping tracks than the 16x12 property clips ever build.
    #[test]
    fn incremental_matches_reference_oracle_on_rendered_clips() {
        use metaseg_sim::{NetworkProfile, NetworkSim, SceneConfig, VideoConfig, VideoScenario};
        use rand::{rngs::StdRng, SeedableRng};
        let video = VideoConfig {
            sequence_count: 2,
            frames_per_sequence: 6,
            label_stride: 3,
            scene: SceneConfig::cityscapes_like(),
        };
        let sim = NetworkSim::new(NetworkProfile::weak());
        let scenario = VideoScenario::generate(&video, &sim, &mut StdRng::seed_from_u64(61));
        for sequence in &scenario.dataset().sequences {
            let maps: Vec<LabelMap> = sequence
                .frames
                .iter()
                .map(|f| f.predicted_labels())
                .collect();
            for min_overlap in [TrackerConfig::default().min_overlap, 0.0] {
                let config = TrackerConfig {
                    min_overlap,
                    ..TrackerConfig::default()
                };
                let (oracle_frames, oracle_count) = reference_batch_track(&config, &maps);
                let mut session = IncrementalTracker::new(config);
                let (mut peak_live, mut peak_pixels) = (0, 0);
                for (map, oracle) in maps.iter().zip(&oracle_frames) {
                    assert_eq!(&session.observe(map), oracle);
                    peak_live = peak_live.max(session.active_track_count());
                    peak_pixels = session
                        .active
                        .iter()
                        .fold(peak_pixels, |peak, track| peak.max(track.pixels.len()));
                }
                assert_eq!(session.track_count(), oracle_count);
                assert!(
                    peak_live > 200 && peak_pixels > 1000,
                    "the clips must reach serve scale: {peak_live} live tracks, \
                     largest track {peak_pixels} px"
                );
            }
        }
    }

    #[test]
    fn empty_frame_mid_stream_yields_no_tracks_and_does_not_break_the_stream() {
        let mut session = IncrementalTracker::new(TrackerConfig::default());
        let before = session.observe(&moving_scene(0));
        assert!(!before.segments.is_empty());
        let empty = session.observe(&void_scene());
        assert!(empty.segments.is_empty());
        let after = session.observe(&moving_scene(1));
        assert_eq!(session.frames_seen(), 3);
        // The car resumes its old track across the empty frame (gap 2 <= max_gap).
        let car_before = before
            .segments
            .iter()
            .find(|s| s.class == SemanticClass::Car)
            .unwrap();
        let car_after = after
            .segments
            .iter()
            .find(|s| s.class == SemanticClass::Car)
            .unwrap();
        assert_eq!(car_before.track_id, car_after.track_id);
    }

    #[test]
    fn reappearing_segment_beyond_max_gap_gets_a_fresh_id_never_reused() {
        let config = TrackerConfig {
            max_gap: 1,
            ..TrackerConfig::default()
        };
        let mut session = IncrementalTracker::new(config);
        let first = session.observe(&moving_scene(0));
        let car_id = first
            .segments
            .iter()
            .find(|s| s.class == SemanticClass::Car)
            .unwrap()
            .track_id;
        let created_before_gap = session.track_count();
        // The car is gone for two frames — longer than max_gap.
        session.observe(&void_scene());
        session.observe(&void_scene());
        assert_eq!(
            session.active_track_count(),
            0,
            "all tracks must be pruned after the gap"
        );
        let back = session.observe(&moving_scene(1));
        let new_car_id = back
            .segments
            .iter()
            .find(|s| s.class == SemanticClass::Car)
            .unwrap()
            .track_id;
        assert_ne!(car_id, new_car_id, "pruned track ids must never be reused");
        assert!(
            new_car_id >= created_before_gap,
            "new ids come from the monotone counter, above every id ever created"
        );
    }

    #[test]
    fn first_frame_only_segment_is_pruned_but_keeps_its_id_reserved() {
        // The human exists only in frame 0; the car moves on.
        let with_human = moving_scene(0);
        let without_human = |t: usize| {
            LabelMap::from_fn(40, 16, |x, y| {
                let car = (10..14).contains(&y) && (4 + 2 * t..12 + 2 * t).contains(&x);
                if car {
                    SemanticClass::Car
                } else if y >= 9 {
                    SemanticClass::Road
                } else {
                    SemanticClass::Building
                }
            })
        };
        let config = TrackerConfig {
            max_gap: 1,
            ..TrackerConfig::default()
        };
        let mut session = IncrementalTracker::new(config);
        let first = session.observe(&with_human);
        let human_id = first
            .segments
            .iter()
            .find(|s| s.class == SemanticClass::Human)
            .unwrap()
            .track_id;
        let active_with_human = session.active_track_count();
        let mut later_ids = Vec::new();
        for t in 1..5 {
            let tracks = session.observe(&without_human(t));
            later_ids.extend(tracks.segments.iter().map(|s| s.track_id));
        }
        // The one-frame track fell out of the working set...
        assert!(session.active_track_count() < active_with_human);
        // ...but its id is reserved forever: no later segment carries it.
        assert!(later_ids.iter().all(|&id| id != human_id));
        assert!(session.track_count() > human_id);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Track ids of one frame are unique (no two segments of one frame share a track).
        #[test]
        fn prop_track_ids_unique_within_frame(seed in 0u64..300) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let frames: Vec<LabelMap> = (0..4)
                .map(|_| {
                    LabelMap::from_fn(16, 12, |_, _| {
                        let classes = [
                            SemanticClass::Road,
                            SemanticClass::Car,
                            SemanticClass::Building,
                        ];
                        classes[rng.gen_range(0..classes.len())]
                    })
                })
                .collect();
            let tracker = SegmentTracker::new(TrackerConfig::default());
            let result = tracker.track(&frames);
            for frame in result.frames() {
                let mut seen = std::collections::HashSet::new();
                for segment in &frame.segments {
                    prop_assert!(seen.insert(segment.track_id), "duplicate track id in frame");
                }
            }
            // Track ids are dense: all smaller than track_count.
            for frame in result.frames() {
                for segment in &frame.segments {
                    prop_assert!(segment.track_id < result.track_count());
                }
            }
        }

        /// Feeding frames through the incremental API (and therefore through
        /// the batch `track` call, which drains it) is byte-for-byte
        /// identical to an independent reimplementation of the historical
        /// clip-at-once algorithm, while the incremental working set stays
        /// bounded by the recent-segment count. The frames are class noise
        /// with cars and humans moving over it at ±0.5, ±1.5 and ±2.5
        /// px/frame (sometimes hidden for a frame), so expected-location
        /// shifts round at .5 and run off the grid on every side; each clip
        /// runs under every `min_overlap` in {0, 0.1, 0.5} and `max_gap` in
        /// {0, 1, 3}.
        #[test]
        fn prop_incremental_matches_reference_oracle(seed in 0u64..300) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            const SPEEDS: [f64; 6] = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5];
            struct Mover {
                class: SemanticClass,
                start: (f64, f64),
                velocity: (f64, f64),
                half_extent: (f64, f64),
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            let movers: Vec<Mover> = (0..rng.gen_range(1..4usize))
                .map(|_| Mover {
                    class: if rng.gen_bool(0.5) {
                        SemanticClass::Car
                    } else {
                        SemanticClass::Human
                    },
                    start: (
                        rng.gen_range(0..32u32) as f64 / 2.0,
                        rng.gen_range(0..24u32) as f64 / 2.0,
                    ),
                    velocity: (
                        SPEEDS[rng.gen_range(0..SPEEDS.len())],
                        SPEEDS[rng.gen_range(0..SPEEDS.len())],
                    ),
                    half_extent: (
                        rng.gen_range(2..6u32) as f64 / 2.0,
                        rng.gen_range(2..5u32) as f64 / 2.0,
                    ),
                })
                .collect();
            let frames: Vec<LabelMap> = (0..6)
                .map(|t| {
                    let shown: Vec<&Mover> = movers.iter().filter(|_| !rng.gen_bool(0.2)).collect();
                    LabelMap::from_fn(16, 12, |x, y| {
                        let classes = [
                            SemanticClass::Road,
                            SemanticClass::Car,
                            SemanticClass::Building,
                            SemanticClass::Void,
                        ];
                        let noise = classes[rng.gen_range(0..classes.len())];
                        // A pixel is covered when its centre lies within the
                        // mover's half extents (bounds inclusive), so the
                        // mover's centroid advances by exactly its velocity
                        // while it is fully on the grid.
                        let covers = |m: &Mover| {
                            let cx = m.start.0 + m.velocity.0 * t as f64;
                            let cy = m.start.1 + m.velocity.1 * t as f64;
                            (x as f64 + 0.5 - cx).abs() <= m.half_extent.0
                                && (y as f64 + 0.5 - cy).abs() <= m.half_extent.1
                        };
                        shown.iter().find(|m| covers(m)).map_or(noise, |m| m.class)
                    })
                })
                .collect();

            for min_overlap in [0.0, 0.1, 0.5] {
                for max_gap in [0, 1, 3] {
                    let tracker = SegmentTracker::new(TrackerConfig {
                        min_overlap,
                        max_gap,
                        ..TrackerConfig::default()
                    });
                    let (oracle_frames, oracle_count) =
                        reference_batch_track(tracker.config(), &frames);

                    let mut session = tracker.begin();
                    for (frame_idx, map) in frames.iter().enumerate() {
                        let incremental = session.observe(map);
                        prop_assert_eq!(&incremental, &oracle_frames[frame_idx]);
                        // Bounded memory: active tracks never exceed the
                        // number of evaluated segments seen in the last
                        // max_gap + 1 frames.
                        let window_start = frame_idx.saturating_sub(max_gap);
                        let recent: usize = oracle_frames[window_start..=frame_idx]
                            .iter()
                            .map(|f| f.segments.len())
                            .sum();
                        prop_assert!(session.active_track_count() <= recent);
                    }
                    prop_assert_eq!(session.track_count(), oracle_count);

                    // The batch convenience is the same drain loop.
                    let batch = tracker.track(&frames);
                    prop_assert_eq!(batch.frames(), oracle_frames.as_slice());
                    prop_assert_eq!(batch.track_count(), oracle_count);
                }
            }
        }
    }
}
