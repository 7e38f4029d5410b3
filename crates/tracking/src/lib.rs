//! # metaseg-tracking
//!
//! Light-weight segment tracking across video frames, as required by the
//! time-dynamic MetaSeg extension (Section III of the paper).
//!
//! The tracker works purely on predicted label maps (semantic segmentation is
//! assumed to be available anyway): segments in consecutive frames are
//! matched by their pixel overlap after shifting the previous frame's
//! segments to their *expected* location, which is extrapolated from the
//! track's centroid history. Matched segments share a persistent track id, so
//! per-segment metrics can be strung together into time series.
//!
//! Matching a frame costs O(live-track pixels + frame pixels): every live
//! track's shifted pixels are counted once into the regions of the label grid
//! under them.
//!
//! ```
//! use metaseg_data::{LabelMap, SemanticClass};
//! use metaseg_tracking::{SegmentTracker, TrackerConfig};
//!
//! // A single car moving right by two pixels per frame.
//! let frames: Vec<LabelMap> = (0..3)
//!     .map(|t| {
//!         LabelMap::from_fn(24, 8, |x, y| {
//!             if y >= 2 && y < 6 && x >= 2 + 2 * t && x < 8 + 2 * t {
//!                 SemanticClass::Car
//!             } else {
//!                 SemanticClass::Road
//!             }
//!         })
//!     })
//!     .collect();
//! let tracks = SegmentTracker::new(TrackerConfig::default()).track(&frames);
//! // The car keeps one track id across all three frames.
//! let car_tracks: Vec<_> = tracks
//!     .frames()
//!     .iter()
//!     .flat_map(|f| f.segments.iter())
//!     .filter(|s| s.class == SemanticClass::Car)
//!     .map(|s| s.track_id)
//!     .collect();
//! assert_eq!(car_tracks.len(), 3);
//! assert!(car_tracks.iter().all(|&id| id == car_tracks[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tracker;

pub use tracker::{
    FrameTracks, IncrementalTracker, SegmentTracker, TrackedSegment, TrackerConfig, TrackingResult,
};
