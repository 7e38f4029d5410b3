//! # metaseg-imgproc
//!
//! Two-dimensional grid processing substrate for the MetaSeg reproduction.
//!
//! Semantic segmentation operates on dense per-pixel maps; every higher layer
//! of the reproduction (the scene simulator, the segment metric construction,
//! the tracking algorithm and the decision rules) needs the same small set of
//! raster primitives:
//!
//! * [`Grid`] — a rectangular, row-major container of arbitrary values,
//! * [`connected_components`] — 4-/8-connected labelling of equal-valued
//!   regions (the paper's notion of a *segment* is a connected component of a
//!   predicted class mask),
//! * [`inner_boundary`] / [`boundary_length`] — inner-boundary extraction
//!   and boundary length,
//! * [`iou`] — intersection-over-union between pixel sets,
//! * [`resize_nearest`] — nearest-neighbour resampling (used by the
//!   `resolution-switch` scenario regime),
//! * [`Ppm`] / [`ColorMap`] — tiny PPM/PGM writers and colour maps so that
//!   the figure regeneration binaries can emit actual images without an
//!   image crate.
//!
//! ```
//! use metaseg_imgproc::{Grid, connected_components, Connectivity};
//!
//! let labels = Grid::from_rows(vec![
//!     vec![1, 1, 0],
//!     vec![0, 1, 0],
//!     vec![2, 2, 2],
//! ]).unwrap();
//! let cc = connected_components(&labels, Connectivity::Four);
//! assert_eq!(cc.component_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod components;
mod error;
mod grid;
mod iou;
mod render;
mod resize;

pub use boundary::{boundary_length, inner_boundary, interior_mask};
pub use components::{connected_components, ComponentLabels, Connectivity, Labeler, Region};
pub use error::GridError;
pub use grid::Grid;
pub use iou::{iou, PixelSet};
pub use render::{Color, ColorMap, Ppm};
pub use resize::resize_nearest;
