//! # metaseg-data
//!
//! Data model for semantic segmentation shared by every other crate of the
//! MetaSeg reproduction:
//!
//! * [`SemanticClass`] / [`ClassCatalog`] — a Cityscapes-like semantic space
//!   of 19 evaluation classes plus a void/ignore label,
//! * [`LabelMap`] — a dense per-pixel class map (ground truth or prediction),
//! * [`ProbMap`] — a dense per-pixel softmax field `f_z(y|x, w)`,
//! * [`Frame`] — one image worth of data: ground truth (optional) plus the
//!   predicted softmax field,
//! * [`Dataset`] and [`Sequence`] — collections of frames and ordered video
//!   sequences.
//!
//! ```
//! use metaseg_data::{ClassCatalog, LabelMap, SemanticClass};
//!
//! let catalog = ClassCatalog::cityscapes_like();
//! assert!(catalog.contains(SemanticClass::Human));
//! let map = LabelMap::filled(8, 4, SemanticClass::Road);
//! assert_eq!(map.class_pixel_count(SemanticClass::Road), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
pub mod container;
mod crc;
mod dataset;
mod error;
mod frame;
mod labelmap;
mod probmap;

pub use catalog::{ClassCatalog, ClassInfo, SemanticClass};
pub use container::{ContainerError, ContainerKind, CorpusFrame, CorpusReader, CorpusWriter};
pub use crc::crc32;
pub use dataset::{Dataset, Sequence};
pub use error::DataError;
pub use frame::{Frame, FrameId};
pub use labelmap::LabelMap;
pub use probmap::{
    fast_ln_positive_f32, DistributionScan, DistributionScanF32, ProbEncoding, ProbMap, ProbPayload,
};
