//! Error type for the data-model crate.

use metaseg_imgproc::GridError;
use std::fmt;

/// Errors produced when constructing or combining segmentation data objects.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// The underlying grid operation failed.
    Grid(GridError),
    /// A probability vector did not have one entry per semantic class.
    WrongClassCount {
        /// Number of classes expected by the catalogue.
        expected: usize,
        /// Number of probabilities provided.
        found: usize,
    },
    /// A probability vector does not sum to one (within tolerance) or
    /// contains negative entries.
    NotADistribution {
        /// The offending sum.
        sum: f64,
    },
    /// Ground truth and prediction shapes differ inside one frame.
    FrameShapeMismatch {
        /// Ground-truth shape.
        ground_truth: (usize, usize),
        /// Prediction shape.
        prediction: (usize, usize),
    },
    /// A class id outside the catalogue was encountered.
    UnknownClassId(u16),
    /// An operation that needs at least one element got an empty collection.
    EmptyCollection(&'static str),
    /// A declared payload shape is unusable: a zero dimension, a pixel /
    /// byte count that overflows `usize` when multiplied out, or (at metric
    /// extraction) more channels than the class catalogue.
    InvalidPayloadShape {
        /// Declared width in pixels.
        width: usize,
        /// Declared height in pixels.
        height: usize,
        /// Declared softmax channels per pixel.
        channels: usize,
    },
    /// A byte payload's length does not match the size implied by its
    /// declared shape and value encoding.
    PayloadSizeMismatch {
        /// Bytes implied by the declared shape and encoding.
        expected: usize,
        /// Bytes actually provided.
        found: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Grid(e) => write!(f, "grid error: {e}"),
            DataError::WrongClassCount { expected, found } => write!(
                f,
                "probability vector has {found} entries, expected {expected} classes"
            ),
            DataError::NotADistribution { sum } => {
                write!(f, "probability vector sums to {sum}, expected 1.0")
            }
            DataError::FrameShapeMismatch {
                ground_truth,
                prediction,
            } => write!(
                f,
                "ground truth shape {}x{} differs from prediction shape {}x{}",
                ground_truth.0, ground_truth.1, prediction.0, prediction.1
            ),
            DataError::UnknownClassId(id) => write!(f, "unknown semantic class id {id}"),
            DataError::EmptyCollection(what) => write!(f, "{what} must not be empty"),
            DataError::InvalidPayloadShape {
                width,
                height,
                channels,
            } => write!(
                f,
                "payload shape {width}x{height}x{channels} has a zero dimension, \
                 overflows the addressable size or exceeds the class catalogue"
            ),
            DataError::PayloadSizeMismatch { expected, found } => write!(
                f,
                "payload holds {found} bytes but its declared shape requires {expected}"
            ),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for DataError {
    fn from(value: GridError) -> Self {
        DataError::Grid(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_relevant_numbers() {
        let err = DataError::WrongClassCount {
            expected: 20,
            found: 3,
        };
        assert!(err.to_string().contains("20"));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn grid_error_converts() {
        let g = GridError::EmptyGrid;
        let d: DataError = g.clone().into();
        assert_eq!(d, DataError::Grid(g));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
