//! Error type for grid construction and manipulation.

use std::fmt;

/// Errors produced by grid constructors and grid-shaped operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A grid with zero width or zero height was requested.
    EmptyGrid,
    /// Row lengths passed to [`crate::Grid::from_rows`] are inconsistent.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// A flat buffer does not match the requested `width * height`.
    LengthMismatch {
        /// Requested width times height.
        expected: usize,
        /// Length of the provided buffer.
        found: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "grid must have non-zero width and height"),
            GridError::RaggedRows {
                expected,
                found,
                row,
            } => write!(
                f,
                "row {row} has length {found}, expected {expected} (ragged rows)"
            ),
            GridError::LengthMismatch { expected, found } => write!(
                f,
                "flat buffer has length {found}, expected width*height = {expected}"
            ),
        }
    }
}

impl std::error::Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = GridError::RaggedRows {
            expected: 4,
            found: 3,
            row: 2,
        };
        let text = err.to_string();
        assert!(text.contains("row 2"));
        assert!(text.contains('3'));
        assert!(text.contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GridError>();
    }
}
