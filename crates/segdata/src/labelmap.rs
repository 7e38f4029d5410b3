//! Dense per-pixel class maps.

use crate::catalog::SemanticClass;
use crate::error::DataError;
use metaseg_imgproc::{connected_components, ComponentLabels, Connectivity, Grid};
use serde::{Deserialize, Serialize};

/// A dense per-pixel semantic class map (ground truth or predicted mask).
///
/// Internally stores the numeric class ids; the typed accessors convert to
/// and from [`SemanticClass`].
///
/// ```
/// use metaseg_data::{LabelMap, SemanticClass};
///
/// let mut map = LabelMap::filled(4, 4, SemanticClass::Road);
/// map.set(1, 1, SemanticClass::Car);
/// assert_eq!(map.class_at(1, 1), SemanticClass::Car);
/// assert_eq!(map.class_pixel_count(SemanticClass::Car), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelMap {
    ids: Grid<u16>,
}

impl LabelMap {
    /// Creates a map filled with a single class.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, class: SemanticClass) -> Self {
        Self {
            ids: Grid::filled(width, height, class.id()),
        }
    }

    /// Builds a map by evaluating `f(x, y)` at every pixel.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> SemanticClass,
    ) -> Self {
        Self {
            ids: Grid::from_fn(width, height, |x, y| f(x, y).id()),
        }
    }

    /// Wraps a raw id grid.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownClassId`] if any id is outside the
    /// catalogue.
    pub fn from_ids(ids: Grid<u16>) -> Result<Self, DataError> {
        if let Some(&bad) = ids.iter().find(|&&id| SemanticClass::from_id(id).is_err()) {
            return Err(DataError::UnknownClassId(bad));
        }
        Ok(Self { ids })
    }

    /// Width of the map.
    pub fn width(&self) -> usize {
        self.ids.width()
    }

    /// Height of the map.
    pub fn height(&self) -> usize {
        self.ids.height()
    }

    /// Shape as `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        self.ids.shape()
    }

    /// Number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.ids.len()
    }

    /// Class at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the map.
    pub fn class_at(&self, x: usize, y: usize) -> SemanticClass {
        SemanticClass::from_id(*self.ids.get(x, y)).expect("label map contains only valid ids")
    }

    /// Sets the class at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the map.
    pub fn set(&mut self, x: usize, y: usize, class: SemanticClass) {
        self.ids.set(x, y, class.id());
    }

    /// The raw class-id grid.
    pub fn ids(&self) -> &Grid<u16> {
        &self.ids
    }

    /// Number of pixels carrying the given class.
    pub fn class_pixel_count(&self, class: SemanticClass) -> usize {
        self.ids.count_equal(&class.id())
    }

    /// Connected components ("segments") of the map.
    ///
    /// Every connected set of equal-class pixels becomes one segment; this is
    /// the paper's instance notion for both predictions and ground truth.
    pub fn segments(&self, connectivity: Connectivity) -> ComponentLabels {
        connected_components(&self.ids, connectivity)
    }

    /// Fraction of pixels where this map and `other` agree (void pixels in
    /// either map are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::FrameShapeMismatch`] if the shapes differ.
    pub fn pixel_accuracy(&self, other: &LabelMap) -> Result<f64, DataError> {
        if self.shape() != other.shape() {
            return Err(DataError::FrameShapeMismatch {
                ground_truth: self.shape(),
                prediction: other.shape(),
            });
        }
        let void = SemanticClass::Void.id();
        let mut total = 0usize;
        let mut agree = 0usize;
        for (a, b) in self.ids.iter().zip(other.ids.iter()) {
            if *a == void || *b == void {
                continue;
            }
            total += 1;
            if a == b {
                agree += 1;
            }
        }
        if total == 0 {
            return Ok(0.0);
        }
        Ok(agree as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn filled_and_set() {
        let mut map = LabelMap::filled(3, 2, SemanticClass::Sky);
        assert_eq!(map.class_pixel_count(SemanticClass::Sky), 6);
        map.set(0, 0, SemanticClass::Road);
        assert_eq!(map.class_at(0, 0), SemanticClass::Road);
        assert_eq!(map.class_pixel_count(SemanticClass::Sky), 5);
        assert_eq!(map.shape(), (3, 2));
    }

    #[test]
    fn from_ids_validates() {
        let good = Grid::filled(2, 2, 3u16);
        assert!(LabelMap::from_ids(good).is_ok());
        let bad = Grid::filled(2, 2, 77u16);
        assert_eq!(
            LabelMap::from_ids(bad).unwrap_err(),
            DataError::UnknownClassId(77)
        );
    }

    #[test]
    fn segments_split_classes() {
        let map = LabelMap::from_fn(4, 1, |x, _| {
            if x < 2 {
                SemanticClass::Road
            } else {
                SemanticClass::Car
            }
        });
        let segs = map.segments(Connectivity::Eight);
        assert_eq!(segs.component_count(), 2);
    }

    #[test]
    fn pixel_accuracy_ignores_void() {
        let gt = LabelMap::from_fn(4, 1, |x, _| {
            if x == 0 {
                SemanticClass::Void
            } else {
                SemanticClass::Road
            }
        });
        let mut pred = LabelMap::filled(4, 1, SemanticClass::Road);
        pred.set(1, 0, SemanticClass::Car);
        // Valid pixels: x = 1,2,3; correct at 2 of them.
        assert!((gt.pixel_accuracy(&pred).unwrap() - 2.0 / 3.0).abs() < 1e-12);

        let other = LabelMap::filled(2, 2, SemanticClass::Road);
        assert!(gt.pixel_accuracy(&other).is_err());
    }

    proptest! {
        #[test]
        fn prop_accuracy_self_is_one_without_void(seed in 0u64..300) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let map = LabelMap::from_fn(6, 6, |_, _| {
                SemanticClass::ALL[rng.gen_range(0..19)] // exclude void
            });
            prop_assert!((map.pixel_accuracy(&map).unwrap() - 1.0).abs() < 1e-12);
        }
    }
}
