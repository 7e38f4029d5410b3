//! Intersection-over-union between pixel sets.
//!
//! The IoU of a predicted segment with the union of ground-truth segments of
//! the same class is the target quantity of meta regression (eq. (2) of the
//! paper); `IoU = 0` vs `IoU > 0` is the meta-classification label.

use std::collections::HashSet;

/// A set of pixel coordinates, used for sparse set operations.
pub type PixelSet = HashSet<(usize, usize)>;

/// Intersection-over-union of two pixel sets.
///
/// Returns `0.0` when both sets are empty (the degenerate case is treated as
/// "no overlap" rather than a division by zero).
pub fn iou(a: &PixelSet, b: &PixelSet) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let intersection = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - intersection;
    intersection / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(pixels: &[(usize, usize)]) -> PixelSet {
        pixels.iter().copied().collect()
    }

    #[test]
    fn identical_sets_have_iou_one() {
        let a = set(&[(0, 0), (1, 0), (2, 0)]);
        assert!((iou(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_have_iou_zero() {
        let a = set(&[(0, 0)]);
        let b = set(&[(5, 5)]);
        assert_eq!(iou(&a, &b), 0.0);
    }

    #[test]
    fn empty_sets_are_zero_not_nan() {
        let a = PixelSet::new();
        assert_eq!(iou(&a, &a), 0.0);
    }

    #[test]
    fn half_overlap() {
        let a = set(&[(0, 0), (1, 0)]);
        let b = set(&[(1, 0), (2, 0)]);
        // intersection 1, union 3
        assert!((iou(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_iou_bounds_and_symmetry(
            a_pixels in proptest::collection::hash_set((0usize..8, 0usize..8), 0..40),
            b_pixels in proptest::collection::hash_set((0usize..8, 0usize..8), 0..40),
        ) {
            let a: PixelSet = a_pixels.into_iter().collect();
            let b: PixelSet = b_pixels.into_iter().collect();
            let v = iou(&a, &b);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!((iou(&b, &a) - v).abs() < 1e-12);
            // IoU of a set with itself is 1 unless empty.
            if !a.is_empty() {
                prop_assert!((iou(&a, &a) - 1.0).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_iou_zero_iff_disjoint(
            a_pixels in proptest::collection::hash_set((0usize..6, 0usize..6), 1..20),
            b_pixels in proptest::collection::hash_set((0usize..6, 0usize..6), 1..20),
        ) {
            let a: PixelSet = a_pixels.into_iter().collect();
            let b: PixelSet = b_pixels.into_iter().collect();
            let disjoint = a.intersection(&b).count() == 0;
            prop_assert_eq!(iou(&a, &b) == 0.0, disjoint);
        }
    }
}
