//! Boundary and interior extraction for segments.
//!
//! MetaSeg's geometry metrics need, per segment, the number of boundary
//! pixels (the "fractality" measure is the ratio of segment size to boundary
//! length) and separate metric aggregation over interior vs. boundary pixels.

use crate::components::Region;
use crate::grid::Grid;

/// Pixels of `region` that touch (4-adjacency) a pixel outside the region.
///
/// The returned list is the *inner boundary*: it is a subset of the region's
/// own pixels. A pixel on the image border counts as boundary as soon as it
/// has an out-of-image neighbour, matching the convention that the image
/// frame cuts segments off.
pub fn inner_boundary(region: &Region, labels: &Grid<usize>) -> Vec<(usize, usize)> {
    let mut boundary = Vec::new();
    let (x0, y0, x1, y1) = region.bbox;
    for y in y0..=y1 {
        for x in x0..=x1 {
            if *labels.get(x, y) != region.id {
                continue;
            }
            let (xi, yi) = (x as isize, y as isize);
            let is_boundary = [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)]
                .iter()
                .any(|&(dx, dy)| {
                    !matches!(labels.checked_get(xi + dx, yi + dy), Some(&id) if id == region.id)
                });
            if is_boundary {
                boundary.push((x, y));
            }
        }
    }
    boundary
}

/// Number of inner-boundary pixels of `region`.
pub fn boundary_length(region: &Region, labels: &Grid<usize>) -> usize {
    inner_boundary(region, labels).len()
}

/// Boolean mask (same shape as `labels`) marking the inner boundary of `region`.
fn boundary_mask(region: &Region, labels: &Grid<usize>) -> Grid<bool> {
    let mut mask = Grid::filled(labels.width(), labels.height(), false);
    for (x, y) in inner_boundary(region, labels) {
        mask.set(x, y, true);
    }
    mask
}

/// Boolean mask marking the interior (non-boundary) pixels of `region`.
pub fn interior_mask(region: &Region, labels: &Grid<usize>) -> Grid<bool> {
    let boundary = boundary_mask(region, labels);
    let mut mask = Grid::filled(labels.width(), labels.height(), false);
    let (x0, y0, x1, y1) = region.bbox;
    for y in y0..=y1 {
        for x in x0..=x1 {
            if *labels.get(x, y) == region.id && !*boundary.get(x, y) {
                mask.set(x, y, true);
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{connected_components, Connectivity};
    use proptest::prelude::*;

    #[test]
    fn full_grid_boundary_is_frame() {
        let map = Grid::filled(5, 5, 1u16);
        let cc = connected_components(&map, Connectivity::Four);
        let region = &cc.regions()[0];
        let b = inner_boundary(region, cc.labels());
        // 5x5 frame has 16 boundary pixels.
        assert_eq!(b.len(), 16);
        assert_eq!(boundary_length(region, cc.labels()), 16);
        let interior = interior_mask(region, cc.labels());
        assert_eq!(interior.count_equal(&true), 9);
    }

    #[test]
    fn single_pixel_region_is_all_boundary() {
        let map = Grid::from_rows(vec![vec![0u16, 0, 0], vec![0, 7, 0], vec![0, 0, 0]]).unwrap();
        let cc = connected_components(&map, Connectivity::Four);
        let region = cc
            .regions()
            .iter()
            .find(|r| r.class_id == 7)
            .expect("pixel region");
        assert_eq!(boundary_length(region, cc.labels()), 1);
        let interior = interior_mask(region, cc.labels());
        assert_eq!(interior.count_equal(&true), 0);
    }

    #[test]
    fn thin_line_is_all_boundary() {
        // A 1-pixel wide horizontal line: every pixel touches background above/below.
        let mut rows = vec![vec![0u16; 6]; 3];
        rows[1] = vec![4u16; 6];
        let map = Grid::from_rows(rows).unwrap();
        let cc = connected_components(&map, Connectivity::Four);
        let line = cc.regions().iter().find(|r| r.class_id == 4).unwrap();
        assert_eq!(boundary_length(line, cc.labels()), 6);
    }

    proptest! {
        /// Boundary ∪ interior = region pixels, boundary ∩ interior = ∅, and
        /// the boundary is never empty for a non-empty region.
        #[test]
        fn prop_boundary_interior_partition(seed in 0u64..500, w in 2usize..12, h in 2usize..12) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let map = Grid::from_fn(w, h, |_, _| rng.gen_range(0u16..3));
            let cc = connected_components(&map, Connectivity::Eight);
            for region in cc.regions() {
                let b = boundary_mask(region, cc.labels());
                let i = interior_mask(region, cc.labels());
                let b_count = b.count_equal(&true);
                let i_count = i.count_equal(&true);
                prop_assert!(b_count >= 1);
                prop_assert_eq!(b_count + i_count, region.area());
                let overlap = b.iter().zip(i.iter()).filter(|(b, i)| **b && **i).count();
                prop_assert_eq!(overlap, 0);
            }
        }
    }
}
