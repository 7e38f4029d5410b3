//! Connected-component labelling of equal-valued regions.
//!
//! The paper treats every connected component of a predicted class mask as a
//! *segment* (an "instance" in the FP/FN sense). This module provides the
//! labelling pass that turns a dense label map into such segments.

use crate::grid::Grid;
use serde::{Deserialize, Serialize};

/// Pixel connectivity used when growing components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Connectivity {
    /// 4-connectivity (edge-adjacent pixels).
    Four,
    /// 8-connectivity (edge- or corner-adjacent pixels).
    #[default]
    Eight,
}

/// A single connected component (segment) extracted from a label map.
///
/// A region is a compact summary — id, class, area, bounding box and
/// centroid sums folded during the labelling pass. The member pixels are
/// *not* materialised (that used to cost 16 bytes of traffic per pixel on
/// the extraction hot path); consumers that need them iterate
/// [`ComponentLabels::pixels_of`], which scans the bounding box of the
/// component in the label grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Component id, dense in `0..component_count`.
    pub id: usize,
    /// The label value shared by all pixels of this component.
    pub class_id: u16,
    /// Axis-aligned bounding box `(min_x, min_y, max_x, max_y)` (inclusive).
    pub bbox: (usize, usize, usize, usize),
    /// Number of member pixels.
    area: usize,
    /// Σ x and Σ y over the member pixels, folded in labelling order.
    centroid_sum: (f64, f64),
}

impl Region {
    /// Number of pixels of the component (its "size" `S` in the paper).
    pub fn area(&self) -> usize {
        self.area
    }

    /// Centroid of the component in pixel coordinates.
    pub fn centroid(&self) -> (f64, f64) {
        let n = self.area as f64;
        (self.centroid_sum.0 / n, self.centroid_sum.1 / n)
    }
}

/// Result of a connected-component labelling pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentLabels {
    labels: Grid<usize>,
    regions: Vec<Region>,
}

/// Sentinel stored in the label grid before a pixel is assigned.
const UNASSIGNED: usize = usize::MAX;

impl ComponentLabels {
    /// Component id of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the grid.
    pub fn component_of(&self, x: usize, y: usize) -> usize {
        *self.labels.get(x, y)
    }

    /// Number of connected components found.
    pub fn component_count(&self) -> usize {
        self.regions.len()
    }

    /// All regions, ordered by component id.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region with the given component id, if it exists.
    pub fn region(&self, id: usize) -> Option<&Region> {
        self.regions.get(id)
    }

    /// The dense component-id grid.
    pub fn labels(&self) -> &Grid<usize> {
        &self.labels
    }

    /// Iterates the member pixels of component `id` in row-major order by
    /// scanning the component's bounding box in the label grid.
    ///
    /// This replaces the per-region pixel list that regions used to
    /// materialise: the label grid already knows every membership, so the
    /// few consumers that genuinely need coordinates (tracking, rendering,
    /// the differential-test oracles) re-derive them here instead of every
    /// labelling pass paying to store them. Unknown ids yield an empty
    /// iterator.
    ///
    /// Cost is `O(bbox area)`, not `O(segment area)`: a thin diagonal
    /// component of `n` pixels scans an `n × n` box. For compact segments
    /// the two coincide; callers iterating *every* region of a frame with
    /// many elongated segments should prefer one row-major walk of
    /// [`ComponentLabels::labels`], which buckets all regions in
    /// `O(pixels)` total.
    pub fn pixels_of(&self, id: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        // An inverted dummy box makes the row range empty for unknown ids.
        let (x0, y0, x1, y1) = self
            .regions
            .get(id)
            .map(|region| region.bbox)
            .unwrap_or((1, 1, 0, 0));
        let labels = &self.labels;
        (y0..=y1).flat_map(move |y| {
            (x0..=x1).filter_map(move |x| (*labels.get(x, y) == id).then_some((x, y)))
        })
    }

    /// Consumes the labelling and returns `(label grid, regions)`.
    fn into_parts(self) -> (Grid<usize>, Vec<Region>) {
        (self.labels, self.regions)
    }
}

/// Labels the connected components of equal-valued regions of `map`.
///
/// Pixels carry a `u16` class label; two adjacent pixels belong to the same
/// component iff their labels are equal. Component ids are dense and assigned
/// in scan order of the first pixel encountered.
///
/// ```
/// use metaseg_imgproc::{Grid, connected_components, Connectivity};
///
/// let map = Grid::from_rows(vec![
///     vec![5u16, 5, 7],
///     vec![7, 5, 7],
/// ]).unwrap();
/// let cc = connected_components(&map, Connectivity::Four);
/// assert_eq!(cc.component_count(), 3);
/// assert_eq!(cc.component_of(0, 0), cc.component_of(1, 1));
/// assert_ne!(cc.component_of(0, 1), cc.component_of(2, 0));
/// ```
pub fn connected_components(map: &Grid<u16>, connectivity: Connectivity) -> ComponentLabels {
    let mut labeler = Labeler::new();
    labeler.label(map, connectivity);
    labeler
        .take()
        .expect("label() always leaves a result behind")
}

/// Reusable connected-component labelling state.
///
/// [`connected_components`] allocates a fresh label grid, region vector and
/// flood-fill stack per call. A `Labeler` owns all three and reuses them
/// across calls, so a per-session (or per-thread) instance labels frame
/// after frame without touching the allocator once its buffers have grown
/// to the working-set size — the labelling half of the extraction kernel's
/// zero-allocation steady state.
#[derive(Debug, Clone, Default)]
pub struct Labeler {
    /// The labelling of the most recent `label` call, kept for buffer reuse.
    result: Option<ComponentLabels>,
    /// Flood-fill stack, reused across components and calls.
    stack: Vec<(usize, usize)>,
}

impl Labeler {
    /// Creates an empty labeler. Buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Labels the connected components of `map`, reusing the buffers of any
    /// previous call. Semantics are identical to [`connected_components`]
    /// (same ids, same region order, same centroid fold order).
    pub fn label(&mut self, map: &Grid<u16>, connectivity: Connectivity) -> &ComponentLabels {
        let (width, height) = map.shape();
        let (mut labels, mut regions) = match self.result.take() {
            Some(previous) => previous.into_parts(),
            None => (Grid::filled(width, height, UNASSIGNED), Vec::new()),
        };
        labels.reset(width, height, UNASSIGNED);
        regions.clear();
        let map_slice = map.as_slice();

        for start_y in 0..height {
            for start_x in 0..width {
                if *labels.get(start_x, start_y) != UNASSIGNED {
                    continue;
                }
                let class_id = map_slice[start_y * width + start_x];
                let id = regions.len();
                let mut area = 0usize;
                let (mut sum_x, mut sum_y) = (0.0f64, 0.0f64);
                let (mut min_x, mut min_y, mut max_x, mut max_y) =
                    (start_x, start_y, start_x, start_y);

                self.stack.push((start_x, start_y));
                labels.set(start_x, start_y, id);
                while let Some((cx, cy)) = self.stack.pop() {
                    // Fold the per-region summary exactly where the pixel
                    // list used to record the pixel, so the centroid sums
                    // see the same addition order as the historical
                    // pixel-vector fold (bit-identical centroids).
                    area += 1;
                    sum_x += cx as f64;
                    sum_y += cy as f64;
                    min_x = min_x.min(cx);
                    min_y = min_y.min(cy);
                    max_x = max_x.max(cx);
                    max_y = max_y.max(cy);

                    // Neighbour visit order matches `Grid::neighbors4` /
                    // `Grid::neighbors8` (row above, own row, row below; left
                    // to right), without materialising a vector per pixel.
                    let mut visit = |nx: usize, ny: usize| {
                        if *labels.get(nx, ny) == UNASSIGNED
                            && map_slice[ny * width + nx] == class_id
                        {
                            labels.set(nx, ny, id);
                            self.stack.push((nx, ny));
                        }
                    };
                    match connectivity {
                        Connectivity::Four => {
                            if cx > 0 {
                                visit(cx - 1, cy);
                            }
                            if cx + 1 < width {
                                visit(cx + 1, cy);
                            }
                            if cy > 0 {
                                visit(cx, cy - 1);
                            }
                            if cy + 1 < height {
                                visit(cx, cy + 1);
                            }
                        }
                        Connectivity::Eight => {
                            let x_lo = cx.saturating_sub(1);
                            let x_hi = (cx + 1).min(width - 1);
                            let y_lo = cy.saturating_sub(1);
                            let y_hi = (cy + 1).min(height - 1);
                            for ny in y_lo..=y_hi {
                                for nx in x_lo..=x_hi {
                                    if nx != cx || ny != cy {
                                        visit(nx, ny);
                                    }
                                }
                            }
                        }
                    }
                }

                regions.push(Region {
                    id,
                    class_id,
                    bbox: (min_x, min_y, max_x, max_y),
                    area,
                    centroid_sum: (sum_x, sum_y),
                });
            }
        }

        self.result = Some(ComponentLabels { labels, regions });
        self.result.as_ref().expect("stored just above")
    }

    /// The labelling of the most recent [`Labeler::label`] call, if any.
    pub fn components(&self) -> Option<&ComponentLabels> {
        self.result.as_ref()
    }

    /// Consumes the most recent labelling (the labeler stays usable and
    /// simply re-grows its buffers on the next call).
    pub fn take(&mut self) -> Option<ComponentLabels> {
        self.result.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_3x3(values: [[u16; 3]; 3]) -> Grid<u16> {
        Grid::from_rows(values.iter().map(|r| r.to_vec()).collect()).unwrap()
    }

    #[test]
    fn single_uniform_component() {
        let g = Grid::filled(5, 4, 3u16);
        let cc = connected_components(&g, Connectivity::Four);
        assert_eq!(cc.component_count(), 1);
        assert_eq!(cc.regions()[0].area(), 20);
        assert_eq!(cc.regions()[0].class_id, 3);
        assert_eq!(cc.regions()[0].bbox, (0, 0, 4, 3));
    }

    #[test]
    fn diagonal_pixels_depend_on_connectivity() {
        let g = grid_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]);
        let cc4 = connected_components(&g, Connectivity::Four);
        let cc8 = connected_components(&g, Connectivity::Eight);
        // With 4-connectivity the three diagonal 1-pixels are separate.
        let ones_4 = cc4.regions().iter().filter(|r| r.class_id == 1).count();
        assert_eq!(ones_4, 3);
        // With 8-connectivity they merge into one component.
        let ones_8 = cc8.regions().iter().filter(|r| r.class_id == 1).count();
        assert_eq!(ones_8, 1);
    }

    #[test]
    fn component_ids_are_dense_scan_order() {
        let g = grid_3x3([[1, 1, 2], [3, 1, 2], [3, 3, 3]]);
        let cc = connected_components(&g, Connectivity::Four);
        assert_eq!(cc.component_count(), 3);
        assert_eq!(cc.component_of(0, 0), 0);
        assert_eq!(cc.component_of(2, 0), 1);
        assert_eq!(cc.component_of(0, 1), 2);
    }

    #[test]
    fn region_lookup_and_centroid() {
        let g = grid_3x3([[9, 9, 9], [0, 0, 0], [0, 0, 0]]);
        let cc = connected_components(&g, Connectivity::Four);
        let top = cc.region(cc.component_of(1, 0)).unwrap();
        assert_eq!(top.area(), 3);
        let (cx, cy) = top.centroid();
        assert!((cx - 1.0).abs() < 1e-12);
        assert!((cy - 0.0).abs() < 1e-12);
        assert_eq!(top.bbox, (0, 0, 2, 0));
        assert!(cc.region(99).is_none());
    }

    proptest! {
        /// Components partition the grid: every pixel belongs to exactly one
        /// region, region pixels are disjoint, and they cover the grid.
        #[test]
        fn prop_components_partition_grid(
            w in 1usize..12,
            h in 1usize..12,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let g = Grid::from_fn(w, h, |_, _| rng.gen_range(0u16..3));
            for connectivity in [Connectivity::Four, Connectivity::Eight] {
                let cc = connected_components(&g, connectivity);
                let total: usize = cc.regions().iter().map(Region::area).sum();
                prop_assert_eq!(total, w * h);
                // Every pixel's component id agrees with the region that
                // claims it, and pixels_of covers exactly the region's area.
                for region in cc.regions() {
                    let mut seen = 0usize;
                    for (x, y) in cc.pixels_of(region.id) {
                        prop_assert_eq!(cc.component_of(x, y), region.id);
                        prop_assert_eq!(*g.get(x, y), region.class_id);
                        seen += 1;
                    }
                    prop_assert_eq!(seen, region.area());
                }
                prop_assert_eq!(cc.pixels_of(cc.component_count()).count(), 0);
            }
        }

        /// Pixels of the same component are connected, pixels of adjacent
        /// different classes are in different components.
        #[test]
        fn prop_adjacent_different_labels_are_split(
            w in 2usize..10,
            h in 2usize..10,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let g = Grid::from_fn(w, h, |_, _| rng.gen_range(0u16..4));
            let cc = connected_components(&g, Connectivity::Four);
            for y in 0..h {
                for x in 0..w.saturating_sub(1) {
                    if g.get(x, y) != g.get(x + 1, y) {
                        prop_assert_ne!(cc.component_of(x, y), cc.component_of(x + 1, y));
                    } else {
                        prop_assert_eq!(cc.component_of(x, y), cc.component_of(x + 1, y));
                    }
                }
            }
        }
    }
}
