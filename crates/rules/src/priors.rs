//! Pixel-wise a-priori class probabilities.

use metaseg_data::{LabelMap, SemanticClass};
use metaseg_imgproc::Grid;
use serde::{Deserialize, Serialize};

/// Number of evaluated classes (softmax channels).
const NUM_CHANNELS: usize = 19;

/// Pixel-wise prior probabilities `p̂_z(y)` estimated from training label maps.
///
/// For every pixel position `z` the prior stores one probability per
/// evaluated class; over all classes the values sum to one (void pixels are
/// skipped during estimation). Laplace smoothing keeps every prior strictly
/// positive so that the inverse-prior cost of the ML rule is always defined.
/// The per-class heat map (the paper's Fig. 4) is exposed via
/// [`PriorMap::class_heatmap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorMap {
    width: usize,
    height: usize,
    /// `data[(y * width + x) * NUM_CHANNELS + c]`.
    data: Vec<f64>,
}

impl PriorMap {
    /// Estimates position-specific priors from a set of label maps.
    ///
    /// `smoothing` is the Laplace count added to every class at every pixel
    /// (a value around `1.0` works well for a few hundred maps).
    ///
    /// # Panics
    ///
    /// Panics if `maps` is empty, the maps do not all share one shape, or
    /// `smoothing` is negative.
    pub fn estimate(maps: &[LabelMap], smoothing: f64) -> Self {
        assert!(
            !maps.is_empty(),
            "prior estimation requires at least one label map"
        );
        assert!(smoothing >= 0.0, "smoothing must be non-negative");
        let (width, height) = maps[0].shape();
        for map in maps {
            assert_eq!(
                map.shape(),
                (width, height),
                "all label maps must share one shape"
            );
        }

        let mut counts = vec![smoothing; width * height * NUM_CHANNELS];
        for map in maps {
            for y in 0..height {
                for x in 0..width {
                    let class = map.class_at(x, y);
                    if !class.is_evaluated() {
                        continue;
                    }
                    counts[(y * width + x) * NUM_CHANNELS + class.id() as usize] += 1.0;
                }
            }
        }
        // Normalise per pixel.
        for pixel in 0..width * height {
            let slice = &mut counts[pixel * NUM_CHANNELS..(pixel + 1) * NUM_CHANNELS];
            let sum: f64 = slice.iter().sum();
            if sum > 0.0 {
                for v in slice.iter_mut() {
                    *v /= sum;
                }
            } else {
                for v in slice.iter_mut() {
                    *v = 1.0 / NUM_CHANNELS as f64;
                }
            }
        }

        Self {
            width,
            height,
            data: counts,
        }
    }

    /// Shape as `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of classes with a prior channel.
    pub fn num_classes(&self) -> usize {
        NUM_CHANNELS
    }

    /// The prior distribution at pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the map.
    pub fn distribution(&self, x: usize, y: usize) -> &[f64] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let off = (y * self.width + x) * NUM_CHANNELS;
        &self.data[off..off + NUM_CHANNELS]
    }

    /// The prior probability of `class` at pixel `(x, y)` (0 for void).
    fn prior_at(&self, x: usize, y: usize, class: SemanticClass) -> f64 {
        let channel = class.id() as usize;
        if channel >= NUM_CHANNELS {
            return 0.0;
        }
        self.distribution(x, y)[channel]
    }

    /// The heat map of one class's prior over the image (the paper's Fig. 4
    /// shows this for the class `person`).
    pub fn class_heatmap(&self, class: SemanticClass) -> Grid<f64> {
        Grid::from_fn(self.width, self.height, |x, y| self.prior_at(x, y, class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::SemanticClass;
    use proptest::prelude::*;

    fn band_map(human_row: usize) -> LabelMap {
        LabelMap::from_fn(8, 8, |_, y| {
            if y == human_row {
                SemanticClass::Human
            } else if y < 3 {
                SemanticClass::Sky
            } else {
                SemanticClass::Road
            }
        })
    }

    #[test]
    fn estimation_reflects_position_structure() {
        let maps: Vec<LabelMap> = (0..10).map(|_| band_map(5)).collect();
        let prior = PriorMap::estimate(&maps, 0.1);
        // Row 5 is always human, so its prior there dominates (10 counts vs
        // 0.1 * 19 smoothing mass ≈ 0.84).
        assert!(prior.prior_at(0, 5, SemanticClass::Human) > 0.8);
        // Row 0 is always sky.
        assert!(prior.prior_at(0, 0, SemanticClass::Sky) > 0.8);
        // Even unseen classes are strictly positive (Laplace smoothing).
        assert!(prior.prior_at(0, 0, SemanticClass::Car) > 0.0);
        // Distributions sum to one.
        let sum: f64 = prior.distribution(3, 3).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heatmap_extracts_single_class() {
        let maps: Vec<LabelMap> = vec![band_map(4), band_map(4), band_map(6)];
        let prior = PriorMap::estimate(&maps, 0.5);
        let heat = prior.class_heatmap(SemanticClass::Human);
        assert_eq!(heat.shape(), (8, 8));
        assert!(*heat.get(0, 4) > *heat.get(0, 0));
        assert!(*heat.get(0, 4) > *heat.get(0, 6));
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = PriorMap::estimate(&[], 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let a = band_map(3);
        let b = LabelMap::filled(4, 4, SemanticClass::Road);
        let _ = PriorMap::estimate(&[a, b], 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Priors are valid distributions at every pixel regardless of the input.
        #[test]
        fn prop_priors_are_distributions(seed in 0u64..200, smoothing in 0.0f64..2.0) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let maps: Vec<LabelMap> = (0..3)
                .map(|_| LabelMap::from_fn(6, 5, |_, _| SemanticClass::ALL[rng.gen_range(0..20)]))
                .collect();
            let prior = PriorMap::estimate(&maps, smoothing + 1e-3);
            for y in 0..5 {
                for x in 0..6 {
                    let dist = prior.distribution(x, y);
                    let sum: f64 = dist.iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-9);
                    prop_assert!(dist.iter().all(|p| *p > 0.0));
                }
            }
        }
    }
}
