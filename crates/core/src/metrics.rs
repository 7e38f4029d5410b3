//! Segment-wise metric construction — the paper's map `µ : K̂_x → R^m`.
//!
//! For every connected component (segment) of the predicted segmentation the
//! module aggregates per-pixel dispersion heat maps (entropy, probability
//! margin, variation ratio) over the whole segment, its inner boundary and
//! its interior, and adds geometry metrics (size, boundary length,
//! fractality) plus the mean softmax probability of every class. When ground
//! truth is available, each segment also receives its IoU target (eq. (2) of
//! the paper) and thereby its meta-classification label `IoU = 0` vs
//! `IoU > 0`.

use metaseg_data::{LabelMap, ProbMap, SemanticClass};
use metaseg_imgproc::Connectivity;
use serde::{Deserialize, Serialize};

/// Number of evaluated classes (softmax channels).
pub(crate) const NUM_CHANNELS: usize = 19;

/// Number of scalar metrics before the per-class mean probabilities.
pub(crate) const BASE_METRIC_COUNT: usize = 15;

/// Total dimensionality of the full metric vector.
pub const METRIC_COUNT: usize = BASE_METRIC_COUNT + NUM_CHANNELS;

/// Configuration of the metric construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsConfig {
    /// Connectivity used when extracting predicted segments.
    pub connectivity: Connectivity,
    /// Segments smaller than this many pixels are skipped entirely (0 keeps all).
    pub min_segment_area: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            connectivity: Connectivity::Eight,
            min_segment_area: 1,
        }
    }
}

/// Which subset of the metric vector a meta model sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSet {
    /// The full metric vector (dispersion + geometry + class probabilities).
    All,
    /// Only the mean segment entropy — the paper's entropy baseline.
    EntropyOnly,
}

impl FeatureSet {
    /// Selects this feature subset from a full metric vector.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` does not have [`METRIC_COUNT`] entries.
    pub fn select(&self, metrics: &[f64]) -> Vec<f64> {
        assert_eq!(
            metrics.len(),
            METRIC_COUNT,
            "unexpected metric vector length"
        );
        match self {
            FeatureSet::All => metrics.to_vec(),
            FeatureSet::EntropyOnly => vec![metrics[0]],
        }
    }

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureSet::All => "all metrics",
            FeatureSet::EntropyOnly => "entropy only",
        }
    }
}

/// One predicted segment together with its metric vector and (if ground truth
/// is available) its IoU target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// Connected-component id of the segment inside its frame.
    pub region_id: usize,
    /// Predicted class of the segment.
    pub class: SemanticClass,
    /// Segment size in pixels.
    pub area: usize,
    /// Inner boundary length in pixels.
    pub boundary_length: usize,
    /// Centroid of the segment in pixel coordinates.
    pub centroid: (f64, f64),
    /// The full metric vector `µ(k)` (length [`METRIC_COUNT`]).
    pub metrics: Vec<f64>,
    /// IoU of the segment with the same-class ground truth (eq. (2)); `None`
    /// when no ground truth is available or the segment lies entirely in a
    /// void region.
    pub iou: Option<f64>,
}

/// Computes the metric vector and IoU target of every predicted segment.
///
/// `prediction` is the softmax field; segments are the connected components
/// of its Bayes (argmax) label map. `ground_truth` is optional — without it,
/// the records carry `iou = None` and can still be used for inference.
///
/// Delegates to the single-pass [`crate::pipeline::frame_metrics`]: the
/// dispersion heat maps are computed exactly once per frame and folded into
/// per-segment accumulators in one pass over the pixels (see the
/// [`crate::pipeline`] module docs for the design). Batch callers should
/// prefer [`crate::pipeline::FrameBatch`], which additionally parallelises
/// across frames.
pub fn segment_metrics(
    prediction: &ProbMap,
    ground_truth: Option<&LabelMap>,
    config: &MetricsConfig,
) -> Vec<SegmentRecord> {
    crate::pipeline::frame_metrics(prediction, ground_truth, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::{LabelMap, ProbMap};
    use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn simple_frame() -> (ProbMap, LabelMap) {
        // Ground truth: left half road, right half car.
        let gt = LabelMap::from_fn(10, 6, |x, _| {
            if x < 5 {
                SemanticClass::Road
            } else {
                SemanticClass::Car
            }
        });
        let probs = ProbMap::one_hot(&gt, 19);
        (probs, gt)
    }

    #[test]
    fn perfect_prediction_has_unit_iou_and_zero_entropy() {
        let (probs, gt) = simple_frame();
        let records = segment_metrics(&probs, Some(&gt), &MetricsConfig::default());
        assert_eq!(records.len(), 2);
        for record in &records {
            assert_eq!(record.iou, Some(1.0));
            // One-hot probabilities: zero entropy everywhere.
            assert!(record.metrics[0].abs() < 1e-9);
            assert_eq!(record.metrics[9] as usize, record.area);
        }
    }

    #[test]
    fn hallucinated_segment_has_zero_iou() {
        // Ground truth all road; prediction contains a spurious car block.
        let gt = LabelMap::filled(10, 6, SemanticClass::Road);
        let predicted = LabelMap::from_fn(10, 6, |x, y| {
            if x >= 6 && (2..5).contains(&y) {
                SemanticClass::Car
            } else {
                SemanticClass::Road
            }
        });
        let probs = ProbMap::one_hot(&predicted, 19);
        let records = segment_metrics(&probs, Some(&gt), &MetricsConfig::default());
        let car = records
            .iter()
            .find(|r| r.class == SemanticClass::Car)
            .expect("car segment exists");
        assert_eq!(car.iou, Some(0.0));
        let road = records
            .iter()
            .find(|r| r.class == SemanticClass::Road)
            .unwrap();
        assert!(road.iou.unwrap() > 0.5);
    }

    #[test]
    fn void_only_segments_are_excluded_from_targets() {
        let gt = LabelMap::from_fn(8, 4, |x, _| {
            if x < 4 {
                SemanticClass::Void
            } else {
                SemanticClass::Road
            }
        });
        let predicted = LabelMap::from_fn(8, 4, |x, _| {
            if x < 4 {
                SemanticClass::Car
            } else {
                SemanticClass::Road
            }
        });
        let probs = ProbMap::one_hot(&predicted, 19);
        let records = segment_metrics(&probs, Some(&gt), &MetricsConfig::default());
        let car = records
            .iter()
            .find(|r| r.class == SemanticClass::Car)
            .unwrap();
        assert_eq!(car.iou, None);
    }

    #[test]
    fn without_ground_truth_no_targets() {
        let (probs, _) = simple_frame();
        let records = segment_metrics(&probs, None, &MetricsConfig::default());
        assert!(records.iter().all(|r| r.iou.is_none()));
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn feature_sets_select_expected_dimensions() {
        let metrics: Vec<f64> = (0..METRIC_COUNT).map(|i| i as f64).collect();
        assert_eq!(FeatureSet::All.select(&metrics).len(), METRIC_COUNT);
        assert_eq!(FeatureSet::EntropyOnly.select(&metrics), vec![0.0]);
        assert_eq!(FeatureSet::All.name(), "all metrics");
    }

    #[test]
    fn dispersion_correlates_with_errors_on_simulated_scene() {
        // On a simulated scene, false-positive segments must on average have
        // higher mean entropy than well-matched ones — this is the core
        // correlation MetaSeg exploits.
        let mut rng = StdRng::seed_from_u64(12);
        let sim = NetworkSim::new(NetworkProfile::weak());
        let mut fp_entropy = Vec::new();
        let mut tp_entropy = Vec::new();
        for _ in 0..6 {
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let probs = sim.predict(&gt, &mut rng);
            for record in segment_metrics(&probs, Some(&gt), &MetricsConfig::default()) {
                match record.iou {
                    Some(iou) if iou > 0.0 => tp_entropy.push(record.metrics[0]),
                    Some(_) => fp_entropy.push(record.metrics[0]),
                    None => {}
                }
            }
        }
        assert!(
            !fp_entropy.is_empty(),
            "simulation should produce false positives"
        );
        assert!(!tp_entropy.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&fp_entropy) > mean(&tp_entropy),
            "false positives should be more uncertain: fp {} vs tp {}",
            mean(&fp_entropy),
            mean(&tp_entropy)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Metric vectors always have the documented length and IoU targets in [0, 1].
        #[test]
        fn prop_metric_vector_invariants(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scene = Scene::generate(&SceneConfig::small(), &mut rng);
            let gt = scene.render();
            let sim = NetworkSim::new(NetworkProfile::strong());
            let probs = sim.predict(&gt, &mut rng);
            let records = segment_metrics(&probs, Some(&gt), &MetricsConfig::default());
            prop_assert!(!records.is_empty());
            for record in &records {
                prop_assert_eq!(record.metrics.len(), METRIC_COUNT);
                if let Some(iou_value) = record.iou {
                    prop_assert!((0.0..=1.0).contains(&iou_value));
                }
                prop_assert!(record.area >= 1);
                prop_assert!(record.boundary_length >= 1);
                prop_assert!(record.boundary_length <= record.area);
            }
        }
    }
}
