//! Stochastic segmentation-network simulator.
//!
//! [`NetworkSim`] maps a ground-truth [`LabelMap`] to a softmax field
//! [`ProbMap`] with the error structure MetaSeg exploits:
//!
//! * interiors of correctly predicted segments are confident (low entropy),
//! * pixels near segment boundaries are uncertain,
//! * hallucinated segments (false positives) are predicted with low
//!   confidence, so their aggregated dispersion metrics are high,
//! * small rare-class segments are sometimes overlooked entirely (false
//!   negatives); at their location the true class keeps an elevated
//!   second-place probability, which is what the Maximum-Likelihood decision
//!   rule of Section IV can recover,
//! * isolated pixel noise produces tiny spurious segments.
//!
//! Two [`NetworkProfile`]s mirror the paper's backbones: `strong()`
//! (Xception65-like: confident, few errors) and `weak()` (MobilenetV2-like:
//! less confident, more hallucinations and misses).

use metaseg_data::{ClassCatalog, LabelMap, ProbMap, SemanticClass};
use metaseg_imgproc::Connectivity;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Error/confidence profile of a simulated segmentation network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// Human readable name used in experiment reports.
    pub name: String,
    /// Softmax confidence of the predicted class deep inside correct segments.
    pub interior_confidence: f64,
    /// Softmax confidence of the predicted class near segment boundaries.
    pub boundary_confidence: f64,
    /// Width (in pixels, Chebyshev) of the uncertain boundary band.
    pub boundary_width: usize,
    /// Uniform jitter applied to every confidence value.
    pub confidence_jitter: f64,
    /// Probability of dropping (overlooking) a small rare-class ground-truth
    /// segment entirely — the false-negative mechanism.
    pub miss_probability: f64,
    /// Segments with at most this many pixels are candidates for being missed.
    pub miss_area_threshold: usize,
    /// Expected number of hallucinated segments per image — the false-positive
    /// mechanism.
    pub hallucinations_per_image: f64,
    /// Softmax confidence inside hallucinated segments (kept low so their
    /// dispersion metrics are high).
    pub hallucination_confidence: f64,
    /// Per-pixel probability of an isolated label flip (tiny spurious segments).
    pub pixel_noise: f64,
    /// Probability that a boundary pixel adopts the neighbouring class
    /// (rough, jagged predicted boundaries).
    pub boundary_flip: f64,
    /// Residual probability mass kept on the true class when a pixel is
    /// mispredicted (drives the ML rule's ability to recover misses).
    pub true_class_residual: f64,
    /// Probability that a walkable-surface pixel (road, sidewalk, terrain)
    /// receives a small spurious probability bump for the class `person`.
    /// Harmless under the Bayes rule, but the Maximum-Likelihood rule's
    /// inverse-prior weighting turns some of these pixels into false-positive
    /// person segments — the precision/recall trade-off of Section IV.
    pub rare_class_leak: f64,
}

impl NetworkProfile {
    /// Strong backbone, modelled after the paper's Xception65 DeepLabv3+.
    pub fn strong() -> Self {
        Self {
            name: "xception65-like".to_string(),
            interior_confidence: 0.94,
            boundary_confidence: 0.62,
            boundary_width: 1,
            confidence_jitter: 0.04,
            miss_probability: 0.18,
            miss_area_threshold: 60,
            hallucinations_per_image: 1.5,
            hallucination_confidence: 0.52,
            pixel_noise: 0.004,
            boundary_flip: 0.25,
            true_class_residual: 0.30,
            rare_class_leak: 0.08,
        }
    }

    /// Weak backbone, modelled after the paper's MobilenetV2 DeepLabv3+.
    pub fn weak() -> Self {
        Self {
            name: "mobilenetv2-like".to_string(),
            interior_confidence: 0.85,
            boundary_confidence: 0.55,
            boundary_width: 2,
            confidence_jitter: 0.07,
            miss_probability: 0.32,
            miss_area_threshold: 80,
            hallucinations_per_image: 3.5,
            hallucination_confidence: 0.48,
            pixel_noise: 0.012,
            boundary_flip: 0.35,
            true_class_residual: 0.26,
            rare_class_leak: 0.16,
        }
    }

    /// Validates the profile, panicking with a clear message on misuse.
    ///
    /// # Panics
    ///
    /// Panics if any probability/confidence lies outside `[0, 1]` or the
    /// confidences are not ordered `boundary <= interior`.
    pub fn assert_valid(&self) {
        for (name, v) in [
            ("interior_confidence", self.interior_confidence),
            ("boundary_confidence", self.boundary_confidence),
            ("miss_probability", self.miss_probability),
            ("hallucination_confidence", self.hallucination_confidence),
            ("pixel_noise", self.pixel_noise),
            ("boundary_flip", self.boundary_flip),
            ("true_class_residual", self.true_class_residual),
            ("rare_class_leak", self.rare_class_leak),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name} must be in [0, 1], got {v}"
            );
        }
        assert!(
            self.boundary_confidence <= self.interior_confidence,
            "boundary confidence must not exceed interior confidence"
        );
        assert!(self.confidence_jitter >= 0.0, "jitter must be non-negative");
        assert!(
            self.hallucinations_per_image >= 0.0,
            "hallucination rate must be non-negative"
        );
    }
}

/// A simulated segmentation network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSim {
    profile: NetworkProfile,
    catalog: ClassCatalog,
}

impl NetworkSim {
    /// Creates a simulator with the given profile over the Cityscapes-like
    /// catalogue.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`NetworkProfile::assert_valid`]).
    pub fn new(profile: NetworkProfile) -> Self {
        Self::with_catalog(profile, ClassCatalog::cityscapes_like())
    }

    /// Creates a simulator over a custom semantic space. The produced
    /// [`ProbMap`]s carry [`ClassCatalog::channel_count`] softmax channels —
    /// enough for every evaluated class id of the catalogue — and all error
    /// mechanisms (hallucinations, noise flips, rare-class leaks) only ever
    /// inject classes the catalogue knows.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or the catalogue spans fewer than
    /// two softmax channels (a one-class network has nothing to confuse).
    fn with_catalog(profile: NetworkProfile, catalog: ClassCatalog) -> Self {
        profile.assert_valid();
        assert!(
            catalog.channel_count() >= 2,
            "the network simulator needs at least two softmax channels, got {}",
            catalog.channel_count()
        );
        Self { profile, catalog }
    }

    /// The semantic space this simulator predicts over.
    pub fn catalog(&self) -> &ClassCatalog {
        &self.catalog
    }

    /// Number of softmax channels of every produced [`ProbMap`], derived
    /// from the catalogue (channel indices are class ids).
    pub fn channels(&self) -> usize {
        self.catalog.channel_count()
    }

    /// The class used to paper over void/unknown pixels: `Building` when the
    /// catalogue has it (the Cityscapes-like behaviour), otherwise the first
    /// evaluated class of the catalogue.
    fn fallback_class(&self) -> SemanticClass {
        if self.catalog.contains(SemanticClass::Building) {
            SemanticClass::Building
        } else {
            self.catalog
                .evaluated_classes()
                .next()
                .expect("catalogues always contain an evaluated class")
        }
    }

    /// Classes the given class is commonly confused with (used to spread the
    /// non-argmax probability mass plausibly).
    fn confusable(class: SemanticClass) -> [SemanticClass; 2] {
        use SemanticClass::*;
        match class {
            Road => [Sidewalk, Terrain],
            Sidewalk => [Road, Terrain],
            Building => [Wall, Fence],
            Wall => [Building, Fence],
            Fence => [Building, Wall],
            Pole => [Building, TrafficSign],
            TrafficLight => [TrafficSign, Pole],
            TrafficSign => [Pole, Building],
            Vegetation => [Terrain, Building],
            Terrain => [Vegetation, Sidewalk],
            Sky => [Building, Vegetation],
            Human => [Rider, Bicycle],
            Rider => [Human, Bicycle],
            Car => [Truck, Bus],
            Truck => [Car, Bus],
            Bus => [Truck, Car],
            Train => [Bus, Building],
            Motorcycle => [Bicycle, Rider],
            Bicycle => [Motorcycle, Rider],
            Void => [Building, Road],
        }
    }

    /// Produces the "intended" predicted label map: the ground truth with
    /// some small rare segments dropped (false negatives), hallucinated
    /// segments added (false positives) and void filled plausibly. Returns
    /// the intended map plus masks of missed and hallucinated pixels with
    /// the original / hallucinated class.
    fn corrupt_labels<R: Rng>(
        &self,
        ground_truth: &LabelMap,
        rng: &mut R,
    ) -> (
        LabelMap,
        Vec<(usize, usize, SemanticClass)>,
        Vec<(usize, usize)>,
    ) {
        let (width, height) = ground_truth.shape();
        let mut intended = ground_truth.clone();

        // Fill void pixels with a plausible surrounding class so the network
        // always predicts something (void has no softmax channel).
        for y in 0..height {
            for x in 0..width {
                if intended.class_at(x, y) == SemanticClass::Void {
                    let replacement = (1..width.max(height))
                        .find_map(|r| {
                            let candidates = [
                                (x.wrapping_sub(r), y),
                                (x + r, y),
                                (x, y.wrapping_sub(r)),
                                (x, y + r),
                            ];
                            candidates.into_iter().find_map(|(cx, cy)| {
                                if cx < width && cy < height {
                                    let c = ground_truth.class_at(cx, cy);
                                    if c != SemanticClass::Void {
                                        return Some(c);
                                    }
                                }
                                None
                            })
                        })
                        .unwrap_or_else(|| self.fallback_class());
                    intended.set(x, y, replacement);
                }
            }
        }

        // Drop small rare segments (false negatives).
        let mut missed: Vec<(usize, usize, SemanticClass)> = Vec::new();
        let segments = ground_truth.segments(Connectivity::Eight);
        for region in segments.regions() {
            let class = SemanticClass::from_id(region.class_id).expect("valid class id");
            if class == SemanticClass::Void || !class.is_evaluated() {
                continue;
            }
            let is_rare = self
                .catalog
                .info(class)
                .map(|i| i.rare_critical)
                .unwrap_or(false);
            let small = region.area() <= self.profile.miss_area_threshold;
            if !(small && (is_rare || region.area() <= self.profile.miss_area_threshold / 2)) {
                continue;
            }
            if !rng.gen_bool(self.profile.miss_probability) {
                continue;
            }
            // Replace the segment by the most common class around its bounding box.
            let (x0, y0, x1, y1) = region.bbox;
            let mut counts = [0usize; 20];
            for y in y0.saturating_sub(1)..=(y1 + 1).min(height - 1) {
                for x in x0.saturating_sub(1)..=(x1 + 1).min(width - 1) {
                    let c = ground_truth.class_at(x, y);
                    if c != class && c != SemanticClass::Void {
                        counts[c.id() as usize] += 1;
                    }
                }
            }
            // Fall back when the segment has no usable surroundings (all
            // neighbours share its class or are void) — the catalogue
            // fallback, never a class the semantic space does not know.
            let fill = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .filter(|(_, &c)| c > 0)
                .map(|(i, _)| SemanticClass::from_id(i as u16).expect("valid id"))
                .unwrap_or_else(|| self.fallback_class());
            for (x, y) in segments.pixels_of(region.id) {
                intended.set(x, y, fill);
                missed.push((x, y, class));
            }
        }

        // Hallucinate segments (false positives): small blobs of foreground
        // classes dropped at random positions.
        let mut hallucinated: Vec<(usize, usize)> = Vec::new();
        let mut remaining = self.profile.hallucinations_per_image;
        // Hallucinations must come from the catalogue's semantic space; the
        // preferred foreground classes are used where available (for the
        // Cityscapes-like catalogue this is the full list, preserving its
        // behaviour exactly).
        let mut candidate_classes: Vec<SemanticClass> = [
            SemanticClass::Human,
            SemanticClass::Car,
            SemanticClass::Pole,
            SemanticClass::TrafficSign,
            SemanticClass::Rider,
            SemanticClass::Bicycle,
        ]
        .into_iter()
        .filter(|&c| self.catalog.contains(c))
        .collect();
        if candidate_classes.is_empty() {
            candidate_classes.push(self.fallback_class());
        }
        while remaining > 0.0 {
            let spawn = if remaining >= 1.0 {
                true
            } else {
                rng.gen_bool(remaining)
            };
            remaining -= 1.0;
            if !spawn {
                continue;
            }
            let class = candidate_classes[rng.gen_range(0..candidate_classes.len())];
            let cx = rng.gen_range(0..width);
            let cy = rng.gen_range(0..height);
            let rx = rng.gen_range(1..=4usize);
            let ry = rng.gen_range(1..=5usize);
            for y in cy.saturating_sub(ry)..=(cy + ry).min(height - 1) {
                for x in cx.saturating_sub(rx)..=(cx + rx).min(width - 1) {
                    let dx = (x as f64 - cx as f64) / rx as f64;
                    let dy = (y as f64 - cy as f64) / ry as f64;
                    if dx * dx + dy * dy <= 1.0 {
                        intended.set(x, y, class);
                        hallucinated.push((x, y));
                    }
                }
            }
        }

        // Rough boundaries: boundary pixels sometimes adopt a neighbour's class.
        let snapshot = intended.clone();
        for y in 0..height {
            for x in 0..width {
                let here = snapshot.class_at(x, y);
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                let different: Vec<SemanticClass> = neighbors
                    .iter()
                    .filter(|&&(nx, ny)| nx < width && ny < height)
                    .map(|&(nx, ny)| snapshot.class_at(nx, ny))
                    .filter(|&c| c != here)
                    .collect();
                if !different.is_empty() && rng.gen_bool(self.profile.boundary_flip) {
                    let pick = different[rng.gen_range(0..different.len())];
                    intended.set(x, y, pick);
                }
            }
        }

        (intended, missed, hallucinated)
    }

    /// Runs the simulated network on a ground-truth map, producing the
    /// softmax field the meta tasks consume.
    pub fn predict<R: Rng>(&self, ground_truth: &LabelMap, rng: &mut R) -> ProbMap {
        let (width, height) = ground_truth.shape();
        let channels = self.catalog.channel_count();
        let (intended, missed, hallucinated) = self.corrupt_labels(ground_truth, rng);

        // Sparse lookups for the special pixel sets.
        let mut missed_class = vec![None::<SemanticClass>; width * height];
        for (x, y, class) in missed {
            missed_class[y * width + x] = Some(class);
        }
        let mut is_hallucinated = vec![false; width * height];
        for (x, y) in hallucinated {
            is_hallucinated[y * width + x] = true;
        }

        let mut probs = ProbMap::uniform(width, height, channels);
        let bw = self.profile.boundary_width as isize;

        for y in 0..height {
            for x in 0..width {
                let idx = y * width + x;
                let mut predicted = intended.class_at(x, y);
                if predicted == SemanticClass::Void {
                    predicted = self.fallback_class();
                }
                let true_class = ground_truth.class_at(x, y);

                // Pixel-level label noise: isolated spurious predictions,
                // restricted to classes the catalogue knows (for the
                // Cityscapes-like catalogue every confusable qualifies).
                let mut noisy = false;
                if rng.gen_bool(self.profile.pixel_noise) {
                    let alternatives: Vec<SemanticClass> = Self::confusable(predicted)
                        .into_iter()
                        .filter(|&c| self.catalog.contains(c))
                        .collect();
                    if !alternatives.is_empty() {
                        predicted = alternatives[rng.gen_range(0..alternatives.len())];
                        noisy = true;
                    }
                }

                // Distance-to-boundary test (Chebyshev radius `boundary_width`).
                let mut near_boundary = false;
                'scan: for dy in -bw..=bw {
                    for dx in -bw..=bw {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = x as isize + dx;
                        let ny = y as isize + dy;
                        if nx < 0 || ny < 0 || nx as usize >= width || ny as usize >= height {
                            continue;
                        }
                        if intended.class_at(nx as usize, ny as usize) != intended.class_at(x, y) {
                            near_boundary = true;
                            break 'scan;
                        }
                    }
                }

                // Base confidence of the predicted class.
                let mut confidence = if is_hallucinated[idx] || noisy {
                    self.profile.hallucination_confidence
                } else if near_boundary {
                    self.profile.boundary_confidence
                } else {
                    self.profile.interior_confidence
                };
                confidence +=
                    rng.gen_range(-self.profile.confidence_jitter..=self.profile.confidence_jitter);
                let floor = 1.2 / channels as f64;
                confidence = confidence.clamp(floor.min(0.99), 0.99);

                // Distribute the remaining mass: an elevated share for the true
                // class when the prediction is wrong (or the pixel belongs to a
                // missed rare segment), the rest over confusable classes plus a
                // uniform epsilon. Channel writes are guarded against class
                // ids the catalogue's channel range does not cover (out-of-
                // range mass falls into the epsilon pool and the exact
                // normalisation below); with the Cityscapes-like catalogue
                // every guard passes and the maths is unchanged.
                let mut dist = vec![0.0f64; channels];
                let predicted_channel = predicted.id() as usize;
                debug_assert!(
                    predicted_channel < channels,
                    "predicted class {predicted} has no softmax channel (catalogue spans {channels})"
                );
                let remaining = 1.0 - confidence;

                let runner_up: Option<SemanticClass> = if let Some(original) = missed_class[idx] {
                    Some(original)
                } else if true_class != predicted
                    && true_class.is_evaluated()
                    && true_class != SemanticClass::Void
                {
                    Some(true_class)
                } else {
                    None
                };

                let mut used = 0.0;
                if let Some(runner) = runner_up {
                    if (runner.id() as usize) < channels {
                        let share = remaining * self.profile.true_class_residual.max(0.4);
                        dist[runner.id() as usize] += share;
                        used += share;
                    }
                }
                let confusable = Self::confusable(predicted);
                let confusable_share = (remaining - used) * 0.6;
                for (i, c) in confusable.iter().enumerate() {
                    let weight = if i == 0 { 0.65 } else { 0.35 };
                    if (c.id() as usize) < channels {
                        dist[c.id() as usize] += confusable_share * weight;
                    }
                }
                used += confusable_share;
                // Uniform epsilon over everything else.
                let epsilon_total = (remaining - used).max(0.0);
                let epsilon = epsilon_total / channels as f64;
                for value in dist.iter_mut() {
                    *value += epsilon;
                }
                if predicted_channel < channels {
                    dist[predicted_channel] += confidence;
                }

                // Rare-class leak: walkable surfaces occasionally carry a small
                // person probability. The Bayes decision is unaffected, but the
                // ML rule may flip such pixels, producing the false positives
                // that trade against its higher recall (Section IV). Only
                // meaningful when the catalogue knows `person` at all.
                if self.catalog.contains(SemanticClass::Human)
                    && (SemanticClass::Human.id() as usize) < channels
                    && matches!(
                        true_class,
                        SemanticClass::Road | SemanticClass::Sidewalk | SemanticClass::Terrain
                    )
                    && missed_class[idx].is_none()
                    && rng.gen_bool(self.profile.rare_class_leak)
                {
                    let leak = confidence * rng.gen_range(0.05..0.15);
                    dist[SemanticClass::Human.id() as usize] += leak;
                }

                // Normalise exactly (guards against accumulated rounding).
                let sum: f64 = dist.iter().sum();
                for value in dist.iter_mut() {
                    *value /= sum;
                }
                probs.set_distribution_unchecked(x, y, &dist);
            }
        }

        probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Scene, SceneConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn make_ground_truth(seed: u64) -> LabelMap {
        let mut rng = StdRng::seed_from_u64(seed);
        Scene::generate(&SceneConfig::small(), &mut rng).render()
    }

    #[test]
    fn profiles_are_valid() {
        NetworkProfile::strong().assert_valid();
        NetworkProfile::weak().assert_valid();
    }

    #[test]
    #[should_panic]
    fn invalid_profile_panics() {
        let profile = NetworkProfile {
            interior_confidence: 1.5,
            ..NetworkProfile::strong()
        };
        let _ = NetworkSim::new(profile);
    }

    #[test]
    fn channel_count_follows_a_custom_catalog() {
        use metaseg_data::{ClassCatalog, ClassInfo};
        use metaseg_imgproc::Color;
        // Regression: the channel count used to be hardcoded to 19, so a
        // non-Cityscapes catalogue produced ProbMaps whose channel count
        // disagreed with the catalogue's class ids.
        let entry = |class: SemanticClass, freq: f64| ClassInfo {
            class,
            typical_frequency: freq,
            color: Color::BLACK,
            rare_critical: class == SemanticClass::Human,
        };
        let catalog = ClassCatalog::new(vec![
            entry(SemanticClass::Road, 0.5),
            entry(SemanticClass::Sky, 0.3),
            entry(SemanticClass::Human, 0.2),
        ]);
        let channels = catalog.channel_count();
        assert_eq!(channels, SemanticClass::Human.id() as usize + 1);
        let sim = NetworkSim::with_catalog(NetworkProfile::weak(), catalog);
        assert_eq!(sim.channels(), channels);

        // Ground truth drawn from the custom semantic space only.
        let mut gt = LabelMap::filled(40, 24, SemanticClass::Sky);
        for y in 12..24 {
            for x in 0..40 {
                gt.set(x, y, SemanticClass::Road);
            }
        }
        for y in 10..16 {
            for x in 18..22 {
                gt.set(x, y, SemanticClass::Human);
            }
        }
        let mut rng = StdRng::seed_from_u64(77);
        let probs = sim.predict(&gt, &mut rng);
        assert_eq!(probs.num_classes(), channels);
        assert_eq!(probs.shape(), gt.shape());
        assert!(probs.validate().is_ok());
        // Every argmax decision lands on a class the catalogue knows.
        let predicted = probs.argmax_map();
        for y in 0..24 {
            for x in 0..40 {
                let class = predicted.class_at(x, y);
                assert!(
                    sim.catalog().contains(class),
                    "predicted out-of-catalog class {class} at ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn default_catalog_behaviour_is_unchanged() {
        // `new` and `with_catalog(cityscapes_like)` are the same simulator:
        // identical RNG consumption, identical softmax fields, 19 channels.
        let gt = make_ground_truth(21);
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        let a = NetworkSim::new(NetworkProfile::weak()).predict(&gt, &mut rng_a);
        let b = NetworkSim::with_catalog(NetworkProfile::weak(), ClassCatalog::cityscapes_like())
            .predict(&gt, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(a.num_classes(), 19);
    }

    #[test]
    fn prediction_is_a_valid_softmax_field() {
        let gt = make_ground_truth(11);
        let mut rng = StdRng::seed_from_u64(5);
        let sim = NetworkSim::new(NetworkProfile::strong());
        let probs = sim.predict(&gt, &mut rng);
        assert_eq!(probs.shape(), gt.shape());
        assert!(probs.validate().is_ok());
    }

    #[test]
    fn strong_network_is_mostly_correct() {
        let gt = make_ground_truth(3);
        let mut rng = StdRng::seed_from_u64(9);
        let sim = NetworkSim::new(NetworkProfile::strong());
        let probs = sim.predict(&gt, &mut rng);
        let predicted = probs.argmax_map();
        let accuracy = gt.pixel_accuracy(&predicted).unwrap();
        assert!(accuracy > 0.75, "strong network accuracy was {accuracy}");
    }

    #[test]
    fn weak_network_is_less_accurate_than_strong() {
        let sim_strong = NetworkSim::new(NetworkProfile::strong());
        let sim_weak = NetworkSim::new(NetworkProfile::weak());
        let mut strong_total = 0.0;
        let mut weak_total = 0.0;
        for seed in 0..5u64 {
            let gt = make_ground_truth(seed);
            let mut rng_a = StdRng::seed_from_u64(seed + 100);
            let mut rng_b = StdRng::seed_from_u64(seed + 100);
            strong_total += gt
                .pixel_accuracy(&sim_strong.predict(&gt, &mut rng_a).argmax_map())
                .unwrap();
            weak_total += gt
                .pixel_accuracy(&sim_weak.predict(&gt, &mut rng_b).argmax_map())
                .unwrap();
        }
        assert!(
            strong_total > weak_total,
            "strong {strong_total} should beat weak {weak_total}"
        );
    }

    #[test]
    fn interior_pixels_are_more_confident_than_boundary_pixels() {
        let gt = make_ground_truth(17);
        let mut rng = StdRng::seed_from_u64(2);
        let sim = NetworkSim::new(NetworkProfile::strong());
        let probs = sim.predict(&gt, &mut rng);
        let entropy = probs.entropy_map();
        // Compare mean entropy on sky interior (top rows, away from horizon)
        // against the overall mean: interiors must be cleaner.
        let mut interior = Vec::new();
        for y in 0..3 {
            for x in 10..gt.width() - 10 {
                interior.push(*entropy.get(x, y));
            }
        }
        let interior_mean: f64 = interior.iter().sum::<f64>() / interior.len() as f64;
        assert!(
            interior_mean < entropy.mean(),
            "interior entropy {interior_mean} should be below global mean {}",
            entropy.mean()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_prediction_always_valid(seed in 0u64..300) {
            let gt = make_ground_truth(seed);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
            let sim = NetworkSim::new(NetworkProfile::weak());
            let probs = sim.predict(&gt, &mut rng);
            prop_assert!(probs.validate().is_ok());
            prop_assert_eq!(probs.shape(), gt.shape());
        }
    }
}
