//! Procedural street-scene ground-truth generator.
//!
//! A [`Scene`] is a parametric description of one street view: a background
//! layout (sky, buildings, vegetation, sidewalk, road) plus a list of
//! foreground [`SceneObject`]s (cars, humans, riders, poles, traffic signs).
//! Rendering at a given time produces a dense [`LabelMap`]; objects carry a
//! velocity so that rendering at increasing times yields a coherent video
//! sequence (used by [`crate::VideoScenario`]).

use metaseg_data::{LabelMap, SemanticClass};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Geometric primitive used for foreground objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShapeKind {
    /// Axis-aligned rectangle (buildings, cars, poles, signs).
    Rectangle,
    /// Axis-aligned ellipse (humans, vegetation blobs).
    Ellipse,
}

/// One foreground object of a scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Semantic class of the object.
    pub class: SemanticClass,
    /// Shape primitive used when rasterising the object.
    pub shape: ShapeKind,
    /// Centre position in pixels at time 0 (may lie outside the image).
    pub center: (f64, f64),
    /// Half-extent in pixels along x and y.
    pub half_size: (f64, f64),
    /// Velocity in pixels per frame (used by video rendering).
    pub velocity: (f64, f64),
}

impl SceneObject {
    /// Centre position at the given time.
    fn center_at(&self, time: f64) -> (f64, f64) {
        (
            self.center.0 + self.velocity.0 * time,
            self.center.1 + self.velocity.1 * time,
        )
    }

    /// Whether the pixel `(x, y)` is covered by the object at `time`.
    pub fn covers(&self, x: usize, y: usize, time: f64) -> bool {
        let (cx, cy) = self.center_at(time);
        let dx = x as f64 + 0.5 - cx;
        let dy = y as f64 + 0.5 - cy;
        match self.shape {
            ShapeKind::Rectangle => dx.abs() <= self.half_size.0 && dy.abs() <= self.half_size.1,
            ShapeKind::Ellipse => {
                let nx = dx / self.half_size.0.max(1e-9);
                let ny = dy / self.half_size.1.max(1e-9);
                nx * nx + ny * ny <= 1.0
            }
        }
    }

    /// Approximate pixel area of the object.
    pub fn area(&self) -> f64 {
        match self.shape {
            ShapeKind::Rectangle => 4.0 * self.half_size.0 * self.half_size.1,
            ShapeKind::Ellipse => std::f64::consts::PI * self.half_size.0 * self.half_size.1,
        }
    }
}

/// Parameters of the procedural scene generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of cars drawn on the road, `[min, max]` inclusive.
    pub car_count: (usize, usize),
    /// Number of humans drawn on the sidewalk band, `[min, max]` inclusive.
    pub human_count: (usize, usize),
    /// Number of riders/bicycles, `[min, max]` inclusive.
    pub rider_count: (usize, usize),
    /// Number of pole + traffic-sign pairs, `[min, max]` inclusive.
    pub pole_count: (usize, usize),
    /// Number of vegetation blobs in the building band, `[min, max]` inclusive.
    pub vegetation_count: (usize, usize),
    /// Fraction of the image height occupied by sky at the top.
    pub sky_fraction: f64,
    /// Fraction of the image height occupied by the road at the bottom.
    pub road_fraction: f64,
    /// Fraction of the image height occupied by the sidewalk band above the road.
    pub sidewalk_fraction: f64,
    /// Probability that an unlabelled (void) margin strip is added at the
    /// image border, mimicking Cityscapes' ego-vehicle/void regions.
    pub void_margin_probability: f64,
}

impl SceneConfig {
    /// Default configuration: a 192x96 scene, the workhorse of the benchmarks.
    pub fn cityscapes_like() -> Self {
        Self {
            width: 192,
            height: 96,
            car_count: (2, 6),
            human_count: (1, 5),
            rider_count: (0, 2),
            pole_count: (1, 4),
            vegetation_count: (1, 4),
            sky_fraction: 0.22,
            road_fraction: 0.38,
            sidewalk_fraction: 0.10,
            void_margin_probability: 0.3,
        }
    }

    /// A small 96x48 configuration for unit tests and doc examples.
    pub fn small() -> Self {
        Self {
            width: 96,
            height: 48,
            car_count: (1, 3),
            human_count: (1, 3),
            rider_count: (0, 1),
            pole_count: (1, 2),
            vegetation_count: (1, 2),
            ..Self::cityscapes_like()
        }
    }

    /// Validates the configuration, panicking with a clear message on misuse.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero, any count range is inverted, or the
    /// vertical band fractions exceed one in total.
    pub fn assert_valid(&self) {
        assert!(
            self.width > 0 && self.height > 0,
            "scene dimensions must be non-zero"
        );
        for (name, (lo, hi)) in [
            ("car_count", self.car_count),
            ("human_count", self.human_count),
            ("rider_count", self.rider_count),
            ("pole_count", self.pole_count),
            ("vegetation_count", self.vegetation_count),
        ] {
            assert!(lo <= hi, "{name} range is inverted: ({lo}, {hi})");
        }
        let total = self.sky_fraction + self.road_fraction + self.sidewalk_fraction;
        assert!(
            self.sky_fraction >= 0.0 && self.road_fraction >= 0.0 && self.sidewalk_fraction >= 0.0,
            "band fractions must be non-negative"
        );
        assert!(
            total < 1.0,
            "band fractions must leave room for the building band"
        );
        assert!(
            (0.0..=1.0).contains(&self.void_margin_probability),
            "void_margin_probability must be a probability"
        );
    }
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self::cityscapes_like()
    }
}

/// A generated street scene: background layout plus foreground objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    config: SceneConfig,
    /// Last sky row (exclusive).
    horizon_y: usize,
    /// First sidewalk row.
    sidewalk_y: usize,
    /// First road row.
    road_y: usize,
    /// Width of the void margin on the left/right border (0 = none).
    void_margin: usize,
    objects: Vec<SceneObject>,
    /// Static background decorations (vegetation, wall/fence strips).
    background_objects: Vec<SceneObject>,
}

impl Scene {
    /// Generates a random scene.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SceneConfig::assert_valid`]).
    pub fn generate<R: Rng>(config: &SceneConfig, rng: &mut R) -> Self {
        config.assert_valid();
        let width = config.width;
        let height = config.height;
        let horizon_y = ((height as f64 * config.sky_fraction) as usize).max(1);
        let road_y = height - ((height as f64 * config.road_fraction) as usize).max(1);
        let sidewalk_y = road_y - ((height as f64 * config.sidewalk_fraction) as usize).max(1);
        let void_margin = if rng.gen_bool(config.void_margin_probability) {
            rng.gen_range(1..=(width / 20).max(1))
        } else {
            0
        };

        let mut background_objects = Vec::new();
        let mut objects = Vec::new();

        // Vegetation blobs overlapping the building band.
        let vegetation_count = rng.gen_range(config.vegetation_count.0..=config.vegetation_count.1);
        for _ in 0..vegetation_count {
            let cx = rng.gen_range(0.0..width as f64);
            let cy = rng.gen_range(horizon_y as f64..sidewalk_y as f64);
            background_objects.push(SceneObject {
                class: SemanticClass::Vegetation,
                shape: ShapeKind::Ellipse,
                center: (cx, cy),
                half_size: (
                    rng.gen_range(width as f64 * 0.03..width as f64 * 0.10),
                    rng.gen_range(height as f64 * 0.05..height as f64 * 0.16),
                ),
                velocity: (0.0, 0.0),
            });
        }

        // Occasional wall or fence strip in the building band.
        if rng.gen_bool(0.5) {
            let class = if rng.gen_bool(0.5) {
                SemanticClass::Wall
            } else {
                SemanticClass::Fence
            };
            let cx = rng.gen_range(0.0..width as f64);
            background_objects.push(SceneObject {
                class,
                shape: ShapeKind::Rectangle,
                center: (cx, sidewalk_y as f64 - 2.0),
                half_size: (rng.gen_range(width as f64 * 0.05..width as f64 * 0.15), 2.0),
                velocity: (0.0, 0.0),
            });
        }

        // Poles with traffic signs or lights on top, standing on the sidewalk.
        let pole_count = rng.gen_range(config.pole_count.0..=config.pole_count.1);
        for _ in 0..pole_count {
            let cx = rng.gen_range(2.0..width as f64 - 2.0);
            let pole_height = rng.gen_range(height as f64 * 0.10..height as f64 * 0.25);
            let base_y = rng.gen_range(sidewalk_y as f64..road_y as f64);
            objects.push(SceneObject {
                class: SemanticClass::Pole,
                shape: ShapeKind::Rectangle,
                center: (cx, base_y - pole_height / 2.0),
                half_size: (1.0, pole_height / 2.0),
                velocity: (0.0, 0.0),
            });
            let sign_class = if rng.gen_bool(0.6) {
                SemanticClass::TrafficSign
            } else {
                SemanticClass::TrafficLight
            };
            objects.push(SceneObject {
                class: sign_class,
                shape: ShapeKind::Rectangle,
                center: (cx, base_y - pole_height),
                half_size: (rng.gen_range(1.5..3.5), rng.gen_range(1.5..3.0)),
                velocity: (0.0, 0.0),
            });
        }

        // Cars on the road, moving horizontally.
        let car_count = rng.gen_range(config.car_count.0..=config.car_count.1);
        for _ in 0..car_count {
            let cy = rng.gen_range(road_y as f64..height as f64 - 2.0);
            // Perspective: cars lower in the image (closer) are bigger.
            let depth = (cy - road_y as f64) / (height - road_y) as f64;
            let half_w = width as f64 * (0.03 + 0.07 * depth);
            let half_h = height as f64 * (0.03 + 0.06 * depth);
            let heavy = rng.gen_bool(0.1);
            let class = if heavy {
                if rng.gen_bool(0.5) {
                    SemanticClass::Truck
                } else {
                    SemanticClass::Bus
                }
            } else {
                SemanticClass::Car
            };
            objects.push(SceneObject {
                class,
                shape: ShapeKind::Rectangle,
                center: (rng.gen_range(0.0..width as f64), cy),
                half_size: (half_w * if heavy { 1.5 } else { 1.0 }, half_h),
                velocity: (rng.gen_range(-3.0..3.0), 0.0),
            });
        }

        // Humans on the sidewalk band: small ellipses (rare class).
        let human_count = rng.gen_range(config.human_count.0..=config.human_count.1);
        for _ in 0..human_count {
            let cy = rng.gen_range(sidewalk_y as f64..road_y as f64 + 2.0);
            let depth = (cy - sidewalk_y as f64) / (road_y + 2 - sidewalk_y) as f64;
            let half_h = height as f64 * (0.03 + 0.05 * depth);
            objects.push(SceneObject {
                class: SemanticClass::Human,
                shape: ShapeKind::Ellipse,
                center: (rng.gen_range(0.0..width as f64), cy - half_h * 0.5),
                half_size: (half_h * 0.35, half_h),
                velocity: (rng.gen_range(-1.0..1.0), 0.0),
            });
        }

        // Riders / bicycles close to the road edge.
        let rider_count = rng.gen_range(config.rider_count.0..=config.rider_count.1);
        for _ in 0..rider_count {
            let cy = rng.gen_range(road_y as f64..(road_y as f64 + (height - road_y) as f64 * 0.5));
            let class = if rng.gen_bool(0.5) {
                SemanticClass::Rider
            } else {
                SemanticClass::Bicycle
            };
            objects.push(SceneObject {
                class,
                shape: ShapeKind::Ellipse,
                center: (rng.gen_range(0.0..width as f64), cy),
                half_size: (rng.gen_range(1.5..4.0), rng.gen_range(3.0..6.0)),
                velocity: (rng.gen_range(-2.0..2.0), 0.0),
            });
        }

        // Painters algorithm: draw far (small y) objects first so that close
        // objects occlude them.
        objects.sort_by(|a, b| {
            a.center
                .1
                .partial_cmp(&b.center.1)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        Self {
            config: config.clone(),
            horizon_y,
            sidewalk_y,
            road_y,
            void_margin,
            objects,
            background_objects,
        }
    }

    /// The configuration the scene was generated from.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Renders the ground-truth label map at time 0.
    pub fn render(&self) -> LabelMap {
        self.render_at(0.0)
    }

    /// Renders the ground-truth label map at the given time (objects move
    /// according to their velocity; the camera pans right by one pixel per
    /// two frames of time to emulate ego-motion).
    pub fn render_at(&self, time: f64) -> LabelMap {
        let width = self.config.width;
        let height = self.config.height;
        let ego_shift = time * 0.5;

        LabelMap::from_fn(width, height, |x, y| {
            // Void margin at the image border (ignored in evaluation).
            if self.void_margin > 0 && (x < self.void_margin || x >= width - self.void_margin) {
                return SemanticClass::Void;
            }

            // Foreground objects first (last drawn wins, so scan from the
            // closest / last object backwards).
            let shifted_x = x as f64 + ego_shift;
            for object in self.objects.iter().rev() {
                if object.covers(shifted_x.round().max(0.0) as usize, y, time) {
                    return object.class;
                }
            }
            for object in self.background_objects.iter().rev() {
                if object.covers(shifted_x.round().max(0.0) as usize, y, time) {
                    return object.class;
                }
            }

            // Background bands.
            if y < self.horizon_y {
                SemanticClass::Sky
            } else if y < self.sidewalk_y {
                SemanticClass::Building
            } else if y < self.road_y {
                SemanticClass::Sidewalk
            } else {
                // A strip of terrain sometimes borders the road at the very bottom edge.
                SemanticClass::Road
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generated_scene_has_expected_bands() {
        let mut rng = StdRng::seed_from_u64(42);
        let config = SceneConfig::small();
        let scene = Scene::generate(&config, &mut rng);
        let map = scene.render();
        assert_eq!(map.shape(), (config.width, config.height));
        // Sky must dominate the top row, road the bottom row (modulo objects/void).
        let top_sky = (0..config.width)
            .filter(|&x| map.class_at(x, 0) == SemanticClass::Sky)
            .count();
        let bottom_road = (0..config.width)
            .filter(|&x| map.class_at(x, config.height - 1) == SemanticClass::Road)
            .count();
        assert!(top_sky > config.width / 2);
        assert!(bottom_road > config.width / 3);
    }

    #[test]
    fn class_imbalance_humans_are_rare() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = SceneConfig::cityscapes_like();
        let mut human_total = 0usize;
        let mut road_total = 0usize;
        for _ in 0..10 {
            let scene = Scene::generate(&config, &mut rng);
            let map = scene.render();
            human_total += map.class_pixel_count(SemanticClass::Human);
            road_total += map.class_pixel_count(SemanticClass::Road);
        }
        assert!(human_total > 0, "humans should appear in 10 scenes");
        assert!(
            human_total * 5 < road_total,
            "humans ({human_total}) must be much rarer than road ({road_total})"
        );
    }

    #[test]
    fn objects_move_between_frames() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = SceneConfig::small();
        let scene = Scene::generate(&config, &mut rng);
        let a = scene.render_at(0.0);
        let b = scene.render_at(6.0);
        // The maps must differ somewhere (ego-motion + object motion).
        let differing = (0..config.height)
            .flat_map(|y| (0..config.width).map(move |x| (x, y)))
            .filter(|&(x, y)| a.class_at(x, y) != b.class_at(x, y))
            .count();
        assert!(differing > 0);
        assert_eq!(a.shape(), b.shape());
    }

    #[test]
    fn object_cover_and_area() {
        let rect = SceneObject {
            class: SemanticClass::Car,
            shape: ShapeKind::Rectangle,
            center: (10.0, 10.0),
            half_size: (2.0, 1.0),
            velocity: (1.0, 0.0),
        };
        assert!(rect.covers(10, 10, 0.0));
        assert!(!rect.covers(14, 10, 0.0));
        // After 4 frames the rectangle has moved right by 4 pixels.
        assert!(rect.covers(14, 10, 4.0));
        assert!((rect.area() - 8.0).abs() < 1e-12);

        let ellipse = SceneObject {
            class: SemanticClass::Human,
            shape: ShapeKind::Ellipse,
            center: (5.0, 5.0),
            half_size: (1.0, 2.0),
            velocity: (0.0, 0.0),
        };
        assert!(ellipse.covers(5, 5, 0.0));
        assert!(!ellipse.covers(7, 5, 0.0));
        assert!((ellipse.area() - std::f64::consts::PI * 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let config = SceneConfig {
            car_count: (5, 2),
            ..SceneConfig::small()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Scene::generate(&config, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Every rendered map only contains catalogue classes and covers the
        /// full image; counts of generated objects respect the config ranges.
        #[test]
        fn prop_scene_generation_respects_config(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = SceneConfig::small();
            let scene = Scene::generate(&config, &mut rng);
            let count = |class| scene.objects.iter().filter(|o| o.class == class).count();
            let cars = count(SemanticClass::Car)
                + count(SemanticClass::Truck)
                + count(SemanticClass::Bus);
            prop_assert!(cars >= config.car_count.0 && cars <= config.car_count.1);
            let humans = count(SemanticClass::Human);
            prop_assert!(humans >= config.human_count.0 && humans <= config.human_count.1);
            let map = scene.render();
            prop_assert_eq!(map.pixel_count(), config.width * config.height);
        }
    }
}
