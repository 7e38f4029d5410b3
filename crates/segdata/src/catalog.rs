//! Semantic class catalogue.
//!
//! The reproduction works on a Cityscapes-like semantic space: 19 evaluation
//! classes plus a `Void` label for unlabelled pixels. The catalogue also
//! records an approximate pixel frequency for each class (used by the scene
//! generator to reproduce class imbalance) and a display colour (used by the
//! figure renderers).

use crate::error::DataError;
use metaseg_imgproc::Color;
use serde::{Deserialize, Serialize};

/// Semantic classes of the Cityscapes-like label space.
///
/// The numeric discriminants are the class ids stored in label maps and used
/// as channel indices of [`crate::ProbMap`]s. `Void` marks unlabelled pixels
/// and is excluded from evaluation, mirroring the white regions of Fig. 1 in
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u16)]
pub enum SemanticClass {
    /// Drivable road surface.
    Road = 0,
    /// Sidewalk / pavement.
    Sidewalk = 1,
    /// Building facades.
    Building = 2,
    /// Free-standing walls.
    Wall = 3,
    /// Fences.
    Fence = 4,
    /// Poles (lamp posts, sign posts).
    Pole = 5,
    /// Traffic lights.
    TrafficLight = 6,
    /// Traffic signs.
    TrafficSign = 7,
    /// Vegetation (trees, hedges).
    Vegetation = 8,
    /// Terrain (grass, soil).
    Terrain = 9,
    /// Sky.
    Sky = 10,
    /// Humans: pedestrians and riders (the paper's rare class of interest).
    Human = 11,
    /// Riders on two-wheelers (kept separate like Cityscapes' `rider`).
    Rider = 12,
    /// Cars.
    Car = 13,
    /// Trucks.
    Truck = 14,
    /// Buses.
    Bus = 15,
    /// Trains / trams.
    Train = 16,
    /// Motorcycles.
    Motorcycle = 17,
    /// Bicycles.
    Bicycle = 18,
    /// Unlabelled / ignore region (excluded from evaluation).
    Void = 19,
}

impl SemanticClass {
    /// All classes including [`SemanticClass::Void`], ordered by id.
    pub const ALL: [SemanticClass; 20] = [
        SemanticClass::Road,
        SemanticClass::Sidewalk,
        SemanticClass::Building,
        SemanticClass::Wall,
        SemanticClass::Fence,
        SemanticClass::Pole,
        SemanticClass::TrafficLight,
        SemanticClass::TrafficSign,
        SemanticClass::Vegetation,
        SemanticClass::Terrain,
        SemanticClass::Sky,
        SemanticClass::Human,
        SemanticClass::Rider,
        SemanticClass::Car,
        SemanticClass::Truck,
        SemanticClass::Bus,
        SemanticClass::Train,
        SemanticClass::Motorcycle,
        SemanticClass::Bicycle,
        SemanticClass::Void,
    ];

    /// Numeric class id (label-map value and softmax channel index).
    pub const fn id(self) -> u16 {
        self as u16
    }

    /// Converts a numeric id back to a class.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownClassId`] for ids `>= 20`.
    pub fn from_id(id: u16) -> Result<Self, DataError> {
        SemanticClass::ALL
            .get(id as usize)
            .copied()
            .ok_or(DataError::UnknownClassId(id))
    }

    /// Human readable lowercase name, matching Cityscapes naming.
    pub const fn name(self) -> &'static str {
        match self {
            SemanticClass::Road => "road",
            SemanticClass::Sidewalk => "sidewalk",
            SemanticClass::Building => "building",
            SemanticClass::Wall => "wall",
            SemanticClass::Fence => "fence",
            SemanticClass::Pole => "pole",
            SemanticClass::TrafficLight => "traffic light",
            SemanticClass::TrafficSign => "traffic sign",
            SemanticClass::Vegetation => "vegetation",
            SemanticClass::Terrain => "terrain",
            SemanticClass::Sky => "sky",
            SemanticClass::Human => "person",
            SemanticClass::Rider => "rider",
            SemanticClass::Car => "car",
            SemanticClass::Truck => "truck",
            SemanticClass::Bus => "bus",
            SemanticClass::Train => "train",
            SemanticClass::Motorcycle => "motorcycle",
            SemanticClass::Bicycle => "bicycle",
            SemanticClass::Void => "void",
        }
    }

    /// Whether the class takes part in evaluation (everything except void).
    pub const fn is_evaluated(self) -> bool {
        !matches!(self, SemanticClass::Void)
    }
}

impl std::fmt::Display for SemanticClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class metadata carried by the catalogue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassInfo {
    /// The class this entry describes.
    pub class: SemanticClass,
    /// Approximate fraction of annotated pixels belonging to the class in a
    /// typical street-scene dataset; the scene generator reproduces this
    /// imbalance, which is what Section IV of the paper exploits.
    pub typical_frequency: f64,
    /// Display colour used by the figure renderers (Cityscapes palette).
    pub color: Color,
    /// Whether instances of this class are small, rare objects whose missed
    /// detection is safety critical (humans, riders, two-wheelers).
    pub rare_critical: bool,
}

/// The semantic space: an ordered set of classes with metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassCatalog {
    classes: Vec<ClassInfo>,
}

impl ClassCatalog {
    /// Builds a catalogue from an explicit class list — the constructor for
    /// non-Cityscapes semantic spaces (a subset catalogue for a restricted
    /// deployment, a custom dataset, a test fixture).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, contains a duplicate class, or contains
    /// no evaluated (non-void) class.
    pub fn new(classes: Vec<ClassInfo>) -> Self {
        assert!(!classes.is_empty(), "a catalogue needs at least one class");
        for (i, info) in classes.iter().enumerate() {
            assert!(
                !classes[..i].iter().any(|c| c.class == info.class),
                "duplicate class {} in catalogue",
                info.class
            );
        }
        assert!(
            classes.iter().any(|c| c.class.is_evaluated()),
            "a catalogue needs at least one evaluated class"
        );
        Self { classes }
    }

    /// Number of softmax channels a probability map over this catalogue must
    /// carry: channel indices are class ids, so this is the largest
    /// evaluated class id plus one (void never has a channel). For the
    /// Cityscapes-like catalogue this is 19; a sparse custom catalogue may
    /// need more channels than it has classes.
    pub fn channel_count(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.class.is_evaluated())
            .map(|c| c.class.id() as usize + 1)
            .max()
            .expect("catalogues always contain an evaluated class")
    }

    /// The Cityscapes-like catalogue used throughout the reproduction.
    pub fn cityscapes_like() -> Self {
        use SemanticClass::*;
        let entry = |class: SemanticClass, freq: f64, color: (u8, u8, u8), rare: bool| ClassInfo {
            class,
            typical_frequency: freq,
            color: Color::new(color.0, color.1, color.2),
            rare_critical: rare,
        };
        // Frequencies roughly follow the Cityscapes pixel distribution
        // (road/building/vegetation dominate, humans are ~1.2%).
        let classes = vec![
            entry(Road, 0.326, (128, 64, 128), false),
            entry(Sidewalk, 0.054, (244, 35, 232), false),
            entry(Building, 0.202, (70, 70, 70), false),
            entry(Wall, 0.006, (102, 102, 156), false),
            entry(Fence, 0.008, (190, 153, 153), false),
            entry(Pole, 0.011, (153, 153, 153), false),
            entry(TrafficLight, 0.002, (250, 170, 30), false),
            entry(TrafficSign, 0.005, (220, 220, 0), false),
            entry(Vegetation, 0.141, (107, 142, 35), false),
            entry(Terrain, 0.010, (152, 251, 152), false),
            entry(Sky, 0.036, (70, 130, 180), false),
            entry(Human, 0.012, (220, 20, 60), true),
            entry(Rider, 0.002, (255, 0, 0), true),
            entry(Car, 0.062, (0, 0, 142), false),
            entry(Truck, 0.002, (0, 0, 70), false),
            entry(Bus, 0.002, (0, 60, 100), false),
            entry(Train, 0.002, (0, 80, 100), false),
            entry(Motorcycle, 0.001, (0, 0, 230), true),
            entry(Bicycle, 0.004, (119, 11, 32), true),
            entry(Void, 0.112, (0, 0, 0), false),
        ];
        Self { classes }
    }

    /// Whether the catalogue contains the given class.
    pub fn contains(&self, class: SemanticClass) -> bool {
        self.classes.iter().any(|c| c.class == class)
    }

    /// Metadata entry for a class.
    pub fn info(&self, class: SemanticClass) -> Option<&ClassInfo> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Display colour for a class (black for unknown classes).
    pub fn color(&self, class: SemanticClass) -> Color {
        self.info(class).map(|i| i.color).unwrap_or(Color::BLACK)
    }

    /// Iterator over the evaluated (non-void) classes in id order.
    pub fn evaluated_classes(&self) -> impl Iterator<Item = SemanticClass> + '_ {
        self.classes
            .iter()
            .map(|c| c.class)
            .filter(|c| c.is_evaluated())
    }

    /// Classes flagged as rare and safety critical (the false-negative focus).
    pub fn rare_critical_classes(&self) -> Vec<SemanticClass> {
        self.classes
            .iter()
            .filter(|c| c.rare_critical)
            .map(|c| c.class)
            .collect()
    }
}

impl Default for ClassCatalog {
    fn default() -> Self {
        Self::cityscapes_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_roundtrip() {
        for class in SemanticClass::ALL {
            assert_eq!(SemanticClass::from_id(class.id()).unwrap(), class);
        }
        assert!(SemanticClass::from_id(20).is_err());
        assert!(SemanticClass::from_id(999).is_err());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        for (i, class) in SemanticClass::ALL.iter().enumerate() {
            assert_eq!(class.id() as usize, i);
        }
    }

    #[test]
    fn catalog_has_twenty_classes_nineteen_evaluated() {
        let cat = ClassCatalog::cityscapes_like();
        assert!(SemanticClass::ALL.iter().all(|&class| cat.contains(class)));
        assert_eq!(cat.evaluated_classes().count(), 19);
        assert!(cat.contains(SemanticClass::Void));
        assert!(!SemanticClass::Void.is_evaluated());
    }

    #[test]
    fn custom_catalogs_derive_their_channel_count() {
        let entry = |class: SemanticClass, freq: f64| ClassInfo {
            class,
            typical_frequency: freq,
            color: Color::BLACK,
            rare_critical: false,
        };
        assert_eq!(ClassCatalog::cityscapes_like().channel_count(), 19);
        // A sparse catalogue needs channels up to its largest class id, not
        // just as many channels as it has classes.
        let sparse = ClassCatalog::new(vec![
            entry(SemanticClass::Road, 0.5),
            entry(SemanticClass::Sky, 0.3),
            entry(SemanticClass::Human, 0.2),
        ]);
        assert_eq!(
            sparse.channel_count(),
            SemanticClass::Human.id() as usize + 1
        );
        let contained = SemanticClass::ALL
            .iter()
            .filter(|&&class| sparse.contains(class));
        assert_eq!(contained.count(), 3);
        assert_eq!(sparse.evaluated_classes().count(), 3);
        // Void contributes no channel.
        let with_void = ClassCatalog::new(vec![
            entry(SemanticClass::Road, 0.5),
            entry(SemanticClass::Void, 0.5),
        ]);
        assert_eq!(with_void.channel_count(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_classes_are_rejected() {
        let entry = |class: SemanticClass| ClassInfo {
            class,
            typical_frequency: 0.5,
            color: Color::BLACK,
            rare_critical: false,
        };
        let _ = ClassCatalog::new(vec![entry(SemanticClass::Road), entry(SemanticClass::Road)]);
    }

    #[test]
    fn frequencies_are_a_rough_distribution() {
        let cat = ClassCatalog::cityscapes_like();
        let frequency = |c| cat.info(c).expect("every class has info").typical_frequency;
        let sum: f64 = SemanticClass::ALL.iter().map(|&c| frequency(c)).sum();
        assert!((sum - 1.0).abs() < 0.05, "frequencies sum to {sum}");
        // Humans are rare compared to road.
        assert!(frequency(SemanticClass::Human) < frequency(SemanticClass::Road) / 10.0);
    }

    #[test]
    fn rare_critical_includes_human() {
        let cat = ClassCatalog::cityscapes_like();
        let rare = cat.rare_critical_classes();
        assert!(rare.contains(&SemanticClass::Human));
        assert!(!rare.contains(&SemanticClass::Road));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SemanticClass::Human.to_string(), "person");
        assert_eq!(SemanticClass::TrafficSign.to_string(), "traffic sign");
    }

    #[test]
    fn colors_are_distinct_for_major_classes() {
        let cat = ClassCatalog::cityscapes_like();
        let road = cat.color(SemanticClass::Road);
        let sky = cat.color(SemanticClass::Sky);
        let human = cat.color(SemanticClass::Human);
        assert_ne!(road, sky);
        assert_ne!(road, human);
        assert_ne!(sky, human);
    }

    proptest! {
        #[test]
        fn prop_from_id_errors_above_range(id in 20u16..2000) {
            prop_assert!(SemanticClass::from_id(id).is_err());
        }

        #[test]
        fn prop_info_exists_for_all(idx in 0usize..20) {
            let cat = ClassCatalog::cityscapes_like();
            let class = SemanticClass::ALL[idx];
            prop_assert!(cat.info(class).is_some_and(|info| info.typical_frequency >= 0.0));
        }
    }
}
