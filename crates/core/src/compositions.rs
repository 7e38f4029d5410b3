//! Training-data compositions of the time-dynamic experiments (Section III).
//!
//! The paper trains the video meta models on five compositions of the sparse
//! real ground truth, SMOTE-augmented data and pseudo ground truth produced
//! by the stronger reference network: R, RA, RAP, RP and P.

use metaseg_learners::{smote_regression, SmoteConfig, TabularDataset};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A training-data composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Composition {
    /// Real ground truth only (`R`).
    Real,
    /// Real plus SMOTE-augmented samples (`RA`).
    RealAugmented,
    /// Real, augmented and pseudo ground truth (`RAP`).
    RealAugmentedPseudo,
    /// Real plus pseudo ground truth (`RP`).
    RealPseudo,
    /// Pseudo ground truth only (`P`).
    Pseudo,
}

impl Composition {
    /// All compositions in the order the paper tabulates them.
    pub const ALL: [Composition; 5] = [
        Composition::Real,
        Composition::RealAugmented,
        Composition::RealAugmentedPseudo,
        Composition::RealPseudo,
        Composition::Pseudo,
    ];

    /// The paper's shorthand (R, RA, RAP, RP, P).
    pub fn short_name(&self) -> &'static str {
        match self {
            Composition::Real => "R",
            Composition::RealAugmented => "RA",
            Composition::RealAugmentedPseudo => "RAP",
            Composition::RealPseudo => "RP",
            Composition::Pseudo => "P",
        }
    }

    /// Whether the composition includes the real ground-truth samples.
    fn uses_real(&self) -> bool {
        !matches!(self, Composition::Pseudo)
    }

    /// Whether the composition includes SMOTE-augmented samples.
    fn uses_augmented(&self) -> bool {
        matches!(
            self,
            Composition::RealAugmented | Composition::RealAugmentedPseudo
        )
    }

    /// Whether the composition includes pseudo-ground-truth samples.
    fn uses_pseudo(&self) -> bool {
        matches!(
            self,
            Composition::RealAugmentedPseudo | Composition::RealPseudo | Composition::Pseudo
        )
    }

    /// Assembles the training dataset of this composition from the real
    /// training samples and the pseudo-labelled samples. Augmentation is
    /// generated on the fly from the real samples with SmoteR.
    ///
    /// Returns an empty dataset when the composition needs real data but none
    /// is available.
    pub fn assemble<R: Rng>(
        &self,
        real: &TabularDataset,
        pseudo: &TabularDataset,
        smote: SmoteConfig,
        rng: &mut R,
    ) -> TabularDataset {
        let mut out = TabularDataset::new();
        if self.uses_real() {
            out.extend_from(real);
        }
        if self.uses_augmented() && real.len() >= 2 {
            if let Ok(synthetic) = smote_regression(real, smote, rng) {
                out.extend_from(&synthetic);
            }
        }
        if self.uses_pseudo() {
            out.extend_from(pseudo);
        }
        out
    }
}

impl std::fmt::Display for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn dataset(value: f64, n: usize) -> TabularDataset {
        let features = (0..n).map(|i| vec![i as f64, value]).collect();
        let targets = (0..n).map(|i| (i % 4) as f64 / 4.0).collect();
        TabularDataset::from_parts(features, targets).unwrap()
    }

    #[test]
    fn short_names_and_flags() {
        assert_eq!(Composition::Real.short_name(), "R");
        assert_eq!(Composition::RealAugmentedPseudo.to_string(), "RAP");
        assert!(Composition::Real.uses_real());
        assert!(!Composition::Real.uses_pseudo());
        assert!(Composition::Pseudo.uses_pseudo());
        assert!(!Composition::Pseudo.uses_real());
        assert!(Composition::RealAugmented.uses_augmented());
        assert!(!Composition::RealPseudo.uses_augmented());
        assert_eq!(Composition::ALL.len(), 5);
    }

    #[test]
    fn assembly_sizes_are_ordered() {
        let real = dataset(0.0, 20);
        let pseudo = dataset(1.0, 30);
        let mut rng = StdRng::seed_from_u64(1);
        let smote = SmoteConfig::default();

        let r = Composition::Real.assemble(&real, &pseudo, smote, &mut rng);
        let ra = Composition::RealAugmented.assemble(&real, &pseudo, smote, &mut rng);
        let rap = Composition::RealAugmentedPseudo.assemble(&real, &pseudo, smote, &mut rng);
        let rp = Composition::RealPseudo.assemble(&real, &pseudo, smote, &mut rng);
        let p = Composition::Pseudo.assemble(&real, &pseudo, smote, &mut rng);

        assert_eq!(r.len(), 20);
        assert!(ra.len() > r.len());
        assert_eq!(rp.len(), 50);
        assert_eq!(p.len(), 30);
        assert!(rap.len() > rp.len());
    }

    #[test]
    fn pseudo_only_ignores_real() {
        let real = dataset(0.0, 5);
        let pseudo = dataset(1.0, 7);
        let mut rng = StdRng::seed_from_u64(2);
        let p = Composition::Pseudo.assemble(&real, &pseudo, SmoteConfig::default(), &mut rng);
        assert_eq!(p.len(), 7);
        // All features carry the pseudo marker value 1.0 in the second column.
        assert!(p.features.iter().all(|r| (r[1] - 1.0).abs() < 1e-12));
    }
}
