//! Tabular datasets and feature standardisation.

use crate::error::{validate_xy, LearnError};
use serde::{Deserialize, Serialize};

/// A tabular dataset of feature rows and real-valued targets.
///
/// This is the "structured dataset" `M` of the paper: one row of aggregated
/// segment metrics per predicted segment, with the segment's IoU as target.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TabularDataset {
    /// Feature rows; all rows share the same dimensionality.
    pub features: Vec<Vec<f64>>,
    /// One target per feature row.
    pub targets: Vec<f64>,
}

impl TabularDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dataset from parallel feature/target vectors.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] if the shapes are inconsistent.
    pub fn from_parts(features: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, LearnError> {
        validate_xy(&features, &targets)?;
        Ok(Self { features, targets })
    }

    /// Appends one sample.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        self.features.push(features);
        self.targets.push(target);
    }

    /// Appends all samples of `other`.
    pub fn extend_from(&mut self, other: &TabularDataset) {
        self.features.extend(other.features.iter().cloned());
        self.targets.extend(other.targets.iter().cloned());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimensionality (0 for an empty dataset).
    pub fn feature_dim(&self) -> usize {
        self.features.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Binary targets derived by thresholding: `target > threshold`.
    ///
    /// With `threshold = 0.0` this is exactly the paper's meta-classification
    /// label `IoU > 0`.
    pub fn binary_targets(&self, threshold: f64) -> Vec<bool> {
        self.targets.iter().map(|t| *t > threshold).collect()
    }

    /// Returns the sub-dataset at the given indices (indices may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> TabularDataset {
        TabularDataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }
}

/// Per-feature standardisation to zero mean and unit variance.
///
/// The meta models of the paper (in particular the `l2`-penalised ones) are
/// trained on standardised metrics; the scaler is fit on the training split
/// and applied to the test split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on a feature matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::EmptyTrainingSet`] for an empty matrix.
    pub fn fit(features: &[Vec<f64>]) -> Result<Self, LearnError> {
        if features.is_empty() || features[0].is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let dim = features[0].len();
        let n = features.len() as f64;
        let mut means = vec![0.0; dim];
        for row in features {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in features {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            // Constant features keep their value; avoid division by zero.
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Ok(Self { means, stds })
    }

    /// Number of features the scaler was fit on.
    pub fn feature_dim(&self) -> usize {
        self.means.len()
    }

    /// Transforms a single feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong dimensionality.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "feature dimension mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Transforms a batch of feature rows.
    pub fn transform(&self, features: &[Vec<f64>]) -> Vec<Vec<f64>> {
        features.iter().map(|r| self.transform_row(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize) -> TabularDataset {
        let features = (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let targets = (0..n).map(|i| i as f64 / n as f64).collect();
        TabularDataset::from_parts(features, targets).unwrap()
    }

    #[test]
    fn from_parts_validates() {
        assert!(TabularDataset::from_parts(vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(TabularDataset::from_parts(vec![vec![1.0]], vec![1.0]).is_ok());
    }

    #[test]
    fn push_extend_subset() {
        let mut ds = TabularDataset::new();
        ds.push(vec![1.0], 0.5);
        ds.push(vec![2.0], 0.0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.feature_dim(), 1);
        let other = toy_dataset(3);
        let mut merged = other.clone();
        merged.extend_from(&other);
        assert_eq!(merged.len(), 6);
        let sub = other.subset(&[2, 0]);
        assert_eq!(sub.targets, vec![other.targets[2], other.targets[0]]);
    }

    #[test]
    fn binary_targets_threshold_at_zero() {
        let ds =
            TabularDataset::from_parts(vec![vec![0.0], vec![0.0], vec![0.0]], vec![0.0, 0.3, 0.9])
                .unwrap();
        assert_eq!(ds.binary_targets(0.0), vec![false, true, true]);
        assert_eq!(ds.binary_targets(0.5), vec![false, false, true]);
    }

    #[test]
    fn scaler_standardises_columns() {
        let features = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let scaler = StandardScaler::fit(&features).unwrap();
        let transformed = scaler.transform(&features);
        for col in 0..2 {
            let mean: f64 = transformed.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = transformed.iter().map(|r| r[col].powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_handles_constant_features() {
        let features = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fit(&features).unwrap();
        let transformed = scaler.transform(&features);
        assert!(transformed.iter().all(|r| r[0].abs() < 1e-12));
        assert!(StandardScaler::fit(&[]).is_err());
    }
}
