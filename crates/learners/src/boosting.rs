//! Gradient-boosted regression trees for regression and binary classification.

use crate::error::{validate_xy, LearnError};
use crate::traits::{BinaryClassifier, Regressor};
use crate::tree::{RegressionTree, TreeConfig};
use serde::{Deserialize, Serialize};

/// Hyper-parameters shared by the boosting models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostingConfig {
    /// Number of boosting stages (trees).
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Configuration of the individual trees.
    pub tree: TreeConfig,
}

impl Default for BoostingConfig {
    fn default() -> Self {
        Self {
            n_estimators: 50,
            learning_rate: 0.1,
            tree: TreeConfig::default(),
        }
    }
}

impl BoostingConfig {
    /// A small/fast configuration for tests and smoke experiments.
    pub fn fast() -> Self {
        Self {
            n_estimators: 20,
            learning_rate: 0.2,
            tree: TreeConfig {
                max_depth: 2,
                ..TreeConfig::default()
            },
        }
    }

    fn validate(&self) -> Result<(), LearnError> {
        if self.n_estimators == 0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "n_estimators",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "learning_rate",
                reason: "must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// Gradient boosting with squared-error loss (least-squares boosting).
///
/// This is the paper's "gradient boosting" meta-regression model.
///
/// ```
/// use metaseg_learners::{BoostingConfig, GradientBoostingRegressor, Regressor};
///
/// let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 10.0]).collect();
/// let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
/// let model = GradientBoostingRegressor::fit(&x, &y, BoostingConfig::fast()).unwrap();
/// assert!((model.predict_one(&[1.5]) - 2.25).abs() < 0.6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoostingRegressor {
    initial: f64,
    trees: Vec<RegressionTree>,
    config: BoostingConfig,
}

impl GradientBoostingRegressor {
    /// Fits the boosted ensemble.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] for inconsistent data shapes or invalid
    /// hyper-parameters.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        config: BoostingConfig,
    ) -> Result<Self, LearnError> {
        validate_xy(features, targets)?;
        config.validate()?;

        let initial = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut predictions = vec![initial; targets.len()];
        let mut trees = Vec::with_capacity(config.n_estimators);

        for _ in 0..config.n_estimators {
            // Negative gradient of the squared loss = residual.
            let residuals: Vec<f64> = targets
                .iter()
                .zip(&predictions)
                .map(|(t, p)| t - p)
                .collect();
            let tree = RegressionTree::fit(features, &residuals, config.tree)?;
            for (prediction, row) in predictions.iter_mut().zip(features) {
                *prediction += config.learning_rate * tree.predict_one(row);
            }
            trees.push(tree);
        }

        Ok(Self {
            initial,
            trees,
            config,
        })
    }

    /// The configuration the ensemble was trained with.
    pub fn config(&self) -> &BoostingConfig {
        &self.config
    }
}

impl Regressor for GradientBoostingRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        self.initial
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.predict_one(features))
                .sum::<f64>()
    }
}

/// Gradient boosting with logistic loss for binary classification.
///
/// Trees are fit to the negative gradient of the log loss in log-odds space;
/// `predict_proba` applies the sigmoid to the accumulated score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoostingClassifier {
    initial_log_odds: f64,
    trees: Vec<RegressionTree>,
    config: BoostingConfig,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl GradientBoostingClassifier {
    /// Fits the boosted classifier.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] for inconsistent shapes, invalid
    /// hyper-parameters, or single-class training data.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[bool],
        config: BoostingConfig,
    ) -> Result<Self, LearnError> {
        let targets: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        validate_xy(features, &targets)?;
        config.validate()?;
        let positives = labels.iter().filter(|&&l| l).count();
        if positives == 0 || positives == labels.len() {
            return Err(LearnError::SingleClassTraining);
        }

        let p = positives as f64 / labels.len() as f64;
        let initial_log_odds = (p / (1.0 - p)).ln();
        let mut scores = vec![initial_log_odds; labels.len()];
        let mut trees = Vec::with_capacity(config.n_estimators);

        for _ in 0..config.n_estimators {
            // Negative gradient of log-loss w.r.t. the score: y - sigmoid(score).
            let residuals: Vec<f64> = targets
                .iter()
                .zip(&scores)
                .map(|(t, s)| t - sigmoid(*s))
                .collect();
            let tree = RegressionTree::fit(features, &residuals, config.tree)?;
            for (score, row) in scores.iter_mut().zip(features) {
                *score += config.learning_rate * tree.predict_one(row);
            }
            trees.push(tree);
        }

        Ok(Self {
            initial_log_odds,
            trees,
            config,
        })
    }

    /// Raw accumulated log-odds score for one feature vector.
    fn decision_function(&self, features: &[f64]) -> f64 {
        self.initial_log_odds
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.predict_one(features))
                .sum::<f64>()
    }
}

impl BinaryClassifier for GradientBoostingClassifier {
    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        sigmoid(self.decision_function(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn regressor_fits_nonlinear_function() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] - 3.0).powi(2)).collect();
        let model = GradientBoostingRegressor::fit(&x, &y, BoostingConfig::default()).unwrap();
        let sse: f64 = x
            .iter()
            .zip(&y)
            .map(|(r, t)| (model.predict_one(r) - t).powi(2))
            .sum();
        // A depth-3 ensemble fits the parabola much better than the mean predictor.
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline: f64 = y.iter().map(|t| (t - mean).powi(2)).sum();
        assert!(sse < baseline * 0.05);
        assert_eq!(model.trees.len(), 50);
    }

    #[test]
    fn more_trees_reduce_training_error() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin(), i as f64 / 40.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1]).collect();
        let sse = |n: usize| {
            let config = BoostingConfig {
                n_estimators: n,
                ..BoostingConfig::default()
            };
            let model = GradientBoostingRegressor::fit(&x, &y, config).unwrap();
            x.iter()
                .zip(&y)
                .map(|(r, t)| (model.predict_one(r) - t).powi(2))
                .sum::<f64>()
        };
        assert!(sse(50) <= sse(5) + 1e-9);
        assert!(sse(5) <= sse(1) + 1e-9);
    }

    #[test]
    fn classifier_separates_clusters() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                if i < 20 {
                    vec![i as f64 * 0.05, 0.0]
                } else {
                    vec![2.0 + (i - 20) as f64 * 0.05, 1.0]
                }
            })
            .collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let model = GradientBoostingClassifier::fit(&x, &labels, BoostingConfig::fast()).unwrap();
        let correct = x
            .iter()
            .zip(&labels)
            .filter(|(row, &l)| model.predict_one(row) == l)
            .count();
        assert!(correct >= 38);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 1.0];
        let labels = vec![false, true];
        let zero_trees = BoostingConfig {
            n_estimators: 0,
            ..BoostingConfig::default()
        };
        assert!(GradientBoostingRegressor::fit(&x, &y, zero_trees).is_err());
        let bad_lr = BoostingConfig {
            learning_rate: 0.0,
            ..BoostingConfig::default()
        };
        assert!(GradientBoostingClassifier::fit(&x, &labels, bad_lr).is_err());
        assert_eq!(
            GradientBoostingClassifier::fit(&x, &[true, true], BoostingConfig::fast()),
            Err(LearnError::SingleClassTraining)
        );
    }

    proptest! {
        #[test]
        fn prop_classifier_probabilities_valid(seed in 0u64..50) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<Vec<f64>> = (0..30).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
            let labels: Vec<bool> = x.iter().map(|r| r[0] > 0.0).collect();
            prop_assume!(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l));
            let model = GradientBoostingClassifier::fit(&x, &labels, BoostingConfig::fast()).unwrap();
            for row in &x {
                let p = model.predict_proba_one(row);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        #[test]
        fn prop_regressor_predictions_bounded_for_bounded_targets(seed in 0u64..50) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<Vec<f64>> = (0..30).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
            let y: Vec<f64> = x.iter().map(|r| r[0].clamp(0.0, 1.0)).collect();
            let model = GradientBoostingRegressor::fit(&x, &y, BoostingConfig::fast()).unwrap();
            for row in &x {
                let p = model.predict_one(row);
                // Shrinkage keeps predictions near the convex hull of targets.
                prop_assert!(p > -0.5 && p < 1.5);
            }
        }
    }
}
