//! Logistic regression with optional L2 penalty, trained by gradient descent.

use crate::error::{validate_xy, LearnError};
use crate::traits::BinaryClassifier;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticConfig {
    /// L2 penalty strength (`0.0` = unpenalised, the paper reports both).
    pub l2_penalty: f64,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch gradient-descent iterations.
    pub max_iterations: usize,
    /// Early-stopping tolerance on the gradient norm.
    pub tolerance: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            l2_penalty: 0.0,
            learning_rate: 0.1,
            max_iterations: 500,
            tolerance: 1e-6,
        }
    }
}

/// Binary logistic regression: the paper's meta-classification linear model.
///
/// ```
/// use metaseg_learners::{BinaryClassifier, LogisticConfig, LogisticRegression};
///
/// let x = vec![vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]];
/// let y = vec![false, false, true, true];
/// let model = LogisticRegression::fit(&x, &y, LogisticConfig::default()).unwrap();
/// assert!(model.predict_proba_one(&[3.0]) > 0.9);
/// assert!(model.predict_proba_one(&[-3.0]) < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    intercept: f64,
    config: LogisticConfig,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Fits the model with full-batch gradient descent on the (optionally
    /// L2-penalised) logistic loss.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] for inconsistent shapes, invalid
    /// hyper-parameters, or a training set that contains only one class.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[bool],
        config: LogisticConfig,
    ) -> Result<Self, LearnError> {
        let targets: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let dim = validate_xy(features, &targets)?;
        if config.learning_rate <= 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "learning_rate",
                reason: "must be positive".to_string(),
            });
        }
        if config.l2_penalty < 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "l2_penalty",
                reason: "must be non-negative".to_string(),
            });
        }
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return Err(LearnError::SingleClassTraining);
        }

        let n = features.len() as f64;
        let mut weights = vec![0.0f64; dim];
        let mut intercept = 0.0f64;

        for _ in 0..config.max_iterations {
            let mut grad_w = vec![0.0f64; dim];
            let mut grad_b = 0.0f64;
            for (row, &target) in features.iter().zip(&targets) {
                let z = intercept + weights.iter().zip(row).map(|(w, x)| w * x).sum::<f64>();
                let error = sigmoid(z) - target;
                for (g, x) in grad_w.iter_mut().zip(row) {
                    *g += error * x;
                }
                grad_b += error;
            }
            let mut grad_norm = 0.0;
            for (g, w) in grad_w.iter_mut().zip(&weights) {
                *g = *g / n + config.l2_penalty * w;
                grad_norm += *g * *g;
            }
            grad_b /= n;
            grad_norm += grad_b * grad_b;

            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * g;
            }
            intercept -= config.learning_rate * grad_b;

            if grad_norm.sqrt() < config.tolerance {
                break;
            }
        }

        Ok(Self {
            weights,
            intercept,
            config,
        })
    }

    /// Learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &LogisticConfig {
        &self.config
    }
}

impl BinaryClassifier for LogisticRegression {
    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature dimension mismatch"
        );
        let z = self.intercept
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>();
        sigmoid(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn separable_data(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = i as f64 / n as f64 * 4.0 - 2.0;
                vec![v, -v * 0.5]
            })
            .collect();
        let labels: Vec<bool> = features.iter().map(|r| r[0] > 0.0).collect();
        (features, labels)
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(500.0) <= 1.0);
        assert!(sigmoid(-500.0) >= 0.0);
        assert!(sigmoid(500.0) > 0.999);
        assert!(sigmoid(-500.0) < 0.001);
    }

    #[test]
    fn learns_separable_data() {
        let (features, labels) = separable_data(40);
        let model = LogisticRegression::fit(&features, &labels, LogisticConfig::default()).unwrap();
        let predictions = BinaryClassifier::predict(&model, &features);
        let correct = predictions
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9);
    }

    #[test]
    fn penalty_shrinks_weights() {
        let (features, labels) = separable_data(40);
        let free = LogisticRegression::fit(&features, &labels, LogisticConfig::default()).unwrap();
        let config = LogisticConfig {
            l2_penalty: 5.0,
            ..LogisticConfig::default()
        };
        let penalised = LogisticRegression::fit(&features, &labels, config).unwrap();
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(penalised.weights()) < norm(free.weights()));
    }

    #[test]
    fn rejects_single_class_and_bad_params() {
        let features = vec![vec![1.0], vec![2.0]];
        assert_eq!(
            LogisticRegression::fit(&features, &[true, true], LogisticConfig::default()),
            Err(LearnError::SingleClassTraining)
        );
        let bad = LogisticConfig {
            learning_rate: 0.0,
            ..LogisticConfig::default()
        };
        assert!(LogisticRegression::fit(&features, &[true, false], bad).is_err());
        let bad_l2 = LogisticConfig {
            l2_penalty: -1.0,
            ..LogisticConfig::default()
        };
        assert!(LogisticRegression::fit(&features, &[true, false], bad_l2).is_err());
    }

    proptest! {
        #[test]
        fn prop_probabilities_in_unit_interval(seed in 0u64..100) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let features: Vec<Vec<f64>> = (0..30)
                .map(|_| vec![rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)])
                .collect();
            let labels: Vec<bool> = features.iter().map(|r| r[0] + r[1] > 0.0).collect();
            prop_assume!(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l));
            let model = LogisticRegression::fit(&features, &labels, LogisticConfig::default()).unwrap();
            for row in &features {
                let p = model.predict_proba_one(row);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// The decision function is monotone in a feature with positive weight.
        #[test]
        fn prop_monotone_in_informative_feature(shift in 0.1f64..3.0) {
            let (features, labels) = separable_data(30);
            let model = LogisticRegression::fit(&features, &labels, LogisticConfig::default()).unwrap();
            let base = model.predict_proba_one(&[0.0, 0.0]);
            let shifted = model.predict_proba_one(&[shift, 0.0]);
            prop_assert!(shifted >= base - 1e-12);
        }
    }
}
