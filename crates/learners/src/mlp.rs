//! Shallow (one hidden layer) neural networks with L2 penalisation.
//!
//! The paper's Section III meta models include "shallow neural networks with
//! `l2`-penalization"; this module implements exactly that: a single hidden
//! layer with ReLU activation trained by mini-batch stochastic gradient
//! descent, with a linear output for regression and a sigmoid output for
//! binary classification.

use crate::error::{validate_xy, LearnError};
use crate::traits::{BinaryClassifier, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the shallow networks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Number of hidden units.
    pub hidden_units: usize,
    /// L2 penalty on all weights (biases are not penalised).
    pub l2_penalty: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for weight initialisation and batch shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden_units: 16,
            l2_penalty: 1e-3,
            learning_rate: 0.05,
            epochs: 150,
            batch_size: 32,
            seed: 7,
        }
    }
}

impl MlpConfig {
    /// A small/fast configuration for tests and smoke experiments.
    pub fn fast() -> Self {
        Self {
            hidden_units: 8,
            epochs: 60,
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<(), LearnError> {
        if self.hidden_units == 0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "hidden_units",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "learning_rate",
                reason: "must be positive".to_string(),
            });
        }
        if self.l2_penalty < 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "l2_penalty",
                reason: "must be non-negative".to_string(),
            });
        }
        if self.batch_size == 0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "batch_size",
                reason: "must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Dense single-hidden-layer network weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Network {
    input_dim: usize,
    hidden_units: usize,
    /// `w1[h][i]`: input `i` → hidden `h`.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    /// `w2[h]`: hidden `h` → output.
    w2: Vec<f64>,
    b2: f64,
}

impl Network {
    fn init(input_dim: usize, hidden_units: usize, rng: &mut StdRng) -> Self {
        // He-style initialisation scaled to the fan-in.
        let scale = (2.0 / input_dim as f64).sqrt();
        let w1 = (0..hidden_units)
            .map(|_| {
                (0..input_dim)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect()
            })
            .collect();
        let b1 = vec![0.0; hidden_units];
        let out_scale = (2.0 / hidden_units as f64).sqrt();
        let w2 = (0..hidden_units)
            .map(|_| rng.gen_range(-out_scale..out_scale))
            .collect();
        Self {
            input_dim,
            hidden_units,
            w1,
            b1,
            w2,
            b2: 0.0,
        }
    }

    /// Forward pass returning `(hidden activations, pre-sigmoid output)`.
    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(weights, bias)| {
                let z: f64 = weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + bias;
                z.max(0.0) // ReLU
            })
            .collect();
        let out = self.w2.iter().zip(&hidden).map(|(w, h)| w * h).sum::<f64>() + self.b2;
        (hidden, out)
    }

    /// One SGD step on a mini batch. `grad_out` maps (prediction, target) to
    /// dLoss/dOutput for the chosen loss.
    #[allow(clippy::too_many_arguments)]
    fn sgd_step(
        &mut self,
        features: &[Vec<f64>],
        targets: &[f64],
        batch: &[usize],
        learning_rate: f64,
        l2_penalty: f64,
        n_total: f64,
        grad_out: impl Fn(f64, f64) -> f64,
    ) {
        let mut grad_w1 = vec![vec![0.0; self.input_dim]; self.hidden_units];
        let mut grad_b1 = vec![0.0; self.hidden_units];
        let mut grad_w2 = vec![0.0; self.hidden_units];
        let mut grad_b2 = 0.0;
        let batch_n = batch.len() as f64;

        for &idx in batch {
            let x = &features[idx];
            let (hidden, out) = self.forward(x);
            let delta_out = grad_out(out, targets[idx]);
            grad_b2 += delta_out;
            for h in 0..self.hidden_units {
                grad_w2[h] += delta_out * hidden[h];
                if hidden[h] > 0.0 {
                    let delta_hidden = delta_out * self.w2[h];
                    grad_b1[h] += delta_hidden;
                    for (g, v) in grad_w1[h].iter_mut().zip(x) {
                        *g += delta_hidden * v;
                    }
                }
            }
        }

        // L2 penalty is scaled to the full dataset so its strength does not
        // depend on the batch size.
        let penalty_scale = batch_n / n_total;
        for h in 0..self.hidden_units {
            for (w, g) in self.w1[h].iter_mut().zip(&grad_w1[h]) {
                *w -= learning_rate * (g / batch_n + l2_penalty * penalty_scale * *w);
            }
            self.b1[h] -= learning_rate * grad_b1[h] / batch_n;
            self.w2[h] -=
                learning_rate * (grad_w2[h] / batch_n + l2_penalty * penalty_scale * self.w2[h]);
        }
        self.b2 -= learning_rate * grad_b2 / batch_n;
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

fn train(
    features: &[Vec<f64>],
    targets: &[f64],
    config: MlpConfig,
    grad_out: impl Fn(f64, f64) -> f64 + Copy,
) -> Result<Network, LearnError> {
    let dim = validate_xy(features, targets)?;
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut network = Network::init(dim, config.hidden_units, &mut rng);
    let n_total = features.len() as f64;
    let mut order: Vec<usize> = (0..features.len()).collect();

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(config.batch_size) {
            network.sgd_step(
                features,
                targets,
                batch,
                config.learning_rate,
                config.l2_penalty,
                n_total,
                grad_out,
            );
        }
    }
    Ok(network)
}

/// Shallow MLP for regression (linear output, squared loss).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpRegressor {
    network: Network,
    config: MlpConfig,
}

impl MlpRegressor {
    /// Trains the network with mini-batch SGD on the squared loss.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] for inconsistent data shapes or invalid
    /// hyper-parameters.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        config: MlpConfig,
    ) -> Result<Self, LearnError> {
        let network = train(features, targets, config, |out, target| out - target)?;
        Ok(Self { network, config })
    }

    /// The configuration the network was trained with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }
}

impl Regressor for MlpRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.network.input_dim,
            "feature dimension mismatch"
        );
        self.network.forward(features).1
    }
}

/// Shallow MLP for binary classification (sigmoid output, log loss).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpClassifier {
    network: Network,
    config: MlpConfig,
}

impl MlpClassifier {
    /// Trains the network with mini-batch SGD on the logistic loss.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] for inconsistent data shapes, invalid
    /// hyper-parameters, or single-class training data.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[bool],
        config: MlpConfig,
    ) -> Result<Self, LearnError> {
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return Err(LearnError::SingleClassTraining);
        }
        let targets: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        // dLogLoss/dOut with a sigmoid output collapses to sigmoid(out) - target.
        let network = train(features, &targets, config, |out, target| {
            sigmoid(out) - target
        })?;
        Ok(Self { network, config })
    }

    /// The configuration the network was trained with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }
}

impl BinaryClassifier for MlpClassifier {
    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.network.input_dim,
            "feature dimension mismatch"
        );
        sigmoid(self.network.forward(features).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared L2 norm of all weights of a network.
    fn weight_norm(network: &Network) -> f64 {
        let hidden: f64 = network.w1.iter().flatten().map(|w| w * w).sum();
        let out: f64 = network.w2.iter().map(|w| w * w).sum();
        hidden + out
    }

    #[test]
    fn regressor_learns_linear_function() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 80.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - 0.5).collect();
        let model = MlpRegressor::fit(&x, &y, MlpConfig::default()).unwrap();
        let mse: f64 = x
            .iter()
            .zip(&y)
            .map(|(r, t)| (model.predict_one(r) - t).powi(2))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.02, "mse was {mse}");
    }

    #[test]
    fn classifier_learns_threshold() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0 - 0.5]).collect();
        let labels: Vec<bool> = x.iter().map(|r| r[0] > 0.0).collect();
        let model = MlpClassifier::fit(&x, &labels, MlpConfig::default()).unwrap();
        let correct = x
            .iter()
            .zip(&labels)
            .filter(|(row, &l)| model.predict_one(row) == l)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.85);
        for row in &x {
            let p = model.predict_proba_one(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn stronger_penalty_gives_smaller_weights() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i as f64 * 0.37).sin(), i as f64 / 60.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 + r[1]).collect();
        let weak = MlpRegressor::fit(
            &x,
            &y,
            MlpConfig {
                l2_penalty: 0.0,
                ..MlpConfig::fast()
            },
        )
        .unwrap();
        let strong = MlpRegressor::fit(
            &x,
            &y,
            MlpConfig {
                l2_penalty: 1.0,
                ..MlpConfig::fast()
            },
        )
        .unwrap();
        assert!(weight_norm(&strong.network) < weight_norm(&weak.network));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let a = MlpRegressor::fit(&x, &y, MlpConfig::fast()).unwrap();
        let b = MlpRegressor::fit(&x, &y, MlpConfig::fast()).unwrap();
        assert_eq!(a.predict_one(&[0.3]), b.predict_one(&[0.3]));
    }

    #[test]
    fn invalid_configs_rejected() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 1.0];
        for config in [
            MlpConfig {
                hidden_units: 0,
                ..MlpConfig::default()
            },
            MlpConfig {
                learning_rate: 0.0,
                ..MlpConfig::default()
            },
            MlpConfig {
                l2_penalty: -0.1,
                ..MlpConfig::default()
            },
            MlpConfig {
                batch_size: 0,
                ..MlpConfig::default()
            },
        ] {
            assert!(MlpRegressor::fit(&x, &y, config).is_err());
        }
        assert_eq!(
            MlpClassifier::fit(&x, &[true, true], MlpConfig::fast()),
            Err(LearnError::SingleClassTraining)
        );
    }
}
