//! Closed-form linear regression (ordinary and ridge-penalised).

use crate::error::{validate_xy, LearnError};
use crate::matrix::{solve_linear_system, Matrix};
use crate::traits::Regressor;
use serde::{Deserialize, Serialize};

/// Ordinary least-squares linear regression (with intercept).
///
/// This is the paper's "meta regression with a linear model". Fitting solves
/// the normal equations `X^T X w = X^T y` with Gaussian elimination; a tiny
/// ridge term is added automatically when the system is singular.
///
/// ```
/// use metaseg_learners::{LinearRegression, Regressor};
///
/// let x = vec![vec![0.0], vec![1.0], vec![2.0]];
/// let y = vec![0.5, 1.5, 2.5];
/// let model = LinearRegression::fit(&x, &y).unwrap();
/// assert!((model.predict_one(&[3.0]) - 3.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fits the model with ordinary least squares.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] if the data shapes are inconsistent or the
    /// system stays singular even after adding a tiny ridge term.
    pub fn fit(features: &[Vec<f64>], targets: &[f64]) -> Result<Self, LearnError> {
        let ridge = RidgeRegression::fit(features, targets, 0.0)?;
        Ok(Self {
            weights: ridge.weights().to_vec(),
            intercept: ridge.intercept(),
        })
    }

    /// Learned weight vector (one entry per feature).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Regressor for LinearRegression {
    fn predict_one(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature dimension mismatch"
        );
        self.intercept
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }
}

/// Ridge (L2-penalised) linear regression with intercept.
///
/// The intercept is not penalised. `alpha = 0` recovers ordinary least squares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    alpha: f64,
}

impl RidgeRegression {
    /// Fits the model by solving the regularised normal equations.
    ///
    /// # Errors
    ///
    /// Returns a [`LearnError`] if the data shapes are inconsistent, `alpha`
    /// is negative, or the system is singular.
    pub fn fit(features: &[Vec<f64>], targets: &[f64], alpha: f64) -> Result<Self, LearnError> {
        let dim = validate_xy(features, targets)?;
        if alpha < 0.0 {
            return Err(LearnError::InvalidHyperParameter {
                name: "alpha",
                reason: format!("must be non-negative, got {alpha}"),
            });
        }
        let n = features.len();

        // Design matrix with a trailing bias column of ones.
        let mut design = Matrix::zeros(n, dim + 1);
        for (r, row) in features.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                design.set(r, c, *v);
            }
            design.set(r, dim, 1.0);
        }
        let design_t = design.transpose();
        let mut gram = design_t.matmul(&design);
        // Penalise all weights but not the intercept (last diagonal entry).
        for i in 0..dim {
            let v = gram.get(i, i) + alpha;
            gram.set(i, i, v);
        }
        let rhs = design_t.matvec(targets);

        let solution = match solve_linear_system(&gram, &rhs) {
            Ok(s) => s,
            Err(LearnError::SingularSystem) => {
                // Collinear metrics happen (e.g. duplicated features); retry
                // with a tiny ridge term to keep the linear baseline usable.
                let mut regularised = gram.clone();
                regularised.add_diagonal(1e-8);
                solve_linear_system(&regularised, &rhs)?
            }
            Err(e) => return Err(e),
        };

        let (weights, intercept) = solution.split_at(dim);
        Ok(Self {
            weights: weights.to_vec(),
            intercept: intercept[0],
            alpha,
        })
    }

    /// Learned weight vector (one entry per feature).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Regressor for RidgeRegression {
    fn predict_one(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature dimension mismatch"
        );
        self.intercept
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2 x0 - 3 x1 + 1
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.3, (i % 5) as f64])
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|r| 2.0 * r[0] - 3.0 * r[1] + 1.0)
            .collect();
        let model = LinearRegression::fit(&features, &targets).unwrap();
        assert!((model.weights()[0] - 2.0).abs() < 1e-6);
        assert!((model.weights()[1] + 3.0).abs() < 1e-6);
        assert!((model.intercept() - 1.0).abs() < 1e-6);
        assert!((model.predict_one(&[1.0, 1.0]) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn handles_collinear_features_via_fallback_ridge() {
        // Second column is an exact copy of the first: singular gram matrix.
        let features: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| 3.0 * i as f64).collect();
        let model = LinearRegression::fit(&features, &targets).unwrap();
        // Predictions still follow the relation even if individual weights are split.
        assert!((model.predict_one(&[4.0, 4.0]) - 12.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let features: Vec<Vec<f64>> = (0..30).map(|i| vec![(i as f64) / 10.0]).collect();
        let targets: Vec<f64> = features.iter().map(|r| 5.0 * r[0]).collect();
        let ols = RidgeRegression::fit(&features, &targets, 0.0).unwrap();
        let heavy = RidgeRegression::fit(&features, &targets, 100.0).unwrap();
        assert!(heavy.weights()[0].abs() < ols.weights()[0].abs());
        assert!(RidgeRegression::fit(&features, &targets, -1.0).is_err());
        assert_eq!(heavy.alpha, 100.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(LinearRegression::fit(&[], &[]).is_err());
        assert!(LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
    }

    proptest! {
        /// For exactly-linear noise-free data OLS reproduces the generating weights.
        #[test]
        fn prop_recovers_generating_model(
            w0 in -3.0f64..3.0, w1 in -3.0f64..3.0, b in -2.0f64..2.0, seed in 0u64..200
        ) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let features: Vec<Vec<f64>> = (0..40)
                .map(|_| vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
                .collect();
            let targets: Vec<f64> = features.iter().map(|r| w0 * r[0] + w1 * r[1] + b).collect();
            let model = LinearRegression::fit(&features, &targets).unwrap();
            prop_assert!((model.weights()[0] - w0).abs() < 1e-5);
            prop_assert!((model.weights()[1] - w1).abs() < 1e-5);
            prop_assert!((model.intercept() - b).abs() < 1e-5);
        }

        /// Larger ridge penalties never increase the weight norm.
        #[test]
        fn prop_ridge_monotone_shrinkage(seed in 0u64..100) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let features: Vec<Vec<f64>> = (0..30)
                .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
                .collect();
            let targets: Vec<f64> = features
                .iter()
                .map(|r| 2.0 * r[0] - r[1] + rng.gen_range(-0.1..0.1))
                .collect();
            let norms: Vec<f64> = [0.0, 1.0, 10.0, 100.0]
                .iter()
                .map(|&a| {
                    let m = RidgeRegression::fit(&features, &targets, a).unwrap();
                    m.weights().iter().map(|w| w * w).sum::<f64>()
                })
                .collect();
            for pair in norms.windows(2) {
                prop_assert!(pair[1] <= pair[0] + 1e-9);
            }
        }
    }
}
