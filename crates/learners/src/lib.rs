//! # metaseg-learners
//!
//! From-scratch machine-learning substrate for the MetaSeg reproduction.
//!
//! The paper trains four families of meta models on the structured dataset of
//! segment metrics: linear/logistic (ridge-penalised) models, gradient
//! boosting, and shallow neural networks with `l2`-penalisation, plus SMOTE
//! for-regression data augmentation. All of them are implemented here on top
//! of plain `Vec<f64>` tabular data — no external ML framework.
//!
//! * [`TabularDataset`], [`StandardScaler`] — data plumbing,
//! * [`LinearRegression`] / [`RidgeRegression`] — closed-form least squares,
//! * [`LogisticRegression`] — gradient-descent logistic model with optional L2,
//! * [`GradientBoostingRegressor`] / [`GradientBoostingClassifier`] — boosted
//!   CART trees,
//! * [`MlpRegressor`] / [`MlpClassifier`] — one-hidden-layer networks with L2,
//! * [`smote_regression`] — SmoteR augmentation for continuous targets,
//! * the [`Regressor`] and [`BinaryClassifier`] traits that the MetaSeg
//!   pipeline is generic over,
//! * [`MetaPredictor`] with [`FittedClassifier`] / [`FittedRegressor`] — the
//!   serializable inference handle (scaler + fitted models) that online
//!   consumers such as the streaming engine carry around.
//!
//! ```
//! use metaseg_learners::{LinearRegression, Regressor};
//!
//! let features = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let targets = vec![1.0, 3.0, 5.0, 7.0];
//! let model = LinearRegression::fit(&features, &targets).unwrap();
//! let prediction = model.predict_one(&[4.0]);
//! assert!((prediction - 9.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boosting;
mod dataset;
mod error;
mod inference;
mod linear;
mod logistic;
mod matrix;
mod mlp;
mod smote;
mod traits;
mod tree;

pub use boosting::{BoostingConfig, GradientBoostingClassifier, GradientBoostingRegressor};
pub use dataset::{StandardScaler, TabularDataset};
pub use error::LearnError;
pub use inference::{FittedClassifier, FittedRegressor, MetaPredictor};
pub use linear::{LinearRegression, RidgeRegression};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use matrix::{solve_linear_system, Matrix};
pub use mlp::{MlpClassifier, MlpConfig, MlpRegressor};
pub use smote::{smote_regression, SmoteConfig};
pub use traits::{BinaryClassifier, Regressor};
pub use tree::{RegressionTree, TreeConfig};
