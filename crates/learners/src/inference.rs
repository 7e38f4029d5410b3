//! Serializable inference handles over fitted meta models.
//!
//! Training and serving have different shapes: training wants the concrete
//! model types with their `fit` signatures, while a serving path (the
//! streaming engine, a checkpoint file, a worker fleet) wants one opaque,
//! serializable handle that scales a raw metric vector and produces the two
//! meta outputs. [`MetaPredictor`] is that handle: it bundles the
//! [`StandardScaler`] fitted on the training split with one
//! [`FittedClassifier`] and one [`FittedRegressor`], so a raw (unscaled)
//! feature row goes in and calibrated meta-classification scores /
//! meta-regression IoU estimates come out.

use crate::boosting::{GradientBoostingClassifier, GradientBoostingRegressor};
use crate::dataset::StandardScaler;
use crate::error::LearnError;
use crate::linear::{LinearRegression, RidgeRegression};
use crate::logistic::LogisticRegression;
use crate::mlp::{MlpClassifier, MlpRegressor};
use crate::traits::{BinaryClassifier, Regressor};
use metaseg_data::container;
use serde::{Deserialize, Serialize};

/// A fitted meta-classification model of any supported family.
///
/// The enum (rather than a trait object) keeps the handle `Serialize` +
/// `Clone` and lets callers match on the family when reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedClassifier {
    /// Gradient-boosted classification trees.
    Boosting(GradientBoostingClassifier),
    /// Shallow neural network with L2 penalty.
    Mlp(MlpClassifier),
    /// Logistic regression.
    Logistic(LogisticRegression),
}

impl FittedClassifier {
    /// Short name of the model family, for reports.
    pub fn family(&self) -> &'static str {
        match self {
            FittedClassifier::Boosting(_) => "gradient boosting",
            FittedClassifier::Mlp(_) => "neural network (L2)",
            FittedClassifier::Logistic(_) => "logistic regression",
        }
    }
}

impl BinaryClassifier for FittedClassifier {
    fn predict_proba_one(&self, features: &[f64]) -> f64 {
        match self {
            FittedClassifier::Boosting(m) => m.predict_proba_one(features),
            FittedClassifier::Mlp(m) => m.predict_proba_one(features),
            FittedClassifier::Logistic(m) => m.predict_proba_one(features),
        }
    }
}

/// A fitted meta-regression model of any supported family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedRegressor {
    /// Gradient-boosted regression trees.
    Boosting(GradientBoostingRegressor),
    /// Shallow neural network with L2 penalty.
    Mlp(MlpRegressor),
    /// Ordinary least squares.
    Linear(LinearRegression),
    /// Ridge-penalised least squares.
    Ridge(RidgeRegression),
}

impl FittedRegressor {
    /// Short name of the model family, for reports.
    pub fn family(&self) -> &'static str {
        match self {
            FittedRegressor::Boosting(_) => "gradient boosting",
            FittedRegressor::Mlp(_) => "neural network (L2)",
            FittedRegressor::Linear(_) => "linear regression",
            FittedRegressor::Ridge(_) => "ridge regression",
        }
    }
}

impl Regressor for FittedRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        match self {
            FittedRegressor::Boosting(m) => m.predict_one(features),
            FittedRegressor::Mlp(m) => m.predict_one(features),
            FittedRegressor::Linear(m) => m.predict_one(features),
            FittedRegressor::Ridge(m) => m.predict_one(features),
        }
    }
}

/// A complete, serializable meta-model inference handle: feature scaler plus
/// fitted classifier and regressor.
///
/// The handle consumes **raw** (unscaled) metric rows; standardisation with
/// the training-split statistics happens inside, so online consumers cannot
/// accidentally skip it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaPredictor {
    scaler: StandardScaler,
    classifier: FittedClassifier,
    regressor: FittedRegressor,
}

impl MetaPredictor {
    /// Bundles a fitted scaler, classifier and regressor into one handle.
    pub fn new(
        scaler: StandardScaler,
        classifier: FittedClassifier,
        regressor: FittedRegressor,
    ) -> Self {
        Self {
            scaler,
            classifier,
            regressor,
        }
    }

    /// Dimensionality of the raw feature rows the handle expects.
    pub fn feature_dim(&self) -> usize {
        self.scaler.feature_dim()
    }

    /// The classifier half of the handle.
    pub fn classifier(&self) -> &FittedClassifier {
        &self.classifier
    }

    /// The regressor half of the handle.
    pub fn regressor(&self) -> &FittedRegressor {
        &self.regressor
    }

    /// Meta-classification score (probability of `IoU > 0`) for one raw row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not match [`MetaPredictor::feature_dim`].
    fn score_one(&self, raw: &[f64]) -> f64 {
        self.classifier
            .predict_proba_one(&self.scaler.transform_row(raw))
    }

    /// Meta-regression IoU estimate for one raw row, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the row does not match [`MetaPredictor::feature_dim`].
    fn predict_iou_one(&self, raw: &[f64]) -> f64 {
        self.regressor
            .predict_one(&self.scaler.transform_row(raw))
            .clamp(0.0, 1.0)
    }

    /// Both meta outputs for one raw row: `(score, predicted IoU)`.
    ///
    /// Scales the row once and feeds both models, so the online hot path
    /// pays for standardisation only once per segment.
    pub fn predict_one(&self, raw: &[f64]) -> (f64, f64) {
        let scaled = self.scaler.transform_row(raw);
        (
            self.classifier.predict_proba_one(&scaled),
            self.regressor.predict_one(&scaled).clamp(0.0, 1.0),
        )
    }

    /// Meta-classification scores for a batch of raw rows.
    pub fn score(&self, raw: &[Vec<f64>]) -> Vec<f64> {
        raw.iter().map(|row| self.score_one(row)).collect()
    }

    /// Meta-regression IoU estimates for a batch of raw rows.
    pub fn predict_iou(&self, raw: &[Vec<f64>]) -> Vec<f64> {
        raw.iter().map(|row| self.predict_iou_one(row)).collect()
    }

    /// Serializes the handle to compact JSON — the document a checkpoint
    /// container wraps ([`Self::to_container_bytes`]). Reading it back
    /// ([`Self::from_container_bytes`]) is exact: the round-trip reproduces
    /// bit-identical predictions (floats are rendered in shortest-round-trip
    /// form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("document model serialization is infallible")
    }

    /// Reconstructs a handle from its [`MetaPredictor::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::InvalidModel`] when the text is not valid JSON
    /// or does not describe a predictor (a serving layer must be able to
    /// reject a corrupt checkpoint without panicking).
    fn from_json(json: &str) -> Result<Self, LearnError> {
        serde_json::from_str(json).map_err(|e| LearnError::InvalidModel(e.to_string()))
    }

    /// Serializes the handle as a binary checkpoint container
    /// (`metaseg_data::container`, kind `Checkpoint`): the [`Self::to_json`]
    /// document wrapped in a CRC-32-checksummed, optionally compressed chunk.
    ///
    /// The container carries exactly the JSON text, so the round-trip through
    /// [`Self::from_container_bytes`] reproduces bit-identical predictions —
    /// same guarantee as the JSON path, plus corruption detection.
    pub fn to_container_bytes(&self) -> Vec<u8> {
        container::write_checkpoint(&self.to_json(), true)
            .expect("checkpoint documents are far below the container chunk cap")
    }

    /// Reconstructs a handle from a binary checkpoint container — the one
    /// checkpoint form a registry loads.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::InvalidModel`] when the bytes are not a
    /// container (bare JSON included), or the container is truncated,
    /// corrupt (CRC mismatch), of the wrong kind or version, or when the
    /// embedded JSON does not describe a predictor.
    pub fn from_container_bytes(bytes: &[u8]) -> Result<Self, LearnError> {
        let json = container::read_checkpoint(bytes)
            .map_err(|e| LearnError::InvalidModel(format!("checkpoint container: {e}")))?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boosting::BoostingConfig;
    use crate::logistic::LogisticConfig;

    fn toy_training() -> (Vec<Vec<f64>>, Vec<bool>, Vec<f64>) {
        let features: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 40.0, (40 - i) as f64 / 40.0])
            .collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let targets: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        (features, labels, targets)
    }

    fn toy_predictor() -> MetaPredictor {
        let (features, labels, targets) = toy_training();
        let scaler = StandardScaler::fit(&features).unwrap();
        let scaled = scaler.transform(&features);
        let classifier = FittedClassifier::Logistic(
            LogisticRegression::fit(&scaled, &labels, LogisticConfig::default()).unwrap(),
        );
        let regressor = FittedRegressor::Boosting(
            GradientBoostingRegressor::fit(&scaled, &targets, BoostingConfig::default()).unwrap(),
        );
        MetaPredictor::new(scaler, classifier, regressor)
    }

    #[test]
    fn predictor_scales_internally_and_matches_manual_pipeline() {
        let predictor = toy_predictor();
        assert_eq!(predictor.feature_dim(), 2);
        let raw = vec![0.9, 0.1];
        let (score, iou) = predictor.predict_one(&raw);
        assert_eq!(score, predictor.score_one(&raw));
        assert_eq!(iou, predictor.predict_iou_one(&raw));
        assert!((0.0..=1.0).contains(&score));
        assert!((0.0..=1.0).contains(&iou));
        // High-feature rows were the positive/high-IoU half of the toy data.
        assert!(predictor.score_one(&[0.95, 0.05]) > predictor.score_one(&[0.05, 0.95]));
        assert!(
            predictor.predict_iou_one(&[0.95, 0.05]) > predictor.predict_iou_one(&[0.05, 0.95])
        );
    }

    #[test]
    fn batch_helpers_delegate_row_wise() {
        let predictor = toy_predictor();
        let rows = vec![vec![0.2, 0.8], vec![0.8, 0.2]];
        assert_eq!(
            predictor.score(&rows),
            vec![predictor.score_one(&rows[0]), predictor.score_one(&rows[1])]
        );
        assert_eq!(
            predictor.predict_iou(&rows),
            vec![
                predictor.predict_iou_one(&rows[0]),
                predictor.predict_iou_one(&rows[1])
            ]
        );
    }

    #[test]
    fn handles_serialize_to_json() {
        let predictor = toy_predictor();
        let json = serde_json::to_string(&predictor).unwrap();
        assert!(json.contains("scaler"));
        assert!(json.contains("classifier"));
        assert!(json.contains("regressor"));
        assert_eq!(predictor.classifier().family(), "logistic regression");
        assert_eq!(predictor.regressor().family(), "gradient boosting");
    }

    #[test]
    fn json_roundtrip_reproduces_bit_identical_predictions() {
        let predictor = toy_predictor();
        let restored = MetaPredictor::from_json(&predictor.to_json()).unwrap();
        assert_eq!(restored, predictor);
        for row in [[0.9, 0.1], [0.05, 0.95], [0.5, 0.5]] {
            assert_eq!(restored.predict_one(&row), predictor.predict_one(&row));
        }
        // Double round-trip is a fixed point.
        assert_eq!(restored.to_json(), predictor.to_json());
    }

    #[test]
    fn container_checkpoint_roundtrip_is_bit_identical_to_the_json_path() {
        let predictor = toy_predictor();
        let bytes = predictor.to_container_bytes();
        let from_container = MetaPredictor::from_container_bytes(&bytes).unwrap();
        let from_json = MetaPredictor::from_json(&predictor.to_json()).unwrap();
        assert_eq!(from_container, predictor);
        assert_eq!(from_container, from_json);
        for row in [[0.9, 0.1], [0.05, 0.95], [0.5, 0.5], [1.7, -0.3]] {
            let (score, iou) = predictor.predict_one(&row);
            assert_eq!(from_container.predict_one(&row), (score, iou));
            assert_eq!(from_json.predict_one(&row), (score, iou));
        }
        // The container embeds exactly the JSON document.
        assert_eq!(from_container.to_json(), predictor.to_json());
    }

    #[test]
    fn corrupt_container_checkpoints_are_rejected_not_panicked_on() {
        let predictor = toy_predictor();
        let bytes = predictor.to_container_bytes();
        // Corrupt the chunk body: a typed error mentioning the container.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x20;
        let err = MetaPredictor::from_container_bytes(&corrupt).unwrap_err();
        match err {
            LearnError::InvalidModel(msg) => assert!(msg.contains("checkpoint container")),
            other => panic!("unexpected error: {other:?}"),
        }
        // Truncation at every boundary is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(MetaPredictor::from_container_bytes(&bytes[..cut]).is_err());
        }
        // Bare JSON is not a checkpoint: a typed error, not a fallback.
        let json = predictor.to_json();
        assert!(matches!(
            MetaPredictor::from_container_bytes(json.as_bytes()),
            Err(LearnError::InvalidModel(msg)) if msg.contains("not a container")
        ));
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_not_panicked_on() {
        for bad in ["", "not json", "{}", "[1,2,3]", "{\"scaler\": 3}"] {
            let err = MetaPredictor::from_json(bad).unwrap_err();
            assert!(matches!(err, LearnError::InvalidModel(_)), "for {bad:?}");
        }
    }

    #[test]
    fn families_are_named() {
        let (features, labels, targets) = toy_training();
        let mlp_c = FittedClassifier::Mlp(
            MlpClassifier::fit(&features, &labels, crate::mlp::MlpConfig::default()).unwrap(),
        );
        assert_eq!(mlp_c.family(), "neural network (L2)");
        let boost_c = FittedClassifier::Boosting(
            GradientBoostingClassifier::fit(&features, &labels, BoostingConfig::default()).unwrap(),
        );
        assert_eq!(boost_c.family(), "gradient boosting");
        let mlp_r = FittedRegressor::Mlp(
            MlpRegressor::fit(&features, &targets, crate::mlp::MlpConfig::default()).unwrap(),
        );
        assert_eq!(mlp_r.family(), "neural network (L2)");
        let lin = FittedRegressor::Linear(LinearRegression::fit(&features, &targets).unwrap());
        assert_eq!(lin.family(), "linear regression");
        let ridge = FittedRegressor::Ridge(RidgeRegression::fit(&features, &targets, 1.0).unwrap());
        assert_eq!(ridge.family(), "ridge regression");
        // The enum handles predict like their inner models.
        assert_eq!(lin.predict_one(&features[3]), {
            let inner = LinearRegression::fit(&features, &targets).unwrap();
            inner.predict_one(&features[3])
        });
    }
}
