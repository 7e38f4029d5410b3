//! Model traits the MetaSeg pipeline is generic over.

/// A regression model mapping a feature vector to a real-valued prediction.
///
/// Meta regression (predicting the IoU of a segment) is expressed against
/// this trait, so linear models, gradient boosting and the MLP are
/// interchangeable.
pub trait Regressor {
    /// Predicts the target for a single feature vector.
    fn predict_one(&self, features: &[f64]) -> f64;

    /// Predicts targets for a batch of feature vectors.
    fn predict(&self, features: &[Vec<f64>]) -> Vec<f64> {
        features.iter().map(|row| self.predict_one(row)).collect()
    }
}

/// A binary classification model producing a positive-class probability.
///
/// Meta classification (deciding `IoU = 0` vs `IoU > 0` for a segment) is
/// expressed against this trait.
pub trait BinaryClassifier {
    /// Probability of the positive class for a single feature vector.
    fn predict_proba_one(&self, features: &[f64]) -> f64;

    /// Probabilities of the positive class for a batch of feature vectors.
    fn predict_proba(&self, features: &[Vec<f64>]) -> Vec<f64> {
        features
            .iter()
            .map(|row| self.predict_proba_one(row))
            .collect()
    }

    /// Hard prediction at the default threshold of `0.5`.
    fn predict_one(&self, features: &[f64]) -> bool {
        self.predict_proba_one(features) >= 0.5
    }

    /// Hard predictions for a batch of feature vectors.
    fn predict(&self, features: &[Vec<f64>]) -> Vec<bool> {
        features.iter().map(|row| self.predict_one(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstantModel(f64);

    impl Regressor for ConstantModel {
        fn predict_one(&self, _features: &[f64]) -> f64 {
            self.0
        }
    }

    impl BinaryClassifier for ConstantModel {
        fn predict_proba_one(&self, _features: &[f64]) -> f64 {
            self.0
        }
    }

    #[test]
    fn default_batch_methods_delegate() {
        let model = ConstantModel(0.7);
        let rows = vec![vec![0.0], vec![1.0]];
        assert_eq!(Regressor::predict(&model, &rows), vec![0.7, 0.7]);
        assert_eq!(BinaryClassifier::predict(&model, &rows), vec![true, true]);
        let low = ConstantModel(0.2);
        assert_eq!(BinaryClassifier::predict(&low, &rows), vec![false, false]);
    }
}
