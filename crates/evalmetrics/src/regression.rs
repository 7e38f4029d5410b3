//! Regression quality metrics: R², residual sigma, Pearson correlation.

/// Coefficient of determination `R²` of predictions against targets.
///
/// `R² = 1 - SS_res / SS_tot`. Returns `0.0` when the targets have zero
/// variance (the constant predictor explains nothing by convention).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn r_squared(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "predictions and targets must have the same length"
    );
    assert!(
        !targets.is_empty(),
        "r_squared requires at least one sample"
    );
    let mean_target: f64 = targets.iter().sum::<f64>() / targets.len() as f64;
    let ss_tot: f64 = targets.iter().map(|t| (t - mean_target).powi(2)).sum();
    let ss_res: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (t - p).powi(2))
        .sum();
    if ss_tot <= f64::EPSILON {
        return 0.0;
    }
    1.0 - ss_res / ss_tot
}

/// Standard deviation of the residuals (the paper's `σ` column): the root
/// mean squared prediction error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn residual_sigma(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "predictions and targets must have the same length"
    );
    assert!(
        !targets.is_empty(),
        "residual_sigma requires at least one sample"
    );
    let mse: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).powi(2))
        .sum::<f64>()
        / targets.len() as f64;
    mse.sqrt()
}

/// Pearson correlation coefficient `R` between two samples.
///
/// Returns `0.0` when either sample has zero variance.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must have the same length");
    assert!(
        !xs.is_empty(),
        "pearson_correlation requires at least one sample"
    );
    let n = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x <= f64::EPSILON || var_y <= f64::EPSILON {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_predictions() {
        let targets = [0.1, 0.5, 0.9, 0.3];
        assert!((r_squared(&targets, &targets) - 1.0).abs() < 1e-12);
        assert!(residual_sigma(&targets, &targets).abs() < 1e-12);
        assert!((pearson_correlation(&targets, &targets) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_predictor_has_zero_r_squared() {
        let targets = [1.0, 2.0, 3.0, 4.0];
        let mean = [2.5; 4];
        assert!(r_squared(&mean, &targets).abs() < 1e-12);
    }

    #[test]
    fn constant_targets_return_zero_not_nan() {
        let targets = [2.0, 2.0, 2.0];
        let predictions = [1.0, 2.0, 3.0];
        assert_eq!(r_squared(&predictions, &targets), 0.0);
        assert_eq!(pearson_correlation(&predictions, &targets), 0.0);
    }

    #[test]
    fn residual_sigma_known_value() {
        let predictions = [1.0, 2.0];
        let targets = [2.0, 4.0];
        // residuals -1 and -2, mse = 2.5, sigma = sqrt(2.5)
        assert!((residual_sigma(&predictions, &targets) - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pearson_detects_anticorrelation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson_correlation(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_r_squared_at_most_one(
            pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..50)
        ) {
            let predictions: Vec<f64> = pairs.iter().map(|(p, _)| *p).collect();
            let targets: Vec<f64> = pairs.iter().map(|(_, t)| *t).collect();
            prop_assert!(r_squared(&predictions, &targets) <= 1.0 + 1e-12);
        }

        #[test]
        fn prop_pearson_in_minus_one_one(
            pairs in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 2..50)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|(a, _)| *a).collect();
            let ys: Vec<f64> = pairs.iter().map(|(_, b)| *b).collect();
            let r = pearson_correlation(&xs, &ys);
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
        }

        /// Pearson correlation is invariant under positive affine transforms.
        #[test]
        fn prop_pearson_affine_invariant(
            xs in proptest::collection::vec(-5.0f64..5.0, 3..30),
            scale in 0.1f64..10.0,
            shift in -5.0f64..5.0,
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
            prop_assume!(xs.iter().any(|x| (x - xs[0]).abs() > 1e-9));
            prop_assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-6);
        }

        #[test]
        fn prop_sigma_zero_iff_equal(
            targets in proptest::collection::vec(0.0f64..1.0, 1..30),
        ) {
            prop_assert!(residual_sigma(&targets, &targets) < 1e-12);
        }
    }
}
