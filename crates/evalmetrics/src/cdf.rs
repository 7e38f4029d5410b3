//! Empirical cumulative distribution functions and stochastic dominance.
//!
//! Section IV of the paper compares the Bayes and Maximum-Likelihood decision
//! rules via empirical CDFs of segment-wise precision and recall and argues
//! in terms of first-order stochastic dominance; this module provides both.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function built from a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the empirical CDF of a sample, dropping non-finite values.
    /// Returns `None` when no finite values remain — the non-panicking
    /// constructor long-running services must use, because one all-NaN
    /// metric column must degrade into "no distribution", not kill the
    /// worker.
    pub fn try_new(sample: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut sorted: Vec<f64> = sample.into_iter().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
        Some(Self { sorted })
    }

    /// Builds the empirical CDF of a sample. NaN values are dropped.
    ///
    /// Thin panicking wrapper over [`EmpiricalCdf::try_new`] for callers
    /// that can guarantee a usable sample (fixtures, analysis scripts).
    ///
    /// # Panics
    ///
    /// Panics if the sample contains no finite values.
    pub fn new(sample: impl IntoIterator<Item = f64>) -> Self {
        Self::try_new(sample).expect("empirical CDF requires at least one finite sample value")
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for constructed CDFs).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of sample values `<= x`.
    pub fn evaluate(&self, x: f64) -> f64 {
        // partition_point gives the index of the first element > x.
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile for `p` in `[0, 1]` (lower empirical quantile).
    ///
    /// Thin panicking wrapper over `quantile_clamped`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile level must be in [0, 1]");
        self.quantile_clamped(p)
    }

    /// Empirical quantile with `p` clamped into `[0, 1]` instead of
    /// panicking on out-of-range input; a NaN level is treated as `0` (the
    /// minimum).
    fn quantile_clamped(&self, p: f64) -> f64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        if p <= 0.0 {
            return self.sorted[0];
        }
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Evaluates the CDF on an equally spaced grid of `points` values between
    /// `lo` and `hi` (inclusive). Returns `(x, F(x))` pairs; used to plot the
    /// Fig. 5 style curves.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or `hi < lo`.
    pub fn curve(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        assert!(hi >= lo, "hi must not be smaller than lo");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.evaluate(x))
            })
            .collect()
    }

    /// First-order stochastic dominance test: `self ⪯ other` in the paper's
    /// notation means the *other* distribution is right-shifted, i.e.
    /// `F_self(x) >= F_other(x)` everywhere. This method returns `true` when
    /// `self` dominates `other` in that sense evaluated on the union of both
    /// supports plus grid points, with a small tolerance for sampling noise.
    ///
    /// `tolerance` is the maximal allowed violation of the inequality (use
    /// `0.0` for the strict definition).
    pub fn stochastically_dominates(&self, other: &EmpiricalCdf, tolerance: f64) -> bool {
        let mut points: Vec<f64> = self
            .sorted
            .iter()
            .chain(other.sorted.iter())
            .copied()
            .collect();
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        points.dedup();
        points
            .iter()
            .all(|&x| self.evaluate(x) + tolerance >= other.evaluate(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evaluate_step_function() {
        let cdf = EmpiricalCdf::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.evaluate(0.5), 0.0);
        assert_eq!(cdf.evaluate(1.0), 0.25);
        assert_eq!(cdf.evaluate(2.5), 0.5);
        assert_eq!(cdf.evaluate(4.0), 1.0);
        assert_eq!(cdf.evaluate(10.0), 1.0);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn quantiles_and_extremes() {
        let cdf = EmpiricalCdf::new([3.0, 1.0, 2.0]);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 3.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert!((cdf.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nan_values_are_dropped() {
        let cdf = EmpiricalCdf::new([f64::NAN, 1.0, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        let _ = EmpiricalCdf::new(std::iter::empty());
    }

    #[test]
    fn try_new_degrades_instead_of_panicking() {
        assert_eq!(EmpiricalCdf::try_new(std::iter::empty()), None);
        // The long-running-service case: a metric column that went all-NaN.
        assert_eq!(
            EmpiricalCdf::try_new([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            None
        );
        let cdf = EmpiricalCdf::try_new([f64::NAN, 2.0]).unwrap();
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf, EmpiricalCdf::new([2.0]));
    }

    #[test]
    fn clamped_quantiles_tolerate_out_of_range_levels() {
        let cdf = EmpiricalCdf::new([3.0, 1.0, 2.0]);
        assert_eq!(cdf.quantile_clamped(-0.3), 1.0);
        assert_eq!(cdf.quantile_clamped(1.7), 3.0);
        assert_eq!(cdf.quantile_clamped(f64::NAN), 1.0);
        // Inside the unit interval the clamped path is the quantile path.
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(cdf.quantile_clamped(p), cdf.quantile(p));
        }
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = EmpiricalCdf::new([0.2, 0.4, 0.4, 0.9]);
        let curve = cdf.curve(0.0, 1.0, 11);
        assert_eq!(curve.len(), 11);
        for window in curve.windows(2) {
            assert!(window[1].1 >= window[0].1);
        }
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve[10].0, 1.0);
    }

    #[test]
    fn dominance_for_shifted_samples() {
        // "low" values: its CDF rises earlier, so it dominates (is left of) "high".
        let low = EmpiricalCdf::new([0.1, 0.2, 0.3, 0.4]);
        let high = EmpiricalCdf::new([0.5, 0.6, 0.7, 0.8]);
        assert!(low.stochastically_dominates(&high, 0.0));
        assert!(!high.stochastically_dominates(&low, 0.0));
        // Every distribution dominates itself.
        assert!(low.stochastically_dominates(&low, 0.0));
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone_and_bounded(
            sample in proptest::collection::vec(0.0f64..1.0, 1..60),
            probes in proptest::collection::vec(0.0f64..1.0, 1..20),
        ) {
            let cdf = EmpiricalCdf::new(sample);
            let mut sorted_probes = probes.clone();
            sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = 0.0;
            for p in sorted_probes {
                let v = cdf.evaluate(p);
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= last - 1e-12);
                last = v;
            }
            prop_assert_eq!(cdf.evaluate(f64::INFINITY), 1.0);
        }

        /// Adding a constant to every sample value shifts the CDF to the right,
        /// so the original sample's CDF dominates the shifted one.
        #[test]
        fn prop_shift_yields_dominance(
            sample in proptest::collection::vec(0.0f64..1.0, 1..40),
            shift in 0.0f64..0.5,
        ) {
            let base = EmpiricalCdf::new(sample.clone());
            let shifted = EmpiricalCdf::new(sample.iter().map(|v| v + shift));
            prop_assert!(base.stochastically_dominates(&shifted, 1e-12));
        }
    }
}
