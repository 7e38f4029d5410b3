//! Aggregation of metric values over repeated runs.
//!
//! The paper reports every table cell as "mean over 10 runs (± standard
//! deviation of the computed mean)"; [`RunStatistics`] reproduces exactly
//! that aggregation.

use serde::{Deserialize, Serialize};

/// Mean and dispersion of a metric collected over repeated runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunStatistics {
    values: Vec<f64>,
}

impl RunStatistics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds statistics from an iterator of per-run values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        Self {
            values: values.into_iter().collect(),
        }
    }

    /// Records one run's value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of runs recorded.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Whether no runs were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw per-run values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean over runs; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation over runs (`n - 1` denominator); `0.0` for
    /// fewer than two runs.
    fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// Standard deviation of the computed mean (standard error), the `(±…)`
    /// quantity reported in the paper's tables; `0.0` for fewer than two runs.
    fn std_error(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        self.std_dev() / (self.values.len() as f64).sqrt()
    }

    /// Formats the statistic like the paper's tables, e.g. `87.72% (±0.14%)`,
    /// interpreting the value as a fraction when `as_percent` is true.
    pub fn format_percent(&self, decimals: usize) -> String {
        format!(
            "{:.prec$}% (±{:.prec$}%)",
            self.mean() * 100.0,
            self.std_error() * 100.0,
            prec = decimals
        )
    }

    /// Formats the statistic as a plain number, e.g. `0.181 (±0.001)`.
    pub fn format_plain(&self, decimals: usize) -> String {
        format!(
            "{:.prec$} (±{:.prec$})",
            self.mean(),
            self.std_error(),
            prec = decimals
        )
    }
}

impl FromIterator<f64> for RunStatistics {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_values(iter)
    }
}

impl Extend<f64> for RunStatistics {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        let stats = RunStatistics::from_values([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(stats.count(), 4);
        assert!((stats.mean() - 2.5).abs() < 1e-12);
        // sample std of 1..4 is sqrt(5/3)
        assert!((stats.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((stats.std_error() - (5.0f64 / 3.0).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = RunStatistics::new();
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);

        let single = RunStatistics::from_values([0.7]);
        assert_eq!(single.mean(), 0.7);
        assert_eq!(single.std_dev(), 0.0);
        assert_eq!(single.std_error(), 0.0);
    }

    #[test]
    fn formatting_matches_paper_style() {
        let stats = RunStatistics::from_values([0.8771, 0.8773, 0.8770, 0.8774]);
        let text = stats.format_percent(2);
        assert!(text.starts_with("87.7"));
        assert!(text.contains("(±0.0"));
        let plain = RunStatistics::from_values([0.181, 0.182]).format_plain(3);
        assert!(plain.starts_with("0.18"));
    }

    #[test]
    fn collect_and_extend() {
        let mut stats: RunStatistics = [0.1, 0.2].into_iter().collect();
        stats.extend([0.3]);
        stats.push(0.4);
        assert_eq!(stats.count(), 4);
        assert_eq!(stats.values(), &[0.1, 0.2, 0.3, 0.4]);
    }

    proptest! {
        #[test]
        fn prop_mean_within_range(values in proptest::collection::vec(0.0f64..1.0, 1..30)) {
            let stats = RunStatistics::from_values(values.clone());
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(stats.mean() >= lo - 1e-12 && stats.mean() <= hi + 1e-12);
            prop_assert!(stats.std_dev() >= 0.0);
            prop_assert!(stats.std_error() <= stats.std_dev() + 1e-15);
        }

        #[test]
        fn prop_constant_sample_has_zero_std(value in 0.0f64..1.0, n in 2usize..20) {
            let stats = RunStatistics::from_values(std::iter::repeat_n(value, n));
            prop_assert!(stats.std_dev() < 1e-12);
            prop_assert!((stats.mean() - value).abs() < 1e-12);
        }
    }
}
