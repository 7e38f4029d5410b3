//! Binary classification metrics: accuracy, confusion counts, AUROC, AP.

use serde::{Deserialize, Serialize};

/// Confusion-matrix counts of a binary classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionCounts {
    /// Correctly predicted positives.
    pub true_positives: usize,
    /// Negatives predicted as positives.
    pub false_positives: usize,
    /// Correctly predicted negatives.
    pub true_negatives: usize,
    /// Positives predicted as negatives.
    pub false_negatives: usize,
}

impl ConfusionCounts {
    /// Builds confusion counts from predictions and ground-truth labels.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    fn from_predictions(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(
            predicted.len(),
            actual.len(),
            "predictions and labels must have the same length"
        );
        let mut counts = ConfusionCounts::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            match (p, a) {
                (true, true) => counts.true_positives += 1,
                (true, false) => counts.false_positives += 1,
                (false, false) => counts.true_negatives += 1,
                (false, true) => counts.false_negatives += 1,
            }
        }
        counts
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Classification accuracy; `0` when there are no samples.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// Precision (positive predictive value); `0` when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall (true positive rate); `0` when there are no positives.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }
}

/// Fraction of predictions that match the labels.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(predicted: &[bool], actual: &[bool]) -> f64 {
    ConfusionCounts::from_predictions(predicted, actual).accuracy()
}

/// Area under the ROC curve of a score-based binary classifier.
///
/// Computed via the Mann–Whitney U statistic: the probability that a random
/// positive receives a higher score than a random negative, counting ties as
/// one half. Returns `0.5` (chance level) when either class is absent.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn auroc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(
        scores.len(),
        labels.len(),
        "scores and labels must have the same length"
    );
    let positives: Vec<f64> = scores
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(&s, _)| s)
        .collect();
    let negatives: Vec<f64> = scores
        .iter()
        .zip(labels)
        .filter(|(_, &l)| !l)
        .map(|(&s, _)| s)
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return 0.5;
    }

    // Rank-based computation: O((n+m) log(n+m)) instead of O(n*m).
    let mut all: Vec<(f64, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Assign average ranks to ties.
    let n = all.len();
    let mut rank_sum_positive = 0.0;
    let mut i = 0usize;
    while i < n {
        let mut j = i;
        while j + 1 < n && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        // Ranks are 1-based; the tied block [i..=j] gets the average rank.
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for item in all.iter().take(j + 1).skip(i) {
            if item.1 {
                rank_sum_positive += avg_rank;
            }
        }
        i = j + 1;
    }
    let n_pos = positives.len() as f64;
    let n_neg = negatives.len() as f64;
    let u = rank_sum_positive - n_pos * (n_pos + 1.0) / 2.0;
    u / (n_pos * n_neg)
}

/// Average precision (area under the precision-recall curve, step-wise).
///
/// Returns `0.0` when there are no positive labels.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn average_precision(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(
        scores.len(),
        labels.len(),
        "scores and labels must have the same length"
    );
    let total_positives = labels.iter().filter(|&&l| l).count();
    if total_positives == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut tp = 0usize;
    let mut ap = 0.0;
    for (rank, &idx) in order.iter().enumerate() {
        if labels[idx] {
            tp += 1;
            let precision_at_k = tp as f64 / (rank + 1) as f64;
            ap += precision_at_k;
        }
    }
    ap / total_positives as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn confusion_counts_basic() {
        let predicted = [true, true, false, false, true];
        let actual = [true, false, false, true, true];
        let c = ConfusionCounts::from_predictions(&predicted, &actual);
        assert_eq!(c.true_positives, 2);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.true_negatives, 1);
        assert_eq!(c.false_negatives, 1);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_do_not_divide_by_zero() {
        let c = ConfusionCounts::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
    }

    #[test]
    fn auroc_perfect_and_inverted() {
        let scores = [0.9, 0.7, 0.3, 0.2];
        let labels = [true, true, false, false];
        assert!((auroc(&scores, &labels) - 1.0).abs() < 1e-12);
        let inverted = [false, false, true, true];
        assert!(auroc(&scores, &inverted).abs() < 1e-12);
    }

    #[test]
    fn auroc_chance_for_constant_scores() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((auroc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auroc_single_class_is_half() {
        assert_eq!(auroc(&[0.1, 0.2], &[true, true]), 0.5);
        assert_eq!(auroc(&[0.1, 0.2], &[false, false]), 0.5);
    }

    #[test]
    fn auroc_known_value() {
        // positives: 0.8, 0.4; negatives: 0.6, 0.2
        // pairs: (0.8>0.6)=1, (0.8>0.2)=1, (0.4<0.6)=0, (0.4>0.2)=1 => 3/4
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((auroc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn average_precision_perfect_ranking() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((average_precision(&scores, &labels) - 1.0).abs() < 1e-12);
        assert_eq!(average_precision(&scores, &[false; 4]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_auroc_in_unit_interval(
            scores in proptest::collection::vec(0.0f64..1.0, 2..60),
            flips in proptest::collection::vec(any::<bool>(), 2..60),
        ) {
            let n = scores.len().min(flips.len());
            let v = auroc(&scores[..n], &flips[..n]);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        /// AUROC is invariant under strictly monotone transformations of the scores.
        #[test]
        fn prop_auroc_monotone_invariant(
            scores in proptest::collection::vec(0.01f64..1.0, 4..40),
            labels in proptest::collection::vec(any::<bool>(), 4..40),
        ) {
            let n = scores.len().min(labels.len());
            let scores = &scores[..n];
            let labels = &labels[..n];
            let transformed: Vec<f64> = scores.iter().map(|s| (s * 5.0).exp()).collect();
            let a = auroc(scores, labels);
            let b = auroc(&transformed, labels);
            prop_assert!((a - b).abs() < 1e-9);
        }

        /// Flipping all labels mirrors the AUROC around 0.5.
        #[test]
        fn prop_auroc_label_flip_symmetry(
            scores in proptest::collection::vec(0.0f64..1.0, 4..40),
            labels in proptest::collection::vec(any::<bool>(), 4..40),
        ) {
            let n = scores.len().min(labels.len());
            let scores = &scores[..n];
            let labels = &labels[..n];
            let has_both = labels.iter().any(|&l| l) && labels.iter().any(|&l| !l);
            prop_assume!(has_both);
            let flipped: Vec<bool> = labels.iter().map(|l| !l).collect();
            let a = auroc(scores, labels);
            let b = auroc(scores, &flipped);
            prop_assert!((a + b - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_accuracy_matches_manual_count(
            pairs in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..50)
        ) {
            let predicted: Vec<bool> = pairs.iter().map(|(p, _)| *p).collect();
            let actual: Vec<bool> = pairs.iter().map(|(_, a)| *a).collect();
            let manual = pairs.iter().filter(|(p, a)| p == a).count() as f64 / pairs.len() as f64;
            prop_assert!((accuracy(&predicted, &actual) - manual).abs() < 1e-12);
        }
    }
}
