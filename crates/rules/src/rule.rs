//! Decision rules: Bayes (argmax) and Maximum Likelihood with pixel-wise priors.

use crate::priors::PriorMap;
use metaseg_data::{LabelMap, ProbMap, SemanticClass};
use serde::{Deserialize, Serialize};

/// A decision rule turning a softmax field into a hard segmentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecisionRule {
    /// Maximum a-posteriori probability (the standard argmax).
    Bayes,
    /// Maximum likelihood with position-specific priors: the posterior is
    /// divided by `p̂_z(y)` before the argmax (eq. (8)/(9) of the paper).
    MaximumLikelihood(PriorMap),
}

impl DecisionRule {
    /// Applies the rule to a softmax field, producing a hard label map.
    ///
    /// # Panics
    ///
    /// Panics if the prior map's shape does not match the probability field.
    pub fn apply(&self, probs: &ProbMap) -> LabelMap {
        let (width, height) = probs.shape();
        match self {
            DecisionRule::Bayes => probs.argmax_map(),
            DecisionRule::MaximumLikelihood(priors) => {
                assert_eq!(
                    priors.shape(),
                    probs.shape(),
                    "prior map shape must match the probability field"
                );
                LabelMap::from_fn(width, height, |x, y| {
                    let posterior = probs.distribution(x, y);
                    let prior = priors.distribution(x, y);
                    let mut best = 0usize;
                    let mut best_score = f64::NEG_INFINITY;
                    for (channel, (&p, &q)) in posterior.iter().zip(prior).enumerate() {
                        let score = if q > 0.0 { p / q } else { f64::NEG_INFINITY };
                        if score > best_score {
                            best_score = score;
                            best = channel;
                        }
                    }
                    SemanticClass::from_id(best as u16).expect("valid channel")
                })
            }
        }
    }

    /// Short human readable name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            DecisionRule::Bayes => "bayes",
            DecisionRule::MaximumLikelihood(_) => "maximum-likelihood",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::{LabelMap, ProbMap};
    use proptest::prelude::*;

    fn probs_with(dist: &[f64]) -> ProbMap {
        let mut probs = ProbMap::uniform(1, 1, 19);
        probs.set_distribution(0, 0, dist).unwrap();
        probs
    }

    fn mostly_road_some_human(human_prob: f64) -> Vec<f64> {
        let mut dist = vec![0.0; 19];
        dist[SemanticClass::Road.id() as usize] = 1.0 - human_prob - 0.05;
        dist[SemanticClass::Human.id() as usize] = human_prob;
        dist[SemanticClass::Sidewalk.id() as usize] = 0.05;
        dist
    }

    /// The prior of a map with no evaluated pixel: Laplace smoothing alone,
    /// 1/19 for every class.
    fn uniform_prior() -> PriorMap {
        PriorMap::estimate(&[LabelMap::filled(1, 1, SemanticClass::Void)], 1.0)
    }

    #[test]
    fn ml_rule_recovers_rare_class() {
        // The posterior favours road, but the prior for human is tiny, so the
        // likelihood ratio favours human.
        let dist = mostly_road_some_human(0.25);
        let probs = probs_with(&dist);
        // Training maps: road 40 times, sidewalk 10, human once and every
        // other evaluated class 3 times.
        let mut maps = Vec::new();
        for class in SemanticClass::ALL.into_iter().filter(|c| c.is_evaluated()) {
            let count = match class {
                SemanticClass::Road => 40,
                SemanticClass::Sidewalk => 10,
                SemanticClass::Human => 1,
                _ => 3,
            };
            maps.extend((0..count).map(|_| LabelMap::filled(1, 1, class)));
        }
        let rule = DecisionRule::MaximumLikelihood(PriorMap::estimate(&maps, 0.0));
        let decided = rule.apply(&probs);
        assert_eq!(decided.class_at(0, 0), SemanticClass::Human);
        // Bayes still says road.
        assert_eq!(
            DecisionRule::Bayes.apply(&probs).class_at(0, 0),
            SemanticClass::Road
        );
    }

    #[test]
    fn position_specific_ml_uses_local_priors() {
        // Two pixels with identical posteriors, but the prior at pixel 1
        // makes humans common there and rare at pixel 0.
        let mut probs = ProbMap::uniform(2, 1, 19);
        let dist = mostly_road_some_human(0.3);
        probs.set_distribution(0, 0, &dist).unwrap();
        probs.set_distribution(1, 0, &dist).unwrap();

        let human_heavy = LabelMap::from_fn(2, 1, |x, _| {
            if x == 1 {
                SemanticClass::Human
            } else {
                SemanticClass::Road
            }
        });
        let maps: Vec<LabelMap> = (0..20).map(|_| human_heavy.clone()).collect();
        let priors = PriorMap::estimate(&maps, 0.5);
        let rule = DecisionRule::MaximumLikelihood(priors);
        let decided = rule.apply(&probs);
        // At x=0 humans are rare -> likelihood ratio flips the decision to human.
        assert_eq!(decided.class_at(0, 0), SemanticClass::Human);
        // At x=1 humans are the prior-dominant class -> dividing by a large
        // prior suppresses it, so the decision stays with road.
        assert_eq!(decided.class_at(1, 0), SemanticClass::Road);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DecisionRule::Bayes.name(), "bayes");
        assert_eq!(
            DecisionRule::MaximumLikelihood(uniform_prior()).name(),
            "maximum-likelihood"
        );
    }

    proptest! {
        /// With a uniform prior the ML rule coincides with Bayes.
        #[test]
        fn prop_uniform_prior_ml_equals_bayes(raw in proptest::collection::vec(0.01f64..1.0, 19)) {
            let sum: f64 = raw.iter().sum();
            let dist: Vec<f64> = raw.iter().map(|v| v / sum).collect();
            let probs = probs_with(&dist);
            let ml = DecisionRule::MaximumLikelihood(uniform_prior()).apply(&probs);
            let bayes = DecisionRule::Bayes.apply(&probs);
            prop_assert_eq!(ml.class_at(0, 0), bayes.class_at(0, 0));
        }
    }
}
