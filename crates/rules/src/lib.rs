//! # metaseg-rules
//!
//! Decision rules for semantic segmentation (Section IV of the paper):
//! instead of always taking the class of maximal posterior probability (the
//! Bayes / MAP rule), a decision maker may weight confusion events by a cost
//! matrix. The Maximum-Likelihood (ML) rule is the cost matrix that weights
//! each confusion by the inverse class prior, which makes the network much more
//! sensitive to rare classes such as pedestrians — reducing false negatives
//! at the price of extra false positives.
//!
//! * [`PriorMap`] — pixel-wise a-priori class probabilities estimated from
//!   training label maps (the paper's Fig. 4 heat map),
//! * [`DecisionRule`] — Bayes or position-specific Maximum Likelihood,
//! * [`segment_precision_recall`] — the segment-wise precision / recall
//!   statistics that Fig. 5 compares across decision rules.
//!
//! ```
//! use metaseg_data::{LabelMap, ProbMap, SemanticClass};
//! use metaseg_rules::DecisionRule;
//!
//! let labels = LabelMap::filled(4, 4, SemanticClass::Road);
//! let probs = ProbMap::one_hot(&labels, 19);
//! let decided = DecisionRule::Bayes.apply(&probs);
//! assert_eq!(decided.class_at(0, 0), SemanticClass::Road);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluation;
mod priors;
mod rule;

pub use evaluation::{segment_precision_recall, SegmentScores};
pub use priors::PriorMap;
pub use rule::DecisionRule;
