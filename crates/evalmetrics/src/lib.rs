//! # metaseg-eval
//!
//! Evaluation metrics used throughout the MetaSeg reproduction:
//!
//! * binary classification quality: [`accuracy`], [`auroc`],
//!   [`ConfusionCounts`], precision/recall,
//! * regression quality: [`r_squared`], [`residual_sigma`],
//!   [`pearson_correlation`],
//! * distribution comparison: [`EmpiricalCdf`] and first-order
//!   [`stochastic dominance`](EmpiricalCdf::stochastically_dominates),
//! * aggregation over repeated runs: [`RunStatistics`] (the "averaged over 10
//!   runs (± std)" columns of the paper's tables).
//!
//! ```
//! use metaseg_eval::{auroc, r_squared};
//!
//! let scores = [0.9, 0.8, 0.3, 0.1];
//! let labels = [true, true, false, false];
//! assert_eq!(auroc(&scores, &labels), 1.0);
//!
//! let predictions = [1.0, 2.0, 3.0];
//! let targets = [1.1, 1.9, 3.2];
//! assert!(r_squared(&predictions, &targets) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod classification;
mod regime;
mod regression;
mod summary;

pub use cdf::EmpiricalCdf;
pub use classification::{accuracy, auroc, average_precision, ConfusionCounts};
pub use regime::RegimeSummary;
pub use regression::{pearson_correlation, r_squared, residual_sigma};
pub use summary::RunStatistics;
