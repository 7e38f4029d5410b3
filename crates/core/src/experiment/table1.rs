//! Table I: meta classification and meta regression on Cityscapes-like data
//! for the strong (Xception65-like) and weak (MobilenetV2-like) networks.

use crate::error::MetaSegError;
use crate::metaseg::{MetaSeg, MetaSegConfig, MetaSegReport};
use metaseg_data::{Frame, FrameId};
use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the Table I experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Config {
    /// Number of synthetic scenes per network (the stand-in for the
    /// Cityscapes validation set).
    pub scene_count: usize,
    /// Scene geometry.
    pub scene: SceneConfig,
    /// MetaSeg pipeline configuration (number of runs, split, penalty).
    pub metaseg: MetaSegConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            scene_count: 120,
            scene: SceneConfig::cityscapes_like(),
            metaseg: MetaSegConfig::default(),
            seed: 2020,
        }
    }
}

impl Table1Config {
    /// Small configuration used by the test suite.
    pub fn quick() -> Self {
        Self {
            scene_count: 8,
            scene: SceneConfig::small(),
            metaseg: MetaSegConfig {
                runs: 2,
                ..MetaSegConfig::default()
            },
            seed: 7,
        }
    }
}

/// Result of the Table I experiment: one MetaSeg report per network profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// `(profile name, report)` pairs, strong network first.
    pub networks: Vec<(String, MetaSegReport)>,
}

impl Table1Result {
    /// Formats the result as a text table mirroring the paper's Table I rows.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Table I — meta classification (IoU = 0 vs > 0) and meta regression\n");
        for (name, report) in &self.networks {
            out.push_str(&format!(
                "\n=== {name} ===  ({} segments, {:.1}% with IoU > 0)\n",
                report.segment_count,
                report.positive_fraction * 100.0
            ));
            out.push_str(&format!(
                "{:<28} {:>22} {:>22}\n",
                "metric", "meta train", "meta test"
            ));
            let rows = [
                (
                    "ACC, penalized",
                    &report.classification.train_acc,
                    &report.classification.val_acc,
                ),
                (
                    "ACC, unpenalized",
                    &report.classification_unpenalized.train_acc,
                    &report.classification_unpenalized.val_acc,
                ),
                (
                    "ACC, entropy only",
                    &report.classification_entropy.train_acc,
                    &report.classification_entropy.val_acc,
                ),
            ];
            for (label, train, val) in rows {
                out.push_str(&format!(
                    "{:<28} {:>22} {:>22}\n",
                    label,
                    train.format_percent(2),
                    val.format_percent(2)
                ));
            }
            out.push_str(&format!(
                "{:<28} {:>22} {:>22}\n",
                "ACC, naive baseline",
                format!("{:.2}%", report.naive_baseline_acc * 100.0),
                format!("{:.2}%", report.naive_baseline_acc * 100.0),
            ));
            let auroc_rows = [
                (
                    "AUROC, penalized",
                    &report.classification.train_auroc,
                    &report.classification.val_auroc,
                ),
                (
                    "AUROC, unpenalized",
                    &report.classification_unpenalized.train_auroc,
                    &report.classification_unpenalized.val_auroc,
                ),
                (
                    "AUROC, entropy only",
                    &report.classification_entropy.train_auroc,
                    &report.classification_entropy.val_auroc,
                ),
            ];
            for (label, train, val) in auroc_rows {
                out.push_str(&format!(
                    "{:<28} {:>22} {:>22}\n",
                    label,
                    train.format_percent(2),
                    val.format_percent(2)
                ));
            }
            let reg_rows = [
                (
                    "sigma, all metrics",
                    &report.regression.train_sigma,
                    &report.regression.val_sigma,
                    false,
                ),
                (
                    "sigma, entropy only",
                    &report.regression_entropy.train_sigma,
                    &report.regression_entropy.val_sigma,
                    false,
                ),
                (
                    "R2, all metrics",
                    &report.regression.train_r2,
                    &report.regression.val_r2,
                    true,
                ),
                (
                    "R2, entropy only",
                    &report.regression_entropy.train_r2,
                    &report.regression_entropy.val_r2,
                    true,
                ),
            ];
            for (label, train, val, percent) in reg_rows {
                let (a, b) = if percent {
                    (train.format_percent(2), val.format_percent(2))
                } else {
                    (train.format_plain(3), val.format_plain(3))
                };
                out.push_str(&format!("{:<28} {:>22} {:>22}\n", label, a, b));
            }
        }
        out
    }
}

/// Generates the per-network frames (shared ground-truth scenes, one
/// prediction per network) used by Table I and Fig. 1.
fn generate_frames(config: &Table1Config, profile: NetworkProfile, seed_offset: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ seed_offset);
    let sim = NetworkSim::new(profile);
    (0..config.scene_count)
        .map(|i| {
            let scene = Scene::generate(&config.scene, &mut rng);
            let gt = scene.render();
            let probs = sim.predict(&gt, &mut rng);
            Frame::labeled(FrameId::new(0, i), gt, probs)
                .expect("scene and prediction share one shape")
        })
        .collect()
}

/// Runs the Table I experiment.
///
/// # Errors
///
/// Propagates [`MetaSegError`] from the MetaSeg pipeline.
pub fn run(config: &Table1Config) -> Result<Table1Result, MetaSegError> {
    let mut networks = Vec::new();
    for (offset, profile) in [
        (1u64, NetworkProfile::strong()),
        (2u64, NetworkProfile::weak()),
    ] {
        let name = profile.name.clone();
        let frames = generate_frames(config, profile, offset);
        let metaseg = MetaSeg::new(config.metaseg);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(offset));
        let report = metaseg.run(&frames, &mut rng)?;
        networks.push((name, report));
    }
    Ok(Table1Result { networks })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_reproduces_the_orderings() {
        let result = run(&Table1Config::quick()).unwrap();
        assert_eq!(result.networks.len(), 2);
        let strong = &result.networks[0].1;
        let weak = &result.networks[1].1;

        // All-metrics meta classification beats the entropy baseline on AUROC
        // (the paper's ~10 pp gap; here we only require the ordering).
        assert!(
            strong.classification.val_auroc.mean()
                >= strong.classification_entropy.val_auroc.mean() - 0.03
        );
        // All-metrics regression beats entropy-only on R².
        assert!(strong.regression.val_r2.mean() >= strong.regression_entropy.val_r2.mean() - 0.03);
        assert!(weak.regression.val_r2.mean() >= weak.regression_entropy.val_r2.mean() - 0.03);
        // Train and validation stay close for the linear meta models.
        assert!(
            (strong.classification.train_auroc.mean() - strong.classification.val_auroc.mean())
                .abs()
                < 0.15
        );
        // Table formatting contains the expected rows.
        let text = result.format_table();
        assert!(text.contains("AUROC, penalized"));
        assert!(text.contains("R2, entropy only"));
        assert!(text.contains("xception65-like"));
    }
}
