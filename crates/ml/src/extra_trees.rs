//! Extremely randomized trees ("ET"): random thresholds, no bootstrap.
//!
//! Trees train in parallel with per-tree SplitMix64-derived seeds (same
//! scheme as [`crate::forest`]), so the fitted ensemble is bit-identical
//! for any thread count.

use crate::error::Result;
use crate::forest::{ensemble_importances, ensemble_predict_proba, fit_ensemble};
use crate::matrix::Matrix;
use crate::model::Classifier;
use crate::tree::{DecisionTree, MaxFeatures, SplitMode, TreeParams};

/// Extra-trees ensemble: like a random forest but with uniform random
/// split thresholds and the full training set per tree (sklearn's
/// `ExtraTreesClassifier` defaults).
#[derive(Debug, Clone)]
pub struct ExtraTrees {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (split mode is forced to `Random`).
    pub tree_params: TreeParams,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl ExtraTrees {
    /// Defaults tracking sklearn at the benchmark grid's compute budget.
    pub fn default_params(seed: u64) -> Self {
        ExtraTrees {
            n_trees: 30,
            tree_params: TreeParams {
                max_depth: 14,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: MaxFeatures::Sqrt,
                split_mode: SplitMode::Random,
            },
            seed,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Mean normalized impurity-decrease importances across trees.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        ensemble_importances(&self.trees, self.n_features)
    }
}

impl Classifier for ExtraTrees {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        let mut params = self.tree_params;
        params.split_mode = SplitMode::Random;
        self.trees = fit_ensemble(
            "ml.extra_trees.fit",
            x,
            y,
            self.n_trees,
            params,
            self.seed,
            None,
        )?;
        self.n_features = x.cols();
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        ensemble_predict_proba(&self.trees, self.n_features, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MlError;
    use crate::metrics::roc_auc;

    fn ring_data() -> (Matrix, Vec<u8>) {
        // y = 1 inside a radius — axis-aligned randomized splits handle it.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 20) as f64 / 10.0 - 1.0;
            let b = (i / 20) as f64 / 7.5 - 1.0;
            rows.push(vec![a, b]);
            y.push(u8::from(a * a + b * b < 0.5));
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn fits_nonlinear_boundary() {
        let (x, y) = ring_data();
        let mut et = ExtraTrees::default_params(3);
        et.fit(&x, &y).unwrap();
        let p = et.predict_proba(&x).unwrap();
        assert!(roc_auc(&y, &p) > 0.97);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = ring_data();
        let mut a = ExtraTrees::default_params(11);
        let mut b = ExtraTrees::default_params(11);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = ring_data();
        for seed in [3u64, 11, 99] {
            let fitted = |threads| {
                smartfeat_par::within(threads, || {
                    let mut model = ExtraTrees::default_params(seed);
                    model.fit(&x, &y).unwrap();
                    model
                })
            };
            let (serial, parallel) = (fitted(1), fitted(4));
            let ps: Vec<u64> = serial
                .predict_proba(&x)
                .unwrap()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let pp: Vec<u64> = parallel
                .predict_proba(&x)
                .unwrap()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(ps, pp, "seed {seed}");
        }
    }

    /// Every pair of trees predicts differently on the training matrix:
    /// a tree seeded with the ensemble seed instead of its own
    /// `Stream::Tree(i)` would draw another tree's random thresholds, and
    /// the ensemble would average copies.
    #[test]
    fn every_tree_draws_its_own_stream() {
        let (x, mut y) = ring_data();
        // Flip every seventh label so the boundary is noisy.
        for label in y.iter_mut().step_by(7) {
            *label ^= 1;
        }
        let mut et = ExtraTrees::default_params(5);
        et.n_trees = 8;
        et.fit(&x, &y).unwrap();
        let preds: Vec<Vec<f64>> = et
            .trees
            .iter()
            .map(|t| t.predict_proba(&x).unwrap())
            .collect();
        for a in 0..preds.len() {
            for b in a + 1..preds.len() {
                assert_ne!(preds[a], preds[b], "trees {a} and {b} predict alike");
            }
        }
    }

    #[test]
    fn importances_normalized() {
        let (x, y) = ring_data();
        let mut et = ExtraTrees::default_params(2);
        et.fit(&x, &y).unwrap();
        let imp = et.feature_importances().unwrap();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_class_rejected() {
        let x = Matrix::from_rows(vec![vec![1.0], vec![2.0]]).unwrap();
        let mut et = ExtraTrees::default_params(0);
        assert!(matches!(et.fit(&x, &[1, 1]), Err(MlError::SingleClass)));
    }
}
