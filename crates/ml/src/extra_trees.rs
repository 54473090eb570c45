//! Extremely randomized trees ("ET"): random thresholds, no bootstrap.
//!
//! Trees train in parallel with per-tree SplitMix64-derived seeds (same
//! scheme as [`crate::forest`]), so the fitted ensemble is bit-identical
//! for any thread count.

use smartfeat_rng::Rng;

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use crate::model::Classifier;
use crate::tree::{DecisionTree, MaxFeatures, SplitMode, TreeParams};
use smartfeat_rng::{seed_jump, Stream};

/// Extra-trees ensemble: like a random forest but with uniform random
/// split thresholds and the full training set per tree (sklearn's
/// `ExtraTreesClassifier` defaults).
#[derive(Debug, Clone)]
pub struct ExtraTrees {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (split mode is forced to `Random`).
    pub tree_params: TreeParams,
    /// Worker threads for tree training: 0 = auto (the run context's
    /// count, else `SMARTFEAT_THREADS`, else hardware), 1 = exact serial
    /// path.
    pub threads: usize,
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
            threads: 0,
            seed,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Set the training thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Mean normalized impurity-decrease importances across trees.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let mut out = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (o, &v) in out.iter_mut().zip(tree.importances()) {
                *o += v;
            }
        }
        let sum: f64 = out.iter().sum();
        if sum > 0.0 {
            for v in &mut out {
                *v /= sum;
            }
        }
        Ok(out)
    }
}

impl Classifier for ExtraTrees {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let mut params = self.tree_params;
        params.split_mode = SplitMode::Random;
        self.n_features = x.cols();
        let all: Vec<usize> = (0..x.rows()).collect();
        let seed = self.seed;
        let threads = smartfeat_par::resolve_threads(self.threads);
        self.trees = smartfeat_obs::global::time("ml.extra_trees.fit", || {
            smartfeat_par::try_par_map_indexed(threads, self.n_trees, |i| {
                let mut rng = Rng::seed_from_u64(seed_jump(seed, Stream::Tree(i as u64)));
                let mut tree = DecisionTree::new(params);
                tree.fit_indices(x, y, &all, &mut rng).map(|()| tree)
            })
        })?;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::FeatureMismatch {
                fitted: self.n_features,
                given: x.cols(),
            });
        }
        let mut out = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (i, o) in out.iter_mut().enumerate() {
                *o += tree.predict_one(x.row(i));
            }
        }
        let k = self.trees.len() as f64;
        for o in &mut out {
            *o /= k;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut serial = ExtraTrees::default_params(seed).with_threads(1);
            let mut parallel = ExtraTrees::default_params(seed).with_threads(4);
            serial.fit(&x, &y).unwrap();
            parallel.fit(&x, &y).unwrap();
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
