//! Random forest ("RF"): bagged CART trees with sqrt-feature subsampling.
//!
//! Trees are trained in parallel on the [`smartfeat_par`] pool. Each tree
//! draws its own RNG from a per-tree seed derived off the forest seed with
//! a SplitMix64 jump, so the fitted ensemble is **bit-identical** for any
//! thread count (including the exact serial path at 1 thread).

use smartfeat_rng::{seed_jump, Rng, Stream};

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use crate::model::Classifier;
use crate::tree::{DecisionTree, MaxFeatures, SplitMode, TreeParams};

/// Bagging ensemble of exact-split CART trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree_params: TreeParams,
    /// Bootstrap sample fraction (with replacement).
    pub bootstrap_fraction: f64,
    /// Worker threads for tree training: 0 = auto (the run context's
    /// count, else `SMARTFEAT_THREADS`, else hardware), 1 = exact serial
    /// path.
    pub threads: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Defaults tuned to track sklearn's `RandomForestClassifier` behaviour
    /// at a compute budget suitable for the benchmark grid.
    pub fn default_params(seed: u64) -> Self {
        RandomForest {
            n_trees: 30,
            tree_params: TreeParams {
                max_depth: 12,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: MaxFeatures::Sqrt,
                split_mode: SplitMode::Exact,
            },
            bootstrap_fraction: 1.0,
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

    /// Mean normalized impurity-decrease importances across trees —
    /// the Table 6 "FI" (Gini) metric.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let d = self.n_features;
        let mut out = vec![0.0; d];
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

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let n = x.rows();
        let sample_size = ((n as f64 * self.bootstrap_fraction).round() as usize).max(1);
        self.n_features = x.cols();
        // Per-tree seeds jump off the ensemble seed by tree index —
        // `seed_jump` reproduces the historical sequential SplitMix64
        // stream exactly, so seeded forest artifacts are unchanged.
        let seed = self.seed;
        let threads = smartfeat_par::resolve_threads(self.threads);
        let params = self.tree_params;
        self.trees = smartfeat_obs::global::time("ml.forest.fit", || {
            smartfeat_par::try_par_map_indexed(threads, self.n_trees, |i| {
                let mut rng = Rng::seed_from_u64(seed_jump(seed, Stream::Tree(i as u64)));
                let indices: Vec<usize> = (0..sample_size).map(|_| rng.gen_range(0..n)).collect();
                let mut tree = DecisionTree::new(params);
                tree.fit_indices(x, y, &indices, &mut rng).map(|()| tree)
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

    fn noisy_threshold_data(seed_shift: u64) -> (Matrix, Vec<u8>) {
        // y depends on x0 > 5 with two noise features.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200u64 {
            let h = (i.wrapping_mul(2654435761).wrapping_add(seed_shift)) % 1000;
            let x0 = (i % 11) as f64;
            rows.push(vec![x0, (h % 7) as f64, ((h / 7) % 5) as f64]);
            y.push(u8::from(x0 > 5.0));
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn fits_and_ranks_signal_feature_first() {
        let (x, y) = noisy_threshold_data(0);
        let mut rf = RandomForest::default_params(42);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict_proba(&x).unwrap();
        assert!(roc_auc(&y, &p) > 0.99);
        let imp = rf.feature_importances().unwrap();
        assert!(imp[0] > imp[1] && imp[0] > imp[2]);
        let total: f64 = imp.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_threshold_data(1);
        let mut a = RandomForest::default_params(7);
        let mut b = RandomForest::default_params(7);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = noisy_threshold_data(2);
        for seed in [1u64, 7, 42] {
            let mut serial = RandomForest::default_params(seed).with_threads(1);
            let mut parallel = RandomForest::default_params(seed).with_threads(4);
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
            let is: Vec<u64> = serial
                .feature_importances()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let ip: Vec<u64> = parallel
                .feature_importances()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(is, ip, "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = noisy_threshold_data(1);
        let mut a = RandomForest::default_params(7);
        let mut b = RandomForest::default_params(8);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_ne!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn not_fitted_errors() {
        let rf = RandomForest::default_params(0);
        assert!(matches!(
            rf.predict_proba(&Matrix::zeros(1, 3)),
            Err(MlError::NotFitted)
        ));
        assert!(matches!(rf.feature_importances(), Err(MlError::NotFitted)));
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = noisy_threshold_data(3);
        let mut rf = RandomForest::default_params(1);
        rf.n_trees = 5;
        rf.fit(&x, &y).unwrap();
        assert!(rf
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }
}
