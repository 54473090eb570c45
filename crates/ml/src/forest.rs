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
            seed,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Mean normalized impurity-decrease importances across trees —
    /// the Table 6 "FI" (Gini) metric.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        ensemble_importances(&self.trees, self.n_features)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        let sample_size = ((x.rows() as f64 * self.bootstrap_fraction).round() as usize).max(1);
        self.trees = fit_ensemble(
            "ml.forest.fit",
            x,
            y,
            self.n_trees,
            self.tree_params,
            self.seed,
            Some(sample_size),
        )?;
        self.n_features = x.cols();
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        ensemble_predict_proba(&self.trees, self.n_features, x)
    }
}

/// Fit `n_trees` trees of `params` on `x`/`y` in parallel, timed under
/// the `work` name; shared by [`RandomForest`] and
/// [`crate::extra_trees::ExtraTrees`]. Tree `i` draws from its own RNG,
/// seeded by jumping off `seed` along `Stream::Tree(i)`, so the ensemble
/// is bit-identical for any thread count. With `bootstrap = Some(k)` the
/// tree first draws `k` training rows with replacement from that RNG;
/// with `None` every tree trains on all rows.
pub(crate) fn fit_ensemble(
    work: &'static str,
    x: &Matrix,
    y: &[u8],
    n_trees: usize,
    params: TreeParams,
    seed: u64,
    bootstrap: Option<usize>,
) -> Result<Vec<DecisionTree>> {
    x.check_training(y)?;
    if !x.is_finite() {
        return Err(MlError::NonFinite("training features"));
    }
    let n = x.rows();
    let all: Vec<usize> = if bootstrap.is_none() {
        (0..n).collect()
    } else {
        Vec::new()
    };
    smartfeat_obs::global::time(work, || {
        smartfeat_par::try_par_map_indexed(smartfeat_par::resolve_threads(0), n_trees, |i| {
            let mut rng = Rng::seed_from_u64(seed_jump(seed, Stream::Tree(i as u64)));
            let drawn: Vec<usize>;
            let rows = match bootstrap {
                Some(k) => {
                    drawn = (0..k).map(|_| rng.gen_range(0..n)).collect();
                    &drawn
                }
                None => &all,
            };
            let mut tree = DecisionTree::new(params);
            tree.fit_indices(x, y, rows, &mut rng).map(|()| tree)
        })
    })
}

/// Mean normalized impurity-decrease importances of a fitted ensemble
/// over `n_features` inputs; shared by [`RandomForest`] and
/// [`crate::extra_trees::ExtraTrees`]. Trees are summed in ensemble order.
pub(crate) fn ensemble_importances(trees: &[DecisionTree], n_features: usize) -> Result<Vec<f64>> {
    if trees.is_empty() {
        return Err(MlError::NotFitted);
    }
    let mut out = vec![0.0; n_features];
    for tree in trees {
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

/// Mean of the trees' leaf probabilities per row of `x`, summed in
/// ensemble order; shared by [`RandomForest`] and
/// [`crate::extra_trees::ExtraTrees`].
pub(crate) fn ensemble_predict_proba(
    trees: &[DecisionTree],
    n_features: usize,
    x: &Matrix,
) -> Result<Vec<f64>> {
    if trees.is_empty() {
        return Err(MlError::NotFitted);
    }
    if x.cols() != n_features {
        return Err(MlError::FeatureMismatch {
            fitted: n_features,
            given: x.cols(),
        });
    }
    let mut out = vec![0.0; x.rows()];
    for tree in trees {
        for (i, o) in out.iter_mut().enumerate() {
            *o += tree.predict_one(x.row(i));
        }
    }
    let k = trees.len() as f64;
    for o in &mut out {
        *o /= k;
    }
    Ok(out)
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
            let fitted = |threads| {
                smartfeat_par::within(threads, || {
                    let mut model = RandomForest::default_params(seed);
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

    /// Every pair of trees predicts differently on the training matrix:
    /// a tree seeded with the ensemble seed instead of its own
    /// `Stream::Tree(i)` would repeat another tree's bootstrap draw and
    /// splits, and the ensemble would average copies.
    #[test]
    fn every_tree_draws_its_own_stream() {
        let (x, mut y) = noisy_threshold_data(4);
        // Flip every seventh label so no tree fits the data exactly.
        for label in y.iter_mut().step_by(7) {
            *label ^= 1;
        }
        let mut rf = RandomForest::default_params(5);
        rf.n_trees = 8;
        rf.fit(&x, &y).unwrap();
        let preds: Vec<Vec<f64>> = rf
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
