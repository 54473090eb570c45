//! Gaussian naive Bayes ("NB" in the paper's tables).

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use crate::model::Classifier;

/// Gaussian naive Bayes with per-class feature means/variances and a
/// variance floor (sklearn's `var_smoothing`).
#[derive(Debug, Clone)]
pub struct GaussianNb {
    /// Variance floor as a fraction of the largest feature variance.
    pub var_smoothing: f64,
    class_log_prior: [f64; 2],
    means: [Vec<f64>; 2],
    vars: [Vec<f64>; 2],
    fitted: bool,
}

impl GaussianNb {
    /// sklearn defaults (`var_smoothing = 1e-9`).
    pub fn new() -> Self {
        GaussianNb {
            var_smoothing: 1e-9,
            class_log_prior: [0.0; 2],
            means: [Vec::new(), Vec::new()],
            vars: [Vec::new(), Vec::new()],
            fitted: false,
        }
    }
}

impl Default for GaussianNb {
    fn default() -> Self {
        GaussianNb::new()
    }
}

impl GaussianNb {
    /// Per-class mean/variance estimation behind [`Classifier::fit`].
    fn train(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let d = x.cols();
        let mut counts = [0usize; 2];
        let mut sums = [vec![0.0; d], vec![0.0; d]];
        for (i, &label) in y.iter().enumerate() {
            let c = (label != 0) as usize;
            counts[c] += 1;
            for (s, &v) in sums[c].iter_mut().zip(x.row(i)) {
                *s += v;
            }
        }
        let mut means = [vec![0.0; d], vec![0.0; d]];
        for c in 0..2 {
            for (m, s) in means[c].iter_mut().zip(&sums[c]) {
                *m = s / counts[c] as f64;
            }
        }
        let mut vars = [vec![0.0; d], vec![0.0; d]];
        for (i, &label) in y.iter().enumerate() {
            let c = (label != 0) as usize;
            for ((v, &m), &val) in vars[c].iter_mut().zip(&means[c]).zip(x.row(i)) {
                *v += (val - m).powi(2);
            }
        }
        // Global variance floor, like sklearn: epsilon = smoothing * max var.
        let mut max_var: f64 = 0.0;
        for (class_vars, &count) in vars.iter_mut().zip(&counts) {
            for v in class_vars.iter_mut() {
                *v /= count as f64;
                max_var = max_var.max(*v);
            }
        }
        let eps = (self.var_smoothing * max_var).max(1e-12);
        for class_vars in vars.iter_mut() {
            for v in class_vars.iter_mut() {
                *v += eps;
            }
        }
        let n = y.len() as f64;
        self.class_log_prior = [(counts[0] as f64 / n).ln(), (counts[1] as f64 / n).ln()];
        self.means = means;
        self.vars = vars;
        self.fitted = true;
        Ok(())
    }
}

impl Classifier for GaussianNb {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        smartfeat_obs::global::time("ml.nb.fit", || self.train(x, y))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.means[0].len() {
            return Err(MlError::FeatureMismatch {
                fitted: self.means[0].len(),
                given: x.cols(),
            });
        }
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mut log_like = self.class_log_prior;
                for ((ll, means), vars) in log_like.iter_mut().zip(&self.means).zip(&self.vars) {
                    for ((&v, &m), &var) in row.iter().zip(means).zip(vars) {
                        *ll += -half_ln_2pi - 0.5 * var.ln() - (v - m).powi(2) / (2.0 * var);
                    }
                }
                // Softmax over the two log-likelihoods, stably.
                let m = log_like[0].max(log_like[1]);
                let e0 = (log_like[0] - m).exp();
                let e1 = (log_like[1] - m).exp();
                e1 / (e0 + e1)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;

    fn gaussian_blobs() -> (Matrix, Vec<u8>) {
        // Two well-separated diagonal Gaussians, deterministic lattice.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let jitter = (i % 10) as f64 * 0.05;
            rows.push(vec![0.0 + jitter, 0.0 - jitter]);
            y.push(0u8);
            rows.push(vec![3.0 + jitter, 3.0 - jitter]);
            y.push(1u8);
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn separates_gaussian_blobs() {
        let (x, y) = gaussian_blobs();
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        let p = nb.predict_proba(&x).unwrap();
        assert_eq!(roc_auc(&y, &p), 1.0);
    }

    #[test]
    fn probabilities_are_valid() {
        let (x, y) = gaussian_blobs();
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        for p in nb.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn constant_feature_does_not_crash() {
        let x = Matrix::from_rows(vec![
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 0.1],
            vec![1.0, 0.9],
        ])
        .unwrap();
        let y = vec![0, 1, 0, 1];
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        let p = nb.predict_proba(&x).unwrap();
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(roc_auc(&y, &p) > 0.9);
    }

    #[test]
    fn prior_reflects_imbalance() {
        let x = Matrix::from_rows(vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0]]).unwrap();
        let y = vec![0, 0, 0, 1];
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        // At a midpoint-ish value the majority class should dominate.
        let p = nb
            .predict_proba(&Matrix::from_rows(vec![vec![0.15]]).unwrap())
            .unwrap();
        assert!(p[0] < 0.5);
    }

    #[test]
    fn not_fitted_rejected() {
        let nb = GaussianNb::new();
        assert!(matches!(
            nb.predict_proba(&Matrix::zeros(1, 1)),
            Err(MlError::NotFitted)
        ));
    }
}
