//! Logistic regression ("LR" in the paper's tables) trained by full-batch
//! gradient descent with L2 regularization.

use crate::error::{MlError, Result};
use crate::matrix::{dot, Matrix};
use crate::model::Classifier;
use smartfeat_frame::{StableHash, StableHasher, StableMap};

/// L2-regularized logistic regression.
///
/// Deterministic (zero-initialized, full-batch), so it needs no seed.
/// Training computes the sigmoid once per distinct row per iteration:
/// rows with equal bit patterns share one probability, and the gradient
/// is still summed over every row in row order, so the fitted weights
/// are bit-identical to a per-row loop.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of gradient steps.
    pub max_iter: usize,
    /// L2 penalty strength (sklearn's `1/C` scaled by n).
    pub l2: f64,
    /// Early-stop tolerance on gradient norm.
    pub tol: f64,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LogisticRegression {
    /// sklearn-flavored defaults.
    pub fn default_params() -> Self {
        LogisticRegression {
            learning_rate: 0.1,
            max_iter: 300,
            l2: 1e-4,
            tol: 1e-6,
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// Fitted weights (empty before `fit`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Gradient-descent training behind [`Classifier::fit`].
    fn train(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let n = x.rows();
        let d = x.cols();
        let inv_n = 1.0 / n as f64;
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut grad = vec![0.0; d];
        let (codes, reps) = distinct_rows(x);
        let mut probs = vec![0.0; reps.len()];
        for _ in 0..self.max_iter {
            for (p, &r) in probs.iter_mut().zip(&reps) {
                *p = sigmoid(dot(x.row(r), &self.weights) + self.bias);
            }
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_b = 0.0;
            for (i, (&label, &c)) in y.iter().zip(&codes).enumerate() {
                let err = probs[c as usize] - f64::from(label);
                for (g, &v) in grad.iter_mut().zip(x.row(i)) {
                    *g += err * v;
                }
                grad_b += err;
            }
            let mut norm = 0.0;
            for (g, w) in grad.iter_mut().zip(&self.weights) {
                *g = *g * inv_n + self.l2 * w;
                norm += *g * *g;
            }
            grad_b *= inv_n;
            norm += grad_b * grad_b;
            for (w, g) in self.weights.iter_mut().zip(&grad) {
                *w -= self.learning_rate * g;
            }
            self.bias -= self.learning_rate * grad_b;
            if norm.sqrt() < self.tol {
                break;
            }
        }
        self.fitted = true;
        Ok(())
    }
}

/// A matrix row keyed by its cells' bit patterns: `0.0` and `-0.0` are
/// different keys, and equal keys give bit-equal `dot` results.
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0
            .iter()
            .map(|v| v.to_bits())
            .eq(other.0.iter().map(|v| v.to_bits()))
    }
}

impl Eq for RowBits<'_> {}

impl StableHash for RowBits<'_> {
    fn stable_hash(&self, h: &mut StableHasher) {
        for v in self.0 {
            h.write_u64(v.to_bits());
        }
    }
}

/// Number the distinct rows of `x` in first-occurrence order. Returns
/// each row's class code and each class's first row. When every row is
/// distinct the codes are `0..n` and the representatives are `0..n`.
fn distinct_rows(x: &Matrix) -> (Vec<u32>, Vec<usize>) {
    let mut class_of: StableMap<RowBits<'_>, u32> = StableMap::with_capacity(x.rows());
    let mut reps = Vec::new();
    let codes = (0..x.rows())
        .map(|i| {
            let next = reps.len() as u32;
            let code = *class_of.entry_or_insert_with(RowBits(x.row(i)), || next);
            if code == next {
                reps.push(i);
            }
            code
        })
        .collect();
    (codes, reps)
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        smartfeat_obs::global::time("ml.lr.fit", || self.train(x, y))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.weights.len() {
            return Err(MlError::FeatureMismatch {
                fitted: self.weights.len(),
                given: x.cols(),
            });
        }
        Ok((0..x.rows())
            .map(|i| sigmoid(dot(x.row(i), &self.weights) + self.bias))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;

    fn separable() -> (Matrix, Vec<u8>) {
        // y = 1 iff x0 > 0, with margin.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let v = (i as f64 - 49.5) / 10.0;
                vec![v, (i % 7) as f64 * 0.1]
            })
            .collect();
        let y: Vec<u8> = (0..100).map(|i| u8::from(i >= 50)).collect();
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn fits_separable_data() {
        let (x, y) = separable();
        let mut lr = LogisticRegression::default_params();
        lr.fit(&x, &y).unwrap();
        let p = lr.predict_proba(&x).unwrap();
        assert!(roc_auc(&y, &p) > 0.99);
        assert!(lr.weights()[0] > 0.0);
    }

    #[test]
    fn sigmoid_stability() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(-1000.0) < 1e-10);
    }

    #[test]
    fn predict_before_fit_rejected() {
        let lr = LogisticRegression::default_params();
        let x = Matrix::zeros(1, 2);
        assert!(matches!(lr.predict_proba(&x), Err(MlError::NotFitted)));
    }

    #[test]
    fn feature_mismatch_at_predict() {
        let (x, y) = separable();
        let mut lr = LogisticRegression::default_params();
        lr.fit(&x, &y).unwrap();
        let bad = Matrix::zeros(1, 5);
        assert!(matches!(
            lr.predict_proba(&bad),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn nonfinite_training_rejected() {
        let x = Matrix::from_rows(vec![vec![f64::INFINITY], vec![0.0]]).unwrap();
        let mut lr = LogisticRegression::default_params();
        assert!(matches!(lr.fit(&x, &[0, 1]), Err(MlError::NonFinite(_))));
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, y) = separable();
        let mut a = LogisticRegression::default_params();
        let mut b = LogisticRegression::default_params();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }
}
