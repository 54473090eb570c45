//! Logistic regression ("LR" in the paper's tables) trained by full-batch
//! gradient descent with L2 regularization.

use crate::error::{MlError, Result};
use crate::matrix::{dot, Matrix};
use crate::model::Classifier;
use smartfeat_frame::{StableHash, StableHasher, StableMap};
use std::ops::Range;
use std::slice;

/// L2-regularized logistic regression.
///
/// Deterministic (zero-initialized, full-batch), so it needs no seed.
/// Training computes the sigmoid once per distinct row per iteration:
/// rows with equal bit patterns share one probability. The gradient is
/// still summed over every row in row order, a block of columns per row
/// pass with the sums in locals, so the fitted weights are bit-identical
/// to a per-row loop. One-column fits take a fused arm with the same
/// arithmetic: one pass over the rows per iteration, no error buffer.
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
        let (codes, reps) = distinct_rows(x);
        if x.cols() == 1 {
            self.descend_one_column(x.as_slice(), y, &codes, &reps);
        } else {
            self.descend(x, y, &codes, &reps);
        }
        self.fitted = true;
        Ok(())
    }

    /// Gradient descent over any number of columns: the sigmoid once per
    /// distinct row, then the gradient over every row by [`sum_gradient`].
    fn descend(&mut self, x: &Matrix, y: &[u8], codes: &[u32], reps: &[usize]) {
        let n = x.rows();
        let d = x.cols();
        let inv_n = 1.0 / n as f64;
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut grad = vec![0.0; d];
        let mut probs = vec![0.0; reps.len()];
        let mut err = vec![0.0; n];
        for _ in 0..self.max_iter {
            for (p, &r) in probs.iter_mut().zip(reps) {
                *p = sigmoid(dot(x.row(r), &self.weights) + self.bias);
            }
            for ((e, &label), &c) in err.iter_mut().zip(y).zip(codes) {
                *e = probs[c as usize] - f64::from(label);
            }
            let mut grad_b = sum_gradient(x, &err, &mut grad);
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
    }

    /// [`Self::descend`] for one column `xs` (the search scorer's fits),
    /// with the weight and bias in scalars. The distinct values sit in one
    /// contiguous vector, and one pass over the rows forms each row's error
    /// `probs[code] - y` and adds it to both gradient sums, with no error
    /// buffer. Every operation is the general loop's, in the same order:
    /// `z` is [`dot`] of the one-cell row (so a zero product keeps the
    /// sign `dot` gives it), both sums start at `0.0` and add their terms
    /// in row order with a plain multiply and add, and the norm starts
    /// from `0.0 + g²`, which equals `g²` because a square is never
    /// `-0.0`. So the weight and bias are bit-identical to [`Self::descend`]'s.
    fn descend_one_column(&mut self, xs: &[f64], y: &[u8], codes: &[u32], reps: &[usize]) {
        let inv_n = 1.0 / xs.len() as f64;
        let values: Vec<f64> = reps.iter().map(|&r| xs[r]).collect();
        let mut probs = vec![0.0; values.len()];
        let (mut w, mut b) = (0.0, 0.0);
        for _ in 0..self.max_iter {
            for (p, v) in probs.iter_mut().zip(&values) {
                *p = sigmoid(dot(slice::from_ref(v), slice::from_ref(&w)) + b);
            }
            let (mut g, mut g_b) = (0.0, 0.0);
            for ((&v, &label), &c) in xs.iter().zip(y).zip(codes) {
                let e = probs[c as usize] - f64::from(label);
                g += e * v;
                g_b += e;
            }
            g = g * inv_n + self.l2 * w;
            g_b *= inv_n;
            let norm = g * g + g_b * g_b;
            w -= self.learning_rate * g;
            b -= self.learning_rate * g_b;
            if norm.sqrt() < self.tol {
                break;
            }
        }
        self.weights = vec![w];
        self.bias = b;
    }
}

/// Columns summed per row pass in [`sum_gradient`].
const GRAD_LANES: usize = 16;

/// Bytes of matrix cells per row tile in [`sum_gradient`]: a tile's rows
/// stay in cache while each lane block passes over them.
const GRAD_TILE_BYTES: usize = 128 * 1024;

/// Sum the unscaled gradient `grad[j] = Σ_i err[i] · x[i][j]` and return
/// the bias gradient `Σ_i err[i]`. Rows go a tile at a time; within a
/// tile, columns go [`GRAD_LANES`] at a time, one pass over the tile's
/// rows per block with each lane's sum in a local, and the first block
/// also carries the bias sum. Every sum starts at `0.0` and adds its terms
/// in row order, so the result is bit-identical to one row-major loop
/// accumulating into `grad` (rustc does not contract the multiply and add
/// into an FMA).
fn sum_gradient(x: &Matrix, err: &[f64], grad: &mut [f64]) -> f64 {
    grad.iter_mut().for_each(|g| *g = 0.0);
    let mut grad_b = 0.0;
    let d = grad.len();
    let tile = (GRAD_TILE_BYTES / (8 * d.max(1))).max(1);
    for r0 in (0..err.len()).step_by(tile) {
        let rows = r0..(r0 + tile).min(err.len());
        // With no columns, one empty block still sums the bias.
        for j0 in (0..d.max(1)).step_by(GRAD_LANES) {
            let out = &mut grad[j0..(j0 + GRAD_LANES).min(d)];
            if j0 == 0 {
                lane_block_any::<true>(x, err, rows.clone(), j0, out, &mut grad_b);
            } else {
                lane_block_any::<false>(x, err, rows.clone(), j0, out, &mut grad_b);
            }
        }
    }
    grad_b
}

/// [`lane_block`] at the width of `out` (at most [`GRAD_LANES`]).
fn lane_block_any<const BIAS: bool>(
    x: &Matrix,
    err: &[f64],
    rows: Range<usize>,
    j0: usize,
    out: &mut [f64],
    bias: &mut f64,
) {
    match out.len() {
        0 => lane_block::<0, BIAS>(x, err, rows, j0, out, bias),
        1 => lane_block::<1, BIAS>(x, err, rows, j0, out, bias),
        2 => lane_block::<2, BIAS>(x, err, rows, j0, out, bias),
        3 => lane_block::<3, BIAS>(x, err, rows, j0, out, bias),
        4 => lane_block::<4, BIAS>(x, err, rows, j0, out, bias),
        5 => lane_block::<5, BIAS>(x, err, rows, j0, out, bias),
        6 => lane_block::<6, BIAS>(x, err, rows, j0, out, bias),
        7 => lane_block::<7, BIAS>(x, err, rows, j0, out, bias),
        8 => lane_block::<8, BIAS>(x, err, rows, j0, out, bias),
        9 => lane_block::<9, BIAS>(x, err, rows, j0, out, bias),
        10 => lane_block::<10, BIAS>(x, err, rows, j0, out, bias),
        11 => lane_block::<11, BIAS>(x, err, rows, j0, out, bias),
        12 => lane_block::<12, BIAS>(x, err, rows, j0, out, bias),
        13 => lane_block::<13, BIAS>(x, err, rows, j0, out, bias),
        14 => lane_block::<14, BIAS>(x, err, rows, j0, out, bias),
        15 => lane_block::<15, BIAS>(x, err, rows, j0, out, bias),
        _ => lane_block::<GRAD_LANES, BIAS>(x, err, rows, j0, out, bias),
    }
}

/// One pass over `rows` for columns `j0..j0 + W`: adds each row's
/// `err[i] · x[i][j]` to `out[j - j0]` and, when `BIAS`, `err[i]` to
/// `bias`, in row order. The sums live in locals for the whole pass.
fn lane_block<const W: usize, const BIAS: bool>(
    x: &Matrix,
    err: &[f64],
    rows: Range<usize>,
    j0: usize,
    out: &mut [f64],
    bias: &mut f64,
) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    let mut acc_b = *bias;
    let (cells, d) = (x.as_slice(), x.cols());
    for i in rows {
        let e = err[i];
        let lanes = &cells[i * d + j0..i * d + j0 + W];
        for l in 0..W {
            acc[l] += e * lanes[l];
        }
        if BIAS {
            acc_b += e;
        }
    }
    out.copy_from_slice(&acc);
    if BIAS {
        *bias = acc_b;
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
