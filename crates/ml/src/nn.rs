//! The paper's "DNN": a two-hidden-layer (100×100) ReLU MLP with a sigmoid
//! output, trained with Adam on mini-batches of binary cross-entropy.

use smartfeat_rng::Rng;

use crate::error::{MlError, Result};
use crate::logistic::sigmoid;
use crate::matrix::Matrix;
use crate::model::Classifier;

/// One dense layer's parameters and Adam state.
#[derive(Debug, Clone)]
struct Dense {
    w: Vec<f64>, // out × in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng) -> Self {
        // He initialization for ReLU layers.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen_f64() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// `out = W·x + b`.
    fn forward(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(out.len(), self.n_out);
        for (o, (w_row, b)) in out
            .iter_mut()
            .zip(self.w.chunks_exact(self.n_in).zip(&self.b))
        {
            let mut acc = *b;
            for (w, v) in w_row.iter().zip(x) {
                acc += w * v;
            }
            *o = acc;
        }
    }
}

/// MLP hyper-parameters and fitted state.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    /// Hidden layer widths (the paper uses `[100, 100]`).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Cap on total mini-batch updates — keeps wall-clock bounded on the
    /// large datasets (Bank/Adult), where the paper itself reports DNN
    /// timeouts for the costlier baselines.
    pub max_updates: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    seed: u64,
    layers: Vec<Dense>,
    n_features: usize,
    fitted: bool,
}

impl MlpClassifier {
    /// The paper's architecture: two hidden layers of 100 ReLU units.
    pub fn default_params(seed: u64) -> Self {
        MlpClassifier {
            hidden: vec![100, 100],
            learning_rate: 1e-3,
            batch_size: 64,
            max_epochs: 30,
            max_updates: 6000,
            weight_decay: 1e-5,
            seed,
            layers: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }
}

impl MlpClassifier {
    /// Mini-batch Adam training behind [`Classifier::fit`].
    fn train(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let n = x.rows();
        let d = x.cols();
        self.n_features = d;
        let mut rng = Rng::seed_from_u64(self.seed);

        // Build layers: d → hidden… → 1.
        let mut sizes = vec![d];
        sizes.extend(&self.hidden);
        sizes.push(1);
        self.layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();

        let n_layers = self.layers.len();
        // Pre-activation and activation buffers per layer.
        let mut zs: Vec<Vec<f64>> = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        let mut activations: Vec<Vec<f64>> = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        let mut deltas: Vec<Vec<f64>> = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        // Gradient accumulators per layer.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        let mut order: Vec<usize> = (0..n).collect();
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut t = 0usize; // Adam step counter
        'training: for _epoch in 0..self.max_epochs {
            // Fisher–Yates with the fitted rng for deterministic shuffling.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.batch_size) {
                if t >= self.max_updates {
                    break 'training;
                }
                for g in gw.iter_mut().chain(gb.iter_mut()) {
                    g.iter_mut().for_each(|v| *v = 0.0);
                }
                for &sample in batch {
                    let input = x.row(sample);
                    // Forward.
                    for l in 0..n_layers {
                        let src: &[f64] = if l == 0 { input } else { &activations[l - 1] };
                        // Split borrow: forward writes zs[l].
                        self.layers[l].forward(src, &mut zs[l]);
                        if l + 1 < n_layers {
                            for (a, &z) in activations[l].iter_mut().zip(&zs[l]) {
                                *a = z.max(0.0); // ReLU
                            }
                        } else {
                            activations[l][0] = sigmoid(zs[l][0]);
                        }
                    }
                    // Backward: BCE + sigmoid ⇒ delta = p - y.
                    deltas[n_layers - 1][0] = activations[n_layers - 1][0] - f64::from(y[sample]);
                    for l in (0..n_layers - 1).rev() {
                        let (lower, upper) = deltas.split_at_mut(l + 1);
                        let next = &self.layers[l + 1];
                        let delta_next = &upper[0];
                        let delta_here = &mut lower[l];
                        for (j, dh) in delta_here.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (k, dn) in delta_next.iter().enumerate() {
                                acc += next.w[k * next.n_in + j] * dn;
                            }
                            *dh = if zs[l][j] > 0.0 { acc } else { 0.0 };
                        }
                    }
                    // Accumulate gradients.
                    for l in 0..n_layers {
                        let src: &[f64] = if l == 0 { input } else { &activations[l - 1] };
                        let layer = &self.layers[l];
                        let g = &mut gw[l];
                        for (k, &dk) in deltas[l].iter().enumerate() {
                            let row = &mut g[k * layer.n_in..(k + 1) * layer.n_in];
                            for (gv, &sv) in row.iter_mut().zip(src) {
                                *gv += dk * sv;
                            }
                        }
                        for (gbv, &dk) in gb[l].iter_mut().zip(&deltas[l]) {
                            *gbv += dk;
                        }
                    }
                }
                // Adam update.
                t += 1;
                let inv_batch = 1.0 / batch.len() as f64;
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for l in 0..n_layers {
                    let layer = &mut self.layers[l];
                    for (i, w) in layer.w.iter_mut().enumerate() {
                        let g = gw[l][i] * inv_batch + self.weight_decay * *w;
                        layer.mw[i] = beta1 * layer.mw[i] + (1.0 - beta1) * g;
                        layer.vw[i] = beta2 * layer.vw[i] + (1.0 - beta2) * g * g;
                        let mhat = layer.mw[i] / bc1;
                        let vhat = layer.vw[i] / bc2;
                        *w -= self.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                    for (i, b) in layer.b.iter_mut().enumerate() {
                        let g = gb[l][i] * inv_batch;
                        layer.mb[i] = beta1 * layer.mb[i] + (1.0 - beta1) * g;
                        layer.vb[i] = beta2 * layer.vb[i] + (1.0 - beta2) * g * g;
                        let mhat = layer.mb[i] / bc1;
                        let vhat = layer.vb[i] / bc2;
                        *b -= self.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
        self.fitted = true;
        Ok(())
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        smartfeat_obs::global::time("ml.dnn.fit", || self.train(x, y))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::FeatureMismatch {
                fitted: self.n_features,
                given: x.cols(),
            });
        }
        let mut out = Vec::with_capacity(x.rows());
        let mut buf_a: Vec<f64> = Vec::new();
        let mut buf_b: Vec<f64> = Vec::new();
        for i in 0..x.rows() {
            let mut src: &[f64] = x.row(i);
            for (l, layer) in self.layers.iter().enumerate() {
                buf_b.resize(layer.n_out, 0.0);
                layer.forward(src, &mut buf_b);
                if l + 1 < self.layers.len() {
                    for v in buf_b.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                std::mem::swap(&mut buf_a, &mut buf_b);
                src = &buf_a;
            }
            out.push(sigmoid(buf_a[0].clamp(-60.0, 60.0)).clamp(0.0, 1.0));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use crate::preprocess::Standardizer;

    fn xor_data(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            let jitter = ((i * 37) % 100) as f64 * 0.002;
            rows.push(vec![a + jitter, b - jitter]);
            y.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(400);
        let s = Standardizer::fit(&x).unwrap();
        let xs = s.transform(&x).unwrap();
        let mut mlp = MlpClassifier::default_params(1);
        mlp.fit(&xs, &y).unwrap();
        let p = mlp.predict_proba(&xs).unwrap();
        assert!(roc_auc(&y, &p) > 0.98, "AUC = {}", roc_auc(&y, &p));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data(100);
        let mut a = MlpClassifier::default_params(5);
        let mut b = MlpClassifier::default_params(5);
        a.max_epochs = 3;
        b.max_epochs = 3;
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn update_budget_caps_work() {
        let (x, y) = xor_data(2000);
        let mut mlp = MlpClassifier::default_params(0);
        mlp.max_updates = 10; // tiny budget: must still finish and predict
        mlp.fit(&x, &y).unwrap();
        let p = mlp.predict_proba(&x).unwrap();
        assert_eq!(p.len(), 2000);
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = xor_data(200);
        let mut mlp = MlpClassifier::default_params(2);
        mlp.max_epochs = 5;
        mlp.fit(&x, &y).unwrap();
        assert!(mlp
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn rejects_nonfinite() {
        let x = Matrix::from_rows(vec![vec![f64::NAN], vec![1.0]]).unwrap();
        // NaN became... Matrix doesn't normalize; check_training passes but
        // is_finite() fails.
        let mut mlp = MlpClassifier::default_params(0);
        assert!(matches!(mlp.fit(&x, &[0, 1]), Err(MlError::NonFinite(_))));
    }
}
