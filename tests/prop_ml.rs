//! Property-based tests over the ML substrate's invariants, driven by the
//! in-repo `smartfeat_rng::check` harness.

use smartfeat_repro::ml::logistic::{sigmoid, LogisticRegression};
use smartfeat_repro::ml::matrix::dot;
use smartfeat_repro::ml::metrics::{accuracy, log_loss, median};
use smartfeat_repro::ml::preprocess::Standardizer;
use smartfeat_repro::ml::{roc_auc, MlError};
use smartfeat_repro::prelude::*;
use smartfeat_repro::rng::check;
use smartfeat_repro::rng::Rng;

fn scores_and_labels(rng: &mut Rng) -> (Vec<f64>, Vec<u8>) {
    let n = rng.gen_range(4..120usize);
    let scores: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
    let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
    (scores, labels)
}

#[test]
fn auc_is_bounded_and_complement_symmetric() {
    check::cases(64, |rng| {
        let (scores, labels) = scores_and_labels(rng);
        let auc = roc_auc(&labels, &scores);
        assert!((0.0..=1.0).contains(&auc));
        // Inverting the scores inverts the ranking.
        let inverted: Vec<f64> = scores.iter().map(|s| 1.0 - s).collect();
        let auc_inv = roc_auc(&labels, &inverted);
        let both = labels.contains(&0) && labels.contains(&1);
        if both {
            assert!((auc + auc_inv - 1.0).abs() < 1e-9, "{auc} + {auc_inv}");
        } else {
            assert_eq!(auc, 0.5);
        }
    });
}

#[test]
fn auc_invariant_under_monotone_transform() {
    check::cases(64, |rng| {
        let (scores, labels) = scores_and_labels(rng);
        let auc = roc_auc(&labels, &scores);
        // exp is strictly increasing ⇒ identical ranking ⇒ identical AUC.
        let transformed: Vec<f64> = scores.iter().map(|s| (3.0 * s).exp()).collect();
        let auc_t = roc_auc(&labels, &transformed);
        assert!((auc - auc_t).abs() < 1e-9);
    });
}

#[test]
fn accuracy_and_log_loss_bounded() {
    check::cases(64, |rng| {
        let (scores, labels) = scores_and_labels(rng);
        let acc = accuracy(&labels, &scores);
        assert!((0.0..=1.0).contains(&acc));
        let ll = log_loss(&labels, &scores);
        assert!(ll.is_finite());
        assert!(ll >= 0.0);
    });
}

#[test]
fn standardizer_output_has_unit_stats() {
    check::cases(64, |rng| {
        let n = rng.gen_range(4..60usize);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-1e3..1e3)).collect())
            .collect();
        let x = Matrix::from_rows(rows).unwrap();
        let s = Standardizer::fit(&x).unwrap();
        let t = s.transform(&x).unwrap();
        for j in 0..t.cols() {
            let col = t.col(j);
            let n = col.len() as f64;
            let mean: f64 = col.iter().sum::<f64>() / n;
            let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            assert!(mean.abs() < 1e-6, "mean {mean}");
            // Unit variance, or zero for a constant feature.
            assert!((var - 1.0).abs() < 1e-6 || var < 1e-9, "var {var}");
        }
    });
}

#[test]
fn median_lies_within_range() {
    check::cases(64, |rng| {
        let values = check::vec_f64(rng, 1..50, -1e4..1e4);
        let m = median(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    });
}

#[test]
fn logistic_regression_probabilities_valid() {
    check::cases(30, |rng| {
        let seed = rng.gen_range(0..30u64);
        let n = rng.gen_range(10..60usize);
        // Deterministic pseudo-random training data from the seed.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed.wrapping_add(7) * 2654435761 + 1);
                vec![
                    (h % 101) as f64 / 50.0 - 1.0,
                    ((h / 101) % 89) as f64 / 44.0 - 1.0,
                ]
            })
            .collect();
        let y: Vec<u8> = (0..n).map(|i| u8::from(i % 2 == 0)).collect();
        let x = Matrix::from_rows(rows).unwrap();
        let mut lr = LogisticRegression::default_params();
        lr.fit(&x, &y).unwrap();
        for p in lr.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn tree_ensembles_never_exceed_probability_bounds() {
    // Deterministic stress: wide label imbalance plus constant features.
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![1.0, (i % 13) as f64, ((i * 7) % 5) as f64])
        .collect();
    let y: Vec<u8> = (0..200).map(|i| u8::from(i % 10 == 0)).collect();
    let x = Matrix::from_rows(rows).unwrap();
    for kind in [ModelKind::RF, ModelKind::ET] {
        let mut m = kind.build(3);
        m.fit(&x, &y).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p), "{kind} produced {p}");
        }
    }
}

/// The per-row LR trainer: one sigmoid per row per iteration, built from
/// the public kernel pieces. Returns the weights, the bias and the number
/// of iterations run.
fn reference_lr(lr: &LogisticRegression, x: &Matrix, y: &[u8]) -> (Vec<f64>, f64, usize) {
    let inv_n = 1.0 / x.rows() as f64;
    let mut weights = vec![0.0; x.cols()];
    let mut bias = 0.0;
    let mut grad = vec![0.0; x.cols()];
    for iter in 0..lr.max_iter {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut grad_b = 0.0;
        for (i, &label) in y.iter().enumerate() {
            let row = x.row(i);
            let err = sigmoid(dot(row, &weights) + bias) - f64::from(label);
            for (g, &v) in grad.iter_mut().zip(row) {
                *g += err * v;
            }
            grad_b += err;
        }
        let mut norm = 0.0;
        for (g, w) in grad.iter_mut().zip(&weights) {
            *g = *g * inv_n + lr.l2 * w;
            norm += *g * *g;
        }
        grad_b *= inv_n;
        norm += grad_b * grad_b;
        for (w, g) in weights.iter_mut().zip(&grad) {
            *w -= lr.learning_rate * g;
        }
        bias -= lr.learning_rate * grad_b;
        if norm.sqrt() < lr.tol {
            return (weights, bias, iter + 1);
        }
    }
    (weights, bias, lr.max_iter)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `n` rows drawn from `pool`, so repeats are planted.
fn rows_from_pool(rng: &mut Rng, pool: &[Vec<f64>], n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect();
    Matrix::from_rows(rows).unwrap()
}

/// Widths that cover every gradient lane-block shape (16 columns per
/// block): no columns, so only the bias trains (0), a lone partial block
/// (2–9, 12, 15), one full block (16), a full block plus a tail (17),
/// several full blocks plus a tail (37), and rows wide enough that a fit
/// spans several row tiles (600 columns give 27-row tiles). One column
/// (1) reaches no lane block: it takes the one-column arm, and stays here
/// as that arm's small-n case.
const LANE_WIDTHS: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 37, 600];

#[test]
fn logistic_regression_matches_per_row_reference_bit_for_bit() {
    check::cases(96, |rng| {
        let mut lr = LogisticRegression::default_params();
        let shape = rng.gen_range(0..6u32);
        let x = match shape {
            // d = 1 with 1, 2 or a few distinct values.
            0 => {
                let k = rng.gen_range(1..6usize);
                let pool: Vec<Vec<f64>> = (0..k).map(|_| vec![rng.gen_range(-3.0..3.0)]).collect();
                let n = rng.gen_range(2..150usize);
                rows_from_pool(rng, &pool, n)
            }
            // d = 1, every value distinct.
            1 => {
                let n = rng.gen_range(2..150usize);
                Matrix::new((0..n).map(|i| i as f64 * 0.37 - 9.0).collect(), n, 1).unwrap()
            }
            // d >= 2 with planted duplicate rows.
            2 => {
                let d = rng.gen_range(2..7usize);
                let k = rng.gen_range(1..20usize);
                let pool: Vec<Vec<f64>> = (0..k)
                    .map(|_| check::vec_f64(rng, d..d + 1, -2.0..2.0))
                    .collect();
                let n = rng.gen_range(2..120usize);
                rows_from_pool(rng, &pool, n)
            }
            // `0.0` and `-0.0`: equal values, different bits.
            3 => {
                let d = rng.gen_range(1..4usize);
                let cells = [0.0, -0.0, 1.0, -1.5];
                let pool: Vec<Vec<f64>> = (0..8)
                    .map(|_| (0..d).map(|_| cells[rng.gen_range(0..4usize)]).collect())
                    .collect();
                let n = rng.gen_range(2..80usize);
                rows_from_pool(rng, &pool, n)
            }
            // AutoFeat's selection fit: strong L2, no early stop, wide d,
            // small n.
            4 => {
                lr.l2 = 1e-2;
                lr.tol = 0.0;
                lr.max_iter = rng.gen_range(1..400usize);
                let d = rng.gen_range(10..60usize);
                let n = rng.gen_range(2..30usize);
                let pool: Vec<Vec<f64>> = (0..n)
                    .map(|_| check::vec_f64(rng, d..d + 1, -2.0..2.0))
                    .collect();
                rows_from_pool(rng, &pool, n)
            }
            // A large tolerance, so training stops early.
            _ => {
                lr.tol = 0.05;
                let k = rng.gen_range(2..10usize);
                let pool: Vec<Vec<f64>> = (0..k).map(|_| vec![rng.gen_range(-1.0..1.0)]).collect();
                let n = rng.gen_range(2..100usize);
                rows_from_pool(rng, &pool, n)
            }
        };
        let y = labels(rng, x.rows(), 0.5);
        let iters = assert_fit_matches_reference(&mut lr, &x, &y, shape);
        if shape == 5 {
            assert!(iters < lr.max_iter, "early stop never fired");
        }
    });
    // Every gradient lane-block width, with n = 1, 2 or odd, `±0.0`
    // cells and repeated rows.
    check::cases(96, |rng| {
        let mut lr = LogisticRegression::default_params();
        lr.max_iter = rng.gen_range(1..120usize);
        let d = LANE_WIDTHS[rng.gen_range(0..LANE_WIDTHS.len())];
        let n = match rng.gen_range(0..3u32) {
            0 => 1,
            1 => 2,
            _ => 2 * rng.gen_range(1..40usize) + 1,
        };
        let cells = [0.0, -0.0, 0.5, -2.25, 3.0];
        let pool: Vec<Vec<f64>> = (0..rng.gen_range(1..8usize))
            .map(|_| {
                (0..d)
                    .map(|_| match rng.gen_range(0..3u32) {
                        0 => cells[rng.gen_range(0..cells.len())],
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect()
            })
            .collect();
        let x = rows_from_pool(rng, &pool, n);
        if n == 1 {
            // One row holds one class, which `fit` rejects.
            assert_eq!(lr.fit(&x, &[1]), Err(MlError::SingleClass), "d = {d}");
            return;
        }
        let y = labels(rng, n, 0.5);
        assert_fit_matches_reference(&mut lr, &x, &y, d as u32);
    });
    // The search scorer's fits: one standardized column of 500–4,000
    // rows holding 1 to n distinct values, 5–50% positives, the default
    // `max_iter` and `tol` (or no iterations at all), and planted `±0.0`,
    // the standardizer's `±1e6` clamp bounds and subnormals.
    check::cases(24, |rng| {
        let mut lr = LogisticRegression::default_params();
        if rng.gen_bool(0.15) {
            lr.max_iter = 0;
        }
        let n = rng.gen_range(500..=4000usize);
        let k = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(1..=3usize),
            1 => rng.gen_range(4..=n / 8),
            2 => rng.gen_range(n / 8..=n / 2),
            _ => n,
        };
        let planted = [
            0.0,
            -0.0,
            1e6,
            -1e6,
            5e-324,
            -2.5e-310,
            f64::MIN_POSITIVE / 8.0,
        ];
        let mut pool: Vec<f64> = (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect();
        for _ in 0..rng.gen_range(0..=4usize) {
            pool[rng.gen_range(0..k)] = planted[rng.gen_range(0..planted.len())];
        }
        let cells: Vec<f64> = if k == n {
            pool
        } else {
            (0..n).map(|_| pool[rng.gen_range(0..k)]).collect()
        };
        let x = Matrix::new(cells, n, 1).unwrap();
        let share = rng.gen_range(0.05..0.5);
        let y = labels(rng, n, share);
        assert_fit_matches_reference(&mut lr, &x, &y, 100 + k as u32);
    });
}

/// `n` labels, each positive with probability `share`, with rows 0 and 1
/// holding both classes as `fit` requires.
fn labels(rng: &mut Rng, n: usize, share: f64) -> Vec<u8> {
    let mut y: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_f64() < share)).collect();
    y[0] = 0;
    y[1] = 1;
    y
}

/// Fit `lr` on `x` and `y` and assert its weights, bias and probabilities
/// are bit-equal to [`reference_lr`]'s. Returns the reference's iteration
/// count.
fn assert_fit_matches_reference(
    lr: &mut LogisticRegression,
    x: &Matrix,
    y: &[u8],
    case: u32,
) -> usize {
    let (weights, bias, iters) = reference_lr(lr, x, y);
    lr.fit(x, y).unwrap();
    assert_eq!(bits(lr.weights()), bits(&weights), "case {case}");
    assert_eq!(lr.bias().to_bits(), bias.to_bits(), "case {case}");
    let expected: Vec<f64> = (0..x.rows())
        .map(|i| sigmoid(dot(x.row(i), &weights) + bias))
        .collect();
    assert_eq!(bits(&lr.predict_proba(x).unwrap()), bits(&expected));
    iters
}
