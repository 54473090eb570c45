//! Evaluation drivers: fit the five models on a train/test split and report
//! AUC per model (Tables 4, 5 and 7), plus k-fold cross-validation.
//!
//! Model kinds and CV folds are evaluated in parallel on the
//! [`smartfeat_par`] pool. Each unit of work (one model kind, one fold) is
//! independently seeded, so scores are bit-identical for any thread count.
//! The failed-training fallback (random-guess AUC of 50.0) is computed
//! inside each model's own task with no shared mutable state, so one model
//! kind failing to train cannot poison — or race with — the others.

use crate::error::{MlError, Result};
use crate::matrix::Matrix;
use crate::metrics::{mean, median, roc_auc};
use crate::model::ModelKind;
use crate::preprocess::Standardizer;

/// AUC per model on one (train, test) evaluation, as percentages
/// (the paper reports AUC × 100).
#[derive(Debug, Clone)]
pub struct ModelScores {
    /// `(model, auc_percent)` in [`ModelKind::all`] order.
    pub scores: Vec<(ModelKind, f64)>,
}

impl ModelScores {
    /// Average AUC across models (Table 4's cell).
    pub fn average(&self) -> f64 {
        mean(&self.scores.iter().map(|(_, a)| *a).collect::<Vec<_>>())
    }

    /// Median AUC across models (Table 5's cell).
    pub fn median(&self) -> f64 {
        median(&self.scores.iter().map(|(_, a)| *a).collect::<Vec<_>>())
    }

    /// AUC of one model, if present.
    pub fn get(&self, kind: ModelKind) -> Option<f64> {
        self.scores
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| *a)
    }
}

/// Fit every model of `models` on `(x_train, y_train)`, score AUC (× 100)
/// on `(x_test, y_test)`. LR/DNN inputs are standardized on the train split.
///
/// A model that fails to train (e.g. poisoned features from an unsafe
/// baseline transformation) scores 50.0 — the AUC of random guessing —
/// mirroring how the paper counts CAAFE's Diabetes failure.
///
/// Model kinds run on the pool at the run context's thread count. Scores
/// are bit-identical for any count: each model kind is an independently
/// seeded task and results are collected in `models` order by the
/// ordered `par_map`.
pub fn evaluate_models(
    models: &[ModelKind],
    x_train: &Matrix,
    y_train: &[u8],
    x_test: &Matrix,
    y_test: &[u8],
    seed: u64,
) -> Result<ModelScores> {
    let standardized = Standardizer::fit_transform(x_train, x_test).ok();
    let split = Split {
        x_train,
        y_train,
        x_test,
        y_test,
    };
    let threads = smartfeat_par::resolve_threads(0);
    let scores = smartfeat_par::par_map_indexed(threads, models.len(), |i| {
        let kind = models[i];
        (
            kind,
            score_model(kind, &split, standardized.as_ref(), seed, i),
        )
    });
    Ok(ModelScores { scores })
}

/// One (train, test) split.
struct Split<'a> {
    x_train: &'a Matrix,
    y_train: &'a [u8],
    x_test: &'a Matrix,
    y_test: &'a [u8],
}

/// Fit `kind` on `split`'s train half and score AUC (× 100) on its test
/// half, under the `ml.eval.model` work unit; it reads the standardized
/// split when the model wants it and standardization succeeded. A
/// training or prediction failure scores 50.0 (random guessing) — the
/// paper's convention for e.g. CAAFE's Diabetes failure. Runs inside one
/// pool task: all state is task-local, so the fallback is thread-safe by
/// construction, and the run's work tally aggregates through
/// order-independent counters.
fn score_model(
    kind: ModelKind,
    split: &Split<'_>,
    standardized: Option<&(Matrix, Matrix)>,
    seed: u64,
    index: usize,
) -> f64 {
    let (x_train, x_test): (&Matrix, &Matrix) = match standardized {
        Some((tr, te)) if kind.wants_standardized_input() => (tr, te),
        _ => (split.x_train, split.x_test),
    };
    smartfeat_obs::global::time("ml.eval.model", || {
        let mut model = kind.build(seed.wrapping_add(index as u64 * 7919));
        match model.fit(x_train, split.y_train) {
            Ok(()) => match model.predict_proba(x_test) {
                Ok(p) => roc_auc(split.y_test, &p) * 100.0,
                Err(_) => 50.0,
            },
            Err(_) => 50.0,
        }
    })
}

/// [`evaluate_models`] over all five paper models.
pub fn evaluate_all_models(
    x_train: &Matrix,
    y_train: &[u8],
    x_test: &Matrix,
    y_test: &[u8],
    seed: u64,
) -> Result<ModelScores> {
    evaluate_models(&ModelKind::all(), x_train, y_train, x_test, y_test, seed)
}

/// K-fold cross-validated AUC (× 100) for a single model kind: the
/// one-input case of [`kfold_cv_auc_many`], with the same errors.
pub fn kfold_cv_auc(kind: ModelKind, x: &Matrix, y: &[u8], k: usize, seed: u64) -> Result<f64> {
    // One input gives one result.
    kfold_cv_auc_many(kind, std::slice::from_ref(x), y, k, seed)?
        .pop()
        .unwrap_or(Err(MlError::EmptyTrainingSet))
}

/// K-fold cross-validated AUC (× 100) of one model kind on each of `xs`,
/// all against the labels `y`.
///
/// Every input shares the folds of `kfold_indices(y.len(), k, seed)`, and
/// fold `f` seeds its model with `seed + f`. The `xs.len() × k`
/// (input, fold) pairs run as one pool batch at the run context's thread
/// count, and no fold opens a pool of its own for LR, NB or the DNN (RF
/// and ET fit their trees on a nested pool). Each input's fold AUCs are
/// averaged in fold order, so every score is bit-identical for any
/// thread count and for any batch it shares.
///
/// The outer error is for the folds themselves (`k` out of range for
/// `y.len()` rows). An input whose row count differs from `y.len()` or
/// that holds a non-finite cell gets its own error, reported by its
/// lowest fold, while the other inputs still score. A model that fails
/// to train on a fold scores 50.0 there, as in [`evaluate_models`].
pub fn kfold_cv_auc_many(
    kind: ModelKind,
    xs: &[Matrix],
    y: &[u8],
    k: usize,
    seed: u64,
) -> Result<Vec<Result<f64>>> {
    let folds = smartfeat_frame::sample::kfold_indices(y.len(), k, seed)
        .map_err(|e| MlError::InvalidParameter(e.to_string()))?;
    let labels: Vec<(Vec<u8>, Vec<u8>)> = folds
        .iter()
        .map(|(train, valid)| {
            (
                train.iter().map(|&i| y[i]).collect(),
                valid.iter().map(|&i| y[i]).collect(),
            )
        })
        .collect();
    let checks: Vec<Result<()>> = xs
        .iter()
        .map(|x| {
            if x.rows() != y.len() {
                Err(MlError::ShapeMismatch {
                    rows: x.rows(),
                    labels: y.len(),
                })
            } else if !x.is_finite() {
                Err(MlError::NonFinite("cross-validation features"))
            } else {
                Ok(())
            }
        })
        .collect();
    let k = folds.len();
    let threads = smartfeat_par::resolve_threads(0);
    let aucs = smartfeat_par::par_map_indexed(threads, xs.len() * k, |task| {
        let (input, fold_id) = (task / k, task % k);
        checks[input].clone()?;
        Ok(smartfeat_obs::global::time("ml.cv.fold", || {
            let x = &xs[input];
            let (train_idx, valid_idx) = &folds[fold_id];
            let (y_train, y_valid) = &labels[fold_id];
            let x_train = x.take_rows(train_idx);
            let x_valid = x.take_rows(valid_idx);
            let standardized = kind
                .wants_standardized_input()
                .then(|| Standardizer::fit_transform(&x_train, &x_valid).ok())
                .flatten();
            let split = Split {
                x_train: &x_train,
                y_train,
                x_test: &x_valid,
                y_test: y_valid,
            };
            score_model(
                kind,
                &split,
                standardized.as_ref(),
                seed.wrapping_add(fold_id as u64),
                0,
            )
        }))
    });
    Ok(aucs
        .chunks(k)
        .map(|input| {
            let input: Result<Vec<f64>> = input.iter().cloned().collect();
            input.map(|a| mean(&a))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Matrix, Vec<u8>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64) / n as f64, ((i * 31) % 17) as f64])
            .collect();
        let y: Vec<u8> = (0..n).map(|i| u8::from(i >= n / 2)).collect();
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn evaluate_all_scores_every_model() {
        let (x, y) = linear_data(200);
        let x_train = x.take_rows(&(0..150).step_by(1).collect::<Vec<_>>());
        // interleave labels so both classes appear in both splits
        let idx_train: Vec<usize> = (0..200).filter(|i| i % 4 != 0).collect();
        let idx_test: Vec<usize> = (0..200).filter(|i| i % 4 == 0).collect();
        let _ = x_train;
        let xt = x.take_rows(&idx_train);
        let xe = x.take_rows(&idx_test);
        let yt: Vec<u8> = idx_train.iter().map(|&i| y[i]).collect();
        let ye: Vec<u8> = idx_test.iter().map(|&i| y[i]).collect();
        let s = evaluate_all_models(&xt, &yt, &xe, &ye, 42).unwrap();
        assert_eq!(s.scores.len(), 5);
        for (kind, auc) in &s.scores {
            assert!(*auc > 80.0, "{kind} scored {auc}");
        }
        assert!(s.average() > 80.0);
        assert!(s.median() > 80.0);
        assert!(s.get(ModelKind::LR).is_some());
    }

    #[test]
    fn evaluate_all_records_one_fit_per_kind() {
        let (x, y) = linear_data(80);
        let work = smartfeat_par::within(4, || {
            evaluate_all_models(&x, &y, &x, &y, 5).unwrap();
            smartfeat_par::with_current(smartfeat_par::RunContext::work).unwrap()
        });
        for name in [
            "ml.lr.fit",
            "ml.nb.fit",
            "ml.forest.fit",
            "ml.extra_trees.fit",
            "ml.dnn.fit",
        ] {
            assert_eq!(work.get(name).map(|w| w.count), Some(1), "{name}: {work:?}");
        }
        assert_eq!(work["ml.eval.model"].count, 5);
    }

    #[test]
    fn failed_training_scores_random() {
        // Single-class training labels ⇒ every model fails ⇒ 50.0 AUC.
        let x = Matrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![1, 1, 1];
        let s = evaluate_models(&[ModelKind::LR], &x, &y, &x, &y, 0).unwrap();
        assert_eq!(s.scores[0].1, 50.0);
    }

    #[test]
    fn kfold_cv_reasonable_on_signal() {
        let (x, y) = linear_data(120);
        let auc = kfold_cv_auc(ModelKind::LR, &x, &y, 4, 3).unwrap();
        assert!(auc > 90.0, "cv auc = {auc}");
    }

    #[test]
    fn concurrent_failure_fallback_is_isolated_per_model() {
        // Column 1 holds DBL_MAX-scale values: the raw matrix is finite
        // (trees and NB train on it), but standardization overflows the
        // column mean to infinity, poisoning LR's and the DNN's inputs
        // with NaN — exactly one failure mode, concurrent with healthy
        // training of the tree ensembles in sibling pool tasks.
        let n = 60usize;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 1e308]).collect();
        let x = Matrix::from_rows(rows).unwrap();
        let y: Vec<u8> = (0..n).map(|i| u8::from(i >= n / 2)).collect();
        let models = [ModelKind::LR, ModelKind::RF, ModelKind::ET, ModelKind::DNN];
        let s = smartfeat_par::within(4, || evaluate_models(&models, &x, &y, &x, &y, 9)).unwrap();
        assert_eq!(
            s.get(ModelKind::LR),
            Some(50.0),
            "LR should hit the fallback"
        );
        assert_eq!(
            s.get(ModelKind::DNN),
            Some(50.0),
            "DNN should hit the fallback"
        );
        assert!(
            s.get(ModelKind::RF).unwrap() > 60.0,
            "RF trains on the raw matrix"
        );
        assert!(
            s.get(ModelKind::ET).unwrap() > 60.0,
            "ET trains on the raw matrix"
        );
    }

    #[test]
    fn median_differs_from_mean_when_skewed() {
        let scores = ModelScores {
            scores: vec![
                (ModelKind::LR, 50.0),
                (ModelKind::NB, 90.0),
                (ModelKind::RF, 91.0),
                (ModelKind::ET, 92.0),
                (ModelKind::DNN, 93.0),
            ],
        };
        assert!(scores.median() > scores.average());
        assert_eq!(scores.median(), 91.0);
    }
}
