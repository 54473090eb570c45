//! Evaluation drivers: fit the five models on a train/test split and report
//! AUC per model (Tables 4, 5 and 7), plus k-fold cross-validation.
//!
//! Model kinds and CV folds are evaluated in parallel on the
//! [`smartfeat_par`] pool. Each unit of work (one model kind, one fold) is
//! independently seeded, so scores are bit-identical for any thread count.
//! The failed-training fallback (random-guess AUC of 50.0) is computed
//! inside each model's own task with no shared mutable state, so one model
//! kind failing to train cannot poison — or race with — the others.

use crate::error::Result;
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
    let threads = smartfeat_par::resolve_threads(0);
    let scores = smartfeat_par::par_map_indexed(threads, models.len(), |i| {
        let kind = models[i];
        let (tr, te): (&Matrix, &Matrix) = if kind.wants_standardized_input() {
            match &standardized {
                Some((tr, te)) => (tr, te),
                None => (x_train, x_test),
            }
        } else {
            (x_train, x_test)
        };
        // Runs on pool workers: the run's work tally aggregates through
        // order-independent counters, so this is determinism-safe.
        let auc = smartfeat_obs::global::time("ml.eval.model", || {
            score_one_model(kind, tr, y_train, te, y_test, seed, i)
        });
        (kind, auc)
    });
    Ok(ModelScores { scores })
}

/// Fit and score one model; a training or prediction failure scores 50.0
/// (random guessing) — the paper's convention for e.g. CAAFE's Diabetes
/// failure. Runs inside one pool task: all state is task-local, so the
/// fallback is thread-safe by construction.
fn score_one_model(
    kind: ModelKind,
    x_train: &Matrix,
    y_train: &[u8],
    x_test: &Matrix,
    y_test: &[u8],
    seed: u64,
    index: usize,
) -> f64 {
    let mut model = kind.build(seed.wrapping_add(index as u64 * 7919));
    match model.fit(x_train, y_train) {
        Ok(()) => match model.predict_proba(x_test) {
            Ok(p) => roc_auc(y_test, &p) * 100.0,
            Err(_) => 50.0,
        },
        Err(_) => 50.0,
    }
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

/// K-fold cross-validated AUC (× 100) for a single model kind.
///
/// Folds run on the pool at the run context's thread count. They are
/// independent — each derives its own seed from `seed + fold_id` — and
/// fold AUCs are averaged in fold order, so the result is bit-identical
/// for any thread count.
pub fn kfold_cv_auc(kind: ModelKind, x: &Matrix, y: &[u8], k: usize, seed: u64) -> Result<f64> {
    let folds = smartfeat_frame::sample::kfold_indices(x.rows(), k, seed)
        .map_err(|e| crate::error::MlError::InvalidParameter(e.to_string()))?;
    let threads = smartfeat_par::resolve_threads(0);
    let aucs = smartfeat_par::try_par_map_indexed(threads, folds.len(), |fold_id| {
        smartfeat_obs::global::time("ml.cv.fold", || {
            let (train_idx, valid_idx) = &folds[fold_id];
            let x_train = x.take_rows(train_idx);
            let x_valid = x.take_rows(valid_idx);
            let y_train: Vec<u8> = train_idx.iter().map(|&i| y[i]).collect();
            let y_valid: Vec<u8> = valid_idx.iter().map(|&i| y[i]).collect();
            // A one-model batch runs serially on this fold's worker. The
            // model itself may open a pool: RF and ET fit their trees at
            // the run context's count, nested inside the fold pool.
            evaluate_models(
                &[kind],
                &x_train,
                &y_train,
                &x_valid,
                &y_valid,
                seed.wrapping_add(fold_id as u64),
            )
            .map(|s| s.scores[0].1)
        })
    })?;
    Ok(mean(&aucs))
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
