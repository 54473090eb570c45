//! Differential test layer for the parallel execution subsystem: every
//! parallel-wired path must produce **byte-identical** output between the
//! exact serial path (1 thread) and a multi-threaded pool, across seeds.
//! Each leg runs inside a run context (`smartfeat_par::within`), which is
//! where the thread count lives.

use smartfeat::{SmartFeat, SmartFeatConfig, SmartFeatReport};
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::csv;
use smartfeat_ml::{
    evaluate_models, kfold_cv_auc, kfold_cv_auc_many, Classifier, ExtraTrees, Matrix, MlError,
    ModelKind, RandomForest,
};
use smartfeat_par::within;
use smartfeat_rng::Rng;

const SEEDS: [u64; 5] = [1, 7, 42, 123, 9999];
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn dense_data(seed: u64, rows: usize, cols: usize) -> (Matrix, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(seed);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_f64() * 8.0).collect())
        .collect();
    let y: Vec<u8> = data.iter().map(|r| u8::from(r[0] + r[1] > 8.0)).collect();
    (Matrix::from_rows(data).expect("rectangular"), y)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn forest_fit_is_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let (x, y) = dense_data(seed, 240, 6);
        let fitted = |threads| {
            within(threads, || {
                let mut forest = RandomForest::default_params(seed);
                forest.fit(&x, &y).expect("fits");
                forest
            })
        };
        let serial = fitted(1);
        let p_serial = bits(&serial.predict_proba(&x).expect("fitted"));
        let i_serial = bits(&serial.feature_importances().expect("fitted"));
        for threads in THREAD_COUNTS {
            let par = fitted(threads);
            assert_eq!(
                bits(&par.predict_proba(&x).expect("fitted")),
                p_serial,
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                bits(&par.feature_importances().expect("fitted")),
                i_serial,
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn extra_trees_fit_is_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let (x, y) = dense_data(seed.wrapping_add(31), 240, 6);
        let fitted = |threads| {
            within(threads, || {
                let mut trees = ExtraTrees::default_params(seed);
                trees.fit(&x, &y).expect("fits");
                trees
            })
        };
        let p_serial = bits(&fitted(1).predict_proba(&x).expect("fitted"));
        for threads in THREAD_COUNTS {
            let par = fitted(threads);
            assert_eq!(
                bits(&par.predict_proba(&x).expect("fitted")),
                p_serial,
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn kfold_cv_is_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let (x, y) = dense_data(seed.wrapping_add(77), 160, 4);
        for kind in [ModelKind::RF, ModelKind::LR, ModelKind::NB] {
            let cv = |threads| {
                within(threads, || kfold_cv_auc(kind, &x, &y, 4, seed))
                    .expect("scores")
                    .to_bits()
            };
            let serial = cv(1);
            for threads in THREAD_COUNTS {
                let par = cv(threads);
                assert_eq!(par, serial, "seed {seed}, {kind}, {threads} threads");
            }
        }
    }
}

/// One n×1 input per column of `x`, plus a coarse copy of column 0 with
/// few distinct values, so the batch holds repeated-row inputs too.
fn one_column_inputs(x: &Matrix) -> Vec<Matrix> {
    let mut inputs: Vec<Matrix> = (0..x.cols())
        .map(|j| Matrix::new(x.col(j), x.rows(), 1).expect("n×1"))
        .collect();
    let coarse: Vec<f64> = x.col(0).iter().map(|v| v.floor()).collect();
    inputs.push(Matrix::new(coarse, x.rows(), 1).expect("n×1"));
    inputs
}

#[test]
fn kfold_cv_many_matches_one_input_calls_across_thread_counts() {
    for seed in SEEDS {
        let (x, y) = dense_data(seed.wrapping_add(5), 150, 3);
        let mut inputs = one_column_inputs(&x);
        inputs.push(x);
        for kind in [ModelKind::LR, ModelKind::NB, ModelKind::RF] {
            let alone: Vec<u64> = inputs
                .iter()
                .map(|x| {
                    within(1, || kfold_cv_auc(kind, x, &y, 3, seed))
                        .expect("scores")
                        .to_bits()
                })
                .collect();
            for threads in [1, 2, 4, 8] {
                let batch: Vec<u64> =
                    within(threads, || kfold_cv_auc_many(kind, &inputs, &y, 3, seed))
                        .expect("folds")
                        .into_iter()
                        .map(|auc| auc.expect("scores").to_bits())
                        .collect();
                assert_eq!(batch, alone, "seed {seed}, {kind}, {threads} threads");
            }
        }
    }
}

#[test]
fn kfold_cv_many_isolates_a_bad_input() {
    let (x, y) = dense_data(3, 90, 2);
    let mut inputs = one_column_inputs(&x);
    let mut poisoned = inputs[0].clone();
    poisoned.set(17, 0, f64::NAN);
    inputs.insert(1, poisoned);
    inputs.push(Matrix::zeros(89, 1));
    for threads in [1, 4] {
        let scores = within(threads, || {
            kfold_cv_auc_many(ModelKind::LR, &inputs, &y, 3, 8)
        })
        .expect("folds");
        assert_eq!(scores.len(), inputs.len());
        assert!(
            matches!(scores[1], Err(MlError::NonFinite(_))),
            "{:?}",
            scores[1]
        );
        assert!(
            matches!(
                scores[inputs.len() - 1],
                Err(MlError::ShapeMismatch {
                    rows: 89,
                    labels: 90
                })
            ),
            "{:?}",
            scores[inputs.len() - 1]
        );
        for (i, score) in scores.iter().enumerate() {
            if i != 1 && i != inputs.len() - 1 {
                let want = kfold_cv_auc(ModelKind::LR, &inputs[i], &y, 3, 8).expect("scores");
                assert_eq!(
                    score.as_ref().map(|a| a.to_bits()),
                    Ok(want.to_bits()),
                    "input {i}"
                );
            }
        }
    }
    assert!(matches!(
        kfold_cv_auc(ModelKind::LR, &inputs[1], &y, 3, 8),
        Err(MlError::NonFinite(_))
    ));
}

#[test]
fn kfold_cv_with_fewer_positives_than_folds_scores_or_errs() {
    let (x, _) = dense_data(11, 40, 2);
    let inputs = one_column_inputs(&x);
    for positives in [0usize, 1, 2] {
        let mut y = vec![0u8; 40];
        for label in y.iter_mut().take(positives) {
            *label = 1;
        }
        for kind in [ModelKind::LR, ModelKind::NB, ModelKind::RF] {
            for k in [3, 4, 5] {
                let scores = within(2, || kfold_cv_auc_many(kind, &inputs, &y, k, 1))
                    .expect("40 rows split into k folds");
                for score in scores {
                    let auc = score.expect("a failed fold fit scores 50.0");
                    assert!((0.0..=100.0).contains(&auc), "{kind}, k = {k}: {auc}");
                }
            }
        }
    }
    let y: Vec<u8> = (0..40).map(|i| u8::from(i < 2)).collect();
    assert!(matches!(
        kfold_cv_auc_many(ModelKind::LR, &inputs, &y, 41, 1),
        Err(MlError::InvalidParameter(_))
    ));
    assert_eq!(
        kfold_cv_auc_many(ModelKind::LR, &[], &y, 3, 1),
        Ok(Vec::new())
    );
}

#[test]
fn evaluate_all_models_is_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let (x, y) = dense_data(seed.wrapping_add(13), 200, 5);
        let split = 150;
        let train: Vec<usize> = (0..split).collect();
        let test: Vec<usize> = (split..x.rows()).collect();
        let (xt, xe) = (x.take_rows(&train), x.take_rows(&test));
        let yt: Vec<u8> = train.iter().map(|&i| y[i]).collect();
        let ye: Vec<u8> = test.iter().map(|&i| y[i]).collect();
        let all = ModelKind::all();
        let scores = |threads| {
            within(threads, || evaluate_models(&all, &xt, &yt, &xe, &ye, seed)).expect("scores")
        };
        let serial = scores(1);
        for threads in THREAD_COUNTS {
            let par = scores(threads);
            for ((ks, vs), (kp, vp)) in serial.scores.iter().zip(&par.scores) {
                assert_eq!(ks, kp, "model order, seed {seed}, {threads} threads");
                assert_eq!(
                    vs.to_bits(),
                    vp.to_bits(),
                    "seed {seed}, {ks}, {threads} threads"
                );
            }
        }
    }
}

fn run_pipeline(seed: u64, threads: usize) -> SmartFeatReport {
    let ds = smartfeat_datasets::insurance::generate(120, seed);
    let selector = SimulatedFm::gpt4(seed);
    let generator = SimulatedFm::gpt35(seed.wrapping_add(1));
    let config = SmartFeatConfig {
        seed,
        ..SmartFeatConfig::default()
    };
    within(threads, || {
        SmartFeat::new(&selector, &generator, config).run(&ds.frame, &ds.agenda("RF"))
    })
    .expect("pipeline runs")
}

#[test]
fn full_pipeline_run_is_byte_identical_across_thread_counts() {
    for seed in SEEDS {
        let serial = run_pipeline(seed, 1);
        let serial_csv = csv::write_csv_str(&serial.frame);
        for threads in THREAD_COUNTS {
            let par = run_pipeline(seed, threads);
            assert_eq!(
                par.new_feature_names(),
                serial.new_feature_names(),
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                par.summary(),
                serial.summary(),
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                csv::write_csv_str(&par.frame),
                serial_csv,
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                (par.selector_usage.calls, par.generator_usage.calls),
                (serial.selector_usage.calls, serial.generator_usage.calls),
                "FM usage attribution, seed {seed}, {threads} threads"
            );
            assert_eq!(
                par.skipped.len(),
                serial.skipped.len(),
                "seed {seed}, {threads} threads"
            );
        }
    }
}
