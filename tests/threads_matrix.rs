//! Tier-1 thread matrix: the parallel-wired stack must fingerprint
//! byte-identically at 1, 4 and 8 threads, run serially and
//! concurrently in one process (see `common::assert_thread_invariant`).

mod common;

use smartfeat::{SmartFeat, SmartFeatConfig};
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::csv;
use smartfeat_ml::{
    evaluate_all_models, kfold_cv_auc, Classifier, ExtraTrees, Matrix, ModelKind, RandomForest,
};
use smartfeat_rng::Rng;

/// Everything downstream of the pool, digested to a string: full
/// pipeline runs, forest and extra-trees fits, a k-fold CV score and a
/// five-model evaluation. The ml calls reach every `par_map` call site
/// outside sfcheck; a default (one-shot) run scores nothing and opens no
/// pool.
/// Thread counts come from the run context
/// (`SmartFeatConfig::default()` and the models leave them at auto).
fn fingerprint() -> String {
    let mut out = String::new();
    for seed in [3u64, 17] {
        let ds = smartfeat_datasets::insurance::generate(100, seed);
        let selector = SimulatedFm::gpt4(seed);
        let generator = SimulatedFm::gpt35(seed.wrapping_add(1));
        let report = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("pipeline runs");
        out.push_str(&report.summary());
        out.push_str(&csv::write_csv_str(&report.frame));
    }
    let mut rng = Rng::seed_from_u64(5);
    let rows: Vec<Vec<f64>> = (0..150)
        .map(|_| (0..4).map(|_| rng.gen_f64() * 6.0).collect())
        .collect();
    let y: Vec<u8> = rows.iter().map(|r| u8::from(r[0] + r[3] > 6.0)).collect();
    let x = Matrix::from_rows(rows).expect("rectangular");
    let models: [Box<dyn Classifier>; 2] = [
        Box::new(RandomForest::default_params(5)),
        Box::new(ExtraTrees::default_params(5)),
    ];
    for mut model in models {
        model.fit(&x, &y).expect("fits");
        for p in model.predict_proba(&x).expect("fitted") {
            out.push_str(&format!("{:016x}\n", p.to_bits()));
        }
    }
    let auc = kfold_cv_auc(ModelKind::RF, &x, &y, 4, 11).expect("scores");
    out.push_str(&format!("cv={:016x}\n", auc.to_bits()));
    let scores = evaluate_all_models(&x, &y, &x, &y, 13).expect("scores");
    for (kind, auc) in &scores.scores {
        out.push_str(&format!("{kind}={:016x}\n", auc.to_bits()));
    }
    out
}

#[test]
fn suite_is_byte_identical_under_thread_matrix() {
    common::assert_thread_invariant("threads_matrix", fingerprint);
}

/// The pool counters and work counts of the matrix leg's own context
/// after the ml part of [`fingerprint`]: pure functions of the workload.
fn tally_fingerprint() -> String {
    let mut rng = Rng::seed_from_u64(9);
    let rows: Vec<Vec<f64>> = (0..120)
        .map(|_| (0..4).map(|_| rng.gen_f64() * 6.0).collect())
        .collect();
    let y: Vec<u8> = rows.iter().map(|r| u8::from(r[1] > 3.0)).collect();
    let x = Matrix::from_rows(rows).expect("rectangular");
    RandomForest::default_params(2).fit(&x, &y).expect("fits");
    ExtraTrees::default_params(3).fit(&x, &y).expect("fits");
    kfold_cv_auc(ModelKind::NB, &x, &y, 5, 4).expect("scores");
    evaluate_all_models(&x, &y, &x, &y, 6).expect("scores");
    let (pool, work) = smartfeat_par::with_current(|ctx| (ctx.pool(), ctx.work()))
        .expect("the matrix installs a context");
    let mut out = format!("batches={} tasks={}\n", pool.batches, pool.tasks);
    for (name, stat) in work {
        out.push_str(&format!("{name}={}\n", stat.count));
    }
    out
}

#[test]
fn work_tally_is_identical_under_thread_matrix() {
    let fp = common::assert_thread_invariant("work tally", tally_fingerprint);
    for name in [
        "ml.forest.fit",
        "ml.extra_trees.fit",
        "ml.cv.fold",
        "ml.dnn.fit",
    ] {
        assert!(fp.contains(name), "{name} missing from {fp}");
    }
}

/// The matrix must really vary the thread count: a fingerprint that
/// reports it has to fail.
#[test]
#[should_panic(expected = "diverges from the serial run at 1 thread")]
fn matrix_rejects_thread_dependent_output() {
    common::assert_thread_invariant("probe", || smartfeat_par::resolve_threads(0).to_string());
}

#[test]
#[should_panic(expected = "empty fingerprint")]
fn matrix_rejects_an_empty_fingerprint() {
    common::assert_thread_invariant("probe", String::new);
}
