//! Helpers shared by the integration tests: the in-process thread-count
//! matrix and the report digest the differential oracles compare.
// Each test crate compiles this module on its own and uses a subset.
#![allow(dead_code)]

use std::fmt::Write as _;

use smartfeat::SmartFeatReport;
use smartfeat_frame::{csv, DataFrame};
use smartfeat_ml::{kfold_cv_auc, Matrix, ModelKind};

/// Thread counts of the matrix.
const THREADS: [usize; 3] = [1, 4, 8];

/// Run `f` inside run contexts at 1, 4 and 8 threads, first one after
/// another and then all three at once, assert that the six strings are
/// non-empty and byte-identical, and return that string. The concurrent
/// leg holds per-run numbers (pool and work counters in metrics reports)
/// to their own run while other runs share the process.
pub fn assert_thread_invariant(label: &str, f: impl Fn() -> String + Sync) -> String {
    let f = &f;
    let serial: Vec<String> = THREADS
        .iter()
        .map(|&t| smartfeat_par::within(t, f))
        .collect();
    let concurrent: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = THREADS
            .iter()
            .map(|&t| s.spawn(move || smartfeat_par::within(t, f)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("matrix leg panicked"))
            .collect()
    });
    assert!(!serial[0].is_empty(), "{label}: empty fingerprint");
    for (leg, runs) in [("serial", &serial), ("concurrent", &concurrent)] {
        for (t, fp) in THREADS.iter().zip(runs) {
            assert!(
                *fp == serial[0],
                "{label}: the {leg} run at {t} threads diverges from the serial run at 1 thread"
            );
        }
    }
    serial.into_iter().next().expect("three serial runs")
}

/// Downstream CV score of an engineered frame: logistic regression,
/// 4-fold, fixed seed — deterministic and bit-identical across threads.
pub fn frame_auc(df: &smartfeat_frame::DataFrame, target: &str) -> f64 {
    let features: Vec<&str> = df
        .column_names()
        .into_iter()
        .filter(|n| *n != target)
        .collect();
    let rows = df.to_matrix(&features, 0.0).expect("frame to matrix");
    let x = Matrix::from_rows(rows).expect("rectangular matrix");
    let y = df.to_labels(target).expect("labels");
    kfold_cv_auc(ModelKind::LR, &x, &y, 4, 11).expect("cv score")
}

/// Digest one report to text: summary, full frame CSV, exact FM meter
/// deltas (cost as bit pattern), and the downstream AUC bit pattern.
pub fn digest(report: &SmartFeatReport, target: &str, out: &mut String) {
    out.push_str(&report.summary());
    out.push_str(&csv::write_csv_str(&report.frame));
    for (role, u) in [
        ("selector", &report.selector_usage),
        ("generator", &report.generator_usage),
    ] {
        writeln!(
            out,
            "{role} calls={} prompt={} completion={} cost={:016x}",
            u.calls,
            u.prompt_tokens,
            u.completion_tokens,
            u.cost_usd.to_bits()
        )
        .expect("write digest");
    }
    writeln!(
        out,
        "auc={:016x}",
        frame_auc(&report.frame, target).to_bits()
    )
    .expect("write digest");
}

/// Frame → CSV → frame, comparing shapes, column names, dtypes, and
/// rendered cells. Since the writer quotes string cells and the reader
/// exempts quoted fields from inference, a round trip must preserve every
/// column's dtype exactly.
pub fn roundtrip_equal(df: &DataFrame) -> bool {
    let Ok(back) = csv::read_csv_str(&csv::write_csv_str(df)) else {
        return false;
    };
    let rendered = |frame: &DataFrame, i: usize| -> Vec<String> {
        frame.columns().iter().map(|c| c.get(i).render()).collect()
    };
    back.n_rows() == df.n_rows()
        && back.n_cols() == df.n_cols()
        && df
            .columns()
            .iter()
            .zip(back.columns())
            .all(|(a, b)| a.name() == b.name() && a.dtype() == b.dtype())
        && (0..df.n_rows()).all(|i| rendered(df, i) == rendered(&back, i))
}
