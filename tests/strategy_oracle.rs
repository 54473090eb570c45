//! Differential strategy-oracle layer.
//!
//! 1. `one_shot_matches_pre_refactor_golden` — the default `one_shot`
//!    strategy routed through the strategy dispatch must produce
//!    byte-identical `SmartFeatReport`s (generated features, augmented
//!    frame CSV, FM meter totals, downstream CV AUC) to the pre-refactor
//!    hard-coded pipeline, across 5 seeds on two datasets, at 1, 4 and 8
//!    threads. The golden fingerprint in
//!    `tests/golden/strategy_oracle_one_shot.txt` was blessed from the
//!    commit *before* strategies were pluggable; regenerating it
//!    (`SMARTFEAT_BLESS=1 cargo test --test strategy_oracle`) is only
//!    legitimate when the one-shot semantics intentionally change.
//! 2. `strategies_are_byte_identical_under_thread_matrix` — every search
//!    strategy must produce a byte-identical fingerprint at 1, 4 and 8
//!    threads, run serially and concurrently in one process
//!    (`common::assert_thread_invariant`), and that fingerprint must match
//!    `tests/golden/strategy_oracle_all.txt`, blessed before the strategies
//!    shared one sample path. Regenerate it only when a strategy's
//!    semantics intentionally change.

mod common;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::digest;
use smartfeat::{SearchStrategyKind, SmartFeat, SmartFeatConfig};
use smartfeat_fm::SimulatedFm;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// Compare `fp` with the golden `file`, or write it under
/// `SMARTFEAT_BLESS`.
fn check_golden(file: &str, fp: &str, what: &str) {
    let path = golden_path(file);
    if std::env::var("SMARTFEAT_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, fp).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with SMARTFEAT_BLESS=1 cargo test --test strategy_oracle",
            path.display()
        )
    });
    assert_eq!(golden, fp, "{what}");
}

/// The pre/post-refactor differential fingerprint: default config (the
/// `one_shot` strategy) across 5 seeds on two datasets.
fn one_shot_fingerprint() -> String {
    let mut out = String::new();
    for seed in [1u64, 2, 3, 4, 5] {
        for (name, ds) in [
            (
                "insurance",
                smartfeat_datasets::insurance::generate(60, seed),
            ),
            (
                "Heart",
                smartfeat_datasets::by_name("Heart", 120, seed).expect("Heart exists"),
            ),
        ] {
            let selector = SimulatedFm::gpt4(seed);
            let generator = SimulatedFm::gpt35(seed.wrapping_add(1));
            let report = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
                .run(&ds.frame, &ds.agenda("RF"))
                .expect("pipeline runs");
            writeln!(out, "## {name} seed={seed}").expect("write header");
            digest(&report, ds.target, &mut out);
        }
    }
    out
}

#[test]
fn one_shot_matches_pre_refactor_golden() {
    let fp = common::assert_thread_invariant("one_shot", one_shot_fingerprint);
    check_golden(
        "strategy_oracle_one_shot.txt",
        &fp,
        "one_shot through the strategy dispatch diverged from the pre-refactor pipeline bytes",
    );
}

/// Fingerprint every strategy end-to-end on two datasets. Thread counts
/// come from the run context.
fn all_strategy_fingerprint() -> String {
    let mut out = String::new();
    for kind in SearchStrategyKind::all() {
        for (name, ds) in [
            ("insurance", smartfeat_datasets::insurance::generate(60, 7)),
            (
                "Heart",
                smartfeat_datasets::by_name("Heart", 120, 7).expect("Heart exists"),
            ),
        ] {
            let selector = SimulatedFm::gpt4(21);
            let generator = SimulatedFm::gpt35(22);
            let mut config = SmartFeatConfig::default();
            config.search.strategy = kind;
            let report = SmartFeat::new(&selector, &generator, config)
                .run(&ds.frame, &ds.agenda("RF"))
                .expect("pipeline runs");
            writeln!(out, "## {} {name}", kind.name()).expect("write header");
            digest(&report, ds.target, &mut out);
        }
    }
    out
}

#[test]
fn strategies_are_byte_identical_under_thread_matrix() {
    let fp = common::assert_thread_invariant("all strategies", all_strategy_fingerprint);
    for kind in SearchStrategyKind::all() {
        assert!(
            fp.contains(&format!("## {} insurance", kind.name())),
            "{} missing from the fingerprint",
            kind.name()
        );
    }
    check_golden(
        "strategy_oracle_all.txt",
        &fp,
        "a strategy's report diverged from the blessed fingerprint",
    );
}
