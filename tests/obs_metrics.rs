//! Tier-1 observability guards.
//!
//! 1. `default_run_records_metrics_and_trace` — every run records: a
//!    default-config run's report carries the metrics document and a
//!    JSONL trace whose every line parses.
//! 2. `report_fm_totals_match_usage_meters` — the metrics report's `fm`
//!    section must equal the `crates/fm` usage meters exactly: the report
//!    is an *accounting bridge*, not a second estimate.
//! 3. `metrics_and_trace_files_are_written_and_parseable` — the bytes
//!    `smartfeat --metrics-out` / `--trace-out` write parse back to the
//!    documents the run returned.
//! 4. `metrics_report_is_byte_identical_across_thread_counts` — under the
//!    default logical clock, the metrics report and JSONL trace must be
//!    byte-identical at 1, 4 and 8 threads, including when the three runs
//!    overlap in one process (`common::assert_thread_invariant`).

mod common;

use smartfeat::{SmartFeat, SmartFeatConfig, SmartFeatReport};
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::json::JsonValue;

fn run_pipeline() -> SmartFeatReport {
    let ds = smartfeat_datasets::insurance::generate(80, 9);
    let selector = SimulatedFm::gpt4(9);
    let generator = SimulatedFm::gpt35(10);
    SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs")
}

#[test]
fn default_run_records_metrics_and_trace() {
    let report = run_pipeline();
    let metrics = &report.metrics;
    for section in ["fm", "families", "spans"] {
        assert!(
            matches!(metrics.get(section), Some(JsonValue::Object(m)) if !m.is_empty()),
            "default-config metrics lack a non-empty {section:?} section: {}",
            metrics.emit()
        );
    }
    assert_eq!(
        metrics.get("clock").and_then(JsonValue::as_str),
        Some("logical"),
        "default clock is the deterministic logical counter"
    );
    assert!(!report.trace.is_empty(), "default-config run has no trace");
    let mut lines = 0u64;
    for line in report.trace.lines() {
        let event = JsonValue::parse(line).expect("each trace line is valid JSON");
        assert!(event.get("kind").is_some(), "trace event carries a kind");
        assert!(event.get("t").is_some(), "trace event carries a timestamp");
        lines += 1;
    }
    assert_eq!(
        metrics.get("events").and_then(JsonValue::as_u64),
        Some(lines),
        "the report counts every trace line"
    );
}

#[test]
fn report_fm_totals_match_usage_meters() {
    let report = run_pipeline();
    let fm = report.metrics.get("fm").expect("fm section in report");

    let roles = [
        ("selector", &report.selector_usage),
        ("generator", &report.generator_usage),
    ];
    for (role, usage) in roles {
        let entry = fm.get(role).unwrap_or_else(|| panic!("fm.{role} present"));
        assert_eq!(
            entry.get("calls").and_then(JsonValue::as_u64),
            Some(usage.calls as u64),
            "fm.{role}.calls diverges from the usage meter"
        );
        assert_eq!(
            entry.get("prompt_tokens").and_then(JsonValue::as_u64),
            Some(usage.prompt_tokens as u64),
            "fm.{role}.prompt_tokens diverges from the usage meter"
        );
        assert_eq!(
            entry.get("completion_tokens").and_then(JsonValue::as_u64),
            Some(usage.completion_tokens as u64),
            "fm.{role}.completion_tokens diverges from the usage meter"
        );
        let cost = entry
            .get("cost_usd")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("fm.{role}.cost_usd present"));
        assert_eq!(
            cost.to_bits(),
            usage.cost_usd.to_bits(),
            "fm.{role}.cost_usd diverges from the usage meter"
        );
    }

    // The computed total sums exactly the two role entries, so it must
    // equal the combined meter snapshot bit-for-bit (f64 `+` commutes).
    let total = fm.get("total").expect("fm.total present");
    let combined = report.total_usage();
    assert_eq!(
        total.get("calls").and_then(JsonValue::as_u64),
        Some(combined.calls as u64)
    );
    assert_eq!(
        total.get("prompt_tokens").and_then(JsonValue::as_u64),
        Some(combined.prompt_tokens as u64)
    );
    assert_eq!(
        total.get("completion_tokens").and_then(JsonValue::as_u64),
        Some(combined.completion_tokens as u64)
    );
    let total_cost = total
        .get("cost_usd")
        .and_then(JsonValue::as_f64)
        .expect("fm.total.cost_usd present");
    assert_eq!(total_cost.to_bits(), combined.cost_usd.to_bits());
    assert!(combined.calls > 0, "run must have made FM calls");
}

/// `smartfeat` writes `--metrics-out` as `report.metrics.emit()` plus a
/// newline and `--trace-out` as `report.trace` (the CLI's own writes and
/// their error path are checked in `crates/core/tests/cli_targets.rs`).
/// Those bytes must parse back to exactly what the run returned.
#[test]
fn metrics_and_trace_files_are_written_and_parseable() {
    let report = run_pipeline();
    let metrics_text = format!("{}\n", report.metrics.emit());
    let parsed = JsonValue::parse(&metrics_text).expect("metrics file is valid JSON");
    assert_eq!(
        parsed, report.metrics,
        "file and in-report metrics documents diverge"
    );
    assert!(!report.trace.is_empty());
    for line in report.trace.lines() {
        let event = JsonValue::parse(line).expect("each trace line is valid JSON");
        assert_eq!(event.emit(), line, "trace line does not round-trip");
    }
}

/// Metrics report + trace for one run, digested to a string. Thread
/// counts come from the run context.
fn obs_fingerprint() -> String {
    let report = run_pipeline();
    format!("{}\n{}\n", report.metrics.emit(), report.trace)
}

#[test]
fn metrics_report_is_byte_identical_across_thread_counts() {
    common::assert_thread_invariant("obs_metrics", obs_fingerprint);
}
