//! Tier-1 observability guards.
//!
//! 1. `report_fm_totals_match_usage_meters` — the metrics report's `fm`
//!    section must equal the `crates/fm` usage meters exactly: the report
//!    is an *accounting bridge*, not a second estimate.
//! 2. `metrics_report_is_byte_identical_across_thread_counts` — under the
//!    default logical clock, the metrics report and JSONL trace must be
//!    byte-identical at 1, 4 and 8 threads, including when the three runs
//!    overlap in one process (`common::assert_thread_invariant`).

mod common;

use smartfeat::config::ObservabilityConfig;
use smartfeat::{SmartFeat, SmartFeatConfig, SmartFeatReport};
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::json::JsonValue;

fn run_pipeline(observability: ObservabilityConfig) -> SmartFeatReport {
    let ds = smartfeat_datasets::insurance::generate(80, 9);
    let selector = SimulatedFm::gpt4(9);
    let generator = SimulatedFm::gpt35(10);
    let config = SmartFeatConfig {
        observability,
        ..SmartFeatConfig::default()
    };
    SmartFeat::new(&selector, &generator, config)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs")
}

fn enabled_in_memory() -> ObservabilityConfig {
    ObservabilityConfig {
        enabled: true,
        trace_out: None,
        metrics_out: None,
    }
}

#[test]
fn metrics_absent_when_observability_off() {
    let report = run_pipeline(ObservabilityConfig::default());
    assert!(report.metrics.is_none(), "inactive config must not record");
}

#[test]
fn report_fm_totals_match_usage_meters() {
    let report = run_pipeline(enabled_in_memory());
    let metrics = report
        .metrics
        .as_ref()
        .expect("metrics present when enabled");
    let fm = metrics.get("fm").expect("fm section in report");

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

#[test]
fn metrics_and_trace_files_are_written_and_parseable() {
    let trace = common::temp_path("smartfeat_obs_files_trace", "jsonl");
    let metrics = common::temp_path("smartfeat_obs_files_metrics", "json");
    let report = run_pipeline(ObservabilityConfig {
        enabled: false, // either output path alone activates the section
        trace_out: Some(trace.display().to_string()),
        metrics_out: Some(metrics.display().to_string()),
    });

    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);

    let parsed = JsonValue::parse(&metrics_text).expect("metrics file is valid JSON");
    assert_eq!(
        Some(&parsed),
        report.metrics.as_ref(),
        "file and in-report metrics documents diverge"
    );
    assert_eq!(
        parsed.get("clock").and_then(JsonValue::as_str),
        Some("logical"),
        "default clock is the deterministic logical counter"
    );
    assert!(!trace_text.is_empty());
    for line in trace_text.lines() {
        let event = JsonValue::parse(line).expect("each trace line is valid JSON");
        assert!(event.get("kind").is_some(), "trace event carries a kind");
        assert!(event.get("t").is_some(), "trace event carries a timestamp");
    }
}

/// Metrics report + trace for one fully instrumented run, digested to a
/// string. Thread counts come from the run context.
fn obs_fingerprint() -> String {
    let trace = common::temp_path("smartfeat_obs_fp_trace", "jsonl");
    let metrics = common::temp_path("smartfeat_obs_fp_metrics", "json");
    let report = run_pipeline(ObservabilityConfig {
        enabled: true,
        trace_out: Some(trace.display().to_string()),
        metrics_out: Some(metrics.display().to_string()),
    });
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
    let in_report = report.metrics.expect("metrics present when enabled").emit();
    format!("{metrics_text}\n{trace_text}\n{in_report}\n")
}

#[test]
fn metrics_report_is_byte_identical_across_thread_counts() {
    common::assert_thread_invariant("obs_metrics", obs_fingerprint);
}
