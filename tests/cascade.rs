//! Cascade-routing integration layer.
//!
//! 1. `cascade_metrics_report_per_family_routing_stats` — a cascade run
//!    emits a `routing` section in the JSON metrics report whose per-call
//!    totals reconcile exactly with the FM usage meters; single-model
//!    runs emit no `routing` key at all.
//! 2. `cascade_is_byte_identical_under_thread_matrix` — all four search
//!    strategies under the cascade produce byte-identical fingerprints
//!    (report digest + metrics report bytes) at 1, 4 and 8 threads, run
//!    serially and concurrently (`common::assert_thread_invariant`).
//! 3. `single_backend_override_serves_both_roles` — `--backend`-style
//!    configs run end to end on one family.
//! 4. `empty_ladder_is_invalid_config_before_any_fm_call` — a config
//!    `validate()` rejects still builds an FM pair without panicking, and
//!    the run refuses it with a typed error.

mod common;

use std::fmt::Write as _;

use common::digest;
use smartfeat::{
    build_role_fms, BackendKind, CascadeConfig, CoreError, SearchStrategyKind, SmartFeat,
    SmartFeatConfig, SmartFeatReport,
};
use smartfeat_fm::FoundationModel;
use smartfeat_frame::json::JsonValue;

/// Run the pipeline with whatever FM pairing `config` asks for.
fn run_with_config(config: SmartFeatConfig) -> SmartFeatReport {
    let ds = smartfeat_datasets::insurance::generate(60, 7);
    let (selector, generator) = build_role_fms(&config);
    SmartFeat::new(&selector, &generator, config)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs")
}

fn cascade_config() -> SmartFeatConfig {
    SmartFeatConfig {
        cascade: CascadeConfig {
            enabled: true,
            ..CascadeConfig::default()
        },
        ..SmartFeatConfig::default()
    }
}

#[test]
fn cascade_metrics_report_per_family_routing_stats() {
    let report = run_with_config(cascade_config());
    let Some(JsonValue::Object(routing)) = report.metrics.get("routing") else {
        panic!(
            "cascade metrics must contain a routing object; got {}",
            report.metrics.emit()
        );
    };
    assert!(
        routing.len() >= 2,
        "cascade should exercise at least two families: {routing:?}"
    );
    let field = |o: &JsonValue, k: &str| -> f64 {
        match o.get(k) {
            Some(JsonValue::Num(n)) => *n,
            other => panic!("routing entry field {k} missing: {other:?}"),
        }
    };
    let mut calls = 0.0;
    let mut escalations = 0.0;
    for stat in routing.values() {
        calls += field(stat, "calls");
        escalations += field(stat, "escalations");
        assert!(field(stat, "cost_usd") > 0.0, "every used family has cost");
    }
    assert!(
        escalations > 0.0,
        "the ladder should escalate at least once"
    );
    // Every rung attempt is one metered call on the shared meter, so the
    // routing totals must reconcile exactly with the role usage deltas.
    assert_eq!(
        calls as u64,
        (report.selector_usage.calls + report.generator_usage.calls) as u64,
        "routing calls must equal the summed role meter calls"
    );

    let single = run_with_config(SmartFeatConfig::default());
    assert!(
        single.metrics.get("routing").is_none(),
        "single-model runs must not grow a routing key (PR-7 byte compatibility)"
    );
}

/// Fingerprint all four strategies under the cascade, plus the metrics
/// report bytes of the last run.
fn cascade_fingerprint() -> String {
    let mut out = String::new();
    for kind in SearchStrategyKind::all() {
        let ds = smartfeat_datasets::insurance::generate(60, 7);
        let mut config = cascade_config();
        config.search.strategy = kind;
        let (selector, generator) = build_role_fms(&config);
        let report = SmartFeat::new(&selector, &generator, config)
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("pipeline runs");
        writeln!(out, "## cascade {}", kind.name()).expect("write header");
        digest(&report, ds.target, &mut out);
        out.push_str(&report.metrics.emit());
        out.push('\n');
    }
    out
}

#[test]
fn cascade_is_byte_identical_under_thread_matrix() {
    let fp = common::assert_thread_invariant("cascade", cascade_fingerprint);
    assert!(
        fp.contains("\"routing\""),
        "cascade fingerprint lacks routing stats"
    );
    for kind in SearchStrategyKind::all() {
        assert!(
            fp.contains(&format!("## cascade {}", kind.name())),
            "{} missing from the cascade fingerprint",
            kind.name()
        );
    }
}

#[test]
fn single_backend_override_serves_both_roles() {
    for kind in BackendKind::all() {
        let config = SmartFeatConfig {
            backend: Some(kind),
            ..SmartFeatConfig::default()
        };
        let (selector, generator) = build_role_fms(&config);
        assert_eq!(selector.model_name(), kind.name());
        assert_eq!(generator.model_name(), kind.name());
        let report = run_with_config(config);
        assert!(
            report.selector_usage.calls > 0,
            "{} selector made no calls",
            kind.name()
        );
    }
}

#[test]
fn empty_ladder_is_invalid_config_before_any_fm_call() {
    let config = SmartFeatConfig {
        cascade: CascadeConfig {
            enabled: true,
            ladder: vec![],
        },
        ..SmartFeatConfig::default()
    };
    let (selector, generator) = build_role_fms(&config);
    let ds = smartfeat_datasets::insurance::generate(60, 7);
    let err = SmartFeat::new(&selector, &generator, config)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect_err("an empty ladder is rejected");
    assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
    assert_eq!(selector.meter().snapshot().calls, 0);
    assert_eq!(generator.meter().snapshot().calls, 0);
}
