//! Integration tests for the simulated FM: transcripts, accounting, and
//! the knowledge base seen through real prompt round-trips.

use smartfeat_repro::core::prompts;
use smartfeat_repro::fm::{FmConfig, ModelSpec};
use smartfeat_repro::prelude::*;

fn agenda() -> smartfeat_repro::core::DataAgenda {
    let ds = smartfeat_repro::datasets::insurance::generate(60, 3);
    ds.agenda("RF")
}

#[test]
fn unary_prompt_round_trip_through_real_templates() {
    let fm = SimulatedFm::gpt4(1);
    let prompt = prompts::unary_proposal(&agenda(), "Age");
    use smartfeat_repro::fm::FoundationModel;
    let response = fm.complete(&prompt).unwrap();
    let proposals = smartfeat_repro::core::fmout::parse_proposals(&response.text);
    assert!(!proposals.is_empty(), "{}", response.text);
    assert!(proposals.iter().any(|p| p.op == "bucketize"));
}

#[test]
fn accounting_matches_per_call_sums() {
    use smartfeat_repro::fm::FoundationModel;
    let fm = SimulatedFm::gpt35(2);
    let mut total_cost = 0.0;
    let mut total_tokens = 0usize;
    for _ in 0..5 {
        let r = fm.complete(&prompts::binary_sample(&agenda())).unwrap();
        total_cost += r.cost_usd;
        total_tokens += r.prompt_tokens + r.completion_tokens;
    }
    let snap = fm.meter().snapshot();
    assert_eq!(snap.calls, 5);
    assert!((snap.cost_usd - total_cost).abs() < 1e-12);
    assert_eq!(snap.total_tokens(), total_tokens);
}

#[test]
fn gpt4_selector_is_costlier_than_gpt35_generator_per_token() {
    let g4 = ModelSpec::gpt4();
    let g35 = ModelSpec::gpt35_turbo();
    assert!(g4.usd_per_1k_prompt > g35.usd_per_1k_prompt);
    assert!(g4.latency(500, 100) > g35.latency(500, 100));
}

#[test]
fn degraded_outputs_are_handled_not_crashed() {
    // A fully-degraded FM must never break the pipeline — candidates are
    // simply skipped and counted as generation errors.
    let ds = smartfeat_repro::datasets::by_name("Tennis", 200, 1).expect("tennis");
    let selector = SimulatedFm::new(
        ModelSpec::gpt4(),
        FmConfig {
            seed: 9,
            error_rate: 0.8,
            ..FmConfig::default()
        },
    );
    let generator = SimulatedFm::new(
        ModelSpec::gpt35_turbo(),
        FmConfig {
            seed: 10,
            error_rate: 0.8,
            ..FmConfig::default()
        },
    );
    let report = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("survives degraded FM");
    assert!(report.generation_errors() > 0, "errors must be recorded");
}

#[test]
fn row_completion_cache_bounds_calls_by_cardinality() {
    use smartfeat_repro::core::transform::{apply, TransformFunction};
    use smartfeat_repro::fm::FoundationModel;
    let ds = smartfeat_repro::datasets::insurance::generate(500, 4);
    let fm = SimulatedFm::gpt35(0);
    let t = TransformFunction::RowCompletion {
        key_cols: vec!["City".into()],
        knowledge: "city_population_density".into(),
    };
    let cols = apply(&t, &ds.frame, "density", &fm).expect("applies");
    let distinct_cities = ds.frame.column("City").unwrap().cardinality();
    assert_eq!(fm.meter().snapshot().calls, distinct_cities);
    assert_eq!(cols[0].null_count(), 0);
}

#[test]
fn knowledge_cities_agree_between_oracle_and_dataset() {
    // The insurance label uses the same densities the oracle serves, so
    // the completion feature genuinely carries signal.
    for (city, expected) in [("SF", 7272.0), ("NYC", 11313.0), ("HOU", 1395.0)] {
        assert_eq!(
            smartfeat_repro::fm::knowledge::city_population_density(city),
            expected
        );
    }
}
