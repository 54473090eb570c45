//! Seeded property suite for the search strategies (`rng::check`
//! harness). Each case runs a full pipeline on a small synthetic dataset
//! with randomized search knobs and asserts structural invariants over
//! the emitted observability trace and the final report:
//!
//! - beam keeps at most `beam_width` columns per round and never
//!   re-admits a pruned candidate;
//! - the evolutionary population size is invariant across generations and
//!   mutation/crossover parents are drawn from that generation's
//!   survivors only;
//! - ReAct never exceeds its turn budget;
//! - every strategy stays within a positive `fm_call_budget`;
//! - every strategy emits one `sample.repeated` event per repeated-sample
//!   skip row.

use smartfeat::{SearchStrategyKind, SkipReason, SmartFeat, SmartFeatConfig, SmartFeatReport};
use smartfeat_fm::{FmError, FmResponse, FoundationModel, SimulatedFm, UsageMeter};
use smartfeat_frame::json::JsonValue;
use smartfeat_rng::check;

/// Run one pipeline; returns the report and its parsed trace events.
fn run_traced(cfg: &SmartFeatConfig, fm_seed: u64) -> (SmartFeatReport, Vec<JsonValue>) {
    let ds = smartfeat_datasets::insurance::generate(40, 5);
    let selector = SimulatedFm::gpt4(fm_seed);
    let generator = SimulatedFm::gpt35(fm_seed.wrapping_add(1));
    let report = SmartFeat::new(&selector, &generator, cfg.clone())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    let events = report
        .trace
        .lines()
        .map(|l| JsonValue::parse(l).expect("trace line is JSON"))
        .collect();
    (report, events)
}

fn kind_of(e: &JsonValue) -> &str {
    e.get("kind").and_then(JsonValue::as_str).unwrap_or("")
}

fn str_field<'a>(e: &'a JsonValue, key: &str) -> &'a str {
    e.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("event missing string field {key}"))
}

fn u64_field(e: &JsonValue, key: &str) -> u64 {
    e.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("event missing u64 field {key}"))
}

#[test]
fn beam_respects_width_and_never_revisits_pruned() {
    check::cases(6, |rng| {
        let mut cfg = SmartFeatConfig::default();
        cfg.search.strategy = SearchStrategyKind::Beam;
        cfg.search.beam_width = rng.gen_range(1..4usize);
        cfg.search.beam_depth = rng.gen_range(1..4usize);
        cfg.seed = rng.next_u64();
        let width = cfg.search.beam_width;
        let (report, events) = run_traced(&cfg, rng.next_u64());

        let mut rounds = 0;
        for e in events.iter().filter(|e| kind_of(e) == "search.beam.round") {
            rounds += 1;
            assert!(
                u64_field(e, "kept") as usize <= width,
                "round kept {} columns with beam_width={width}",
                u64_field(e, "kept"),
            );
        }
        assert!(rounds >= 1, "beam emitted no round events");

        let pruned: Vec<&str> = events
            .iter()
            .filter(|e| kind_of(e) == "search.pruned")
            .map(|e| str_field(e, "name"))
            .collect();
        for name in &pruned {
            assert_eq!(
                pruned.iter().filter(|p| p == &name).count(),
                1,
                "{name} was pruned twice — a pruned candidate was revisited"
            );
            assert!(
                !report.generated.iter().any(|g| g.name == *name),
                "{name} re-entered the generated set after being pruned"
            );
            assert!(
                !report.frame.has_column(name),
                "{name} re-entered the frame after being pruned"
            );
            assert!(
                report
                    .skipped
                    .iter()
                    .any(|s| s.name == *name && s.reason == smartfeat::SkipReason::Pruned),
                "{name} pruned without a Pruned skip row"
            );
        }
    });
}

#[test]
fn evolution_population_invariant_and_parents_are_survivors() {
    check::cases(6, |rng| {
        let mut cfg = SmartFeatConfig::default();
        cfg.search.strategy = SearchStrategyKind::Evolutionary;
        cfg.search.population = rng.gen_range(2..7usize);
        cfg.search.generations = rng.gen_range(1..4usize);
        cfg.seed = rng.next_u64();
        let population = cfg.search.population;
        let (_report, events) = run_traced(&cfg, rng.next_u64());

        let generations: Vec<&JsonValue> = events
            .iter()
            .filter(|e| kind_of(e) == "search.generation")
            .collect();
        for e in &generations {
            assert_eq!(
                u64_field(e, "population") as usize,
                population,
                "population size drifted at generation {}",
                u64_field(e, "generation"),
            );
            assert!(u64_field(e, "survivors") >= 1, "a generation lost everyone");
        }

        // Offspring parents must come from the same generation's
        // survivor set (`parents` joins crossover parents with '|').
        for child in events.iter().filter(|e| kind_of(e) == "search.child") {
            let generation = u64_field(child, "generation");
            let survivors: Vec<&str> = events
                .iter()
                .filter(|e| {
                    kind_of(e) == "search.survivor" && u64_field(e, "generation") == generation
                })
                .map(|e| str_field(e, "name"))
                .collect();
            for parent in str_field(child, "parents").split('|') {
                assert!(
                    survivors.contains(&parent),
                    "{} offspring parent {parent} is not a generation-{generation} survivor",
                    str_field(child, "op"),
                );
            }
        }
    });
}

#[test]
fn react_never_exceeds_its_turn_budget() {
    check::cases(6, |rng| {
        let mut cfg = SmartFeatConfig::default();
        cfg.search.strategy = SearchStrategyKind::React;
        cfg.search.react_turns = rng.gen_range(1..7usize);
        cfg.seed = rng.next_u64();
        let turns = cfg.search.react_turns;
        let (_report, events) = run_traced(&cfg, rng.next_u64());

        let turn_events: Vec<&JsonValue> = events
            .iter()
            .filter(|e| kind_of(e) == "search.react.turn")
            .collect();
        assert!(
            turn_events.len() <= turns,
            "{} turn events with react_turns={turns}",
            turn_events.len(),
        );
        for e in &turn_events {
            assert!(
                (u64_field(e, "turn") as usize) < turns,
                "turn index {} out of budget {turns}",
                u64_field(e, "turn"),
            );
        }
    });
}

#[test]
fn every_strategy_stays_within_the_fm_call_budget() {
    check::cases(4, |rng| {
        let budget = rng.gen_range(1..12usize);
        for kind in SearchStrategyKind::all() {
            let mut cfg = SmartFeatConfig::default();
            cfg.search.strategy = kind;
            cfg.search.fm_call_budget = budget;
            // With FM removal off, every selector call belongs to the
            // search stage, so the meter measures the budgeted spend.
            cfg.fm_feature_removal = false;
            cfg.seed = rng.next_u64();
            let (report, _events) = run_traced(&cfg, rng.next_u64());
            assert!(
                report.selector_usage.calls <= budget,
                "{} spent {} selector calls with fm_call_budget={budget}",
                kind.name(),
                report.selector_usage.calls,
            );
        }
    });
}

/// A selector FM that answers every ReAct decision with `sample_binary`
/// and every other prompt — sampling, mutation, crossover — with the same
/// binary dict, so after the first draw each strategy only repeats.
struct Repeating(UsageMeter);

impl FoundationModel for Repeating {
    fn model_name(&self) -> &str {
        "repeating"
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        let text = if prompt.contains("Decide the next exploration action") {
            "{\"action\": \"sample_binary\"}"
        } else {
            "{\"family\": \"Binary\", \"left\": \"Age\", \"op\": \"*\", \
             \"right\": \"Age_of_car\", \"description\": \"age times car age\"}"
        };
        Ok(FmResponse {
            text: text.into(),
            prompt_tokens: 1,
            completion_tokens: 1,
            cost_usd: 0.0,
            latency: std::time::Duration::ZERO,
        })
    }

    fn meter(&self) -> &UsageMeter {
        &self.0
    }
}

#[test]
fn every_strategy_emits_one_event_per_repeated_sample() {
    let ds = smartfeat_datasets::insurance::generate(40, 5);
    for kind in SearchStrategyKind::all() {
        let mut cfg = SmartFeatConfig::default();
        cfg.search.strategy = kind;
        let selector = Repeating(UsageMeter::new());
        let generator = SimulatedFm::gpt35(2);
        let report = SmartFeat::new(&selector, &generator, cfg)
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("pipeline runs");
        let rows: Vec<(String, String)> = report
            .skipped
            .iter()
            .filter(|s| s.reason == SkipReason::RepeatedSample)
            .map(|s| (s.family.name().to_string(), s.name.clone()))
            .collect();
        let events: Vec<(String, String)> = report
            .trace
            .lines()
            .map(|l| JsonValue::parse(l).expect("trace line is JSON"))
            .filter(|e| kind_of(e) == "sample.repeated")
            .map(|e| (str_field(&e, "family").into(), str_field(&e, "name").into()))
            .collect();
        assert!(!rows.is_empty(), "{}: no sample repeated", kind.name());
        assert_eq!(events, rows, "{}", kind.name());
    }
}
