//! Golden obs-trace tests: one small fixed-seed run per search strategy,
//! with the search-relevant slice of the JSONL trace blessed under
//! `tests/golden/strategy_trace_<name>.jsonl`.
//!
//! The slice keeps `span_start`/`span_end` events for the search stage,
//! its phases, and per-round/generation/turn spans, plus every
//! `search.*` event — with the logical timestamp stripped, so the golden
//! pins the *structure* (which spans open, in what order, with which
//! events inside) without coupling to unrelated event counts. Regenerate
//! with `SMARTFEAT_BLESS=1 cargo test --test strategy_trace` only when a
//! strategy's control flow intentionally changes. Each slice must match
//! at 1, 4 and 8 threads, run serially and concurrently
//! (`common::assert_thread_invariant`).

mod common;

use std::path::PathBuf;

use smartfeat::{SearchStrategyKind, SmartFeat, SmartFeatConfig};
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::json::JsonValue;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("strategy_trace_{name}.jsonl"))
}

/// Whether a trace line belongs to the blessed search slice.
fn in_slice(event: &JsonValue) -> bool {
    let kind = event.get("kind").and_then(JsonValue::as_str).unwrap_or("");
    if kind.starts_with("search.") {
        return true;
    }
    if kind == "span_start" || kind == "span_end" {
        let name = event.get("name").and_then(JsonValue::as_str).unwrap_or("");
        return name.starts_with("stage.search")
            || name.starts_with("phase.")
            || name.starts_with("search.");
    }
    false
}

/// One strategy's search-trace slice: filtered lines with `t` removed.
fn trace_slice(kind: SearchStrategyKind) -> String {
    let mut cfg = SmartFeatConfig::default();
    cfg.search.strategy = kind;
    let ds = smartfeat_datasets::insurance::generate(40, 5);
    let selector = SimulatedFm::gpt4(13);
    let generator = SimulatedFm::gpt35(14);
    let report = SmartFeat::new(&selector, &generator, cfg)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    let mut out = String::new();
    for line in report.trace.lines() {
        let event = JsonValue::parse(line).expect("trace line is JSON");
        if !in_slice(&event) {
            continue;
        }
        let JsonValue::Object(mut map) = event else {
            panic!("trace event is not an object");
        };
        map.remove("t");
        out.push_str(&JsonValue::Object(map).emit());
        out.push('\n');
    }
    out
}

fn check_golden(kind: SearchStrategyKind) {
    let slice = common::assert_thread_invariant(kind.name(), || trace_slice(kind));
    let path = golden_path(kind.name());
    if std::env::var("SMARTFEAT_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &slice).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with SMARTFEAT_BLESS=1 cargo test --test strategy_trace",
            path.display()
        )
    });
    assert_eq!(
        golden,
        slice,
        "{} search-trace slice diverged from the blessed golden",
        kind.name()
    );
    // Structural floor independent of the golden bytes.
    let stage = format!("\"name\":\"stage.search.{}\"", kind.name());
    assert!(slice.contains(&stage), "trace is missing the {stage} span");
    let per_step = match kind {
        SearchStrategyKind::OneShot => "\"name\":\"phase.unary\"",
        SearchStrategyKind::Beam => "\"kind\":\"search.beam.round\"",
        SearchStrategyKind::Evolutionary => "\"kind\":\"search.generation\"",
        SearchStrategyKind::React => "\"kind\":\"search.react.turn\"",
    };
    assert!(
        slice.contains(per_step),
        "{} trace is missing its per-step marker {per_step}",
        kind.name()
    );
}

#[test]
fn one_shot_trace_matches_golden() {
    check_golden(SearchStrategyKind::OneShot);
}

#[test]
fn beam_trace_matches_golden() {
    check_golden(SearchStrategyKind::Beam);
}

#[test]
fn evolutionary_trace_matches_golden() {
    check_golden(SearchStrategyKind::Evolutionary);
}

#[test]
fn react_trace_matches_golden() {
    check_golden(SearchStrategyKind::React);
}
