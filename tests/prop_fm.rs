//! Property-based robustness tests for the simulated FM and the core's
//! FM-output parsers: arbitrary text must never panic, and every response
//! must be well-accounted. Driven by the in-repo `smartfeat_rng::check`
//! harness.

use smartfeat_repro::core::fmout;
use smartfeat_repro::fm::FoundationModel;
use smartfeat_repro::prelude::*;
use smartfeat_repro::rng::check;

/// The oracle must answer *any* prompt without panicking, with exact
/// token accounting.
#[test]
fn oracle_never_panics_on_arbitrary_prompts() {
    check::cases(64, |rng| {
        let prompt = check::arbitrary_text(rng, 400);
        let fm = SimulatedFm::gpt4(7);
        let r = fm.complete(&prompt).expect("no budget configured");
        assert!(!r.text.is_empty() || prompt.is_empty() || r.completion_tokens == 0);
        assert!(r.cost_usd >= 0.0);
        let snap = fm.meter().snapshot();
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.prompt_tokens, r.prompt_tokens);
    });
}

/// Prompts that *look like* template requests but carry garbage context
/// still produce parseable-or-gracefully-unhelpful answers, never panics.
#[test]
fn oracle_survives_mangled_template_prompts() {
    const GARBAGE_CHARSET: &str =
        "-ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789(){}:,.'\"\n ";
    check::cases(64, |rng| {
        let garbage = check::string_of(rng, GARBAGE_CHARSET, 200);
        let which = rng.gen_range(0..4usize);
        let marker = [
            "Consider the unary operators on the attribute",
            "Propose one binary arithmetic feature",
            "Generate a groupby feature",
            "Propose one extractor feature",
        ][which];
        let prompt = format!("{garbage}\n{marker} {garbage}");
        let fm = SimulatedFm::gpt4(11);
        let r = fm.complete(&prompt).expect("no budget");
        // Whatever came back, the core parsers must not panic on it.
        let _ = fmout::parse_proposals(&r.text);
        let _ = fmout::parse_dict(&r.text);
        let _ = fmout::parse_function_spec(&r.text);
    });
}

/// The tolerant dict parser never panics and never fabricates keys.
#[test]
fn dict_parser_total_on_arbitrary_text() {
    check::cases(64, |rng| {
        let text = check::arbitrary_text(rng, 300);
        if let Some(d) = fmout::parse_dict(&text) {
            assert!(!d.is_empty());
            for key in d.keys() {
                assert!(text.contains(key.as_str()));
            }
        }
    });
}

/// Proposal-line parsing is total and only accepts known confidences.
#[test]
fn proposal_parser_total() {
    check::cases(64, |rng| {
        let text = check::arbitrary_text(rng, 300);
        for line in fmout::parse_proposals(&text) {
            assert!(!line.op.is_empty());
            assert!(!line.op.contains(' '));
        }
    });
}

/// The prompt-context reader is total on arbitrary card-ish text.
#[test]
fn prompt_context_parser_total() {
    const CARD_CHARSET: &str =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_() =,:.";
    check::cases(64, |rng| {
        let lines = rng.gen_range(0..=8usize);
        let text: String = (0..lines)
            .map(|_| format!("- {}\n", check::string_of(rng, CARD_CHARSET, 60)))
            .collect();
        let ctx = smartfeat_repro::fm::parse::PromptContext::parse(&text);
        for f in &ctx.features {
            assert!(!f.name.is_empty());
        }
    });
}

/// Column names the memo property draws from: some recur across cards,
/// and some hold `(` or `:` themselves.
const CARD_NAMES: &[&str] = &[
    "Age",
    "Age (years)",
    "Income: USD",
    "City",
    "FSW.1",
    "Glucose",
    "Ratio (a:b)",
    "Make_Model",
];

/// Descriptions a recurring name may carry; empty is the names-only
/// ablation.
const CARD_DESCRIPTIONS: &[&str] = &[
    "",
    "age of the policyholder in years",
    "yearly income in USD",
    "city where the customer lives",
    "plasma glucose concentration: fasting",
    "wins (per season)",
];

/// Parsing through one warm concept memo equals a fresh parse, and every
/// feature's concepts are exactly `knowledge::detect` of its name and
/// description.
#[test]
fn warm_concept_memo_parses_like_a_fresh_one() {
    use smartfeat_repro::fm::knowledge::detect;
    use smartfeat_repro::fm::parse::{ConceptMemo, PromptContext};
    check::cases(32, |rng| {
        let memo = ConceptMemo::new();
        for _ in 0..rng.gen_range(1..=6usize) {
            let mut card = String::from("Dataset features:\n");
            for _ in 0..rng.gen_range(1..=6usize) {
                let name = CARD_NAMES[rng.gen_range(0..CARD_NAMES.len())];
                let desc = CARD_DESCRIPTIONS[rng.gen_range(0..CARD_DESCRIPTIONS.len())];
                let dtype = ["int", "float", "str", "bool"][rng.gen_range(0..4usize)];
                card.push_str(&format!("- {name} ({dtype}"));
                if rng.gen_bool(0.5) {
                    card.push_str(&format!(", distinct={}", rng.gen_range(1..500usize)));
                }
                card.push(')');
                if !desc.is_empty() {
                    card.push_str(&format!(": {desc}"));
                }
                card.push('\n');
            }
            card.push_str("Prediction target: Label\n");
            let warm = PromptContext::parse_with(&card, &memo);
            let fresh = PromptContext::parse(&card);
            assert_eq!(warm.features, fresh.features, "{card}");
            for f in &warm.features {
                assert!(CARD_NAMES.contains(&f.name.as_str()), "{card}");
                assert_eq!(f.concepts(), detect(&f.name, &f.description), "{card}");
            }
        }
    });
}
