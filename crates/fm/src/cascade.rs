//! Cost-optimal cascade routing across model families.
//!
//! FrugalGPT-style LLM cascades: try the cheapest eligible backend
//! first, inspect its output, and escalate to the next rung when the
//! answer is malformed, refused, or low-confidence. FeRG-LLM motivates
//! the same move for feature engineering from the cost side — most
//! prompts in a SMARTFEAT run are format-following tasks a cheap model
//! handles, and only the knowledge-heavy minority needs the expensive
//! tier.
//!
//! # Determinism contract
//!
//! A cascade run must stay bit-identical across `SMARTFEAT_THREADS`
//! settings. The argument:
//!
//! - The cascade owns no RNG. Each rung's [`SimulatedBackend`] carries
//!   its own seeded stream, derived as
//!   `seed_jump(seed, CASCADE_STREAM + rung_index)`, so a rung's answer
//!   depends only on the sequence of prompts *that rung* has served.
//! - Escalation is a pure function of the rung's output sequence: the
//!   [`accepts`] policy reads only the answer text, and the
//!   repeated-answer detector reads only the rung's previous answer —
//!   no clocks, no ambient state.
//! - The pipeline issues every FM call on its serial control path
//!   (DESIGN.md §8/§13), so each rung observes the same prompt sequence
//!   at every thread count.

use std::cell::RefCell;
use std::rc::Rc;

use smartfeat_rng::seed_jump;

use crate::backend::{BackendKind, FmBackend, KnowledgeCoverage, SimulatedBackend};
use crate::oracle::{prompt_kind, FmError, FmResponse, FoundationModel};
use crate::stats::{RouteStat, RoutingSnapshot, UsageMeter};

/// `seed_jump` stream for per-rung oracle seeds, disjoint from the
/// pipeline's SCORE (101) and EVOLUTION (211) streams.
pub const CASCADE_STREAM: u64 = 311;

/// A cascade of simulated backends behind one [`FoundationModel`] face.
pub struct CascadeFm {
    ladder: Vec<Box<dyn FmBackend>>,
    name: String,
    meter: Rc<UsageMeter>,
    routing: RefCell<RoutingSnapshot>,
    // Last answer per rung: a shallow rung repeating itself verbatim is
    // its degenerate-output failure mode, caught here statefully.
    last_texts: RefCell<Vec<Option<String>>>,
}

impl CascadeFm {
    /// Build a cascade over `kinds` (tried in order; must be non-empty —
    /// `SmartFeatConfig::validate` rejects empty ladders before any
    /// cascade is constructed). All rungs bill one shared meter, so
    /// the meter counts every underlying attempt exactly.
    pub fn new(kinds: &[BackendKind], seed: u64) -> Self {
        assert!(!kinds.is_empty(), "cascade ladder must be non-empty");
        let meter = Rc::new(UsageMeter::new());
        let ladder: Vec<Box<dyn FmBackend>> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                Box::new(SimulatedBackend::new(
                    kind,
                    // sfcheck:seed-stream(311..327)
                    seed_jump(seed, CASCADE_STREAM + i as u64),
                    Rc::clone(&meter),
                )) as Box<dyn FmBackend>
            })
            .collect();
        let name = format!(
            "cascade({})",
            kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("->")
        );
        let rungs = ladder.len();
        CascadeFm {
            ladder,
            name,
            meter,
            routing: RefCell::new(RoutingSnapshot::new()),
            last_texts: RefCell::new(vec![None; rungs]),
        }
    }

    /// Build a cascade over an arbitrary rung list (tests only).
    #[cfg(test)]
    fn from_ladder(ladder: Vec<Box<dyn FmBackend>>) -> Self {
        let rungs = ladder.len();
        CascadeFm {
            ladder,
            name: "cascade(test)".to_string(),
            meter: Rc::new(UsageMeter::new()),
            routing: RefCell::new(RoutingSnapshot::new()),
            last_texts: RefCell::new(vec![None; rungs]),
        }
    }
}

/// True when `text` opens and closes a JSON-ish dict — catches the
/// truncation failure mode, which loses the closing brace.
fn closed_dict(text: &str) -> bool {
    let t = text.trim();
    t.starts_with('{') && t.ends_with('}')
}

/// Structural half of the escalation policy: refusals, truncations,
/// and schema violations any family could emit. Applied to every
/// non-final rung regardless of its knowledge coverage.
fn well_formed(kind: &str, text: &str) -> bool {
    let t = text.trim();
    if t.is_empty() || t.starts_with("I'm sorry") {
        return false; // refusal
    }
    match kind {
        "binary_sample" => {
            closed_dict(t)
                && t.contains("\"left\"")
                && t.contains("\"op\"")
                && t.contains("\"right\"")
        }
        "highorder_sample" => {
            closed_dict(t)
                && t.contains("\"groupby_col\"")
                && t.contains("\"agg_col\"")
                && t.contains("\"function\"")
        }
        "extractor_sample" => closed_dict(t) && t.contains("\"kind\""),
        "mutation" | "crossover" => closed_dict(t) && t.contains("\"family\""),
        "react_decision" => closed_dict(t) && t.contains("\"action\""),
        "function_generation" => t.starts_with("FUNCTION:"),
        _ => true,
    }
}

/// Knowledge half of the escalation policy: answers that parse but hedge
/// or come back empty-handed. A *shallow* family producing these is
/// worth escalating past; a deep family producing the same text is
/// reporting ground truth, and asking an even deeper rung would only
/// repeat it at a higher price.
fn confident(kind: &str, text: &str) -> bool {
    let t = text.trim();
    match kind {
        // Proposals hedged down to "medium" everywhere.
        "unary_proposal" => t.contains("(certain)") || t.contains("(high)"),
        // "boundaries=auto" means the family lacked the domain
        // thresholds the feature description promised; a missing
        // function means it could not produce one at all.
        "function_generation" => {
            !t.starts_with("FUNCTION: unavailable") && !t.contains("boundaries=auto")
        }
        // A world-knowledge lookup that comes back empty-handed.
        "row_completion" => t != "unknown",
        _ => true,
    }
}

/// The full strict escalation policy — structure AND knowledge checks,
/// as applied to shallow rungs. Pure in `(kind, text)`; the determinism
/// argument leans on this.
pub fn accepts(kind: &str, text: &str) -> bool {
    well_formed(kind, text) && confident(kind, text)
}

impl FoundationModel for CascadeFm {
    fn model_name(&self) -> &str {
        &self.name
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        let kind = prompt_kind(prompt);
        let last = self.ladder.len() - 1;
        let mut prompt_tokens = 0usize;
        let mut completion_tokens = 0usize;
        let mut cost_usd = 0.0f64;
        let mut latency = std::time::Duration::ZERO;
        for (i, rung) in self.ladder.iter().enumerate() {
            // An ineligible rung is skipped without billing a call —
            // unless it is the final rung, which must answer regardless.
            if i < last && !rung.eligible(kind) {
                continue;
            }
            let resp = rung.complete(prompt)?;
            prompt_tokens += resp.prompt_tokens;
            completion_tokens += resp.completion_tokens;
            cost_usd += resp.cost_usd;
            latency += resp.latency;
            let shallow = rung.coverage() == KnowledgeCoverage::Shallow;
            // Deep rungs only escalate on structural failures — their
            // hedges and "unknown"s are ground truth. Shallow rungs
            // face the full policy plus the repeated-answer detector
            // (their degenerate-output failure mode repeats the
            // previous answer verbatim).
            let repeated = {
                let mut lasts = self.last_texts.borrow_mut();
                let repeated = shallow && lasts[i].as_deref() == Some(resp.text.as_str());
                lasts[i] = Some(resp.text.clone());
                repeated
            };
            let quality = if shallow {
                accepts(kind, &resp.text) && !repeated
            } else {
                well_formed(kind, &resp.text)
            };
            let accepted = i == last || quality;
            {
                let mut routing = self.routing.borrow_mut();
                let stat = routing.entry(rung.name().to_string()).or_default();
                stat.add(&RouteStat {
                    calls: 1,
                    escalations: usize::from(!accepted),
                    prompt_tokens: resp.prompt_tokens,
                    completion_tokens: resp.completion_tokens,
                    cost_usd: resp.cost_usd,
                });
            }
            if accepted {
                return Ok(FmResponse {
                    text: resp.text,
                    prompt_tokens,
                    completion_tokens,
                    cost_usd,
                    latency,
                });
            }
        }
        // sfcheck:allow(panic-hygiene, panic-reachability) invariant: the final rung always accepts above
        unreachable!("the final cascade rung accepts unconditionally")
    }

    fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    fn routing(&self) -> Option<RoutingSnapshot> {
        Some(self.routing.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CARD: &str = "Dataset features:\n\
        - Age (int, distinct=47): Age of the policyholder in years\n\
        - Age_of_car (int, distinct=15): Age of the insured vehicle in years\n\
        - Make_Model (str, distinct=12): Make and model of the car\n\
        - Claim (int, distinct=2): Whether a claim was filed in the last 6 months\n\
        - City (str, distinct=3): City where the policyholder lives\n\
        Prediction target: Safe\n\
        Downstream model: RF\n";

    fn full_ladder(seed: u64) -> CascadeFm {
        CascadeFm::new(&BackendKind::all(), seed)
    }

    #[test]
    fn name_reflects_the_ladder() {
        assert_eq!(
            full_ladder(0).model_name(),
            "cascade(babbage-002->gpt-3.5-turbo->gpt-4)"
        );
    }

    #[test]
    fn shallow_unary_escalates_to_a_deep_rung() {
        let fm = full_ladder(3);
        let prompt = format!(
            "{CARD}Consider the unary operators on the attribute 'Age' that can generate \
             helpful features to predict Safe. List all possible appropriate operators."
        );
        let r = fm.complete(&prompt).unwrap();
        assert!(r.text.contains("(certain)"), "{}", r.text);
        let routing = fm.routing().unwrap();
        let babbage = routing.get("babbage-002").expect("babbage attempted");
        assert_eq!(babbage.calls, 1);
        assert_eq!(babbage.escalations, 1);
        assert_eq!(routing.get("gpt-3.5-turbo").map(|s| s.calls), Some(1));
    }

    #[test]
    fn row_completion_skips_the_shallow_rung_entirely() {
        let fm = full_ladder(0);
        let prompt = "Complete the value of the last field.\n\
            City: SF, City_population_density: ?";
        let r = fm.complete(prompt).unwrap();
        assert_eq!(r.text, "7272");
        let routing = fm.routing().unwrap();
        assert!(!routing.contains_key("babbage-002"), "{routing:?}");
        assert_eq!(routing.get("gpt-3.5-turbo").map(|s| s.calls), Some(1));
    }

    #[test]
    fn meter_counts_every_underlying_attempt() {
        let fm = full_ladder(5);
        let prompt = format!(
            "{CARD}Consider the unary operators on the attribute 'Age' that can generate \
             helpful features to predict Safe. List all possible appropriate operators."
        );
        let r = fm.complete(&prompt).unwrap();
        let snap = fm.meter().snapshot();
        let routing = fm.routing().unwrap();
        let attempts: usize = routing.values().map(|s| s.calls).sum();
        assert!(attempts >= 2, "expected an escalation, got {routing:?}");
        assert_eq!(snap.calls, attempts);
        // The response aggregates the whole chain's billing.
        assert_eq!(snap.prompt_tokens, r.prompt_tokens);
        assert_eq!(snap.completion_tokens, r.completion_tokens);
        assert_eq!(snap.cost_usd.to_bits(), r.cost_usd.to_bits());
    }

    #[test]
    fn transcripts_are_deterministic_in_the_seed() {
        let run = |seed| {
            let fm = full_ladder(seed);
            let p = format!("{CARD}Propose one binary arithmetic feature for predicting Safe.");
            let texts: Vec<String> = (0..8).map(|_| fm.complete(&p).unwrap().text).collect();
            (texts, format!("{:?}", fm.routing().unwrap()))
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn single_rung_ladder_accepts_unconditionally() {
        let fm = CascadeFm::new(&[BackendKind::Babbage002], 1);
        let prompt = "Complete the value of the last field.\n\
            City: SF, City_population_density: ?";
        // Shallow and ineligible, but it is the last rung: it must answer.
        let r = fm.complete(prompt).unwrap();
        assert_eq!(r.text, "unknown");
        let routing = fm.routing().unwrap();
        assert_eq!(routing.get("babbage-002").map(|s| s.escalations), Some(0));
    }

    /// A backend that always returns the same text (tests only).
    struct Fixed(&'static str, KnowledgeCoverage, &'static str);

    impl FmBackend for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn coverage(&self) -> KnowledgeCoverage {
            self.1
        }
        fn eligible(&self, _kind: &str) -> bool {
            true
        }
        fn complete(&self, _prompt: &str) -> Result<FmResponse, FmError> {
            Ok(FmResponse {
                text: self.2.to_string(),
                prompt_tokens: 1,
                completion_tokens: 1,
                cost_usd: 0.0,
                latency: std::time::Duration::ZERO,
            })
        }
    }

    #[test]
    fn shallow_repetition_escalates_but_deep_repetition_stands() {
        let fm = CascadeFm::from_ladder(vec![
            Box::new(Fixed("cheap", KnowledgeCoverage::Shallow, "same")),
            Box::new(Fixed("deep", KnowledgeCoverage::Deep, "fresh")),
            Box::new(Fixed("deepest", KnowledgeCoverage::Deep, "last")),
        ]);
        // First call: the cheap rung's answer is new — accepted.
        assert_eq!(fm.complete("anything").unwrap().text, "same");
        // Second call: the cheap rung repeats itself verbatim — the
        // degenerate-output failure mode — so the deep rung answers.
        assert_eq!(fm.complete("anything").unwrap().text, "fresh");
        // Third call: the deep rung also repeats itself, but deep
        // repetition is legitimate sampling, not a failure mode.
        assert_eq!(fm.complete("anything").unwrap().text, "fresh");
        let routing = fm.routing().unwrap();
        assert_eq!(routing["cheap"].calls, 3);
        assert_eq!(routing["cheap"].escalations, 2);
        assert_eq!(routing["deep"].escalations, 0);
        assert!(!routing.contains_key("deepest"), "{routing:?}");
    }

    #[test]
    fn deep_rungs_escalate_only_on_structural_failures() {
        let fm = CascadeFm::from_ladder(vec![
            Box::new(Fixed(
                "deep-honest",
                KnowledgeCoverage::Deep,
                "FUNCTION: unavailable",
            )),
            Box::new(Fixed(
                "deepest",
                KnowledgeCoverage::Deep,
                "FUNCTION: bucketize\nINPUT: Age\nPARAMS: boundaries=18,25\n",
            )),
        ]);
        // A deep rung declining is ground truth: asking a deeper rung
        // would repeat the answer at a higher price.
        let prompt = "Provide an executable transformation function for the feature.";
        assert_eq!(fm.complete(prompt).unwrap().text, "FUNCTION: unavailable");
        let fm = CascadeFm::from_ladder(vec![
            Box::new(Fixed("deep-broken", KnowledgeCoverage::Deep, "I'm sorry")),
            Box::new(Fixed("deepest", KnowledgeCoverage::Deep, "fine")),
        ]);
        // ... but a refusal escalates from any rung.
        assert_eq!(fm.complete("anything").unwrap().text, "fine");
    }

    #[test]
    fn acceptance_policy_rejects_the_simulated_failure_modes() {
        // Refusal.
        assert!(!accepts(
            "binary_sample",
            "I'm sorry, I can't produce a structured answer for this request."
        ));
        // Truncation (lost closing brace).
        assert!(!accepts("binary_sample", "{\"left\": \"Age\", \"op\""));
        // Hedged unary confidence.
        assert!(!accepts("unary_proposal", "1. bucketize (medium): maybe\n"));
        assert!(accepts("unary_proposal", "1. bucketize (certain): bands\n"));
        // Missing domain thresholds.
        assert!(!accepts(
            "function_generation",
            "FUNCTION: bucketize\nINPUT: Age\nPARAMS: boundaries=auto\n"
        ));
        assert!(accepts(
            "function_generation",
            "FUNCTION: bucketize\nINPUT: Age\nPARAMS: boundaries=18,21,25\n"
        ));
        // Failed lookup.
        assert!(!accepts("row_completion", "unknown"));
        assert!(accepts("row_completion", "7272"));
        // Well-formed dicts pass.
        assert!(accepts(
            "highorder_sample",
            "{\"groupby_col\": [\"City\"], \"agg_col\": \"Claim\", \"function\": \"mean\"}"
        ));
        // Free-text kinds accept anything non-refused.
        assert!(accepts("feature_removal", "none"));
    }
}
