//! Simulated model families behind the [`FmBackend`] trait.
//!
//! The paper's setup uses exactly two models — GPT-4 for operator
//! selection, GPT-3.5-turbo for function generation. This module turns
//! those tiers into two members of an open family set and adds a third,
//! cheaper one, so a cascade router (see [`crate::cascade`]) has a real
//! cost/quality frontier to optimize:
//!
//! | family        | coverage | parse-failure rate | price    | latency |
//! |---------------|----------|--------------------|----------|---------|
//! | babbage-002   | shallow  | 0.12               | lowest   | fastest |
//! | gpt-3.5-turbo | deep     | 0.0                | low      | fast    |
//! | gpt-4         | deep     | 0.0                | highest  | slowest |
//!
//! The two established tiers keep deep coverage and a zero error rate —
//! their byte-exact transcripts are pinned by the strategy-oracle golden
//! and must not drift.

use std::rc::Rc;

use crate::cost::ModelSpec;
use crate::oracle::{FmConfig, FmError, FmResponse, FoundationModel, SimulatedFm};
use crate::stats::UsageMeter;

/// How much of the [`crate::knowledge`] base a model family can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnowledgeCoverage {
    /// Full access: domain thresholds, world-knowledge lookups,
    /// confident proposals.
    #[default]
    Deep,
    /// Format-only competence: well-formed answers, hedged confidence,
    /// no bucket boundaries, no world-knowledge lookups.
    Shallow,
}

/// The simulated model families, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackendKind {
    /// Cheap, fast, shallow, flaky.
    Babbage002,
    /// The paper's function-generator model.
    Gpt35Turbo,
    /// The paper's operator-selector model.
    Gpt4,
}

impl BackendKind {
    /// Every family, cheapest first (the default cascade ladder order).
    pub fn all() -> [BackendKind; 3] {
        [
            BackendKind::Babbage002,
            BackendKind::Gpt35Turbo,
            BackendKind::Gpt4,
        ]
    }

    /// Stable identifier (also the CLI `--backend` value).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Babbage002 => "babbage-002",
            BackendKind::Gpt35Turbo => "gpt-3.5-turbo",
            BackendKind::Gpt4 => "gpt-4",
        }
    }

    /// Inverse of [`BackendKind::name`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::all().into_iter().find(|k| k.name() == s)
    }

    /// Pricing/latency profile.
    pub fn spec(self) -> ModelSpec {
        match self {
            BackendKind::Babbage002 => ModelSpec::babbage_002(),
            BackendKind::Gpt35Turbo => ModelSpec::gpt35_turbo(),
            BackendKind::Gpt4 => ModelSpec::gpt4(),
        }
    }

    /// Knowledge coverage of this family.
    pub fn coverage(self) -> KnowledgeCoverage {
        match self {
            BackendKind::Babbage002 => KnowledgeCoverage::Shallow,
            _ => KnowledgeCoverage::Deep,
        }
    }

    /// Probability of a degraded (truncated / refused / repeated) output.
    /// The established tiers stay at 0.0 — their transcripts are pinned
    /// by the strategy-oracle golden.
    pub fn error_rate(self) -> f64 {
        match self {
            BackendKind::Babbage002 => 0.12,
            _ => 0.0,
        }
    }

    /// Build this family's simulated FM with an owned meter.
    pub fn fm(self, seed: u64) -> SimulatedFm {
        self.fm_with_meter(seed, Rc::new(UsageMeter::new()))
    }

    /// Build this family's simulated FM billing an existing meter.
    pub fn fm_with_meter(self, seed: u64, meter: Rc<UsageMeter>) -> SimulatedFm {
        SimulatedFm::with_meter(
            self.spec(),
            FmConfig {
                seed,
                error_rate: self.error_rate(),
                coverage: self.coverage(),
                ..FmConfig::default()
            },
            meter,
        )
    }
}

/// One rung of a cascade ladder: a model family plus the routing policy
/// inputs the cascade needs (coverage, per-kind eligibility).
pub trait FmBackend {
    /// Family identifier.
    fn name(&self) -> &'static str;

    /// Knowledge coverage of the family.
    fn coverage(&self) -> KnowledgeCoverage;

    /// Whether this rung is worth even attempting for a prompt kind
    /// (see [`crate::oracle::prompt_kind`]). Ineligible rungs are
    /// skipped without billing a call.
    fn eligible(&self, kind: &str) -> bool;

    /// Answer one prompt.
    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError>;
}

/// A [`SimulatedFm`] rung.
pub struct SimulatedBackend {
    kind: BackendKind,
    fm: SimulatedFm,
}

impl SimulatedBackend {
    /// Build a rung billing the given (cascade-shared) meter.
    pub fn new(kind: BackendKind, seed: u64, meter: Rc<UsageMeter>) -> Self {
        SimulatedBackend {
            kind,
            fm: kind.fm_with_meter(seed, meter),
        }
    }
}

impl FmBackend for SimulatedBackend {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn coverage(&self) -> KnowledgeCoverage {
        self.kind.coverage()
    }

    fn eligible(&self, kind: &str) -> bool {
        // Row completion is a pure world-knowledge lookup; a shallow
        // family answers "unknown" every time, so attempting it only
        // burns a call before the inevitable escalation.
        !(self.coverage() == KnowledgeCoverage::Shallow && kind == "row_completion")
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        self.fm.complete(prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FoundationModel;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("gpt-5"), None);
    }

    #[test]
    fn families_are_ordered_cheapest_first() {
        let costs: Vec<f64> = BackendKind::all()
            .into_iter()
            .map(|k| k.spec().cost_usd(1000, 1000))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
    }

    #[test]
    fn established_tiers_are_unperturbed() {
        // The strategy-oracle golden pins these families' transcripts:
        // deep coverage and a zero error rate are load-bearing.
        for kind in [BackendKind::Gpt35Turbo, BackendKind::Gpt4] {
            assert_eq!(kind.coverage(), KnowledgeCoverage::Deep);
            assert_eq!(kind.error_rate(), 0.0);
        }
        assert_eq!(
            BackendKind::Babbage002.coverage(),
            KnowledgeCoverage::Shallow
        );
        assert!(BackendKind::Babbage002.error_rate() > 0.0);
    }

    #[test]
    fn shallow_rung_is_ineligible_for_row_completion_only() {
        let meter = Rc::new(UsageMeter::new());
        let shallow = SimulatedBackend::new(BackendKind::Babbage002, 0, Rc::clone(&meter));
        let deep = SimulatedBackend::new(BackendKind::Gpt4, 0, meter);
        assert!(!shallow.eligible("row_completion"));
        assert!(shallow.eligible("unary_proposal"));
        assert!(shallow.eligible("function_generation"));
        assert!(deep.eligible("row_completion"));
    }

    #[test]
    fn rungs_bill_the_shared_meter() {
        let meter = Rc::new(UsageMeter::new());
        let a = SimulatedBackend::new(BackendKind::Babbage002, 1, Rc::clone(&meter));
        let b = SimulatedBackend::new(BackendKind::Gpt4, 2, Rc::clone(&meter));
        a.complete("hello").unwrap();
        b.complete("hello").unwrap();
        assert_eq!(meter.snapshot().calls, 2);
    }

    #[test]
    fn backend_fm_reports_its_family_name() {
        assert_eq!(BackendKind::Babbage002.fm(0).model_name(), "babbage-002");
        assert_eq!(BackendKind::Gpt4.fm(0).model_name(), "gpt-4");
    }
}
