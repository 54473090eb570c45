//! Pipeline configuration.

use smartfeat_fm::BackendKind;

/// Which operator families run — the knob behind the paper's Table 7
/// ablation (`Initial / +Unary / +Binary / +High-order / +Extractor / all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorMask {
    /// Enable unary operators (proposal strategy).
    pub unary: bool,
    /// Enable binary arithmetic operators (sampling strategy).
    pub binary: bool,
    /// Enable the high-order GroupbyThenAgg operator (sampling strategy).
    pub high_order: bool,
    /// Enable extractor operators (sampling strategy).
    pub extractor: bool,
}

impl OperatorMask {
    /// All operator families enabled (the paper's "all" column).
    pub fn all() -> Self {
        OperatorMask {
            unary: true,
            binary: true,
            high_order: true,
            extractor: true,
        }
    }

    /// No operator families enabled (the paper's "Initial" column).
    pub fn none() -> Self {
        OperatorMask {
            unary: false,
            binary: false,
            high_order: false,
            extractor: false,
        }
    }

    /// Whether `family` is enabled.
    pub(crate) fn enabled(&self, family: OperatorFamily) -> bool {
        match family {
            OperatorFamily::Unary => self.unary,
            OperatorFamily::Binary => self.binary,
            OperatorFamily::HighOrder => self.high_order,
            OperatorFamily::Extractor => self.extractor,
        }
    }

    /// Exactly one family enabled — the Table 7 `+Family` columns.
    pub fn only(family: OperatorFamily) -> Self {
        let mut m = OperatorMask::none();
        match family {
            OperatorFamily::Unary => m.unary = true,
            OperatorFamily::Binary => m.binary = true,
            OperatorFamily::HighOrder => m.high_order = true,
            OperatorFamily::Extractor => m.extractor = true,
        }
        m
    }
}

impl Default for OperatorMask {
    fn default() -> Self {
        OperatorMask::all()
    }
}

/// The four operator families of Section 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorFamily {
    /// Normalization, bucketization, dummies, date splitting, ….
    Unary,
    /// The four basic arithmetic operators.
    Binary,
    /// GroupbyThenAgg.
    HighOrder,
    /// Complex extractions: indices, external knowledge, library functions.
    Extractor,
}

impl OperatorFamily {
    /// All families in pipeline order.
    pub fn all() -> [OperatorFamily; 4] {
        [
            OperatorFamily::Unary,
            OperatorFamily::Binary,
            OperatorFamily::HighOrder,
            OperatorFamily::Extractor,
        ]
    }

    /// Display name matching the paper's Table 7 headers.
    pub fn name(self) -> &'static str {
        match self {
            OperatorFamily::Unary => "Unary",
            OperatorFamily::Binary => "Binary",
            OperatorFamily::HighOrder => "High-order",
            OperatorFamily::Extractor => "Extractor",
        }
    }
}

/// Which search strategy drives the propose→realize→evaluate→prune
/// loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategyKind {
    /// The paper's single-pass proposal/sampling walk (the default).
    #[default]
    OneShot,
    /// Beam search: pool candidates per round, keep the top `beam_width`
    /// by single-feature CV score, prune the rest.
    Beam,
    /// LLM-FE-style evolutionary loop: seeded population, mutation and
    /// crossover of survivors through FM prompts.
    Evolutionary,
    /// ReAct-style observe-think-act agent consuming evaluation feedback.
    React,
}

impl SearchStrategyKind {
    /// All strategies, in documentation order.
    pub fn all() -> [SearchStrategyKind; 4] {
        [
            SearchStrategyKind::OneShot,
            SearchStrategyKind::Beam,
            SearchStrategyKind::Evolutionary,
            SearchStrategyKind::React,
        ]
    }

    /// Stable identifier: the CLI `--strategy` value and the
    /// `stage.search.<name>` obs span suffix.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategyKind::OneShot => "one_shot",
            SearchStrategyKind::Beam => "beam",
            SearchStrategyKind::Evolutionary => "evolutionary",
            SearchStrategyKind::React => "react",
        }
    }

    /// Inverse of [`SearchStrategyKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        SearchStrategyKind::all()
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// Search-strategy settings. The knobs only apply to the strategy that
/// reads them; `one_shot` ignores everything but `fm_call_budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Which strategy drives the search loop.
    pub strategy: SearchStrategyKind,
    /// Beam: survivors kept per round (and samples pooled per family).
    pub beam_width: usize,
    /// Beam: number of pool-score-prune rounds.
    pub beam_depth: usize,
    /// Evolutionary: number of mutate/crossover generations after the
    /// seed generation.
    pub generations: usize,
    /// Evolutionary: population size, invariant across generations.
    pub population: usize,
    /// ReAct: maximum observe-think-act turns.
    pub react_turns: usize,
    /// Upper bound on selector-role FM calls for the whole search
    /// (0 = unlimited). Strategies stop before a step that could
    /// exceed it.
    pub fm_call_budget: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            strategy: SearchStrategyKind::OneShot,
            beam_width: 3,
            beam_depth: 2,
            generations: 3,
            population: 6,
            react_turns: 8,
            fm_call_budget: 0,
        }
    }
}

/// Cascade-routing settings: when enabled, both FM roles are served by a
/// cascade that tries the cheapest eligible backend first and escalates
/// on parse failure or low-confidence output (see
/// `smartfeat_fm::CascadeFm`). Off by default — the paper's fixed
/// GPT-4/GPT-3.5 pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeConfig {
    /// Route both FM roles through the cascade ladder.
    pub enabled: bool,
    /// Backends to try, in order. Must be non-empty when enabled.
    pub ladder: Vec<BackendKind>,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            enabled: false,
            ladder: BackendKind::all().to_vec(),
        }
    }
}

/// Full pipeline configuration (paper Section 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SmartFeatConfig {
    /// Sampling budget per sampled operator family (the paper sets 10).
    pub sampling_budget: usize,
    /// Generation-error threshold per family: invalid or repeated samples
    /// counted before the family's sampling stops.
    pub error_threshold: usize,
    /// Which operator families run.
    pub operators: OperatorMask,
    /// Keep only proposals at `certain`/`high` confidence (paper behaviour).
    /// Disabling admits `medium` too — an ablation knob.
    pub high_confidence_only: bool,
    /// Apply the drop heuristic for superseded original features.
    pub drop_heuristic: bool,
    /// Apply the feature-evaluation filter (null / constant / high-card
    /// dummies).
    pub feature_filter: bool,
    /// Re-ask the FM this many times when a sampling response cannot be
    /// parsed, before counting it against the error threshold (the
    /// LangChain-style retry the paper's error discussion motivates).
    pub retry_malformed: usize,
    /// EXTENSION (paper §5 future work): after generation, ask the FM
    /// which features are unlikely to help and remove them.
    pub fm_feature_removal: bool,
    /// Search-strategy settings (the paper's one-shot walk by default;
    /// see [`SearchConfig`]).
    pub search: SearchConfig,
    /// Serve both FM roles from one model family instead of the paper's
    /// GPT-4/GPT-3.5 pairing. `None` (the default) keeps the pairing.
    /// Mutually exclusive with `cascade.enabled`.
    pub backend: Option<BackendKind>,
    /// Cascade-routing settings (off by default; see [`CascadeConfig`]).
    pub cascade: CascadeConfig,
    /// Seed for everything stochastic in the pipeline.
    pub seed: u64,
}

impl Default for SmartFeatConfig {
    fn default() -> Self {
        SmartFeatConfig {
            sampling_budget: 10,
            error_threshold: 5,
            operators: OperatorMask::all(),
            high_confidence_only: true,
            drop_heuristic: true,
            feature_filter: true,
            retry_malformed: 1,
            fm_feature_removal: false,
            search: SearchConfig::default(),
            backend: None,
            cascade: CascadeConfig::default(),
            seed: 0,
        }
    }
}

impl SmartFeatConfig {
    /// Validate invariants.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.sampling_budget == 0 {
            return Err(crate::error::CoreError::InvalidConfig(
                "sampling_budget must be positive".into(),
            ));
        }
        for (name, value) in [
            ("search.beam_width", self.search.beam_width),
            ("search.beam_depth", self.search.beam_depth),
            ("search.generations", self.search.generations),
            ("search.react_turns", self.search.react_turns),
        ] {
            if value == 0 {
                return Err(crate::error::CoreError::InvalidConfig(format!(
                    "{name} must be positive"
                )));
            }
        }
        if self.search.population < 2 {
            return Err(crate::error::CoreError::InvalidConfig(
                "search.population must be at least 2".into(),
            ));
        }
        if self.cascade.enabled && self.cascade.ladder.is_empty() {
            return Err(crate::error::CoreError::InvalidConfig(
                "cascade.ladder must be non-empty when cascade is enabled".into(),
            ));
        }
        if self.backend.is_some() && self.cascade.enabled {
            return Err(crate::error::CoreError::InvalidConfig(
                "backend and cascade are mutually exclusive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SmartFeatConfig::default();
        assert_eq!(c.sampling_budget, 10);
        assert!(c.operators.unary && c.operators.extractor);
        assert!(c.high_confidence_only);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn only_masks() {
        let m = OperatorMask::only(OperatorFamily::Binary);
        assert!(m.binary);
        assert!(!m.unary && !m.high_order && !m.extractor);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = SmartFeatConfig {
            sampling_budget: 0,
            ..SmartFeatConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn family_names() {
        assert_eq!(OperatorFamily::HighOrder.name(), "High-order");
        assert_eq!(OperatorFamily::all().len(), 4);
    }

    #[test]
    fn strategy_names_roundtrip() {
        for k in SearchStrategyKind::all() {
            assert_eq!(SearchStrategyKind::parse(k.name()), Some(k));
        }
        assert_eq!(SearchStrategyKind::parse("simulated_annealing"), None);
    }

    #[test]
    fn validation_rejects_bad_search_knobs() {
        for bad in [
            SearchConfig {
                beam_width: 0,
                ..SearchConfig::default()
            },
            SearchConfig {
                beam_depth: 0,
                ..SearchConfig::default()
            },
            SearchConfig {
                generations: 0,
                ..SearchConfig::default()
            },
            SearchConfig {
                react_turns: 0,
                ..SearchConfig::default()
            },
            SearchConfig {
                population: 1,
                ..SearchConfig::default()
            },
        ] {
            let c = SmartFeatConfig {
                search: bad,
                ..SmartFeatConfig::default()
            };
            assert!(c.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn validation_rejects_bad_cascade_configs() {
        let c = SmartFeatConfig {
            cascade: CascadeConfig {
                enabled: true,
                ladder: Vec::new(),
            },
            ..SmartFeatConfig::default()
        };
        assert!(c.validate().is_err(), "empty enabled ladder rejected");
        let c = SmartFeatConfig {
            backend: Some(BackendKind::Gpt4),
            cascade: CascadeConfig {
                enabled: true,
                ..CascadeConfig::default()
            },
            ..SmartFeatConfig::default()
        };
        assert!(c.validate().is_err(), "backend + cascade rejected");
        // A disabled empty ladder is fine, as is backend alone.
        let c = SmartFeatConfig {
            cascade: CascadeConfig {
                enabled: false,
                ladder: Vec::new(),
            },
            backend: Some(BackendKind::Babbage002),
            ..SmartFeatConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
