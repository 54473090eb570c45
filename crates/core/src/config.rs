//! Pipeline configuration.

use smartfeat_fm::BackendKind;
use smartfeat_frame::json::{JsonError, JsonValue};

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

    /// Serialize as a JSON object of four booleans.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("unary", self.unary.into()),
            ("binary", self.binary.into()),
            ("high_order", self.high_order.into()),
            ("extractor", self.extractor.into()),
        ])
    }

    /// Inverse of [`OperatorMask::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(OperatorMask {
            unary: get_bool(v, "unary")?,
            binary: get_bool(v, "binary")?,
            high_order: get_bool(v, "high_order")?,
            extractor: get_bool(v, "extractor")?,
        })
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

    /// Serialize as a JSON string (the variant identifier).
    pub fn to_json(&self) -> JsonValue {
        let tag = match self {
            OperatorFamily::Unary => "Unary",
            OperatorFamily::Binary => "Binary",
            OperatorFamily::HighOrder => "HighOrder",
            OperatorFamily::Extractor => "Extractor",
        };
        JsonValue::Str(tag.to_string())
    }

    /// Inverse of [`OperatorFamily::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("Unary") => Ok(OperatorFamily::Unary),
            Some("Binary") => Ok(OperatorFamily::Binary),
            Some("HighOrder") => Ok(OperatorFamily::HighOrder),
            Some("Extractor") => Ok(OperatorFamily::Extractor),
            _ => Err(JsonError::decode(format!("unknown operator family: {v}"))),
        }
    }
}

/// Observability settings: whether the run records structured telemetry
/// and where the artifacts land. Off by default — the pipeline behaves
/// exactly as before when disabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObservabilityConfig {
    /// Record spans, counters, and FM-budget telemetry for the run.
    /// Implied by setting either output path.
    pub enabled: bool,
    /// Write the JSONL trace (one event per line) to this path.
    pub trace_out: Option<String>,
    /// Write the end-of-run JSON metrics report to this path.
    pub metrics_out: Option<String>,
}

impl ObservabilityConfig {
    /// Whether the run should record telemetry: explicitly enabled, or
    /// implied by requesting an output artifact.
    pub fn active(&self) -> bool {
        self.enabled || self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Serialize as a JSON object; `None` paths emit as `null`.
    pub fn to_json(&self) -> JsonValue {
        let path = |p: &Option<String>| match p {
            Some(s) => JsonValue::Str(s.clone()),
            None => JsonValue::Null,
        };
        JsonValue::object([
            ("enabled", self.enabled.into()),
            ("trace_out", path(&self.trace_out)),
            ("metrics_out", path(&self.metrics_out)),
        ])
    }

    /// Inverse of [`ObservabilityConfig::to_json`]. Lenient: missing keys
    /// take their defaults, so hand-written configs can set only `enabled`.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let path = |key: &str| -> Result<Option<String>, JsonError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(JsonError::decode(format!(
                    "non-string field: observability.{key}"
                ))),
            }
        };
        Ok(ObservabilityConfig {
            enabled: match v.get("enabled") {
                None => false,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| JsonError::decode("non-bool field: observability.enabled"))?,
            },
            trace_out: path("trace_out")?,
            metrics_out: path("metrics_out")?,
        })
    }
}

/// Which `search::SearchStrategy` drives the
/// propose→realize→evaluate→prune loop.
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

    /// Stable identifier: the JSON tag, the CLI `--strategy` value, and
    /// the `stage.search.<name>` obs span suffix.
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

    /// Serialize as a JSON string (the stable identifier).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }

    /// Inverse of [`SearchStrategyKind::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_str()
            .and_then(SearchStrategyKind::parse)
            .ok_or_else(|| JsonError::decode(format!("unknown search strategy: {v}")))
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

impl SearchConfig {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("strategy", self.strategy.to_json()),
            ("beam_width", self.beam_width.into()),
            ("beam_depth", self.beam_depth.into()),
            ("generations", self.generations.into()),
            ("population", self.population.into()),
            ("react_turns", self.react_turns.into()),
            ("fm_call_budget", self.fm_call_budget.into()),
        ])
    }

    /// Inverse of [`SearchConfig::to_json`]. Lenient like
    /// [`ObservabilityConfig::from_json`]: missing keys take their
    /// defaults, so hand-written configs can set only `strategy`.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let d = SearchConfig::default();
        let knob = |key: &str, dflt: usize| -> Result<usize, JsonError> {
            v.get(key)
                .map(|x| {
                    x.as_usize().ok_or_else(|| {
                        JsonError::decode(format!("non-integer field: search.{key}"))
                    })
                })
                .transpose()
                .map(|x| x.unwrap_or(dflt))
        };
        Ok(SearchConfig {
            strategy: v
                .get("strategy")
                .map(SearchStrategyKind::from_json)
                .transpose()?
                .unwrap_or_default(),
            beam_width: knob("beam_width", d.beam_width)?,
            beam_depth: knob("beam_depth", d.beam_depth)?,
            generations: knob("generations", d.generations)?,
            population: knob("population", d.population)?,
            react_turns: knob("react_turns", d.react_turns)?,
            fm_call_budget: knob("fm_call_budget", d.fm_call_budget)?,
        })
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

impl CascadeConfig {
    /// Serialize as a JSON object; the ladder is an array of backend
    /// names.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("enabled", self.enabled.into()),
            (
                "ladder",
                JsonValue::Array(
                    self.ladder
                        .iter()
                        .map(|k| JsonValue::Str(k.name().to_string()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`CascadeConfig::to_json`]. Lenient like
    /// [`ObservabilityConfig::from_json`]: missing keys take their
    /// defaults, so hand-written configs can set only `enabled`.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let d = CascadeConfig::default();
        Ok(CascadeConfig {
            enabled: match v.get("enabled") {
                None => d.enabled,
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| JsonError::decode("non-bool field: cascade.enabled"))?,
            },
            ladder: match v.get("ladder") {
                None => d.ladder,
                Some(l) => l
                    .as_array()
                    .ok_or_else(|| JsonError::decode("non-array field: cascade.ladder"))?
                    .iter()
                    .map(|item| {
                        item.as_str().and_then(BackendKind::parse).ok_or_else(|| {
                            JsonError::decode(format!("unknown cascade backend: {item}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
        })
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
    /// Allow the row-level completion fallback for knowledge features.
    pub allow_row_completion: bool,
    /// Row completion is attempted only when the relevant columns have at
    /// most this many distinct value combinations (cost guard the paper
    /// describes as "provide users with several examples and let them
    /// decide … considering the associated cost").
    pub row_completion_max_distinct: usize,
    /// Dummy-expansion cardinality limit.
    pub one_hot_limit: usize,
    /// Apply the drop heuristic for superseded original features.
    pub drop_heuristic: bool,
    /// Apply the feature-evaluation filter (null / constant / high-card
    /// dummies).
    pub feature_filter: bool,
    /// Null-fraction above which a generated feature is rejected.
    pub max_null_fraction: f64,
    /// Re-ask the FM this many times when a sampling response cannot be
    /// parsed, before counting it against the error threshold (the
    /// LangChain-style retry the paper's error discussion motivates).
    pub retry_malformed: usize,
    /// EXTENSION (paper §5 future work): after generation, ask the FM
    /// which features are unlikely to help and remove them.
    pub fm_feature_removal: bool,
    /// Worker threads for the parallel compute stages (candidate
    /// transforms, duplicate scans): 0 = auto-detect, 1 = exact serial
    /// path. At 0 the run takes the enclosing run context's count, else
    /// the `SMARTFEAT_THREADS` environment variable, else the core count.
    /// Output is bit-identical for every value.
    pub threads: usize,
    /// Structured-telemetry settings (off by default; see
    /// [`ObservabilityConfig`]).
    pub observability: ObservabilityConfig,
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
            allow_row_completion: true,
            row_completion_max_distinct: 64,
            one_hot_limit: 20,
            drop_heuristic: true,
            feature_filter: true,
            max_null_fraction: 0.5,
            retry_malformed: 1,
            fm_feature_removal: false,
            threads: 0,
            observability: ObservabilityConfig::default(),
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
        if !(0.0..=1.0).contains(&self.max_null_fraction) {
            return Err(crate::error::CoreError::InvalidConfig(format!(
                "max_null_fraction {} outside [0, 1]",
                self.max_null_fraction
            )));
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

    /// Serialize as a flat JSON object (one key per field).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("sampling_budget", self.sampling_budget.into()),
            ("error_threshold", self.error_threshold.into()),
            ("operators", self.operators.to_json()),
            ("high_confidence_only", self.high_confidence_only.into()),
            ("allow_row_completion", self.allow_row_completion.into()),
            (
                "row_completion_max_distinct",
                self.row_completion_max_distinct.into(),
            ),
            ("one_hot_limit", self.one_hot_limit.into()),
            ("drop_heuristic", self.drop_heuristic.into()),
            ("feature_filter", self.feature_filter.into()),
            ("max_null_fraction", self.max_null_fraction.into()),
            ("retry_malformed", self.retry_malformed.into()),
            ("fm_feature_removal", self.fm_feature_removal.into()),
            ("threads", self.threads.into()),
            ("observability", self.observability.to_json()),
            ("search", self.search.to_json()),
            (
                "backend",
                match self.backend {
                    Some(k) => JsonValue::Str(k.name().to_string()),
                    None => JsonValue::Null,
                },
            ),
            ("cascade", self.cascade.to_json()),
            ("seed", self.seed.into()),
        ])
    }

    /// Emit the compact JSON text of [`SmartFeatConfig::to_json`].
    pub fn to_json_string(&self) -> String {
        self.to_json().emit()
    }

    /// Inverse of [`SmartFeatConfig::to_json`]. Every field is required.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(SmartFeatConfig {
            sampling_budget: get_usize(v, "sampling_budget")?,
            error_threshold: get_usize(v, "error_threshold")?,
            operators: OperatorMask::from_json(
                v.get("operators")
                    .ok_or_else(|| JsonError::decode("missing field: operators"))?,
            )?,
            high_confidence_only: get_bool(v, "high_confidence_only")?,
            allow_row_completion: get_bool(v, "allow_row_completion")?,
            row_completion_max_distinct: get_usize(v, "row_completion_max_distinct")?,
            one_hot_limit: get_usize(v, "one_hot_limit")?,
            drop_heuristic: get_bool(v, "drop_heuristic")?,
            feature_filter: get_bool(v, "feature_filter")?,
            max_null_fraction: get_f64(v, "max_null_fraction")?,
            retry_malformed: get_usize(v, "retry_malformed")?,
            fm_feature_removal: get_bool(v, "fm_feature_removal")?,
            // Absent in configs serialized before the parallel subsystem
            // existed — default to auto rather than rejecting them.
            threads: v
                .get("threads")
                .map(|t| {
                    t.as_usize()
                        .ok_or_else(|| JsonError::decode("non-integer field: threads"))
                })
                .transpose()?
                .unwrap_or(0),
            // Absent in configs serialized before the observability layer
            // existed — default to off, matching the `threads` precedent.
            observability: v
                .get("observability")
                .map(ObservabilityConfig::from_json)
                .transpose()?
                .unwrap_or_default(),
            // Absent in configs serialized before pluggable search
            // strategies existed — default to one_shot, same precedent.
            search: v
                .get("search")
                .map(SearchConfig::from_json)
                .transpose()?
                .unwrap_or_default(),
            // Absent in configs serialized before backend selection
            // existed — default to the paper's pairing, same precedent.
            backend: match v.get("backend") {
                None | Some(JsonValue::Null) => None,
                Some(b) => Some(
                    b.as_str()
                        .and_then(BackendKind::parse)
                        .ok_or_else(|| JsonError::decode(format!("unknown backend: {b}")))?,
                ),
            },
            // Absent in configs serialized before cascade routing
            // existed — default to off, same precedent.
            cascade: v
                .get("cascade")
                .map(CascadeConfig::from_json)
                .transpose()?
                .unwrap_or_default(),
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| JsonError::decode("missing or non-integer field: seed"))?,
        })
    }

    /// Parse the JSON text emitted by [`SmartFeatConfig::to_json_string`].
    pub fn from_json_string(text: &str) -> Result<Self, JsonError> {
        SmartFeatConfig::from_json(&JsonValue::parse(text)?)
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, JsonError> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| JsonError::decode(format!("missing or non-bool field: {key}")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, JsonError> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| JsonError::decode(format!("missing or non-integer field: {key}")))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, JsonError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| JsonError::decode(format!("missing or non-number field: {key}")))
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
        let c = SmartFeatConfig {
            max_null_fraction: 1.5,
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
    fn config_json_roundtrip() {
        let c = SmartFeatConfig {
            sampling_budget: 7,
            operators: OperatorMask::only(OperatorFamily::HighOrder),
            high_confidence_only: false,
            max_null_fraction: 0.25,
            seed: 123_456_789,
            ..SmartFeatConfig::default()
        };
        let text = c.to_json_string();
        let back = SmartFeatConfig::from_json_string(&text).unwrap();
        assert_eq!(back, c);
        // Default round-trips too, and emission is deterministic.
        let d = SmartFeatConfig::default();
        assert_eq!(
            SmartFeatConfig::from_json_string(&d.to_json_string()).unwrap(),
            d
        );
        assert_eq!(d.to_json_string(), d.to_json_string());
    }

    #[test]
    fn config_from_json_rejects_missing_fields() {
        assert!(SmartFeatConfig::from_json_string("{}").is_err());
        let mut v = SmartFeatConfig::default().to_json();
        if let JsonValue::Object(m) = &mut v {
            m.remove("operators");
        }
        assert!(SmartFeatConfig::from_json(&v).is_err());
    }

    #[test]
    fn config_without_threads_field_defaults_to_auto() {
        let mut v = SmartFeatConfig {
            threads: 4,
            ..SmartFeatConfig::default()
        }
        .to_json();
        if let JsonValue::Object(m) = &mut v {
            m.remove("threads");
        }
        let back = SmartFeatConfig::from_json(&v).unwrap();
        assert_eq!(back.threads, 0);
        assert_eq!(
            back,
            SmartFeatConfig::default(),
            "pre-parallelism configs parse to the auto thread count"
        );
    }

    #[test]
    fn observability_json_roundtrip() {
        let c = SmartFeatConfig {
            observability: ObservabilityConfig {
                enabled: true,
                trace_out: Some("trace.jsonl".into()),
                metrics_out: Some("metrics.json".into()),
            },
            ..SmartFeatConfig::default()
        };
        let back = SmartFeatConfig::from_json_string(&c.to_json_string()).unwrap();
        assert_eq!(back, c);
        assert!(back.observability.active());
        // Default (all off) round-trips and is inactive.
        let d = SmartFeatConfig::default();
        let back = SmartFeatConfig::from_json_string(&d.to_json_string()).unwrap();
        assert_eq!(back, d);
        assert!(!back.observability.active());
    }

    #[test]
    fn config_without_observability_field_defaults_to_off() {
        let mut v = SmartFeatConfig {
            observability: ObservabilityConfig {
                enabled: true,
                trace_out: Some("t.jsonl".into()),
                metrics_out: None,
            },
            ..SmartFeatConfig::default()
        }
        .to_json();
        if let JsonValue::Object(m) = &mut v {
            m.remove("observability");
        }
        let back = SmartFeatConfig::from_json(&v).unwrap();
        assert_eq!(back.observability, ObservabilityConfig::default());
        assert!(!back.observability.active());
        assert_eq!(
            back,
            SmartFeatConfig::default(),
            "pre-observability configs parse with telemetry off"
        );
    }

    #[test]
    fn observability_partial_object_is_lenient() {
        let v = JsonValue::parse(r#"{"enabled": true}"#).unwrap();
        let o = ObservabilityConfig::from_json(&v).unwrap();
        assert!(o.enabled && o.active());
        assert_eq!(o.trace_out, None);
        assert_eq!(o.metrics_out, None);
        // Setting only an output path implies active() without `enabled`.
        let v = JsonValue::parse(r#"{"metrics_out": "m.json"}"#).unwrap();
        let o = ObservabilityConfig::from_json(&v).unwrap();
        assert!(!o.enabled);
        assert!(o.active());
        // Type errors are still rejected.
        let v = JsonValue::parse(r#"{"trace_out": 3}"#).unwrap();
        assert!(ObservabilityConfig::from_json(&v).is_err());
    }

    #[test]
    fn search_json_roundtrip() {
        let c = SmartFeatConfig {
            search: SearchConfig {
                strategy: SearchStrategyKind::Evolutionary,
                beam_width: 5,
                generations: 2,
                population: 4,
                fm_call_budget: 40,
                ..SearchConfig::default()
            },
            ..SmartFeatConfig::default()
        };
        let back = SmartFeatConfig::from_json_string(&c.to_json_string()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_without_search_field_defaults_to_one_shot() {
        let mut v = SmartFeatConfig {
            search: SearchConfig {
                strategy: SearchStrategyKind::Beam,
                ..SearchConfig::default()
            },
            ..SmartFeatConfig::default()
        }
        .to_json();
        if let JsonValue::Object(m) = &mut v {
            m.remove("search");
        }
        let back = SmartFeatConfig::from_json(&v).unwrap();
        assert_eq!(back.search.strategy, SearchStrategyKind::OneShot);
        assert_eq!(
            back,
            SmartFeatConfig::default(),
            "pre-strategy configs parse to the one-shot walk"
        );
    }

    #[test]
    fn search_partial_object_is_lenient() {
        let v = JsonValue::parse(r#"{"strategy": "react"}"#).unwrap();
        let s = SearchConfig::from_json(&v).unwrap();
        assert_eq!(s.strategy, SearchStrategyKind::React);
        assert_eq!(s.react_turns, SearchConfig::default().react_turns);
        let v = JsonValue::parse(r#"{"strategy": "hill_climb"}"#).unwrap();
        assert!(SearchConfig::from_json(&v).is_err());
        let v = JsonValue::parse(r#"{"beam_width": "wide"}"#).unwrap();
        assert!(SearchConfig::from_json(&v).is_err());
    }

    #[test]
    fn strategy_names_roundtrip() {
        for k in SearchStrategyKind::all() {
            assert_eq!(SearchStrategyKind::parse(k.name()), Some(k));
            assert_eq!(SearchStrategyKind::from_json(&k.to_json()).unwrap(), k);
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
    fn cascade_json_roundtrip() {
        let c = SmartFeatConfig {
            cascade: CascadeConfig {
                enabled: true,
                ladder: vec![BackendKind::Babbage002, BackendKind::Gpt4],
            },
            ..SmartFeatConfig::default()
        };
        let back = SmartFeatConfig::from_json_string(&c.to_json_string()).unwrap();
        assert_eq!(back, c);
        let c = SmartFeatConfig {
            backend: Some(BackendKind::Gpt35Turbo),
            ..SmartFeatConfig::default()
        };
        let back = SmartFeatConfig::from_json_string(&c.to_json_string()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_without_cascade_or_backend_field_defaults_to_single_model() {
        let mut v = SmartFeatConfig {
            backend: Some(BackendKind::Gpt4),
            cascade: CascadeConfig {
                enabled: false,
                ladder: vec![BackendKind::Gpt4],
            },
            ..SmartFeatConfig::default()
        }
        .to_json();
        if let JsonValue::Object(m) = &mut v {
            m.remove("backend");
            m.remove("cascade");
        }
        let back = SmartFeatConfig::from_json(&v).unwrap();
        assert_eq!(back.backend, None);
        assert_eq!(back.cascade, CascadeConfig::default());
        assert_eq!(
            back,
            SmartFeatConfig::default(),
            "pre-cascade configs parse to the paper's GPT-4/GPT-3.5 pairing"
        );
    }

    #[test]
    fn cascade_partial_object_is_lenient() {
        let v = JsonValue::parse(r#"{"enabled": true}"#).unwrap();
        let c = CascadeConfig::from_json(&v).unwrap();
        assert!(c.enabled);
        assert_eq!(c.ladder, BackendKind::all().to_vec());
        let v = JsonValue::parse(r#"{"ladder": ["gpt-4"]}"#).unwrap();
        let c = CascadeConfig::from_json(&v).unwrap();
        assert!(!c.enabled);
        assert_eq!(c.ladder, vec![BackendKind::Gpt4]);
        // Unknown family names and type errors are rejected.
        let v = JsonValue::parse(r#"{"ladder": ["gpt-5"]}"#).unwrap();
        assert!(CascadeConfig::from_json(&v).is_err());
        let v = JsonValue::parse(r#"{"ladder": "gpt-4"}"#).unwrap();
        assert!(CascadeConfig::from_json(&v).is_err());
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

    #[test]
    fn family_json_roundtrip() {
        for f in OperatorFamily::all() {
            assert_eq!(OperatorFamily::from_json(&f.to_json()).unwrap(), f);
        }
        assert!(OperatorFamily::from_json(&JsonValue::Str("Nope".into())).is_err());
    }
}
