//! The operator selector (paper Section 3.2): prompts the FM with
//! operator-guided templates and parses candidate features from the output.
//!
//! - **Proposal strategy** (unary): one call enumerates all appropriate
//!   operators for one attribute; only `certain`/`high` confidence survives.
//! - **Sampling strategy** (binary / high-order / extractor): one call
//!   draws one candidate from the rich combination space.

use std::collections::BTreeMap;

use smartfeat_fm::FoundationModel;
use smartfeat_frame::ops::{AggFunc, BinaryOp};
use smartfeat_obs::Recorder;

use crate::config::{OperatorFamily, SmartFeatConfig};
use crate::error::{CoreError, Result};
use crate::fmout::{self, Confidence};
use crate::operators::{Candidate, OperatorSpec};
use crate::prompts;
use crate::schema::DataAgenda;

/// Unary operator names the pipeline can execute. Anything else coming back
/// from the FM is an invalid proposal.
pub const KNOWN_UNARY_OPS: &[&str] = &[
    "bucketize",
    "normalize",
    "log",
    "dummies",
    "frequency",
    "date_split",
    "years_since",
    "square",
    "sqrt",
    "abs",
    "reciprocal",
];

/// Display label used when composing `OpName_OrgAttr` feature names.
fn op_label(op: &str) -> &'static str {
    match op {
        "bucketize" => "Bucketized",
        "normalize" => "Normalized",
        "log" => "Log",
        "dummies" => "Dummies",
        "frequency" => "Frequency",
        "date_split" => "Datesplit",
        "years_since" => "YearsSince",
        "square" => "Squared",
        "sqrt" => "Sqrt",
        "abs" => "Abs",
        "reciprocal" => "Reciprocal",
        _ => "Derived",
    }
}

/// The operator selector. Holds the selector-role FM (GPT-4 in the paper).
pub struct OperatorSelector<'a> {
    fm: &'a dyn FoundationModel,
    config: &'a SmartFeatConfig,
    rec: Recorder,
}

/// Outcome of one sampling call.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A well-formed candidate.
    Candidate(Box<Candidate>),
    /// The FM's output was unparseable or referenced unknown columns.
    Invalid(String),
    /// The FM explicitly declined (extractor `kind: none`).
    Exhausted,
}

impl<'a> OperatorSelector<'a> {
    /// Create a selector over `fm` with `config`, recording into `rec`.
    pub fn new(fm: &'a dyn FoundationModel, config: &'a SmartFeatConfig, rec: Recorder) -> Self {
        OperatorSelector { fm, config, rec }
    }

    /// Attribute one FM response's usage to `family`. Selector calls run
    /// on the serial FM walk, so event emission here is determinism-safe.
    fn note_fm(&self, family: OperatorFamily, response: &smartfeat_fm::FmResponse) {
        self.rec
            .family(family.name(), |f| f.fm.add(crate::fm_usage_of(response)));
    }

    /// Emit the per-candidate trace event for one sampling outcome.
    fn note_sample(&self, family: OperatorFamily, sample: &Sample) {
        match sample {
            Sample::Candidate(c) => self.rec.event(
                "select.sample",
                &[
                    ("family", family.name().into()),
                    ("outcome", "candidate".into()),
                    ("name", c.name.as_str().into()),
                ],
            ),
            Sample::Invalid(_) => self.rec.event(
                "select.sample",
                &[
                    ("family", family.name().into()),
                    ("outcome", "invalid".into()),
                ],
            ),
            Sample::Exhausted => self.rec.event(
                "select.sample",
                &[
                    ("family", family.name().into()),
                    ("outcome", "exhausted".into()),
                ],
            ),
        }
    }

    /// Proposal strategy: all appropriate unary operators for `attribute`,
    /// filtered to high confidence (paper behaviour).
    pub fn propose_unary(&self, agenda: &DataAgenda, attribute: &str) -> Result<Vec<Candidate>> {
        let prompt = prompts::unary_proposal(agenda, attribute);
        let response = self.fm.complete(&prompt)?;
        self.note_fm(OperatorFamily::Unary, &response);
        let min_conf = if self.config.high_confidence_only {
            Confidence::High
        } else {
            Confidence::Medium
        };
        let mut out = Vec::new();
        for line in fmout::parse_proposals(&response.text) {
            if line.confidence < min_conf {
                continue;
            }
            if !KNOWN_UNARY_OPS.contains(&line.op.as_str()) {
                continue;
            }
            out.push(Candidate {
                name: format!("{}_{}", op_label(&line.op), attribute),
                columns: vec![attribute.to_string()],
                description: line.description,
                spec: OperatorSpec::Unary { op: line.op },
                family: OperatorFamily::Unary,
            });
        }
        self.rec.event(
            "select.proposals",
            &[
                ("attribute", attribute.into()),
                ("kept", (out.len() as u64).into()),
            ],
        );
        Ok(out)
    }

    /// Sampling strategy: one candidate from `family` — binary
    /// arithmetic, GroupbyThenAgg, or an extractor. Unary features come
    /// from proposals, so sampling `Unary` is an error.
    pub fn sample(&self, agenda: &DataAgenda, family: OperatorFamily) -> Result<Sample> {
        let (prompt, parse): (String, DictParser) = match family {
            OperatorFamily::Binary => (prompts::binary_sample(agenda), parse_binary_dict),
            OperatorFamily::HighOrder => (prompts::highorder_sample(agenda), parse_highorder_dict),
            OperatorFamily::Extractor => (prompts::extractor_sample(agenda), parse_extractor_dict),
            OperatorFamily::Unary => {
                return Err(CoreError::InvalidConfig(
                    "unary features come from proposals, not sampling".into(),
                ))
            }
        };
        let response = self.fm.complete(&prompt)?;
        self.note_fm(family, &response);
        let sample = match fmout::parse_dict(&response.text) {
            Some(dict) => parse(agenda, &dict, &response.text),
            None => Sample::Invalid(response.text),
        };
        self.note_sample(family, &sample);
        Ok(sample)
    }

    /// Evolutionary-search step: ask the FM to mutate one surviving
    /// candidate into a variant. The offspring dict carries a `family`
    /// tag routing it to the matching sampling parser.
    pub fn mutate(&self, agenda: &DataAgenda, parent: &Candidate) -> Result<Sample> {
        let prompt = prompts::mutate_candidate(agenda, parent);
        let response = self.fm.complete(&prompt)?;
        self.note_fm(parent.family, &response);
        let sample = parse_offspring(agenda, &response.text);
        self.note_sample(sample_family(&sample).unwrap_or(parent.family), &sample);
        Ok(sample)
    }

    /// Evolutionary-search step: ask the FM to combine two surviving
    /// candidates into one offspring feature.
    pub fn crossover(&self, agenda: &DataAgenda, a: &Candidate, b: &Candidate) -> Result<Sample> {
        let prompt = prompts::crossover_candidates(agenda, a, b);
        let response = self.fm.complete(&prompt)?;
        self.note_fm(a.family, &response);
        let sample = parse_offspring(agenda, &response.text);
        self.note_sample(sample_family(&sample).unwrap_or(a.family), &sample);
        Ok(sample)
    }

    /// ReAct step: show the FM the current observation (generated
    /// features, last outcome, remaining attributes) and parse its next
    /// action.
    pub fn decide(&self, agenda: &DataAgenda, observation: &str) -> Result<ReactDecision> {
        let prompt = prompts::react_decision(agenda, observation);
        let response = self.fm.complete(&prompt)?;
        self.rec
            .family("ReAct", |f| f.fm.add(crate::fm_usage_of(&response)));
        let Some(dict) = fmout::parse_dict(&response.text) else {
            return Ok(ReactDecision::Invalid);
        };
        let action = dict
            .get("action")
            .and_then(|v| v.as_str())
            .unwrap_or_default();
        Ok(match action.as_str() {
            "propose_unary" => {
                ReactDecision::ProposeUnary(dict.get("attribute").and_then(|v| v.as_str()))
            }
            "sample_binary" => ReactDecision::SampleFamily(OperatorFamily::Binary),
            "sample_highorder" => ReactDecision::SampleFamily(OperatorFamily::HighOrder),
            "sample_extractor" => ReactDecision::SampleFamily(OperatorFamily::Extractor),
            "stop" => ReactDecision::Stop,
            _ => ReactDecision::Invalid,
        })
    }
}

/// One parsed observe-think-act decision from the ReAct strategy's FM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReactDecision {
    /// Run the unary proposal strategy on the named attribute (or the
    /// first unexplored one when `None` / unknown).
    ProposeUnary(Option<String>),
    /// Draw one sample from the named family.
    SampleFamily(OperatorFamily),
    /// End the search.
    Stop,
    /// The decision was unparseable; counts as an error turn.
    Invalid,
}

/// Family of a parsed sample, when it is a candidate.
fn sample_family(sample: &Sample) -> Option<OperatorFamily> {
    match sample {
        Sample::Candidate(c) => Some(c.family),
        _ => None,
    }
}

/// Route a mutation / crossover offspring dict — tagged with a `family`
/// key — to the matching sampling parser.
fn parse_offspring(agenda: &DataAgenda, text: &str) -> Sample {
    let Some(dict) = fmout::parse_dict(text) else {
        return Sample::Invalid(text.to_string());
    };
    let family = dict
        .get("family")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    match family.as_str() {
        "Binary" => parse_binary_dict(agenda, &dict, text),
        "HighOrder" => parse_highorder_dict(agenda, &dict, text),
        "Extractor" => parse_extractor_dict(agenda, &dict, text),
        _ => Sample::Invalid(text.to_string()),
    }
}

/// Validates one family's sampling dict (the raw FM text rides along for
/// [`Sample::Invalid`]).
type DictParser = fn(&DataAgenda, &BTreeMap<String, fmout::DictValue>, &str) -> Sample;

/// Validate a binary-arithmetic dict into a candidate. Shared between the
/// sampling strategy and evolutionary offspring parsing.
fn parse_binary_dict(
    agenda: &DataAgenda,
    dict: &BTreeMap<String, fmout::DictValue>,
    raw: &str,
) -> Sample {
    let (Some(left), Some(op_text), Some(right)) = (
        dict.get("left").and_then(|v| v.as_str()),
        dict.get("op").and_then(|v| v.as_str()),
        dict.get("right").and_then(|v| v.as_str()),
    ) else {
        return Sample::Invalid(raw.to_string());
    };
    let op = match op_text.trim() {
        "+" => BinaryOp::Add,
        "-" => BinaryOp::Sub,
        "*" => BinaryOp::Mul,
        "/" => BinaryOp::Div,
        _ => return Sample::Invalid(raw.to_string()),
    };
    if !agenda.has(&left) || !agenda.has(&right) || left == right {
        return Sample::Invalid(raw.to_string());
    }
    let description = dict
        .get("description")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    Sample::Candidate(Box::new(Candidate {
        name: format!("{}_{}_{}", left, op.token(), right),
        columns: vec![left, right],
        description,
        spec: OperatorSpec::Binary { op },
        family: OperatorFamily::Binary,
    }))
}

/// Validate a GroupbyThenAgg dict into a candidate.
fn parse_highorder_dict(
    agenda: &DataAgenda,
    dict: &BTreeMap<String, fmout::DictValue>,
    raw: &str,
) -> Sample {
    let group_cols: Vec<String> = dict
        .get("groupby_col")
        .map(|v| v.as_list())
        .unwrap_or_default();
    let (Some(agg_col), Some(func_text)) = (
        dict.get("agg_col").and_then(|v| v.as_str()),
        dict.get("function").and_then(|v| v.as_str()),
    ) else {
        return Sample::Invalid(raw.to_string());
    };
    let Some(func) = AggFunc::parse(&func_text) else {
        return Sample::Invalid(raw.to_string());
    };
    if group_cols.is_empty()
        || !agenda.has(&agg_col)
        || group_cols.iter().any(|g| !agenda.has(g))
        || group_cols.contains(&agg_col)
    {
        return Sample::Invalid(raw.to_string());
    }
    let name = format!(
        "GroupBy_{}_{}_{}",
        group_cols.join("_"),
        func.name(),
        agg_col
    );
    let description = format!(
        "df.groupby([{}])[{}].transform({})",
        group_cols.join(", "),
        agg_col,
        func.name()
    );
    let mut columns = group_cols.clone();
    columns.push(agg_col.clone());
    Sample::Candidate(Box::new(Candidate {
        name,
        columns,
        description,
        spec: OperatorSpec::HighOrder {
            group_cols,
            agg_col,
            func,
        },
        family: OperatorFamily::HighOrder,
    }))
}

/// Validate an extractor dict into a candidate.
fn parse_extractor_dict(
    agenda: &DataAgenda,
    dict: &BTreeMap<String, fmout::DictValue>,
    raw: &str,
) -> Sample {
    let kind = dict
        .get("kind")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    if kind == "none" {
        return Sample::Exhausted;
    }
    let columns: Vec<String> = dict.get("columns").map(|v| v.as_list()).unwrap_or_default();
    if columns.is_empty() || columns.iter().any(|c| !agenda.has(c)) {
        return Sample::Invalid(raw.to_string());
    }
    let name = dict
        .get("name")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| format!("Extracted_{}", columns.join("_")));
    let description = dict
        .get("description")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    let spec = match kind.as_str() {
        "weighted_index" => {
            let weights: Vec<f64> = dict
                .get("weights")
                .map(|v| v.as_list().iter().filter_map(|s| s.parse().ok()).collect())
                .unwrap_or_default();
            if weights.len() != columns.len() {
                return Sample::Invalid(raw.to_string());
            }
            let normalize = matches!(dict.get("normalize"), Some(fmout::DictValue::Bool(true)));
            OperatorSpec::WeightedIndex { weights, normalize }
        }
        "per_unit" => {
            if columns.len() != 2 {
                return Sample::Invalid(raw.to_string());
            }
            OperatorSpec::PerUnit
        }
        "external_lookup" => {
            let knowledge = dict
                .get("knowledge")
                .and_then(|v| v.as_str())
                .unwrap_or_default();
            OperatorSpec::ExternalLookup { knowledge }
        }
        _ => return Sample::Invalid(raw.to_string()),
    };
    Sample::Candidate(Box::new(Candidate {
        name,
        columns,
        description,
        spec,
        family: OperatorFamily::Extractor,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_fm::{FmConfig, ModelSpec, SimulatedFm};
    use smartfeat_frame::{Column, DataFrame};
    use smartfeat_obs::ClockMode;

    fn insurance_agenda() -> DataAgenda {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("Age", vec![21, 35, 42, 22]),
            Column::from_i64("Age_of_car", vec![6, 2, 8, 14]),
            Column::from_str_slice("Make_Model", &["Civic", "Corolla", "Mustang", "Cruze"]),
            Column::from_i64("Claim", vec![1, 0, 0, 1]),
            Column::from_str_slice("City", &["SF", "LA", "SEA", "SF"]),
            Column::from_i64("Safe", vec![0, 1, 1, 0]),
        ])
        .unwrap();
        DataAgenda::from_frame(
            &df,
            &[
                ("Age", "Age of the policyholder in years"),
                ("Age_of_car", "Age of the insured car in years"),
                ("Make_Model", "Make and model of the car"),
                ("Claim", "Whether a claim was filed in the last 6 months"),
                ("City", "City where the policyholder lives"),
            ],
            "Safe",
            "RF",
        )
    }

    #[test]
    fn unary_proposals_filtered_to_high_confidence() {
        let fm = SimulatedFm::gpt4(1);
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        let cands = sel.propose_unary(&insurance_agenda(), "Age").unwrap();
        assert!(!cands.is_empty());
        assert!(cands.iter().any(|c| c.name == "Bucketized_Age"));
        for c in &cands {
            assert_eq!(c.columns, vec!["Age".to_string()]);
            assert_eq!(c.family, OperatorFamily::Unary);
        }
    }

    #[test]
    fn unary_for_car_age_includes_years_since() {
        let fm = SimulatedFm::gpt4(1);
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        let cands = sel
            .propose_unary(&insurance_agenda(), "Age_of_car")
            .unwrap();
        assert!(
            cands.iter().any(|c| c.name == "YearsSince_Age_of_car"),
            "{cands:?}"
        );
    }

    #[test]
    fn binary_sampling_yields_valid_candidates() {
        let fm = SimulatedFm::gpt4(7);
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        let agenda = insurance_agenda();
        let mut got_candidate = false;
        for _ in 0..10 {
            match sel.sample(&agenda, OperatorFamily::Binary).unwrap() {
                Sample::Candidate(c) => {
                    got_candidate = true;
                    assert_eq!(c.columns.len(), 2);
                    assert!(agenda.has(&c.columns[0]));
                    assert!(agenda.has(&c.columns[1]));
                }
                Sample::Invalid(_) | Sample::Exhausted => {}
            }
        }
        assert!(got_candidate);
    }

    #[test]
    fn highorder_sampling_parses_groupby() {
        let fm = SimulatedFm::gpt4(3);
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        let agenda = insurance_agenda();
        let mut seen = 0;
        for _ in 0..10 {
            if let Sample::Candidate(c) = sel.sample(&agenda, OperatorFamily::HighOrder).unwrap() {
                seen += 1;
                assert!(c.name.starts_with("GroupBy_"));
                match &c.spec {
                    OperatorSpec::HighOrder {
                        group_cols,
                        agg_col,
                        ..
                    } => {
                        assert!(!group_cols.is_empty());
                        assert!(agenda.has(agg_col));
                    }
                    other => panic!("unexpected spec {other:?}"),
                }
            }
        }
        assert!(seen >= 5, "only {seen}/10 valid high-order samples");
    }

    #[test]
    fn extractor_sampling_finds_city_lookup() {
        let fm = SimulatedFm::gpt4(5);
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        match sel
            .sample(&insurance_agenda(), OperatorFamily::Extractor)
            .unwrap()
        {
            Sample::Candidate(c) => {
                assert_eq!(c.family, OperatorFamily::Extractor);
                assert!(matches!(
                    &c.spec,
                    OperatorSpec::ExternalLookup { knowledge } if knowledge == "city_population_density"
                ));
            }
            other => panic!("expected candidate, got {other:?}"),
        }
    }

    #[test]
    fn malformed_fm_output_becomes_invalid_sample() {
        // Force 100 % degraded outputs.
        let fm = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 11,
                error_rate: 1.0,
                ..FmConfig::default()
            },
        );
        let cfg = SmartFeatConfig::default();
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        let agenda = insurance_agenda();
        let mut invalid = 0;
        for _ in 0..10 {
            match sel.sample(&agenda, OperatorFamily::HighOrder).unwrap() {
                Sample::Invalid(_) => invalid += 1,
                // A degraded output can coincidentally be a repetition of a
                // valid one — the pipeline's dedup catches those instead.
                Sample::Candidate(_) | Sample::Exhausted => {}
            }
        }
        assert!(
            invalid >= 3,
            "only {invalid} invalid under full degradation"
        );
    }

    #[test]
    fn binary_rejects_unknown_columns() {
        // A canned FM that returns a dict mentioning a nonexistent column.
        struct Canned(smartfeat_fm::UsageMeter);
        impl FoundationModel for Canned {
            fn model_name(&self) -> &str {
                "canned"
            }
            fn complete(
                &self,
                _prompt: &str,
            ) -> std::result::Result<smartfeat_fm::FmResponse, smartfeat_fm::FmError> {
                Ok(smartfeat_fm::FmResponse {
                    text: "{\"left\": \"Ghost\", \"op\": \"+\", \"right\": \"Age\"}".into(),
                    prompt_tokens: 1,
                    completion_tokens: 1,
                    cost_usd: 0.0,
                    latency: std::time::Duration::ZERO,
                })
            }
            fn meter(&self) -> &smartfeat_fm::UsageMeter {
                &self.0
            }
        }
        let cfg = SmartFeatConfig::default();
        let fm = Canned(smartfeat_fm::UsageMeter::new());
        let sel = OperatorSelector::new(&fm, &cfg, Recorder::new(ClockMode::Logical));
        assert!(matches!(
            sel.sample(&insurance_agenda(), OperatorFamily::Binary)
                .unwrap(),
            Sample::Invalid(_)
        ));
    }
}
