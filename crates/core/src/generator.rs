//! The transformation function generator (paper Section 3.3).
//!
//! Three outcomes, as in the paper:
//! 1. an executable [`TransformFunction`] (possibly after an FM round-trip
//!    to pin parameters like bucket boundaries);
//! 2. a row-level-completion transform when no closed form exists;
//! 3. a suggested external data source when neither applies.
//!
//! High-order candidates are constructed **directly** from the operator
//! selector's output without an FM call — the paper calls this out
//! explicitly — and binary candidates likewise carry their full spec.

use smartfeat_fm::FoundationModel;
use smartfeat_frame::ops::{one_hot_limit, BinaryOp, DatePart, NormKind, UnaryFn};
use smartfeat_obs::Recorder;

use crate::error::{CoreError, Result};
use crate::fmout::{self, FunctionSpec};
use crate::operators::{Candidate, OperatorSpec};
use crate::prompts;
use crate::schema::DataAgenda;
use crate::transform::{Boundaries, TransformFunction};

/// The function generator's verdict for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Generated {
    /// An executable transformation.
    Function(TransformFunction),
    /// No function and no completion path — here is where to find the data.
    SourceSuggestion(String),
}

/// The function generator. Holds the generator-role FM (GPT-3.5-turbo in
/// the paper, for its "comparable performance and better efficiency").
pub struct FunctionGenerator<'a> {
    fm: &'a dyn FoundationModel,
    rec: Recorder,
}

impl<'a> FunctionGenerator<'a> {
    /// Create a generator over `fm`, recording into `rec`.
    pub fn new(fm: &'a dyn FoundationModel, rec: Recorder) -> Self {
        FunctionGenerator { fm, rec }
    }

    /// Produce the transformation for one candidate.
    pub fn generate(&self, agenda: &DataAgenda, candidate: &Candidate) -> Result<Generated> {
        let generated = self.generate_inner(agenda, candidate);
        // Generator calls run on the serial FM walk, so event emission
        // here is determinism-safe. A function names the work tally entry
        // its application will count under.
        let (outcome, transform) = match &generated {
            Ok(Generated::Function(f)) => ("function", Some(f.work_name())),
            Ok(Generated::SourceSuggestion(_)) => ("source_suggestion", None),
            Err(_) => ("error", None),
        };
        let mut fields = vec![
            ("family", candidate.family.name().into()),
            ("name", candidate.name.as_str().into()),
            ("outcome", outcome.into()),
        ];
        fields.extend(transform.map(|t| ("transform", t.into())));
        self.rec.event("generate.candidate", &fields);
        generated
    }

    fn generate_inner(&self, agenda: &DataAgenda, candidate: &Candidate) -> Result<Generated> {
        match &candidate.spec {
            // Directly constructible — no FM round-trip needed.
            OperatorSpec::Binary { op } => {
                let [left, right] = candidate.columns.as_slice() else {
                    return Err(CoreError::InvalidTransform(format!(
                        "binary candidate {:?} must name exactly two columns",
                        candidate.name
                    )));
                };
                Ok(Generated::Function(TransformFunction::Arithmetic {
                    left: left.clone(),
                    right: right.clone(),
                    op: *op,
                }))
            }
            OperatorSpec::HighOrder {
                group_cols,
                agg_col,
                func,
            } => Ok(Generated::Function(TransformFunction::GroupbyAgg {
                group_cols: group_cols.clone(),
                agg_col: agg_col.clone(),
                func: *func,
            })),
            // Everything else consults the FM for the concrete function.
            _ => {
                let prompt = prompts::function_generation(agenda, candidate);
                let response = self.fm.complete(&prompt)?;
                self.rec.family(candidate.family.name(), |f| {
                    f.fm.add(crate::fm_usage_of(&response))
                });
                let Some(spec) = fmout::parse_function_spec(&response.text) else {
                    return Err(CoreError::InvalidTransform(format!(
                        "unparseable function-generation response: {:?}",
                        truncate(&response.text, 80)
                    )));
                };
                self.lower(candidate, spec)
            }
        }
    }

    /// Lower a parsed [`FunctionSpec`] into an executable transform.
    fn lower(&self, candidate: &Candidate, spec: FunctionSpec) -> Result<Generated> {
        let first_input = || -> Result<String> {
            spec.inputs
                .first()
                .cloned()
                .or_else(|| candidate.columns.first().cloned())
                .ok_or_else(|| {
                    CoreError::InvalidTransform(format!(
                        "function spec for {:?} names no input column",
                        candidate.name
                    ))
                })
        };
        match spec.function.as_str() {
            "bucketize" => {
                let boundaries = match spec.params.get("boundaries").map(String::as_str) {
                    Some("auto") | None => Boundaries::Auto,
                    Some(text) => match fmout::parse_float_list(text) {
                        Some(b) => Boundaries::Given(b),
                        None => Boundaries::Auto,
                    },
                };
                Ok(Generated::Function(TransformFunction::Bucketize {
                    col: first_input()?,
                    boundaries,
                }))
            }
            "normalize" => {
                let kind = match spec.params.get("kind").map(String::as_str) {
                    Some("zscore") => NormKind::ZScore,
                    _ => NormKind::MinMax,
                };
                Ok(Generated::Function(TransformFunction::Normalize {
                    col: first_input()?,
                    kind,
                }))
            }
            "log" => Ok(Generated::Function(TransformFunction::UnaryMap {
                col: first_input()?,
                func: UnaryFn::Log1pAbs,
            })),
            "square" => Ok(Generated::Function(TransformFunction::UnaryMap {
                col: first_input()?,
                func: UnaryFn::Square,
            })),
            "sqrt" => Ok(Generated::Function(TransformFunction::UnaryMap {
                col: first_input()?,
                func: UnaryFn::SqrtAbs,
            })),
            "abs" => Ok(Generated::Function(TransformFunction::UnaryMap {
                col: first_input()?,
                func: UnaryFn::Abs,
            })),
            "reciprocal" => Ok(Generated::Function(TransformFunction::UnaryMap {
                col: first_input()?,
                func: UnaryFn::Reciprocal,
            })),
            "dummies" => Ok(Generated::Function(TransformFunction::Dummies {
                col: first_input()?,
                limit: one_hot_limit(),
            })),
            "frequency" => Ok(Generated::Function(TransformFunction::FrequencyEncode {
                col: first_input()?,
            })),
            "date_split" => {
                let parts = spec
                    .params
                    .get("parts")
                    .map(|p| {
                        p.split(',')
                            .filter_map(|s| match s.trim() {
                                "year" => Some(DatePart::Year),
                                "month" => Some(DatePart::Month),
                                "day" => Some(DatePart::Day),
                                "weekday" => Some(DatePart::Weekday),
                                _ => None,
                            })
                            .collect::<Vec<_>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| vec![DatePart::Year, DatePart::Month, DatePart::Weekday]);
                Ok(Generated::Function(TransformFunction::DateSplit {
                    col: first_input()?,
                    parts,
                }))
            }
            "affine" => {
                let scale = spec
                    .params
                    .get("scale")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1.0);
                let offset = spec
                    .params
                    .get("offset")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0.0);
                Ok(Generated::Function(TransformFunction::Affine {
                    col: first_input()?,
                    scale,
                    offset,
                }))
            }
            "arithmetic" => {
                let op = match spec.params.get("op").map(String::as_str) {
                    Some("+") => BinaryOp::Add,
                    Some("-") => BinaryOp::Sub,
                    Some("*") => BinaryOp::Mul,
                    Some("/") => BinaryOp::Div,
                    other => {
                        return Err(CoreError::InvalidTransform(format!(
                            "unknown arithmetic operator {other:?}"
                        )))
                    }
                };
                let inputs = if spec.inputs.len() == 2 {
                    &spec.inputs
                } else {
                    &candidate.columns
                };
                let [left, right] = inputs.as_slice() else {
                    return Err(CoreError::InvalidTransform(
                        "arithmetic needs exactly two inputs".into(),
                    ));
                };
                Ok(Generated::Function(TransformFunction::Arithmetic {
                    left: left.clone(),
                    right: right.clone(),
                    op,
                }))
            }
            "weighted_index" => {
                let weights = spec
                    .params
                    .get("weights")
                    .and_then(|w| fmout::parse_float_list(w))
                    .ok_or_else(|| {
                        CoreError::InvalidTransform("weighted_index without weights".into())
                    })?;
                let cols = if spec.inputs.is_empty() {
                    candidate.columns.clone()
                } else {
                    spec.inputs.clone()
                };
                if weights.len() != cols.len() {
                    return Err(CoreError::InvalidTransform(format!(
                        "weighted_index has {} columns but {} weights",
                        cols.len(),
                        weights.len()
                    )));
                }
                let normalize = spec.params.get("normalize").map(String::as_str) == Some("true");
                Ok(Generated::Function(TransformFunction::WeightedIndex {
                    cols,
                    weights,
                    normalize,
                }))
            }
            "row_completion" => {
                let knowledge = spec.params.get("knowledge").cloned().unwrap_or_default();
                let key_cols = if spec.inputs.is_empty() {
                    candidate.columns.clone()
                } else {
                    spec.inputs.clone()
                };
                Ok(Generated::Function(TransformFunction::RowCompletion {
                    key_cols,
                    knowledge,
                }))
            }
            "unavailable" => Ok(Generated::SourceSuggestion(
                spec.source
                    .or(spec.note)
                    .unwrap_or_else(|| "no data source suggested".to_string()),
            )),
            other => Err(CoreError::InvalidTransform(format!(
                "unknown function kind {other:?}"
            ))),
        }
    }
}

fn truncate(text: &str, n: usize) -> String {
    if text.len() <= n {
        text.to_string()
    } else {
        format!("{}…", &text[..text.floor_char_boundary(n)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperatorFamily;
    use smartfeat_fm::SimulatedFm;
    use smartfeat_frame::ops::AggFunc;
    use smartfeat_frame::{Column, DataFrame};
    use smartfeat_obs::ClockMode;

    fn agenda() -> DataAgenda {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("Age", vec![21, 35]),
            Column::from_i64("Age_of_car", vec![6, 2]),
            Column::from_str_slice("City", &["SF", "LA"]),
            Column::from_i64("Safe", vec![0, 1]),
        ])
        .unwrap();
        DataAgenda::from_frame(
            &df,
            &[
                ("Age", "Age of the policyholder in years"),
                ("Age_of_car", "Age of the insured car in years"),
                ("City", "City where the policyholder lives"),
            ],
            "Safe",
            "RF",
        )
    }

    fn unary(name: &str, col: &str, op: &str, desc: &str) -> Candidate {
        Candidate {
            name: name.into(),
            columns: vec![col.into()],
            description: desc.into(),
            spec: OperatorSpec::Unary { op: op.into() },
            family: OperatorFamily::Unary,
        }
    }

    #[test]
    fn bucketize_age_gets_domain_boundaries() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = unary("Bucketized_Age", "Age", "bucketize", "age bands");
        match gen.generate(&agenda(), &cand).unwrap() {
            Generated::Function(TransformFunction::Bucketize {
                col,
                boundaries: Boundaries::Given(b),
            }) => {
                assert_eq!(col, "Age");
                assert!(b.contains(&21.0));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn years_since_lowers_to_affine() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = unary(
            "YearsSince_Age_of_car",
            "Age_of_car",
            "years_since",
            "manufacturing year of the car",
        );
        match gen.generate(&agenda(), &cand).unwrap() {
            Generated::Function(TransformFunction::Affine { scale, offset, .. }) => {
                assert_eq!(scale, -1.0);
                assert_eq!(offset, 2024.0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn binary_constructed_without_fm_call() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = Candidate {
            name: "Age_minus_Age_of_car".into(),
            columns: vec!["Age".into(), "Age_of_car".into()],
            description: "difference".into(),
            spec: OperatorSpec::Binary { op: BinaryOp::Sub },
            family: OperatorFamily::Binary,
        };
        let g = gen.generate(&agenda(), &cand).unwrap();
        assert!(matches!(
            g,
            Generated::Function(TransformFunction::Arithmetic {
                op: BinaryOp::Sub,
                ..
            })
        ));
        assert_eq!(fm.meter().snapshot().calls, 0, "no FM call for binary");
    }

    #[test]
    fn highorder_constructed_without_fm_call() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = Candidate {
            name: "GroupBy_City_mean_Claim".into(),
            columns: vec!["City".into(), "Claim".into()],
            description: "claim rate per city".into(),
            spec: OperatorSpec::HighOrder {
                group_cols: vec!["City".into()],
                agg_col: "Claim".into(),
                func: AggFunc::Mean,
            },
            family: OperatorFamily::HighOrder,
        };
        let g = gen.generate(&agenda(), &cand).unwrap();
        assert!(matches!(
            g,
            Generated::Function(TransformFunction::GroupbyAgg { .. })
        ));
        assert_eq!(fm.meter().snapshot().calls, 0, "paper: direct construction");
    }

    #[test]
    fn external_lookup_lowers_to_row_completion() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = Candidate {
            name: "City_population_density".into(),
            columns: vec!["City".into()],
            description: "population density of the city".into(),
            spec: OperatorSpec::ExternalLookup {
                knowledge: "city_population_density".into(),
            },
            family: OperatorFamily::Extractor,
        };
        match gen.generate(&agenda(), &cand).unwrap() {
            Generated::Function(TransformFunction::RowCompletion { key_cols, .. }) => {
                assert_eq!(key_cols, vec!["City".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unknown_knowledge_becomes_source_suggestion() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = Candidate {
            name: "City_crime_rate".into(),
            columns: vec!["City".into()],
            description: "crime rate of the city".into(),
            spec: OperatorSpec::ExternalLookup {
                knowledge: "city_crime_rate".into(),
            },
            family: OperatorFamily::Extractor,
        };
        match gen.generate(&agenda(), &cand).unwrap() {
            Generated::SourceSuggestion(src) => assert!(src.contains("census"), "{src}"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn weighted_index_round_trip() {
        let fm = SimulatedFm::gpt35(0);
        let gen = FunctionGenerator::new(&fm, Recorder::new(ClockMode::Logical));
        let cand = Candidate {
            name: "Perf_index".into(),
            columns: vec!["Age".into(), "Age_of_car".into()],
            description: "weighted index".into(),
            spec: OperatorSpec::WeightedIndex {
                weights: vec![1.0, -1.0],
                normalize: true,
            },
            family: OperatorFamily::Extractor,
        };
        match gen.generate(&agenda(), &cand).unwrap() {
            Generated::Function(TransformFunction::WeightedIndex {
                cols,
                weights,
                normalize,
            }) => {
                assert_eq!(cols.len(), 2);
                assert_eq!(weights, vec![1.0, -1.0]);
                assert!(normalize);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
