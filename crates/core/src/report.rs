//! Pipeline outputs: per-feature provenance, skip reasons, usage accounting.

use std::collections::BTreeMap;

use smartfeat_fm::UsageSnapshot;
use smartfeat_frame::DataFrame;

use crate::config::OperatorFamily;
use crate::schema::DataAgenda;

/// Why a candidate (or one of its produced columns) was not kept.
#[derive(Debug, Clone, PartialEq)]
pub enum SkipReason {
    /// Null fraction exceeded the configured limit.
    HighNull(f64),
    /// The column carried a single distinct value.
    SingleValued,
    /// Duplicate of the named existing column (name or values).
    Duplicate(String),
    /// The transform failed to execute (message).
    TransformFailed(String),
    /// The FM's function-generation output could not be lowered (message).
    GenerationFailed(String),
    /// The function generator suggested a data source instead (suggestion).
    SourceOnly(String),
    /// The operator-selector sample was unparseable or referenced unknown
    /// columns.
    InvalidSample,
    /// The sample duplicated an earlier candidate.
    RepeatedSample,
    /// The feature was realized but removed again by a search strategy's
    /// score-guided pruning (beam / evolutionary selection pressure). Not
    /// a generation error: the candidate was valid, just outcompeted.
    Pruned,
}

impl SkipReason {
    /// True for the reasons the paper counts against the generation-error
    /// threshold (invalid or repeated features).
    pub fn is_generation_error(&self) -> bool {
        matches!(
            self,
            SkipReason::InvalidSample
                | SkipReason::RepeatedSample
                | SkipReason::GenerationFailed(_)
        )
    }

    /// Stable machine-readable tag for trace events and metrics counters.
    pub fn tag(&self) -> &'static str {
        match self {
            SkipReason::HighNull(_) => "high_null",
            SkipReason::SingleValued => "single_valued",
            SkipReason::Duplicate(_) => "duplicate",
            SkipReason::TransformFailed(_) => "transform_failed",
            SkipReason::GenerationFailed(_) => "generation_failed",
            SkipReason::SourceOnly(_) => "source_only",
            SkipReason::InvalidSample => "invalid_sample",
            SkipReason::RepeatedSample => "repeated_sample",
            SkipReason::Pruned => "pruned",
        }
    }
}

/// One successfully generated and kept feature.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedFeature {
    /// Column name in the output frame.
    pub name: String,
    /// Operator family that produced it.
    pub family: OperatorFamily,
    /// Input columns.
    pub columns: Vec<String>,
    /// Natural-language description (in the agenda).
    pub description: String,
    /// Debug rendering of the executed transform.
    pub transform: String,
}

/// One candidate that was considered but not kept.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedFeature {
    /// Candidate / column name.
    pub name: String,
    /// Family it came from.
    pub family: OperatorFamily,
    /// Why it was skipped.
    pub reason: SkipReason,
}

impl SkippedFeature {
    /// The skip row for `name` from `family`.
    pub(crate) fn new(name: impl Into<String>, family: OperatorFamily, reason: SkipReason) -> Self {
        SkippedFeature {
            name: name.into(),
            family,
            reason,
        }
    }
}

/// Full output of a SMARTFEAT run.
#[derive(Debug, Clone)]
pub struct SmartFeatReport {
    /// The augmented dataframe (new features attached, superseded originals
    /// dropped).
    pub frame: DataFrame,
    /// Features generated and kept, in creation order.
    pub generated: Vec<GeneratedFeature>,
    /// Candidates rejected, with reasons.
    pub skipped: Vec<SkippedFeature>,
    /// Original features removed by the drop heuristic.
    pub dropped_originals: Vec<String>,
    /// Features removed by the FM-removal extension (empty unless
    /// `fm_feature_removal` is enabled).
    pub fm_removed: Vec<String>,
    /// `(feature, suggested source)` pairs from the unavailable path.
    pub source_suggestions: Vec<(String, String)>,
    /// The final data agenda.
    pub agenda: DataAgenda,
    /// Operator-selector FM usage during this run.
    pub selector_usage: UsageSnapshot,
    /// Function-generator FM usage during this run (includes row-level
    /// completions).
    pub generator_usage: UsageSnapshot,
    /// The observability metrics report for this run: the JSON document
    /// the CLI's `--metrics-out` flag writes.
    pub metrics: smartfeat_frame::json::JsonValue,
    /// The run's JSONL trace, one event per line: the text the CLI's
    /// `--trace-out` flag writes.
    pub trace: String,
}

impl SmartFeatReport {
    /// Names of generated (kept) features.
    pub fn new_feature_names(&self) -> Vec<&str> {
        self.generated.iter().map(|g| g.name.as_str()).collect()
    }

    /// Generated feature count per family.
    pub fn counts_by_family(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for g in &self.generated {
            *out.entry(g.family.name()).or_insert(0) += 1;
        }
        out
    }

    /// Generation errors counted (paper threshold semantics).
    pub fn generation_errors(&self) -> usize {
        self.skipped
            .iter()
            .filter(|s| s.reason.is_generation_error())
            .count()
    }

    /// Combined FM usage.
    pub fn total_usage(&self) -> UsageSnapshot {
        UsageSnapshot {
            calls: self.selector_usage.calls + self.generator_usage.calls,
            prompt_tokens: self.selector_usage.prompt_tokens + self.generator_usage.prompt_tokens,
            completion_tokens: self.selector_usage.completion_tokens
                + self.generator_usage.completion_tokens,
            cost_usd: self.selector_usage.cost_usd + self.generator_usage.cost_usd,
            latency: self.selector_usage.latency + self.generator_usage.latency,
        }
    }

    /// Human-readable run summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SMARTFEAT generated {} features ({} skipped, {} originals dropped)\n",
            self.generated.len(),
            self.skipped.len(),
            self.dropped_originals.len()
        ));
        for (family, count) in self.counts_by_family() {
            out.push_str(&format!("  {family}: {count}\n"));
        }
        let u = self.total_usage();
        out.push_str(&format!(
            "FM usage: {} calls, {} tokens, ${:.4}, simulated latency {:.1}s\n",
            u.calls,
            u.total_tokens(),
            u.cost_usd,
            u.latency.as_secs_f64()
        ));
        for (feat, src) in &self.source_suggestions {
            out.push_str(&format!("  suggested source for {feat}: {src}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataAgenda;
    use smartfeat_frame::{Column, DataFrame};
    use std::time::Duration;

    fn report() -> SmartFeatReport {
        let df = DataFrame::from_columns(vec![Column::from_i64("a", vec![1, 2])]).unwrap();
        SmartFeatReport {
            frame: df.clone(),
            generated: vec![
                GeneratedFeature {
                    name: "x".into(),
                    family: OperatorFamily::Unary,
                    columns: vec!["a".into()],
                    description: "d".into(),
                    transform: "t".into(),
                },
                GeneratedFeature {
                    name: "y".into(),
                    family: OperatorFamily::Binary,
                    columns: vec!["a".into(), "x".into()],
                    description: "d".into(),
                    transform: "t".into(),
                },
                GeneratedFeature {
                    name: "z".into(),
                    family: OperatorFamily::Unary,
                    columns: vec!["a".into()],
                    description: "d".into(),
                    transform: "t".into(),
                },
            ],
            skipped: vec![
                SkippedFeature::new("bad", OperatorFamily::Binary, SkipReason::InvalidSample),
                SkippedFeature::new(
                    "dup",
                    OperatorFamily::Binary,
                    SkipReason::Duplicate("a".into()),
                ),
            ],
            dropped_originals: vec!["old".into()],
            fm_removed: vec![],
            source_suggestions: vec![("f".into(), "https://example.org".into())],
            agenda: DataAgenda {
                features: vec![],
                target: "t".into(),
                model: "RF".into(),
            },
            selector_usage: UsageSnapshot {
                calls: 3,
                prompt_tokens: 100,
                completion_tokens: 50,
                cost_usd: 0.01,
                latency: Duration::from_secs(1),
            },
            generator_usage: UsageSnapshot {
                calls: 2,
                prompt_tokens: 60,
                completion_tokens: 20,
                cost_usd: 0.002,
                latency: Duration::from_secs(1),
            },
            metrics: smartfeat_frame::json::JsonValue::Null,
            trace: String::new(),
        }
    }

    #[test]
    fn counts_by_family() {
        let r = report();
        let c = r.counts_by_family();
        assert_eq!(c["Unary"], 2);
        assert_eq!(c["Binary"], 1);
    }

    #[test]
    fn generation_error_classification() {
        assert!(SkipReason::InvalidSample.is_generation_error());
        assert!(SkipReason::RepeatedSample.is_generation_error());
        assert!(SkipReason::GenerationFailed("x".into()).is_generation_error());
        assert!(!SkipReason::HighNull(0.9).is_generation_error());
        assert!(!SkipReason::Duplicate("a".into()).is_generation_error());
        assert!(!SkipReason::Pruned.is_generation_error());
        assert_eq!(report().generation_errors(), 1);
    }

    #[test]
    fn skip_reason_tags_are_stable() {
        assert_eq!(SkipReason::HighNull(0.9).tag(), "high_null");
        assert_eq!(SkipReason::Duplicate("a".into()).tag(), "duplicate");
        assert_eq!(SkipReason::InvalidSample.tag(), "invalid_sample");
        assert_eq!(SkipReason::Pruned.tag(), "pruned");
        assert_eq!(
            SkipReason::GenerationFailed("x".into()).tag(),
            "generation_failed"
        );
    }

    #[test]
    fn usage_totals() {
        let u = report().total_usage();
        assert_eq!(u.calls, 5);
        assert_eq!(u.total_tokens(), 230);
        assert!((u.cost_usd - 0.012).abs() < 1e-12);
        assert_eq!(u.latency, Duration::from_secs(2));
    }

    #[test]
    fn summary_mentions_key_facts() {
        let s = report().summary();
        assert!(s.contains("generated 3 features"));
        assert!(s.contains("Unary: 2"));
        assert!(s.contains("suggested source"));
    }
}
