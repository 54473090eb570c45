//! Prompt reading: how the simulated FM extracts the serialized data card
//! and task phrasing from a natural-language prompt.
//!
//! SMARTFEAT's prompt templates (paper Table 2) serialize the evolving
//! *dataset feature description* plus the prediction target and downstream
//! model into every prompt. A real FM reads that prose; the simulated one
//! parses the same text here. If a prompt doesn't carry the expected
//! structure the oracle answers unhelpfully — exactly what a real model
//! does when under-prompted.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::knowledge::{detect, Concept};

/// One feature as described inside a prompt's data card.
#[derive(Debug, Clone)]
pub struct FeatureInfo {
    /// Column name.
    pub name: String,
    /// Declared type tag (`int`, `float`, `str`, `bool`).
    pub dtype: String,
    /// Declared distinct-value count, when present.
    pub distinct: Option<usize>,
    /// Free-text description (may be empty for the names-only ablation).
    pub description: String,
    /// The memo's entry for `(name, description)`, looked up on the first
    /// [`FeatureInfo::concepts`] call.
    concepts: OnceCell<Rc<[Concept]>>,
    memo: ConceptMemo,
}

/// Two cards' features are equal when their card lines are: the concepts
/// are a function of the name and description.
impl PartialEq for FeatureInfo {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.dtype == other.dtype
            && self.distinct == other.distinct
            && self.description == other.description
    }
}

/// Concepts per (name, description) pair, detected the first time an
/// answer reads them and shared by every later read of the same pair.
/// [`detect`] is a pure function of the pair, so a hit returns exactly
/// what a fresh detection would. Clones share one table: a
/// [`crate::SimulatedFm`] keeps one memo for its lifetime, and each
/// parsed [`FeatureInfo`] holds a handle to it.
#[derive(Debug, Clone, Default)]
pub struct ConceptMemo {
    by_name: Rc<RefCell<ByName>>,
}

/// Concepts by name, then by description: a hit looks both up by `&str`.
type ByName = BTreeMap<String, BTreeMap<String, Rc<[Concept]>>>;

impl ConceptMemo {
    /// An empty memo.
    pub fn new() -> Self {
        ConceptMemo::default()
    }

    /// The concepts of `(name, description)`, detected on first sight.
    pub fn concepts(&self, name: &str, description: &str) -> Rc<[Concept]> {
        let mut by_name = self.by_name.borrow_mut();
        if let Some(found) = by_name.get(name).and_then(|d| d.get(description)) {
            return Rc::clone(found);
        }
        let found: Rc<[Concept]> = detect(name, description).into();
        by_name
            .entry(name.to_string())
            .or_default()
            .insert(description.to_string(), Rc::clone(&found));
        found
    }

    /// Number of distinct (name, description) pairs detected so far.
    pub fn len(&self) -> usize {
        self.by_name.borrow().values().map(BTreeMap::len).sum()
    }

    /// True if nothing was detected yet.
    pub fn is_empty(&self) -> bool {
        self.by_name.borrow().is_empty()
    }
}

impl FeatureInfo {
    /// Concepts the simulated model associates with this feature: the
    /// memo's entry for its name and description, detected on the first
    /// read of the pair.
    pub fn concepts(&self) -> &[Concept] {
        self.concepts
            .get_or_init(|| self.memo.concepts(&self.name, &self.description))
    }

    /// True if the declared type is numeric.
    pub fn is_numeric(&self) -> bool {
        matches!(self.dtype.as_str(), "int" | "float" | "bool")
    }

    /// True for features that are *derived codes or aggregates* rather than
    /// raw quantities — bucket indices, one-hot dummies, date parts,
    /// group-by aggregates, existing arithmetic combinations. A competent
    /// model reading the data card does not propose dividing two bucket
    /// codes or grouping by a group-by output; the oracle follows suit.
    pub fn is_derived_code(&self) -> bool {
        const PREFIXES: &[&str] = &[
            "Bucketized_",
            "GroupBy_",
            "Dummies_",
            "Datesplit_",
            "Normalized_",
            "Log_",
            "Sqrt_",
            "Squared_",
            "Abs_",
            "Reciprocal_",
            "YearsSince_",
            "caafe_",
            "Performance_index",
            "Health_risk_index",
        ];
        const INFIXES: &[&str] = &["_div_", "_plus_", "_minus_", "_times_"];
        PREFIXES.iter().any(|p| self.name.starts_with(p))
            || INFIXES.iter().any(|i| self.name.contains(i))
            || self.description.starts_with("df.groupby")
            || self.description.contains("one-hot")
            // per-unit extractor outputs describe themselves as divisions
            || self.description.contains("divided by")
    }

    /// True for derived group-by / arithmetic outputs specifically (these
    /// are also unusable as group keys, unlike bucket codes).
    pub fn is_aggregate_output(&self) -> bool {
        self.name.starts_with("GroupBy_")
            || self.name.starts_with("caafe_gb_")
            || self.name.starts_with("Log_")
            || self.description.starts_with("df.groupby")
            || self.description.contains("divided by")
            || ["_div_", "_plus_", "_minus_", "_times_"]
                .iter()
                .any(|i| self.name.contains(i))
    }

    /// True if this looks like a usable group-by key: a declared
    /// categorical, a conceptually-grouping column, or a genuinely
    /// low-cardinality code (bucket indices, small label sets). Raw counts
    /// and measurements with dozens of values are *not* group keys — a
    /// model reading "aces won by player 1" does not group by it.
    pub fn is_groupable(&self) -> bool {
        if self.description.contains("one-hot") || self.is_aggregate_output() {
            return false;
        }
        let low_card = self.distinct.is_some_and(|d| (2..=10).contains(&d));
        // A conceptual group key must still have sane cardinality — a
        // column with thousands of distinct values is not a key no matter
        // what its description mentions.
        let conceptual = self.concepts().iter().any(|c| c.is_grouping())
            && self.distinct.is_none_or(|d| (2..=200).contains(&d));
        (self.dtype == "str" && self.distinct.is_none_or(|d| d <= 200)) || low_card || conceptual
    }
}

/// Everything the oracle extracted from one prompt.
#[derive(Debug, Clone, Default)]
pub struct PromptContext {
    /// The serialized data card, in order of appearance.
    pub features: Vec<FeatureInfo>,
    /// The prediction target named in the prompt.
    pub target: Option<String>,
    /// The downstream model named in the prompt.
    pub model: Option<String>,
}

impl PromptContext {
    /// Parse the data-card section of a prompt with a fresh
    /// [`ConceptMemo`].
    ///
    /// Recognized lines:
    /// - `- Name (dtype, distinct=N): description`
    /// - `- Name (dtype): description`
    /// - `- Name: description`
    /// - `- Name`
    /// - `Prediction target: Y`
    /// - `Downstream model: RF`
    ///
    /// The type annotation is the first ` (int|float|str|bool[, distinct=N])`
    /// followed by `:` or the end of the line, so a name may itself hold
    /// `(`, `)` or `:` (`Age (years) (int): …`). A line without one splits
    /// at the first `:` outside parentheses, and a `(` there starts the
    /// dtype.
    pub fn parse(prompt: &str) -> PromptContext {
        PromptContext::parse_with(prompt, &ConceptMemo::new())
    }

    /// [`PromptContext::parse`], taking each feature's concepts from
    /// `memo` when an answer first reads them. A feature no answer reads
    /// is never detected.
    pub fn parse_with(prompt: &str, memo: &ConceptMemo) -> PromptContext {
        let mut ctx = PromptContext::default();
        for line in prompt.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("Prediction target:") {
                ctx.target = Some(rest.trim().to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("Downstream model:") {
                ctx.model = Some(rest.trim().to_string());
                continue;
            }
            let Some(body) = line.strip_prefix("- ") else {
                continue;
            };
            if let Some((name, dtype, distinct, description)) = parse_feature_line(body) {
                ctx.features.push(FeatureInfo {
                    name: name.to_string(),
                    dtype: dtype.to_string(),
                    distinct,
                    description: description.to_string(),
                    concepts: OnceCell::new(),
                    memo: memo.clone(),
                });
            }
        }
        ctx
    }

    /// Find a feature by exact name.
    pub fn feature(&self, name: &str) -> Option<&FeatureInfo> {
        self.features.iter().find(|f| f.name == name)
    }

    /// All numeric features.
    pub fn numeric_features(&self) -> Vec<&FeatureInfo> {
        self.features.iter().filter(|f| f.is_numeric()).collect()
    }

    /// All group-by candidates.
    pub fn groupable_features(&self) -> Vec<&FeatureInfo> {
        self.features.iter().filter(|f| f.is_groupable()).collect()
    }
}

/// A card line's name, dtype, distinct count and description.
fn parse_feature_line(body: &str) -> Option<(&str, &str, Option<usize>, &str)> {
    let (name, dtype, distinct, description) = match find_annotation(body) {
        Some((start, dtype, distinct, rest)) => {
            let description = rest.strip_prefix(':').unwrap_or(rest);
            (body[..start].trim(), dtype, distinct, description.trim())
        }
        None => {
            // Split off the description at the first ":" outside
            // parentheses; a `(` in the head starts `dtype, distinct=N`.
            let (head, description) = split_head(body);
            let head = head.trim();
            let (name, inner) = match head.split_once('(') {
                Some((name, inner)) => (name.trim(), inner.trim_end_matches(')')),
                None => (head, ""),
            };
            let mut dtype = "";
            let mut distinct = None;
            for part in inner.split(',') {
                let part = part.trim();
                if let Some(n) = part.strip_prefix("distinct=") {
                    distinct = n.trim().parse().ok();
                } else if !part.is_empty() && dtype.is_empty() {
                    dtype = part;
                }
            }
            (name, dtype, distinct, description)
        }
    };
    (!name.is_empty()).then_some((name, dtype, distinct, description))
}

/// The first ` (<dtype>[, distinct=N])` annotation in `body` that is
/// followed by `:` or the end of the line, as `(start, dtype, distinct,
/// rest)`: `start` is the offset of its leading space and `rest` the text
/// after its `)`.
fn find_annotation(body: &str) -> Option<(usize, &str, Option<usize>, &str)> {
    let mut from = 0;
    while let Some(found) = body[from..].find(" (") {
        let start = from + found;
        let inner_start = start + 2;
        if let Some(len) = body[inner_start..].find(')') {
            let rest = &body[inner_start + len + 1..];
            if rest.is_empty() || rest.starts_with(':') {
                if let Some((dtype, distinct)) = annotation(&body[inner_start..inner_start + len]) {
                    return Some((start, dtype, distinct, rest));
                }
            }
        }
        from = inner_start;
    }
    None
}

/// `<int|float|str|bool>[, distinct=N]` as its dtype and count.
fn annotation(inner: &str) -> Option<(&str, Option<usize>)> {
    let (dtype, distinct) = match inner.split_once(", distinct=") {
        Some((dtype, n)) => (dtype, Some(n.parse().ok()?)),
        None => (inner, None),
    };
    matches!(dtype, "int" | "float" | "str" | "bool").then_some((dtype, distinct))
}

/// Split `Name (…): desc` into head and description, ignoring colons
/// inside the parenthesized type annotation.
fn split_head(body: &str) -> (&str, &str) {
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ':' if depth == 0 => return (&body[..i], body[i + 1..].trim()),
            _ => {}
        }
    }
    (body, "")
}

/// Extract the quoted or brace-free value following a marker phrase, e.g.
/// `field_after(prompt, "the attribute")` on
/// `"… the attribute 'Age' that can …"` returns `Some("Age")`.
pub fn field_after(text: &str, marker: &str) -> Option<String> {
    let pos = text.find(marker)? + marker.len();
    let rest = text[pos..].trim_start();
    if let Some(stripped) = rest.strip_prefix('\'') {
        let end = stripped.find('\'')?;
        return Some(stripped[..end].to_string());
    }
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        return Some(stripped[..end].to_string());
    }
    let token: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | '-'))
        .collect();
    (!token.is_empty()).then_some(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROMPT: &str = "You are a data scientist.\n\
        Dataset features:\n\
        - Age (int, distinct=47): Age of the policyholder in years\n\
        - City (str, distinct=3): City where the policyholder lives\n\
        - Claim (int, distinct=2): Whether a claim was filed in the last 6 months\n\
        - FSW.1\n\
        Prediction target: Safe\n\
        Downstream model: RF\n\
        Consider the unary operators on the attribute 'Age'.";

    #[test]
    fn parses_full_card() {
        let ctx = PromptContext::parse(PROMPT);
        assert_eq!(ctx.features.len(), 4);
        assert_eq!(ctx.target.as_deref(), Some("Safe"));
        assert_eq!(ctx.model.as_deref(), Some("RF"));
        let age = ctx.feature("Age").unwrap();
        assert_eq!(age.dtype, "int");
        assert_eq!(age.distinct, Some(47));
        assert!(age.description.contains("policyholder"));
    }

    #[test]
    fn bare_name_line() {
        let ctx = PromptContext::parse(PROMPT);
        let f = ctx.feature("FSW.1").unwrap();
        assert_eq!(f.dtype, "");
        assert!(f.description.is_empty());
    }

    #[test]
    fn numeric_and_groupable_partitions() {
        let ctx = PromptContext::parse(PROMPT);
        let numeric: Vec<&str> = ctx
            .numeric_features()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert!(numeric.contains(&"Age"));
        assert!(!numeric.contains(&"City"));
        let groupable: Vec<&str> = ctx
            .groupable_features()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert!(groupable.contains(&"City"));
        assert!(groupable.contains(&"Claim"), "distinct=2 is groupable");
    }

    #[test]
    fn field_after_quotes_and_bare() {
        assert_eq!(
            field_after("operators on the attribute 'Age' that", "the attribute"),
            Some("Age".into())
        );
        assert_eq!(
            field_after("for the feature \"Bucketized_Age\" using", "the feature"),
            Some("Bucketized_Age".into())
        );
        assert_eq!(
            field_after("applied to FSW.1 now", "applied to"),
            Some("FSW.1".into())
        );
        assert_eq!(field_after("no marker here", "the attribute"), None);
    }

    #[test]
    fn feature_concepts_flow_through() {
        let ctx = PromptContext::parse(PROMPT);
        assert!(ctx
            .feature("Age")
            .unwrap()
            .concepts()
            .contains(&Concept::Age));
        assert!(ctx
            .feature("City")
            .unwrap()
            .concepts()
            .contains(&Concept::GeoCity));
    }

    #[test]
    fn description_with_colons_inside_parens() {
        let line = "- Ratio (float, distinct=10): wins: losses ratio";
        let ctx = PromptContext::parse(line);
        let f = ctx.feature("Ratio").unwrap();
        assert_eq!(f.description, "wins: losses ratio");
    }

    #[test]
    fn names_may_hold_parentheses_and_colons() {
        let card = "- Age (years) (int, distinct=47): Age of the policyholder\n\
                    - Income: USD (float): yearly income\n\
                    - Ratio (a:b) (float)\n\
                    - Score (raw) (custom): old rule";
        let ctx = PromptContext::parse(card);
        let names: Vec<&str> = ctx.features.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["Age (years)", "Income: USD", "Ratio (a:b)", "Score"]
        );
        let age = &ctx.features[0];
        assert_eq!((age.dtype.as_str(), age.distinct), ("int", Some(47)));
        assert_eq!(age.description, "Age of the policyholder");
        assert_eq!(ctx.features[1].description, "yearly income");
        assert_eq!(ctx.features[2].dtype, "float");
        assert!(ctx.features[2].description.is_empty());
        // No ` (dtype)` annotation: the first `(` starts the dtype.
        assert_eq!(ctx.features[3].dtype, "raw) (custom");
        assert_eq!(ctx.features[3].description, "old rule");
    }

    #[test]
    fn empty_prompt_parses_empty() {
        let ctx = PromptContext::parse("hello world");
        assert!(ctx.features.is_empty());
        assert!(ctx.target.is_none());
    }
}
