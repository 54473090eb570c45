//! The *data agenda*: the evolving natural-language description of the
//! feature set, the prediction target, and the downstream model.
//!
//! This is SMARTFEAT's working memory (Figure 2's "data agenda"): every
//! prompt serializes it, and every successfully generated feature is
//! appended to it so later iterations can build on earlier ones.

use smartfeat_frame::DataFrame;

use crate::config::OperatorFamily;

/// Where a feature in the agenda came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Present in the input dataset.
    Original,
    /// Generated by the named operator family.
    Generated(OperatorFamily),
}

/// One feature's entry in the data agenda.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDescription {
    /// Column name.
    pub name: String,
    /// Type tag: `int` / `float` / `str` / `bool` (empty if unknown).
    pub dtype: String,
    /// Distinct non-null values, when known.
    pub distinct: Option<usize>,
    /// Free-text description (empty in the names-only ablation).
    pub description: String,
    /// Provenance.
    pub origin: Origin,
}

impl FeatureDescription {
    /// Serialize as one data-card line for a prompt.
    pub fn render(&self) -> String {
        let mut head = format!("- {}", self.name);
        if !self.dtype.is_empty() {
            match self.distinct {
                Some(d) => head.push_str(&format!(" ({}, distinct={})", self.dtype, d)),
                None => head.push_str(&format!(" ({})", self.dtype)),
            }
        }
        if !self.description.is_empty() {
            head.push_str(": ");
            head.push_str(&self.description);
        }
        head
    }
}

/// The evolving data agenda.
#[derive(Debug, Clone, PartialEq)]
pub struct DataAgenda {
    /// Features in presentation order.
    pub features: Vec<FeatureDescription>,
    /// Prediction-class column name.
    pub target: String,
    /// Downstream classification model name (e.g. `"RF"`).
    pub model: String,
}

impl DataAgenda {
    /// Build an agenda from a frame plus per-column descriptions
    /// (`(column, description)` pairs; columns without a pair get an empty
    /// description, covering the names-only ablation).
    pub fn from_frame(
        df: &DataFrame,
        descriptions: &[(&str, &str)],
        target: &str,
        model: &str,
    ) -> Self {
        let features = df
            .columns()
            .iter()
            .filter(|c| c.name() != target)
            .map(|c| {
                let description = descriptions
                    .iter()
                    .find(|(n, _)| *n == c.name())
                    .map(|(_, d)| d.to_string())
                    .unwrap_or_default();
                FeatureDescription {
                    name: c.name().to_string(),
                    dtype: c.dtype().name().to_string(),
                    distinct: Some(c.cardinality()),
                    description,
                    origin: Origin::Original,
                }
            })
            .collect();
        DataAgenda {
            features,
            target: target.to_string(),
            model: model.to_string(),
        }
    }

    /// Serialize the data card + target + model as the shared prompt prefix.
    pub fn render(&self) -> String {
        let mut out = String::from("Dataset features:\n");
        for f in &self.features {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!("Prediction target: {}\n", self.target));
        out.push_str(&format!("Downstream model: {}\n", self.model));
        out
    }

    /// Look up a feature by name.
    pub fn feature(&self, name: &str) -> Option<&FeatureDescription> {
        self.features.iter().find(|f| f.name == name)
    }

    /// True if the named feature exists.
    pub fn has(&self, name: &str) -> bool {
        self.feature(name).is_some()
    }

    /// Append a generated feature (no-op description update if it exists).
    pub fn push_generated(
        &mut self,
        name: &str,
        dtype: &str,
        distinct: Option<usize>,
        description: &str,
        family: OperatorFamily,
    ) {
        if self.has(name) {
            return;
        }
        self.features.push(FeatureDescription {
            name: name.to_string(),
            dtype: dtype.to_string(),
            distinct,
            description: description.to_string(),
            origin: Origin::Generated(family),
        });
    }

    /// Remove a feature (used by the drop heuristic).
    pub fn remove(&mut self, name: &str) {
        self.features.retain(|f| f.name != name);
    }

    /// Names of original features only.
    pub fn original_names(&self) -> Vec<String> {
        self.features
            .iter()
            .filter(|f| f.origin == Origin::Original)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Strip all descriptions — the paper's names-only ablation input.
    pub fn without_descriptions(&self) -> DataAgenda {
        let mut out = self.clone();
        for f in &mut out.features {
            f.description.clear();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_frame::Column;

    fn frame() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_i64("Age", vec![21, 35, 42]),
            Column::from_str_slice("City", &["SF", "LA", "SF"]),
            Column::from_i64("Safe", vec![0, 1, 1]),
        ])
        .unwrap()
    }

    #[test]
    fn from_frame_excludes_target() {
        let a = DataAgenda::from_frame(&frame(), &[("Age", "age in years")], "Safe", "RF");
        assert_eq!(a.features.len(), 2);
        assert!(!a.has("Safe"));
        assert_eq!(a.feature("Age").unwrap().description, "age in years");
        assert_eq!(a.feature("City").unwrap().description, "");
        assert_eq!(a.feature("City").unwrap().distinct, Some(2));
    }

    #[test]
    fn render_roundtrips_through_fm_parser() {
        let a = DataAgenda::from_frame(&frame(), &[("Age", "age in years")], "Safe", "RF");
        let text = a.render();
        let ctx = smartfeat_fm::parse::PromptContext::parse(&text);
        assert_eq!(ctx.features.len(), 2);
        assert_eq!(ctx.target.as_deref(), Some("Safe"));
        assert_eq!(ctx.model.as_deref(), Some("RF"));
        let age = ctx.feature("Age").unwrap();
        assert_eq!(age.dtype, "int");
        assert_eq!(age.description, "age in years");
    }

    #[test]
    fn push_generated_and_remove() {
        let mut a = DataAgenda::from_frame(&frame(), &[], "Safe", "RF");
        a.push_generated(
            "Bucketized_Age",
            "int",
            Some(4),
            "age bands",
            OperatorFamily::Unary,
        );
        assert!(a.has("Bucketized_Age"));
        assert_eq!(
            a.feature("Bucketized_Age").unwrap().origin,
            Origin::Generated(OperatorFamily::Unary)
        );
        // duplicate push is a no-op
        a.push_generated(
            "Bucketized_Age",
            "int",
            None,
            "other",
            OperatorFamily::Binary,
        );
        assert_eq!(
            a.feature("Bucketized_Age").unwrap().description,
            "age bands"
        );
        a.remove("Bucketized_Age");
        assert!(!a.has("Bucketized_Age"));
    }

    #[test]
    fn original_names_excludes_generated() {
        let mut a = DataAgenda::from_frame(&frame(), &[], "Safe", "RF");
        a.push_generated("X", "float", None, "", OperatorFamily::Binary);
        assert_eq!(
            a.original_names(),
            vec!["Age".to_string(), "City".to_string()]
        );
    }

    #[test]
    fn names_only_ablation_strips_descriptions() {
        let a = DataAgenda::from_frame(&frame(), &[("Age", "age in years")], "Safe", "RF");
        let stripped = a.without_descriptions();
        assert_eq!(stripped.feature("Age").unwrap().description, "");
        assert_eq!(stripped.features.len(), a.features.len());
    }
}
