//! The checked-in finding baseline (`sfcheck.baseline.json`).
//!
//! A baseline tracks pre-existing findings so the gate can be turned on
//! before every legacy violation is fixed, without suppressing them: a
//! baselined finding still appears in the report (under `baselined`), it
//! just doesn't fail CI. New findings — anything not in the baseline —
//! always fail.
//!
//! Matching is by `(lint, file, snippet)` **multiset**, deliberately
//! ignoring line numbers: unrelated edits that shift a legacy finding up
//! or down must not break the build, but a *second* occurrence of the
//! same pattern in the same file is a new finding.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use smartfeat_frame::json::JsonValue;

use crate::lints::Finding;
use crate::SfError;

/// A loaded baseline: multiset of `(lint, file, snippet)` keys.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeMap<(String, String, String), u64>,
}

fn key_of(f: &Finding) -> (String, String, String) {
    (f.lint.to_string(), f.file.clone(), f.snippet.clone())
}

impl Baseline {
    /// Load a baseline file. A missing file is an empty baseline (the
    /// shipped default); a present-but-malformed file is an error so a
    /// corrupt baseline cannot silently approve everything.
    pub fn load(path: &Path) -> Result<Baseline, SfError> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text = fs::read_to_string(path)
            .map_err(|e| SfError::new(format!("read baseline {}: {e}", path.display())))?;
        let json = JsonValue::parse(&text)
            .map_err(|e| SfError::new(format!("parse baseline {}: {e}", path.display())))?;
        Baseline::from_json(&json)
    }

    /// Decode the `{"findings": [{"lint","file","snippet"}, …]}` shape.
    pub fn from_json(json: &JsonValue) -> Result<Baseline, SfError> {
        let items = json
            .get("findings")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| SfError::new("baseline must have a `findings` array"))?;
        let mut entries: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            let field = |name: &str| -> Result<String, SfError> {
                item.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        SfError::new(format!("baseline entry {i} is missing string `{name}`"))
                    })
            };
            let key = (field("lint")?, field("file")?, field("snippet")?);
            *entries.entry(key).or_insert(0) += 1;
        }
        Ok(Baseline { entries })
    }

    /// Split findings into `(baselined, live)`, consuming one baseline
    /// slot per match so duplicates beyond the recorded count stay live.
    pub fn partition(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut budget = self.entries.clone();
        let mut baselined = Vec::new();
        let mut live = Vec::new();
        for f in findings {
            match budget.get_mut(&key_of(&f)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    baselined.push(f);
                }
                _ => live.push(f),
            }
        }
        (baselined, live)
    }

    /// Serialize findings as a baseline document (`--write-baseline`).
    pub fn to_json(findings: &[Finding]) -> JsonValue {
        let items: Vec<JsonValue> = findings
            .iter()
            .map(|f| {
                JsonValue::object([
                    ("file", JsonValue::from(f.file.as_str())),
                    ("lint", JsonValue::from(f.lint)),
                    ("snippet", JsonValue::from(f.snippet.as_str())),
                ])
            })
            .collect();
        JsonValue::object([("findings", JsonValue::Array(items))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, file: &str, snippet: &str, line: u32) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            col: 1,
            lint,
            message: String::new(),
            snippet: snippet.to_string(),
            suggestion: None,
        }
    }

    #[test]
    fn matching_ignores_line_numbers() {
        let baseline = Baseline::from_json(
            &JsonValue::parse(
                r#"{"findings":[{"lint":"wall-clock","file":"a.rs","snippet":"let t = Instant::now();"}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let (baselined, live) = baseline.partition(vec![finding(
            "wall-clock",
            "a.rs",
            "let t = Instant::now();",
            999,
        )]);
        assert_eq!(baselined.len(), 1);
        assert!(live.is_empty());
    }

    #[test]
    fn multiset_semantics_cap_duplicates() {
        let baseline = Baseline::from_json(
            &JsonValue::parse(
                r#"{"findings":[{"lint":"wall-clock","file":"a.rs","snippet":"x"}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let (baselined, live) = baseline.partition(vec![
            finding("wall-clock", "a.rs", "x", 1),
            finding("wall-clock", "a.rs", "x", 2),
        ]);
        assert_eq!(baselined.len(), 1, "one slot, one match");
        assert_eq!(live.len(), 1, "the second occurrence is new");
    }

    #[test]
    fn roundtrip_through_write() {
        let findings = vec![
            finding("wall-clock", "a.rs", "x", 1),
            finding("panic-hygiene", "b.rs", "y", 2),
        ];
        let json = Baseline::to_json(&findings);
        let reloaded = Baseline::from_json(&json).unwrap();
        let (baselined, live) = reloaded.partition(findings);
        assert_eq!(baselined.len(), 2);
        assert!(live.is_empty());
    }

    #[test]
    fn missing_file_is_empty_malformed_is_error() {
        let missing = Baseline::load(Path::new("/nonexistent/sfcheck.baseline.json")).unwrap();
        let (baselined, live) = missing.partition(vec![finding("wall-clock", "a.rs", "x", 1)]);
        assert!(baselined.is_empty());
        assert_eq!(live.len(), 1);
        assert!(Baseline::from_json(&JsonValue::parse("{}").unwrap()).is_err());
    }
}
