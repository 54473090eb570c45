//! Deterministic report emission through `frame::json`.
//!
//! The report is a single JSON object; objects are `BTreeMap`-backed so
//! key order is sorted, findings are pre-sorted by the driver, and
//! nothing in the report depends on wall time, thread count, or
//! environment — `sfcheck --json` is byte-identical across runs (a
//! golden test enforces this).

use smartfeat_frame::json::JsonValue;

use crate::lints::{lint_counts, Finding, Waived};

fn finding_json(f: &Finding) -> JsonValue {
    JsonValue::object([
        ("col", JsonValue::from(u64::from(f.col))),
        ("file", JsonValue::from(f.file.as_str())),
        ("line", JsonValue::from(u64::from(f.line))),
        ("lint", JsonValue::from(f.lint)),
        ("message", JsonValue::from(f.message.as_str())),
        ("snippet", JsonValue::from(f.snippet.as_str())),
    ])
}

fn waived_json(w: &Waived) -> JsonValue {
    let mut obj = finding_json(&w.finding);
    if let JsonValue::Object(map) = &mut obj {
        map.insert("reason".to_string(), JsonValue::from(w.reason.as_str()));
    }
    obj
}

/// Inputs to the report builder, already sorted and partitioned.
pub struct ReportInput<'a> {
    /// Live findings (fail the gate).
    pub findings: &'a [Finding],
    /// Waived findings with their reasons.
    pub waived: &'a [Waived],
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests_scanned: usize,
}

/// Build the full report document.
pub fn build(input: &ReportInput<'_>) -> JsonValue {
    let lints = lint_counts(input.findings)
        .into_iter()
        .map(|(k, v)| (k, JsonValue::from(v)))
        .collect();
    let summary = JsonValue::object([
        ("files_scanned", JsonValue::from(input.files_scanned)),
        ("findings", JsonValue::from(input.findings.len())),
        ("lints", JsonValue::Object(lints)),
        (
            "manifests_scanned",
            JsonValue::from(input.manifests_scanned),
        ),
        ("waived", JsonValue::from(input.waived.len())),
    ]);

    JsonValue::object([
        (
            "findings",
            JsonValue::Array(input.findings.iter().map(finding_json).collect()),
        ),
        ("summary", summary),
        (
            "waived",
            JsonValue::Array(input.waived.iter().map(waived_json).collect()),
        ),
    ])
}

/// Render a finding for human (non-`--json`) output.
pub fn human_line(f: &Finding) -> String {
    format!(
        "{}:{}:{}: [{}] {}\n    {}",
        f.file, f.line, f.col, f.lint, f.message, f.snippet
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_determinism() {
        let findings = [Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            lint: "hash-collections",
            message: "msg".into(),
            snippet: "let m: HashMap<u32, u32> = HashMap::new();".into(),
        }];
        let input = ReportInput {
            findings: &findings,
            waived: &[],
            files_scanned: 10,
            manifests_scanned: 2,
        };
        let a = build(&input).emit();
        let b = build(&input).emit();
        assert_eq!(a, b, "emission is deterministic");
        let parsed = JsonValue::parse(&a).unwrap();
        assert_eq!(
            parsed
                .get("summary")
                .unwrap()
                .get("findings")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("summary")
                .unwrap()
                .get("lints")
                .unwrap()
                .get("hash-collections")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}
