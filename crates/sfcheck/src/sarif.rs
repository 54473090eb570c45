//! SARIF 2.1.0 emission (`--sarif`).
//!
//! One run, one driver (`sfcheck`), one rule per lint id. Live findings
//! emit at level `error` and waived findings at `note` with a SARIF
//! suppression carrying the waiver reason — so a SARIF viewer shows the
//! same partition as the JSON report. Objects are `BTreeMap`-backed [`JsonValue`]s and inputs
//! are pre-sorted, so emission is byte-identical across runs and thread
//! counts (the repo gate pins this).

use smartfeat_frame::json::JsonValue;

use crate::lints::{Finding, LINT_IDS};
use crate::report::ReportInput;

/// Stable one-line description per lint id, for the SARIF rule metadata.
fn describe(lint: &str) -> &'static str {
    match lint {
        "env-dependence" => "environment reads only at the sanctioned resolution points",
        "hash-collections" => "no HashMap/HashSet in non-test code",
        "lock-confinement" => "no Mutex/RwLock in library code outside crates/par",
        "panic-hygiene" => "no unwrap/expect/panic! in core/frame library code",
        "panic-reachability" => "no panic site reachable from the public pipeline API",
        "rng-seed-discipline" => "rng streams in parallel regions derive per item",
        "waiver-syntax" => "every waiver names a known lint and gives a reason",
        "wall-clock" => "wall-clock reads only inside the obs gate",
        _ => "sfcheck lint",
    }
}

fn rule(lint: &str) -> JsonValue {
    JsonValue::object([
        ("id", JsonValue::from(lint)),
        (
            "shortDescription",
            JsonValue::object([("text", JsonValue::from(describe(lint)))]),
        ),
    ])
}

fn location(f: &Finding) -> JsonValue {
    JsonValue::object([(
        "physicalLocation",
        JsonValue::object([
            (
                "artifactLocation",
                JsonValue::object([("uri", JsonValue::from(f.file.as_str()))]),
            ),
            (
                "region",
                JsonValue::object([
                    (
                        "snippet",
                        JsonValue::object([("text", JsonValue::from(f.snippet.as_str()))]),
                    ),
                    ("startColumn", JsonValue::from(u64::from(f.col))),
                    ("startLine", JsonValue::from(u64::from(f.line))),
                ]),
            ),
        ]),
    )])
}

fn result(f: &Finding, level: &str, suppression_reason: Option<&str>) -> JsonValue {
    let mut pairs = vec![
        ("level", JsonValue::from(level)),
        ("locations", JsonValue::Array(vec![location(f)])),
        (
            "message",
            JsonValue::object([("text", JsonValue::from(f.message.as_str()))]),
        ),
        ("ruleId", JsonValue::from(f.lint)),
    ];
    if let Some(reason) = suppression_reason {
        pairs.push((
            "suppressions",
            JsonValue::Array(vec![JsonValue::object([
                ("justification", JsonValue::from(reason)),
                ("kind", JsonValue::from("inSource")),
                ("status", JsonValue::from("accepted")),
            ])]),
        ));
    }
    JsonValue::object(pairs)
}

/// Build the SARIF document for one run's partitioned findings.
pub fn build(input: &ReportInput<'_>) -> JsonValue {
    let rules: Vec<JsonValue> = LINT_IDS.iter().map(|id| rule(id)).collect();
    let mut results: Vec<JsonValue> = Vec::new();
    for f in input.findings {
        results.push(result(f, "error", None));
    }
    for w in input.waived {
        results.push(result(&w.finding, "note", Some(w.reason.as_str())));
    }

    let driver = JsonValue::object([
        ("informationUri", JsonValue::from("DESIGN.md")),
        ("name", JsonValue::from("sfcheck")),
        ("rules", JsonValue::Array(rules)),
    ]);
    let run = JsonValue::object([
        ("results", JsonValue::Array(results)),
        ("tool", JsonValue::object([("driver", driver)])),
    ]);
    JsonValue::object([
        (
            "$schema",
            JsonValue::from("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("runs", JsonValue::Array(vec![run])),
        ("version", JsonValue::from("2.1.0")),
    ])
}

/// Test convenience: SARIF for bare findings.
#[cfg(test)]
fn build_simple(findings: &[Finding], waived: &[crate::lints::Waived]) -> JsonValue {
    build(&ReportInput {
        findings,
        waived,
        files_scanned: 0,
        manifests_scanned: 0,
        fix_dry_run: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, line: u32) -> Finding {
        Finding {
            file: "crates/x/src/lib.rs".into(),
            line,
            col: 5,
            lint,
            message: format!("{lint} fired"),
            snippet: "let x = 1;".into(),
            suggestion: None,
        }
    }

    #[test]
    fn sarif_shape_levels_and_determinism() {
        let live = [finding("wall-clock", 3)];
        let waived = [crate::lints::Waived {
            finding: finding("panic-hygiene", 9),
            reason: "proven unreachable".into(),
        }];
        let a = build_simple(&live, &waived).emit();
        let b = build_simple(&live, &waived).emit();
        assert_eq!(a, b, "emission is deterministic");

        let doc = JsonValue::parse(&a).unwrap();
        assert_eq!(doc.get("version").unwrap().as_str(), Some("2.1.0"));
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let results = runs[0].get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        let levels: Vec<&str> = results
            .iter()
            .map(|r| r.get("level").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(levels, ["error", "note"]);
        // The waived result carries its reason as a SARIF suppression.
        let sup = results[1].get("suppressions").unwrap().as_array().unwrap();
        assert_eq!(
            sup[0].get("justification").unwrap().as_str(),
            Some("proven unreachable")
        );
        // Every shipped lint has rule metadata.
        let rules = runs[0]
            .get("tool")
            .unwrap()
            .get("driver")
            .unwrap()
            .get("rules")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(rules.len(), LINT_IDS.len());
    }

    #[test]
    fn every_lint_has_a_description() {
        for id in LINT_IDS {
            assert_ne!(describe(id), "sfcheck lint", "{id} missing description");
        }
    }
}
