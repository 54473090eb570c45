//! The `--fix` engine: apply machine-applicable suggestions to the tree.
//!
//! Only findings that carry a [`Finding::suggestion`] are applied — today
//! that is `hash-collections` (`HashMap`→`BTreeMap`, `HashSet`→`BTreeSet`)
//! and the underscore-typo shape of `waiver-syntax`. A suggestion is a
//! replacement for the finding's trimmed source line; the engine turns it
//! into a byte-span rewrite:
//!
//! 1. group fixes by file and locate each finding's line span in the
//!    current text,
//! 2. verify the span still holds the recorded snippet (a stale finding —
//!    the file changed since the scan — is skipped, never misapplied),
//! 3. apply spans in descending start order so earlier rewrites cannot
//!    shift later ones, skipping exact duplicates and refusing
//!    conflicting rewrites of the same span.
//!
//! Applying is **idempotent**: a fixed line no longer produces the
//! finding, so a second `--fix` pass applies zero rewrites (CI runs the
//! double-pass to prove it).

use std::collections::BTreeMap;
use std::path::Path;

use crate::lints::Finding;
use crate::SfError;

/// What one `--fix` pass did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FixReport {
    /// Rewrites applied.
    pub applied: usize,
    /// Files written back.
    pub files_changed: usize,
    /// Human-readable notes for fixes that were skipped (stale snippet,
    /// conflicting rewrites), in deterministic order.
    pub skipped: Vec<String>,
}

/// One planned rewrite inside a single file.
struct Edit {
    start: usize,
    end: usize,
    line: u32,
    replacement: String,
}

/// Apply every suggestion-carrying finding under `root`. Findings are
/// expected to hold root-relative `/`-separated paths (as produced by the
/// walker).
pub fn apply(root: &Path, findings: &[Finding]) -> Result<FixReport, SfError> {
    let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        if f.suggestion.is_some() {
            by_file.entry(f.file.as_str()).or_default().push(f);
        }
    }
    let mut report = FixReport::default();
    for (rel, group) in by_file {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SfError::new(format!("read {}: {e}", path.display())))?;
        let fixes: Vec<(u32, &str, &str)> = group
            .iter()
            .map(|f| {
                (
                    f.line,
                    f.snippet.as_str(),
                    f.suggestion.as_deref().unwrap_or_default(),
                )
            })
            .collect();
        let (new_text, applied, mut skipped) = rewrite(&text, &fixes);
        for note in &mut skipped {
            *note = format!("{rel}:{note}");
        }
        report.skipped.append(&mut skipped);
        if applied > 0 {
            std::fs::write(&path, new_text)
                .map_err(|e| SfError::new(format!("write {}: {e}", path.display())))?;
            report.applied += applied;
            report.files_changed += 1;
        }
    }
    Ok(report)
}

/// Byte span of the trimmed content of each 1-based line.
fn line_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut offset = 0usize;
    for raw in text.split_inclusive('\n') {
        let content = raw.trim_end_matches(['\n', '\r']);
        let lead = content.len() - content.trim_start().len();
        spans.push((offset + lead, offset + content.trim_end().len()));
        offset += raw.len();
    }
    spans
}

/// Pure core: rewrite `text` per `(line, expected_snippet, replacement)`
/// fixes. Returns the new text, the number of rewrites applied, and notes
/// for skipped fixes.
pub fn rewrite(text: &str, fixes: &[(u32, &str, &str)]) -> (String, usize, Vec<String>) {
    let spans = line_spans(text);
    let mut edits: Vec<Edit> = Vec::new();
    let mut skipped = Vec::new();
    for &(line, snippet, replacement) in fixes {
        let Some(&(start, end)) = spans.get(line as usize - 1) else {
            skipped.push(format!("{line}: line is past end of file"));
            continue;
        };
        if &text[start..end] != snippet {
            skipped.push(format!("{line}: snippet no longer matches — stale finding"));
            continue;
        }
        if snippet == replacement {
            continue;
        }
        if let Some(prev) = edits.iter().find(|e| e.start == start) {
            if prev.replacement != replacement {
                skipped.push(format!("{line}: conflicting rewrites for one line"));
            }
            // Exact duplicate (two findings on one line sharing the fixed
            // line, e.g. two HashMaps) applies once.
            continue;
        }
        edits.push(Edit {
            start,
            end,
            line,
            replacement: replacement.to_string(),
        });
    }
    // Drop lines named in a conflict entirely — applying either variant
    // would silently pick a winner.
    let conflicted: Vec<u32> = skipped
        .iter()
        .filter(|n| n.contains("conflicting"))
        .filter_map(|n| n.split(':').next()?.parse().ok())
        .collect();
    edits.retain(|e| !conflicted.contains(&e.line));

    edits.sort_by_key(|e| std::cmp::Reverse(e.start));
    let mut out = text.to_string();
    let applied = edits.len();
    for e in edits {
        out.replace_range(e.start..e.end, &e.replacement);
    }
    (out, applied, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_the_trimmed_span_preserving_indentation() {
        let text = "fn f() {\n    use std::collections::HashMap;\n}\n";
        let (out, applied, skipped) = rewrite(
            text,
            &[(
                2,
                "use std::collections::HashMap;",
                "use std::collections::BTreeMap;",
            )],
        );
        assert_eq!(out, "fn f() {\n    use std::collections::BTreeMap;\n}\n");
        assert_eq!(applied, 1);
        assert!(skipped.is_empty());
    }

    #[test]
    fn stale_snippets_are_skipped_never_misapplied() {
        let text = "let x = 1;\n";
        let (out, applied, skipped) = rewrite(text, &[(1, "let y = 2;", "let y = 3;")]);
        assert_eq!(out, text);
        assert_eq!(applied, 0);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("stale"));
    }

    #[test]
    fn duplicate_fixes_on_one_line_apply_once_conflicts_apply_never() {
        let text = "let m: HashMap<u32, HashMap<u32, u32>> = x;\n";
        let fixed = "let m: BTreeMap<u32, BTreeMap<u32, u32>> = x;";
        // Two findings (one per HashMap token) share the whole-line fix.
        let (out, applied, skipped) = rewrite(
            text,
            &[(1, text.trim_end(), fixed), (1, text.trim_end(), fixed)],
        );
        assert_eq!(out, format!("{fixed}\n"));
        assert_eq!(applied, 1);
        assert!(skipped.is_empty());
        // Conflicting replacements: neither is applied.
        let (out, applied, skipped) = rewrite(
            text,
            &[(1, text.trim_end(), fixed), (1, text.trim_end(), "other")],
        );
        assert_eq!(out, text);
        assert_eq!(applied, 0);
        assert_eq!(skipped.len(), 1);
    }

    #[test]
    fn multiple_lines_apply_bottom_up_without_shifting() {
        let text = "use std::collections::HashMap;\nfn g() {}\nuse std::collections::HashSet;\n";
        let (out, applied, _) = rewrite(
            text,
            &[
                (
                    1,
                    "use std::collections::HashMap;",
                    "use std::collections::BTreeMap;",
                ),
                (
                    3,
                    "use std::collections::HashSet;",
                    "use std::collections::BTreeSet;",
                ),
            ],
        );
        assert_eq!(
            out,
            "use std::collections::BTreeMap;\nfn g() {}\nuse std::collections::BTreeSet;\n"
        );
        assert_eq!(applied, 2);
    }

    #[test]
    fn noop_suggestions_count_nothing() {
        let text = "let x = 1;\n";
        let (out, applied, skipped) = rewrite(text, &[(1, "let x = 1;", "let x = 1;")]);
        assert_eq!(out, text);
        assert_eq!(applied, 0);
        assert!(skipped.is_empty());
    }
}
