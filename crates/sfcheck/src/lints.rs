//! The lint suite, keyed to this repository's invariants.
//!
//! | id | lint | invariant it guards |
//! |----|------|---------------------|
//! | D1 | `wall-clock` | wall-clock reads only inside `crates/obs`'s gate |
//! | D2 | `hash-collections` | no `HashMap`/`HashSet` in output-feeding crates |
//! | D3 | `env-dependence` | env reads only at the sanctioned resolution points |
//! | P1 | `panic-hygiene` | no `unwrap`/`expect`/`panic!` in core/frame library code |
//! | W1 | `waiver-syntax` | every waiver names a known lint and gives a reason; every marker is spelled right |
//! | F1 | `rng-seed-discipline` | rng streams in parallel regions derive per item |
//! | F2 | `panic-reachability` | no panic site reachable from the public pipeline API |
//! | T1 | `determinism-taint` | no wall/env/thread/hash-order value reaches an output sink |
//! | T2 | `obs-volatile-discipline` | volatile fields reach the report only under `volatile` |
//! | L1 | `lock-confinement` | no `Mutex`/`RwLock` in library code outside `crates/par` |
//!
//! F1–F2 are the cross-file dataflow lints ([`crate::dataflow`]); they run
//! over the workspace symbol table and call graph rather than per-file
//! tokens, but their findings waive identically. T1 and T2 are the
//! interprocedural taint lints ([`crate::taint`]), added in v3 — same
//! waiver mechanism.
//! L1 is a per-file token rule: FM and recorder state is single-threaded
//! and owned by the serial control path, so the pool's run context in
//! `crates/par` is the only place a lock may live (DESIGN.md §8).
//!
//! Findings can be waived inline with a line comment:
//!
//! ```text
//! // sfcheck:allow(panic-hygiene) invariant: indices filtered from 0..n
//! // sfcheck:allow(panic-hygiene, panic-reachability) proven unreachable
//! ```
//!
//! on the offending line or the line directly above it. One waiver may
//! name several comma-separated lints when one site trips overlapping
//! invariants. The reason text after the closing parenthesis is
//! mandatory — a waiver is documentation, not suppression.

use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};
use crate::walker::{FileClass, SourceFile};

/// Identifiers of every shipped lint, in report order.
pub const LINT_IDS: [&str; 10] = [
    "determinism-taint",
    "env-dependence",
    "hash-collections",
    "lock-confinement",
    "obs-volatile-discipline",
    "panic-hygiene",
    "panic-reachability",
    "rng-seed-discipline",
    "waiver-syntax",
    "wall-clock",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lint identifier (kebab-case, from [`LINT_IDS`]).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// A mechanical replacement line for `--fix-dry-run`, when one exists.
    pub suggestion: Option<String>,
}

/// A finding suppressed by an inline waiver, kept for the report.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waived {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's mandatory reason text.
    pub reason: String,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Live findings.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a valid inline waiver.
    pub waived: Vec<Waived>,
}

/// A parsed `// sfcheck:allow(<lint>[, <lint>…]) <reason>` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The lints the waiver names (comma-separated in source).
    pub lints: Vec<String>,
    /// Mandatory reason text after the closing parenthesis.
    pub reason: String,
}

/// Extract waivers from comment tokens; malformed waivers become
/// `waiver-syntax` findings so they cannot silently suppress nothing.
/// Waivers live only in lexer comment tokens — waiver-shaped text inside
/// string literals or code never matches.
fn collect_waivers(file: &str, lines: &[&str], tokens: &[Token]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // Doc comments (`///` exactly, `//!`) document the waiver syntax
        // itself; only plain comments — `//`, and `////`+ which rustc also
        // treats as non-doc — can carry a live waiver.
        let is_doc = (tok.text.starts_with("///") && !tok.text.starts_with("////"))
            || tok.text.starts_with("//!");
        if is_doc {
            continue;
        }
        let Some(at) = tok.text.find("sfcheck:allow") else {
            continue;
        };
        let rest = &tok.text[at + "sfcheck:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            r.split_once(')')
                .map(|(list, reason)| (list.trim().to_string(), reason.trim().to_string()))
        });
        let bad = |message: String, suggestion: Option<String>| Finding {
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            lint: "waiver-syntax",
            message,
            snippet: snippet_at(lines, tok.line),
            suggestion,
        };
        let Some((list, reason)) = parsed else {
            findings.push(bad(
                "malformed waiver: expected `sfcheck:allow(<lint>[, <lint>…]) <reason>`".into(),
                None,
            ));
            continue;
        };
        let lints: Vec<String> = list
            .split(',')
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty())
            .collect();
        if lints.is_empty() {
            findings.push(bad(
                "malformed waiver: empty lint list in `sfcheck:allow(…)`".into(),
                None,
            ));
            continue;
        }
        let unknown: Vec<&String> = lints
            .iter()
            .filter(|l| !LINT_IDS.contains(&l.as_str()))
            .collect();
        if let Some(first) = unknown.first() {
            // Underscore-for-hyphen typos are machine-fixable: suggest the
            // line with every such lint name normalized.
            let mut fixed_line = snippet_at(lines, tok.line);
            let mut fixable = true;
            for u in &unknown {
                let normalized = u.replace('_', "-");
                if LINT_IDS.contains(&normalized.as_str()) {
                    fixed_line = fixed_line.replace(u.as_str(), &normalized);
                } else {
                    fixable = false;
                }
            }
            findings.push(bad(
                format!("waiver names unknown lint `{first}`"),
                fixable.then_some(fixed_line),
            ));
            continue;
        }
        if reason.is_empty() {
            findings.push(bad(
                format!(
                    "waiver for `{}` is missing its mandatory reason",
                    lints.join(", ")
                ),
                None,
            ));
            continue;
        }
        waivers.push(Waiver {
            line: tok.line,
            lints,
            reason,
        });
    }
    (waivers, findings)
}

/// The plain `// sfcheck:<name>` markers. The parser accepts any name,
/// so a marker spelled with underscores attaches to nothing and silently
/// turns off the pass that reads it.
const MARKERS: [&str; 5] = [
    "metrics-report",
    "output-sink",
    "parallel-entry",
    "seed-derivation",
    "volatile-field",
];

/// W1 `waiver-syntax`, marker half: a [`MARKERS`] name written in a
/// comment with underscores for its hyphens is a finding, with a
/// mechanical fix to the hyphenated marker.
fn marker_typos(file: &str, lines: &[&str], tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment || !tok.text.contains("sfcheck:") {
            continue;
        }
        for marker in MARKERS {
            let typo = format!("sfcheck:{}", marker.replace('-', "_"));
            let Some(at) = tok.text.find(&typo) else {
                continue;
            };
            let fixed = format!("sfcheck:{marker}");
            let snippet = snippet_at(lines, tok.line);
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                col: tok.col + at as u32,
                lint: "waiver-syntax",
                message: format!(
                    "marker typo: `{typo}` is not a recognized marker; write `{fixed}`"
                ),
                suggestion: Some(snippet.replacen(&typo, &fixed, 1)),
                snippet,
            });
        }
    }
    findings
}

fn snippet_at(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items, as inclusive line
/// spans. Token-level: find the attribute, then the guarded item's body
/// (brace-matched) or its terminating semicolon.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(end) = match_test_attribute(&code, i) {
            let start_line = code[i].line;
            if let Some(region_end) = item_end(&code, end) {
                regions.push((start_line, code[region_end].line));
                i = region_end + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// If `code[i..]` starts a `#[cfg(test)]`-style or `#[test]` attribute,
/// return the index one past its closing `]`.
fn match_test_attribute(code: &[&Token], i: usize) -> Option<usize> {
    if code[i].text != "#" || code.get(i + 1)?.text != "[" {
        return None;
    }
    // Scan the attribute's token group, tracking bracket depth.
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    for (j, tok) in code.iter().enumerate().skip(i + 1) {
        match tok.text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    // `#[test]` or `#[cfg(… test …)]` both gate test code.
                    let gated = is_test && (saw_cfg || j == i + 3);
                    return gated.then_some(j + 1);
                }
            }
            "test" if tok.kind == TokenKind::Ident => is_test = true,
            "cfg" if tok.kind == TokenKind::Ident => saw_cfg = true,
            _ => {}
        }
    }
    None
}

/// Index of the token ending the item that starts at `code[i]`: the
/// matching `}` of its first brace, or a `;` before any brace opens
/// (e.g. `#[cfg(test)] use …;`). Skips stacked attributes.
fn item_end(code: &[&Token], mut i: usize) -> Option<usize> {
    // Skip any further attributes between this one and the item.
    while i < code.len() && code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[") {
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < code.len() {
            match code[j].text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    let mut depth = 0usize;
    for (j, tok) in code.iter().enumerate().skip(i) {
        match tok.text.as_str() {
            ";" if depth == 0 => return Some(j),
            "{" => depth += 1,
            "}" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Scan one Rust source file with every applicable per-file lint.
pub fn scan_rust(file: &SourceFile) -> ScanResult {
    let (raw, waivers) = scan_rust_raw(file, &lex(&file.text));
    apply_waivers(raw, &waivers)
}

/// The per-file phase of a scan: raw (unwaived) findings plus the file's
/// parsed waivers. The caller applies waivers after merging in any
/// cross-file findings for this file (the dataflow lints), so one waiver
/// mechanism covers both.
pub fn scan_rust_raw(file: &SourceFile, tokens: &[Token]) -> (Vec<Finding>, Vec<Waiver>) {
    let lines: Vec<&str> = file.text.lines().collect();
    let (waivers, mut waiver_findings) = collect_waivers(&file.rel_path, &lines, tokens);
    let regions = test_regions(tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();

    let mut raw: Vec<Finding> = Vec::new();
    raw.append(&mut waiver_findings);
    raw.extend(marker_typos(&file.rel_path, &lines, tokens));
    wall_clock_lint(file, &lines, &regions, &code, &mut raw);
    hash_collections_lint(file, &lines, &regions, &code, &mut raw);
    env_dependence_lint(file, &lines, &regions, &code, &mut raw);
    panic_hygiene_lint(file, &lines, &regions, &code, &mut raw);
    lock_confinement_lint(file, &lines, &regions, &code, &mut raw);
    (raw, waivers)
}

/// Split raw findings into live and waived using same-line / line-above
/// waivers that name the finding's lint.
pub fn apply_waivers(raw: Vec<Finding>, waivers: &[Waiver]) -> ScanResult {
    let mut out = ScanResult::default();
    for finding in raw {
        let waiver = waivers.iter().find(|w| {
            w.lints.iter().any(|l| l == finding.lint)
                && (w.line == finding.line || w.line + 1 == finding.line)
        });
        match waiver {
            Some(w) => out.waived.push(Waived {
                finding,
                reason: w.reason.clone(),
            }),
            None => out.findings.push(finding),
        }
    }
    out
}

fn push(
    out: &mut Vec<Finding>,
    file: &SourceFile,
    lines: &[&str],
    tok: &Token,
    lint: &'static str,
    message: String,
    suggestion: Option<String>,
) {
    out.push(Finding {
        file: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        lint,
        message,
        snippet: snippet_at(lines, tok.line),
        suggestion,
    });
}

fn seq(code: &[&Token], i: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, want)| code.get(i + k).is_some_and(|t| t.text == *want))
}

/// D1 `wall-clock`: `Instant::now()` / `SystemTime` outside `crates/obs`.
///
/// The logical-clock contract (DESIGN §9) requires every wall-clock read
/// to route through the obs gate (`obs::global::{time, stopwatch}` or the
/// recorder's wall mode) so reports stay byte-identical by default.
fn wall_clock_lint(
    file: &SourceFile,
    lines: &[&str],
    regions: &[(u32, u32)],
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    if file.crate_dir == "obs" || file.class == FileClass::Test {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if in_regions(regions, tok.line) || tok.kind != TokenKind::Ident {
            continue;
        }
        if tok.text == "Instant" && seq(code, i + 1, &[":", ":", "now"]) {
            push(
                out,
                file,
                lines,
                tok,
                "wall-clock",
                "bare `Instant::now()` outside the obs wall-clock gate; route through \
                 `smartfeat_obs::global::stopwatch`/`time` so logical-clock mode holds"
                    .into(),
                None,
            );
        } else if tok.text == "SystemTime" {
            push(
                out,
                file,
                lines,
                tok,
                "wall-clock",
                "`SystemTime` outside the obs wall-clock gate".into(),
                None,
            );
        }
    }
}

/// L1 `lock-confinement`: a `Mutex` or `RwLock` in library code outside
/// `crates/par`.
///
/// FM, meter and recorder state lives in `RefCell`s owned by the serial
/// control path (DESIGN.md §8); the pool's run context is the one lock
/// that pool workers touch. A lock anywhere else is shared state the
/// design does not have.
fn lock_confinement_lint(
    file: &SourceFile,
    lines: &[&str],
    regions: &[(u32, u32)],
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    if file.crate_dir == "par" || file.class != FileClass::Lib {
        return;
    }
    for tok in code {
        if in_regions(regions, tok.line)
            || tok.kind != TokenKind::Ident
            || !matches!(tok.text.as_str(), "Mutex" | "RwLock")
        {
            continue;
        }
        push(
            out,
            file,
            lines,
            tok,
            "lock-confinement",
            format!(
                "`{}` in library code outside crates/par; keep FM and recorder state \
                 in a `RefCell` owned by the serial control path",
                tok.text
            ),
            None,
        );
    }
}

/// Crates whose data structures can reach serialized or user-visible
/// output (reports, CSV/JSON emission, metrics, tables): iteration order
/// there must be defined, so hash collections are banned.
fn feeds_output(crate_dir: &str) -> bool {
    matches!(crate_dir, "frame" | "core" | "obs" | "bench" | "sfcheck")
}

/// D2 `hash-collections`: `HashMap`/`HashSet` in output-feeding crates.
fn hash_collections_lint(
    file: &SourceFile,
    lines: &[&str],
    regions: &[(u32, u32)],
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    if !feeds_output(&file.crate_dir) || file.class == FileClass::Test {
        return;
    }
    for tok in code {
        if in_regions(regions, tok.line) || tok.kind != TokenKind::Ident {
            continue;
        }
        // Blessed deterministic alternatives: sorted `BTreeMap`/`BTreeSet`
        // (the mechanical `--fix` replacement) or the fixed-seed,
        // first-occurrence-ordered `smartfeat_frame::StableMap`/`StableSet`
        // for hot paths. Neither trips this lint.
        let (replacement, stable) = match tok.text.as_str() {
            "HashMap" => ("BTreeMap", "StableMap"),
            "HashSet" => ("BTreeSet", "StableSet"),
            _ => continue,
        };
        let line_text = snippet_at(lines, tok.line);
        push(
            out,
            file,
            lines,
            tok,
            "hash-collections",
            format!(
                "`{}` in an output-feeding module; iteration order is nondeterministic — \
                 use `{replacement}` or `smartfeat_frame::{stable}`",
                tok.text
            ),
            Some(
                line_text
                    .replace("HashMap", "BTreeMap")
                    .replace("HashSet", "BTreeSet"),
            ),
        );
    }
}

/// D3 `env-dependence`: env reads outside the sanctioned resolution
/// points (`crates/par` for `SMARTFEAT_THREADS`, `crates/obs` for the
/// wall-clock opt-in). Bin and test code is exempt: there, environment is
/// the user interface.
fn env_dependence_lint(
    file: &SourceFile,
    lines: &[&str],
    regions: &[(u32, u32)],
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    if matches!(file.crate_dir.as_str(), "par" | "obs") || file.class != FileClass::Lib {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if in_regions(regions, tok.line) || tok.kind != TokenKind::Ident {
            continue;
        }
        let hit = (tok.text == "env"
            && (seq(code, i + 1, &[":", ":", "var"]) || seq(code, i + 1, &[":", ":", "var_os"])))
            || tok.text == "available_parallelism";
        if hit {
            push(
                out,
                file,
                lines,
                tok,
                "env-dependence",
                "environment-dependent value outside the sanctioned resolution points \
                 (crates/par, crates/obs); thread/env effects must stay out of \
                 deterministic outputs"
                    .into(),
                None,
            );
        }
    }
}

/// P1 `panic-hygiene`: `.unwrap()` / `.expect("…")` / `panic!`-family
/// macros in library code of `crates/core` and `crates/frame`. Test and
/// bin code is exempt; `parser.expect(b'x')`-style method calls whose
/// argument is not a string literal are not `Option::expect`.
fn panic_hygiene_lint(
    file: &SourceFile,
    lines: &[&str],
    regions: &[(u32, u32)],
    code: &[&Token],
    out: &mut Vec<Finding>,
) {
    if !matches!(file.crate_dir.as_str(), "core" | "frame") || file.class != FileClass::Lib {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if in_regions(regions, tok.line) {
            continue;
        }
        let finding = if tok.text == "." && seq(code, i + 1, &["unwrap", "(", ")"]) {
            Some("`.unwrap()` in library code; return a typed `Error` instead".to_string())
        } else if tok.text == "."
            && seq(code, i + 1, &["expect", "("])
            && code
                .get(i + 3)
                .is_some_and(|t| matches!(t.kind, TokenKind::StrLit | TokenKind::RawStrLit))
        {
            Some("`.expect(\"…\")` in library code; return a typed `Error` instead".to_string())
        } else if tok.kind == TokenKind::Ident
            && matches!(
                tok.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && code.get(i + 1).is_some_and(|t| t.text == "!")
        {
            Some(format!("`{}!` in library code", tok.text))
        } else {
            None
        };
        if let Some(message) = finding {
            push(out, file, lines, tok, "panic-hygiene", message, None);
        }
    }
}

/// Per-lint finding counts (all lints present, zero-filled) for the
/// report summary.
pub fn lint_counts(findings: &[Finding]) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = LINT_IDS.iter().map(|id| (id.to_string(), 0)).collect();
    for f in findings {
        *counts.entry(f.lint.to_string()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(crate_dir: &str, rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            text: text.to_string(),
            class: crate::walker::classify(rel_path),
            crate_dir: crate_dir.to_string(),
        }
    }

    fn lints_of(result: &ScanResult) -> Vec<&'static str> {
        result.findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn wall_clock_fires_outside_obs_only() {
        let src = "fn f() { let t = Instant::now(); }";
        let in_core = lib_file("core", "crates/core/src/pipeline.rs", src);
        assert_eq!(lints_of(&scan_rust(&in_core)), ["wall-clock"]);
        let in_obs = lib_file("obs", "crates/obs/src/global.rs", src);
        assert!(scan_rust(&in_obs).findings.is_empty());
    }

    #[test]
    fn wall_clock_ignores_comments_strings_and_tests() {
        let src = r#"
// Instant::now() in a comment
fn f() { let s = "Instant::now()"; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let x = Instant::now(); }
}
"#;
        let file = lib_file("core", "crates/core/src/pipeline.rs", src);
        assert!(scan_rust(&file).findings.is_empty());
    }

    #[test]
    fn lock_confinement_fires_in_lib_code_outside_par_only() {
        let src = "use std::sync::{Mutex, RwLock};\nstruct S { m: Mutex<u32> }\n\
                   // Mutex in a comment\nfn f() { let s = \"RwLock\"; }\n\
                   #[cfg(test)]\nmod tests { static M: std::sync::Mutex<u8> = todo!(); }\n";
        let in_fm = lib_file("fm", "crates/fm/src/cascade.rs", src);
        let result = scan_rust(&in_fm);
        assert_eq!(lints_of(&result), ["lock-confinement"; 3]);
        assert_eq!(
            result.findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            [1, 1, 2]
        );
        let in_par = lib_file("par", "crates/par/src/lib.rs", src);
        assert!(scan_rust(&in_par).findings.is_empty());
        let in_bin = lib_file("root", "perfbench/src/bin/perf/trace.rs", src);
        assert!(scan_rust(&in_bin).findings.is_empty());
    }

    #[test]
    fn hash_collections_scoped_to_output_crates_with_suggestion() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }";
        let in_frame = lib_file("frame", "crates/frame/src/csv.rs", src);
        let result = scan_rust(&in_frame);
        assert_eq!(result.findings.len(), 3);
        assert_eq!(
            result.findings[0].suggestion.as_deref(),
            Some("use std::collections::BTreeMap;")
        );
        assert!(result.findings[0]
            .message
            .contains("smartfeat_frame::StableMap"));
        // `ml` does not feed serialized output; exempt.
        let in_ml = lib_file("ml", "crates/ml/src/forest.rs", src);
        assert!(scan_rust(&in_ml).findings.is_empty());
    }

    #[test]
    fn stable_map_is_blessed_in_output_crates() {
        // The deterministic index type must NOT trip hash-collections even
        // in the most output-critical crates.
        let src = "use smartfeat_frame::{StableMap, StableSet};\n\
                   fn f() -> StableMap<String, u32> { StableMap::new() }\n\
                   fn g() -> StableSet<String> { StableSet::new() }";
        for (dir, path) in [
            ("frame", "crates/frame/src/frame.rs"),
            ("core", "crates/core/src/transform.rs"),
        ] {
            let file = lib_file(dir, path, src);
            assert!(
                scan_rust(&file).findings.is_empty(),
                "StableMap/StableSet flagged in {path}"
            );
        }
    }

    #[test]
    fn env_dependence_allows_par_obs_bin_and_test() {
        let src = "fn f() { let v = std::env::var(\"X\"); }";
        assert_eq!(
            lints_of(&scan_rust(&lib_file("rng", "crates/rng/src/check.rs", src))),
            ["env-dependence"]
        );
        assert!(scan_rust(&lib_file("par", "crates/par/src/lib.rs", src))
            .findings
            .is_empty());
        assert!(
            scan_rust(&lib_file("core", "crates/core/src/bin/cli.rs", src))
                .findings
                .is_empty()
        );
        assert!(scan_rust(&lib_file("root", "tests/x.rs", src))
            .findings
            .is_empty());
    }

    #[test]
    fn panic_hygiene_distinguishes_parser_expect() {
        let src = r#"
fn lib1(v: Option<u32>) -> u32 { v.unwrap() }
fn lib2(v: Option<u32>) -> u32 { v.expect("present") }
fn lib3(p: &mut P) { p.expect(b'{'); }
fn lib4() { panic!("boom"); }
"#;
        let file = lib_file("frame", "crates/frame/src/json.rs", src);
        let result = scan_rust(&file);
        assert_eq!(
            lints_of(&result),
            ["panic-hygiene", "panic-hygiene", "panic-hygiene"]
        );
        // The byte-literal expect on line 4 is a parser method, not flagged.
        assert!(result.findings.iter().all(|f| f.line != 4));
    }

    #[test]
    fn panic_hygiene_only_in_core_and_frame_lib() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }";
        assert!(scan_rust(&lib_file("ml", "crates/ml/src/tree.rs", src))
            .findings
            .is_empty());
        assert!(
            scan_rust(&lib_file("core", "crates/core/src/bin/cli.rs", src))
                .findings
                .is_empty()
        );
        assert_eq!(
            lints_of(&scan_rust(&lib_file(
                "core",
                "crates/core/src/config.rs",
                src
            ))),
            ["panic-hygiene"]
        );
    }

    #[test]
    fn waiver_suppresses_and_carries_reason() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // sfcheck:allow(panic-hygiene) invariant: always Some here\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        assert!(result.findings.is_empty());
        assert_eq!(result.waived.len(), 1);
        assert_eq!(result.waived[0].reason, "invariant: always Some here");
    }

    #[test]
    fn waiver_wrong_lint_does_not_suppress() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // sfcheck:allow(wall-clock) mismatched\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        assert_eq!(lints_of(&scan_rust(&file)), ["panic-hygiene"]);
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        let src = "/// Use `// sfcheck:allow(panic-hygiene)` to waive.\nfn f(v: Option<u32>) -> u32 { v.unwrap() }";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        // No waiver-syntax finding for the doc text, and no suppression.
        assert_eq!(lints_of(&result), ["panic-hygiene"]);
    }

    #[test]
    fn waiver_text_inside_string_literals_is_inert() {
        // Waiver-shaped text in a string is neither a live waiver (the
        // unwrap still fires) nor a waiver-syntax finding.
        let src = "fn f(v: Option<u32>) -> u32 {\n    let _doc = \"// sfcheck:allow(panic-hygiene) fake\";\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        assert_eq!(lints_of(&scan_rust(&file)), ["panic-hygiene"]);
    }

    #[test]
    fn four_slash_comments_are_plain_and_carry_waivers() {
        // rustc: exactly three slashes is a doc comment; four or more is a
        // regular comment, so a waiver there is live.
        let src = "fn f(v: Option<u32>) -> u32 {\n    //// sfcheck:allow(panic-hygiene) four slashes are not docs\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        assert!(result.findings.is_empty());
        assert_eq!(result.waived.len(), 1);
    }

    #[test]
    fn comma_list_waiver_covers_each_named_lint() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    // sfcheck:allow(panic-hygiene, panic-reachability) invariant: checked above\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        assert!(result.findings.is_empty());
        assert_eq!(result.waived.len(), 1);
        // A lint outside the list is not suppressed.
        let src = "fn f(v: Option<u32>) -> u32 {\n    // sfcheck:allow(wall-clock, env-dependence) mismatched\n    v.unwrap()\n}";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        assert_eq!(lints_of(&scan_rust(&file)), ["panic-hygiene"]);
    }

    #[test]
    fn underscore_lint_typo_gets_a_machine_fix() {
        let src = "// sfcheck:allow(panic_hygiene) reason text\n";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        assert_eq!(lints_of(&result), ["waiver-syntax"]);
        assert_eq!(
            result.findings[0].suggestion.as_deref(),
            Some("// sfcheck:allow(panic-hygiene) reason text")
        );
    }

    #[test]
    fn misspelled_marker_is_a_waiver_syntax_finding_with_a_fix() {
        // The underscore spelling attaches no marker, so the fn would
        // silently drop out of the taint pass's sinks.
        let src = "// sfcheck:output_sink\npub fn write(s: &str) {}\n";
        let file = lib_file("frame", "crates/frame/src/csv.rs", src);
        let result = scan_rust(&file);
        assert_eq!(lints_of(&result), ["waiver-syntax"]);
        assert_eq!((result.findings[0].line, result.findings[0].col), (1, 4));
        assert_eq!(
            result.findings[0].suggestion.as_deref(),
            Some("// sfcheck:output-sink")
        );
    }

    #[test]
    fn every_plain_marker_typo_is_caught_but_strings_are_not() {
        for marker in MARKERS {
            let typo = marker.replace('-', "_");
            let src = format!("/// sfcheck:{typo}\nfn f() {{ let s = \"// sfcheck:{typo}\"; }}\n");
            let result = scan_rust(&lib_file("ml", "crates/ml/src/lib.rs", &src));
            assert_eq!(lints_of(&result), ["waiver-syntax"], "{marker}");
            let fix = result.findings[0]
                .suggestion
                .as_deref()
                .expect("machine fix");
            assert_eq!(fix, format!("/// sfcheck:{marker}"));
        }
    }

    #[test]
    fn malformed_waivers_are_findings() {
        let src = "// sfcheck:allow(panic-hygiene)\n// sfcheck:allow(no-such-lint) reason\n// sfcheck:allow no parens\n";
        let file = lib_file("frame", "crates/frame/src/frame.rs", src);
        let result = scan_rust(&file);
        assert_eq!(
            lints_of(&result),
            ["waiver-syntax", "waiver-syntax", "waiver-syntax"]
        );
    }

    #[test]
    fn cfg_test_region_covers_nested_braces() {
        let src = r#"
fn lib(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    fn helper(v: Option<u32>) -> u32 {
        if true { v.unwrap() } else { 0 }
    }
}
fn lib2(v: Option<u32>) -> u32 { v.unwrap() }
"#;
        let file = lib_file("core", "crates/core/src/config.rs", src);
        let result = scan_rust(&file);
        // Only the two library fns fire; the test-module helper is exempt.
        assert_eq!(result.findings.len(), 2);
        assert_eq!(result.findings[0].line, 2);
        assert_eq!(result.findings[1].line, 9);
    }

    #[test]
    fn lint_counts_zero_fill_every_lint() {
        let counts = lint_counts(&[]);
        assert_eq!(counts.len(), LINT_IDS.len());
        assert!(counts.values().all(|&v| v == 0));
    }
}
