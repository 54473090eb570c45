//! `sfcheck`: in-repo static analysis for the SMARTFEAT reproduction.
//!
//! The runtime test suite proves the repo's invariants hold *where a test
//! happens to exercise them*; `sfcheck` proves the source cannot express
//! the violation in the first place. It lexes every `.rs` file with a
//! hand-rolled lexer (no syn, no registry deps — hermetic-build policy),
//! reads every `Cargo.toml` for crate names, and reports typed diagnostics
//! as deterministic JSON through `frame::json`.
//!
//! See [`lints`] for the lint suite and its inline waivers, and DESIGN.md
//! §10 for the workflow.

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod fix;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod sarif;
pub mod taint;
pub mod walker;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use smartfeat_frame::json::JsonValue;

use lints::{Finding, Waived};

/// A tool-level failure (I/O, bad root) — distinct from lint
/// findings, which are data, not errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfError {
    /// What went wrong.
    pub message: String,
}

impl SfError {
    /// Wrap a message.
    pub fn new(message: impl Into<String>) -> SfError {
        SfError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SfError {}

/// Options for one check run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Include the `fixes` section for mechanical lints.
    pub fix_dry_run: bool,
}

impl CheckOptions {
    /// Default options for a root.
    pub fn new(root: impl Into<PathBuf>) -> CheckOptions {
        CheckOptions {
            root: root.into(),
            fix_dry_run: false,
        }
    }
}

/// Result of a check run.
#[derive(Debug)]
pub struct Outcome {
    /// Live findings (fail the gate).
    pub findings: Vec<Finding>,
    /// Waived findings with reasons.
    pub waived: Vec<Waived>,
    /// The full JSON report document.
    pub report: JsonValue,
    /// The SARIF 2.1.0 document for the same run.
    pub sarif: JsonValue,
}

impl Outcome {
    /// True when the gate passes (no live findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run every lint over the workspace at `opts.root`.
///
/// Two phases. The **per-file phase** — lex, token lints, waiver
/// collection, and the full AST parse — is embarrassingly parallel and
/// runs on the `smartfeat_par` ordered pool (`SMARTFEAT_THREADS`
/// honored), so output order is a function of the sorted walk, never of
/// scheduling. The **global phase** is serial: it builds the workspace
/// symbol table and call graph from the per-file ASTs, runs the
/// [`dataflow`] and [`taint`] passes, merges their findings
/// back into each file's stream, and only then applies that file's
/// waivers — one waiver mechanism for token and cross-file lints alike.
pub fn run_check(opts: &CheckOptions) -> Result<Outcome, SfError> {
    let sources = walker::rust_sources(&opts.root)?;
    let manifests = walker::manifests(&opts.root)?;
    if manifests.is_empty() {
        // A scan that finds nothing is a misconfigured root (wrong --root,
        // CI checkout mishap), not a clean repository.
        return Err(SfError::new(format!(
            "no Cargo.toml under {} — not a workspace root?",
            opts.root.display()
        )));
    }
    let files_scanned = sources.len();
    let manifests_scanned = manifests.len();

    // Per-file phase, parallel and ordered.
    let threads = smartfeat_par::resolve_threads(0);
    let scans = smartfeat_par::par_map(threads, &sources, |file| {
        let tokens = lexer::lex(&file.text);
        (parser::parse(&tokens), lints::scan_rust_raw(file, &tokens))
    });
    let (parsed, mut raw_by_file): (Vec<_>, Vec<_>) = sources
        .into_iter()
        .zip(scans)
        .map(|(source, (tree, raw))| ((source, tree), raw))
        .unzip();

    // Global phase: symbol table, call graph, then the cross-file passes,
    // whose findings are filed under the file they land in.
    let ws = resolve::build(parsed, &manifests);
    let cg = callgraph::build(&ws);
    let index_of: BTreeMap<&str, usize> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel_path.as_str(), i))
        .collect();
    let mut global = dataflow::run(&ws, &cg);
    global.extend(taint::run(&ws));
    for finding in global {
        if let Some(&i) = index_of.get(finding.file.as_str()) {
            raw_by_file[i].0.push(finding);
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut waived: Vec<Waived> = Vec::new();
    for (raw, waivers) in raw_by_file {
        let mut result = lints::apply_waivers(raw, &waivers);
        findings.append(&mut result.findings);
        waived.append(&mut result.waived);
    }
    // The walk is sorted, but sort again so the report order is a
    // contract of the output, not an accident of scan order.
    findings.sort();
    waived.sort();

    let input = report::ReportInput {
        findings: &findings,
        waived: &waived,
        files_scanned,
        manifests_scanned,
        fix_dry_run: opts.fix_dry_run,
    };
    let report = report::build(&input);
    let sarif = sarif::build(&input);
    Ok(Outcome {
        findings,
        waived,
        report,
        sarif,
    })
}

/// The workspace root enclosing `start` (nearest `[workspace]` manifest).
pub fn workspace_root_from(start: &Path) -> Result<PathBuf, SfError> {
    walker::find_workspace_root(start)
        .ok_or_else(|| SfError::new(format!("no [workspace] manifest above {}", start.display())))
}
