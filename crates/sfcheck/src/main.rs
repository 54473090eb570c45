//! `sfcheck` CLI.
//!
//! ```text
//! cargo run -p sfcheck --                 # human output, exit 1 on findings
//! cargo run -p sfcheck -- --json          # deterministic JSON report
//! cargo run -p sfcheck -- --sarif         # SARIF 2.1.0 document
//! cargo run -p sfcheck -- --fix-dry-run   # include mechanical fixes in the report
//! cargo run -p sfcheck -- --fix           # apply mechanical fixes to the tree
//! cargo run -p sfcheck -- --write-baseline  # record current findings as the baseline
//! ```
//!
//! Exit codes: `0` clean (or fully baselined/waived), `1` live findings,
//! `2` tool error (I/O, malformed baseline, bad flags).

use std::path::PathBuf;
use std::process::ExitCode;

use sfcheck::baseline::Baseline;
use sfcheck::report::human_line;
use sfcheck::{fix, run_check, workspace_root_from, CheckOptions, SfError};

struct Cli {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: bool,
    sarif: bool,
    fix_dry_run: bool,
    fix: bool,
    write_baseline: bool,
}

fn parse_args() -> Result<Cli, SfError> {
    let mut cli = Cli {
        root: None,
        baseline: None,
        json: false,
        sarif: false,
        fix_dry_run: false,
        fix: false,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--sarif" => cli.sarif = true,
            "--fix-dry-run" => cli.fix_dry_run = true,
            "--fix" => cli.fix = true,
            "--write-baseline" => cli.write_baseline = true,
            "--root" => {
                cli.root =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        SfError::new("--root requires a directory argument")
                    })?));
            }
            "--baseline" => {
                cli.baseline =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        SfError::new("--baseline requires a path argument")
                    })?));
            }
            "--help" | "-h" => {
                println!(
                    "sfcheck: repo-invariant static analysis\n\
                     \n\
                     USAGE: sfcheck [--root DIR] [--baseline PATH] [--json] [--sarif] \
                     [--fix-dry-run] [--fix] [--write-baseline]\n\
                     \n\
                     Exit codes: 0 clean, 1 live findings, 2 tool error."
                );
                std::process::exit(0);
            }
            other => return Err(SfError::new(format!("unknown flag `{other}`"))),
        }
    }
    if cli.json && cli.sarif {
        return Err(SfError::new("--json and --sarif are mutually exclusive"));
    }
    Ok(cli)
}

fn run() -> Result<bool, SfError> {
    let cli = parse_args()?;
    let root = match cli.root {
        Some(r) => r,
        None => {
            let cwd =
                std::env::current_dir().map_err(|e| SfError::new(format!("current dir: {e}")))?;
            workspace_root_from(&cwd)?
        }
    };
    let mut opts = CheckOptions::new(root.clone());
    opts.baseline_path = cli.baseline;
    opts.fix_dry_run = cli.fix_dry_run;

    let outcome = run_check(&opts)?;

    if cli.fix {
        // Apply to live and baselined findings alike: a legacy finding
        // with a mechanical fix should get fixed, not preserved.
        let mut targets = outcome.findings.clone();
        targets.extend(outcome.baselined.iter().cloned());
        let fixed = fix::apply(&root, &targets)?;
        for note in &fixed.skipped {
            eprintln!("sfcheck: fix skipped: {note}");
        }
        println!(
            "sfcheck: applied {} fix(es) in {} file(s)",
            fixed.applied, fixed.files_changed
        );
        // Re-check so the gate reflects the tree as rewritten.
        let after = run_check(&opts)?;
        let remaining = after
            .findings
            .iter()
            .chain(after.baselined.iter())
            .filter(|f| f.suggestion.is_some())
            .count();
        if remaining > 0 {
            return Err(SfError::new(format!(
                "{remaining} machine-applicable finding(s) survived --fix"
            )));
        }
        return Ok(after.clean());
    }

    if cli.write_baseline {
        let path = opts
            .baseline_path
            .clone()
            .unwrap_or_else(|| root.join("sfcheck.baseline.json"));
        // Record every unwaived finding, not just the live ones: a finding
        // the old baseline already covered must stay covered.
        let mut all = outcome.findings;
        all.extend(outcome.baselined);
        all.sort();
        let doc = Baseline::to_json(&all).emit();
        std::fs::write(&path, doc + "\n")
            .map_err(|e| SfError::new(format!("write baseline {}: {e}", path.display())))?;
        eprintln!(
            "sfcheck: wrote {} finding(s) to {}",
            all.len(),
            path.display()
        );
        return Ok(true);
    }

    if cli.sarif {
        println!("{}", outcome.sarif.emit());
    } else if cli.json {
        println!("{}", outcome.report.emit());
    } else {
        for f in &outcome.findings {
            println!("{}", human_line(f));
        }
        let summary = &outcome.report;
        let stat = |k: &str| {
            summary
                .get("summary")
                .and_then(|s| s.get(k))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        println!(
            "sfcheck: {} finding(s), {} baselined, {} waived ({} files, {} manifests)",
            stat("findings"),
            stat("baselined"),
            stat("waived"),
            stat("files_scanned"),
            stat("manifests_scanned"),
        );
    }
    Ok(outcome.clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sfcheck: error: {e}");
            ExitCode::from(2)
        }
    }
}
