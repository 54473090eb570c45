//! `sfcheck` CLI.
//!
//! ```text
//! cargo run -p sfcheck --                 # human output, exit 1 on findings
//! cargo run -p sfcheck -- --json          # deterministic JSON report
//! ```
//!
//! Exit codes: `0` clean (every finding waived inline), `1` live findings,
//! `2` tool error (I/O, bad root, bad flags).

use std::path::PathBuf;
use std::process::ExitCode;

use sfcheck::report::human_line;
use sfcheck::{run_check, workspace_root_from, CheckOptions, SfError};

struct Cli {
    root: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Cli, SfError> {
    let mut cli = Cli {
        root: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--root" => {
                cli.root =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        SfError::new("--root requires a directory argument")
                    })?));
            }
            "--help" | "-h" => {
                println!(
                    "sfcheck: repo-invariant static analysis\n\
                     \n\
                     USAGE: sfcheck [--root DIR] [--json]\n\
                     \n\
                     Exit codes: 0 clean, 1 live findings, 2 tool error."
                );
                std::process::exit(0);
            }
            other => return Err(SfError::new(format!("unknown flag `{other}`"))),
        }
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
    let outcome = run_check(&CheckOptions::new(root))?;

    if cli.json {
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
            "sfcheck: {} finding(s), {} waived ({} files, {} manifests)",
            stat("findings"),
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
