//! The gate itself, as a test: the repository must be sfcheck-clean, the
//! `--json` report must be byte-identical across runs and thread counts
//! (the tool's own output obeys the determinism contract it enforces),
//! and a bad command line is a tool error.

use std::path::{Path, PathBuf};
use std::process::Command;

use sfcheck::{run_check, CheckOptions};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/sfcheck sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn repository_is_clean() {
    let outcome = run_check(&CheckOptions::new(workspace_root())).expect("scan succeeds");
    assert!(
        outcome.clean(),
        "sfcheck found {} live finding(s); fix or waive them:\n{}",
        outcome.findings.len(),
        outcome
            .findings
            .iter()
            .map(sfcheck::report::human_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every waiver carries a reason (the scanner enforces it; assert the
    // repo actually exercises the mechanism rather than having zero).
    assert!(!outcome.waived.is_empty());
    assert!(outcome.waived.iter().all(|w| !w.reason.is_empty()));
}

#[test]
fn empty_root_is_a_tool_error_not_a_pass() {
    let err = run_check(&CheckOptions::new("/nonexistent/sfcheck-root"))
        .expect_err("a root with no manifests must not scan clean");
    assert!(err.message.contains("not a workspace root"));
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let opts = CheckOptions::new(workspace_root());
    let a = run_check(&opts).expect("first run").report.emit();
    let b = run_check(&opts).expect("second run").report.emit();
    assert_eq!(a, b, "report emission must be deterministic");
}

/// Run the CLI binary end-to-end over `root` with the given arguments
/// under a `SMARTFEAT_THREADS` setting, asserting the exit code. Uses the
/// binary cargo already built for this test run (`CARGO_BIN_EXE_*`), so
/// no nested cargo invocation fights over the target-dir lock.
fn run_cli(root: &Path, args: &[&str], threads: &str, want_exit: i32) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_sfcheck"))
        .args(args)
        .arg("--root")
        .arg(root)
        .env("SMARTFEAT_THREADS", threads)
        .output()
        .expect("sfcheck binary runs");
    assert_eq!(
        out.status.code(),
        Some(want_exit),
        "sfcheck {args:?} on {} under SMARTFEAT_THREADS={threads}:\n{}",
        root.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Golden matrix: the CLI binary, run end-to-end under different
/// `SMARTFEAT_THREADS` settings (1, 4, 8, then 1 again), must print
/// byte-identical JSON.
#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let root = workspace_root();
    let one = run_cli(&root, &["--json"], "1", 0);
    for threads in ["4", "8", "1"] {
        let again = run_cli(&root, &["--json"], threads, 0);
        assert_eq!(one, again, "--json differs between 1 and {threads} threads");
    }
    // Sanity: the output is the report, not an empty stream.
    assert!(String::from_utf8(one)
        .expect("output is UTF-8")
        .contains("\"summary\""));
}

/// The argv boundary: an unknown flag (including the removed report and
/// rewrite flags) and a `--root` without its directory are tool errors
/// (exit 2) that name the problem, before any scan runs.
#[test]
fn bad_arguments_exit_two_naming_the_problem() {
    for (args, message) in [
        (&["--sarif"][..], "unknown flag `--sarif`"),
        (&["--fix"][..], "unknown flag `--fix`"),
        (&["--fix-dry-run"][..], "unknown flag `--fix-dry-run`"),
        (&["--bogus"][..], "unknown flag `--bogus`"),
        (&["--root"][..], "--root requires a directory"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sfcheck"))
            .args(args)
            .output()
            .expect("sfcheck binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
