//! The gate itself, as a test: the repository must be sfcheck-clean, and
//! the `--json` report must be byte-identical across runs and thread
//! counts (the tool's own output obeys the determinism contract it
//! enforces).

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

/// Run `flag` over the repository at 1, 4 and 8 threads plus a repeat
/// at 1, assert all four outputs are byte-identical, and return the
/// output as text.
fn thread_matrix(flag: &str) -> String {
    let root = workspace_root();
    let one = run_cli(&root, &[flag], "1", 0);
    for threads in ["4", "8", "1"] {
        let again = run_cli(&root, &[flag], threads, 0);
        assert_eq!(one, again, "{flag} differs between 1 and {threads} threads");
    }
    String::from_utf8(one).expect("output is UTF-8")
}

/// Golden matrix: the CLI binary, run end-to-end under different
/// `SMARTFEAT_THREADS` settings, must print byte-identical JSON.
#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let text = thread_matrix("--json");
    // Sanity: the output is the report, not an empty stream.
    assert!(text.contains("\"summary\""));
}

/// Same matrix for the SARIF document: byte-identical across repeated
/// runs and across thread counts, and structurally a SARIF 2.1.0 file.
#[test]
fn sarif_document_is_byte_identical_across_thread_counts() {
    let text = thread_matrix("--sarif");
    assert!(text.contains("\"version\":\"2.1.0\""));
    assert!(text.contains("\"name\":\"sfcheck\""));
}
