//! The gate itself, as a test: the repository must be sfcheck-clean, and
//! the `--json` report must be byte-identical across runs and thread
//! counts (the tool's own output obeys the determinism contract it
//! enforces). The same matrix runs over a fixture tripping every lock
//! lint, and `--write-baseline` is checked end to end.

use std::path::{Path, PathBuf};
use std::process::Command;

use sfcheck::{run_check, CheckOptions};
use smartfeat_frame::json::JsonValue;

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
    // The shipped baseline is empty: nothing is grandfathered.
    assert!(
        outcome.baselined.is_empty(),
        "the checked-in baseline must stay empty"
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

/// Run `flag` at 1, 4 and 8 threads plus a repeat at 1, assert all four
/// outputs are byte-identical, and return the output as text.
fn thread_matrix(root: &Path, flag: &str, want_exit: i32) -> String {
    let one = run_cli(root, &[flag], "1", want_exit);
    for threads in ["4", "8", "1"] {
        let again = run_cli(root, &[flag], threads, want_exit);
        assert_eq!(one, again, "{flag} differs between 1 and {threads} threads");
    }
    String::from_utf8(one).expect("output is UTF-8")
}

/// Golden matrix: the CLI binary, run end-to-end under different
/// `SMARTFEAT_THREADS` settings, must print byte-identical JSON.
#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let text = thread_matrix(&workspace_root(), "--json", 0);
    // Sanity: the output is the report, not an empty stream.
    assert!(text.contains("\"summary\""));
}

/// Same matrix for the SARIF document: byte-identical across repeated
/// runs and across thread counts, and structurally a SARIF 2.1.0 file.
#[test]
fn sarif_document_is_byte_identical_across_thread_counts() {
    let text = thread_matrix(&workspace_root(), "--sarif", 0);
    assert!(text.contains("\"version\":\"2.1.0\""));
    assert!(text.contains("\"name\":\"sfcheck\""));
}

/// A throwaway workspace root with one `app` crate holding `files`.
fn fixture_root(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sfcheck-gate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/app/src")).expect("mkdir");
    std::fs::write(
        root.join("crates/app/Cargo.toml"),
        "[package]\nname = \"app\"\n",
    )
    .expect("write manifest");
    for (rel, text) in files {
        std::fs::write(root.join(rel), text).expect("write fixture");
    }
    root
}

/// Trips all three lock lints: a double lock (`twice`), a blocking join
/// under a guard (`held`), and a discarded guard (`forgotten`).
const LOCK_FIXTURE: &str = "use std::sync::Mutex;
static ALPHA: Mutex<u64> = Mutex::new(0);
pub fn twice() {
    let a = ALPHA.lock().unwrap();
    let b = ALPHA.lock().unwrap();
    drop(b);
    drop(a);
}
pub fn held(worker: std::thread::JoinHandle<()>) {
    let a = ALPHA.lock().unwrap();
    let _r = worker.join();
    drop(a);
}
pub fn forgotten() {
    let _ = ALPHA.lock();
}
";

/// The lock lints through the release binary: all three fire live, and
/// both documents are byte-identical at every thread count.
#[test]
fn lock_fixture_is_byte_identical_across_thread_counts() {
    let root = fixture_root(
        "locks",
        &[
            ("crates/app/src/lib.rs", LOCK_FIXTURE),
            (
                "crates/app/src/plain.rs",
                "pub fn plain(n: u64) -> u64 { n + 1 }\n",
            ),
        ],
    );
    let json = thread_matrix(&root, "--json", 1);
    let sarif = thread_matrix(&root, "--sarif", 1);
    let _ = std::fs::remove_dir_all(&root);
    for lint in ["double-lock", "held-lock-blocking", "guard-discipline"] {
        let quoted = format!("\"{lint}\"");
        assert!(json.contains(&quoted), "report lacks {lint}:\n{json}");
        assert!(sarif.contains(&quoted), "SARIF lacks {lint}");
    }
}

/// `summary.<key>` of an emitted JSON report.
fn summary_count(report: &[u8], key: &str) -> u64 {
    let text = std::str::from_utf8(report).expect("report is UTF-8");
    JsonValue::parse(text)
        .expect("report parses")
        .get("summary")
        .and_then(|s| s.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("report has summary.{key}"))
}

/// Rewriting the baseline keeps the findings it already covered: with
/// finding A baselined and a new finding B live, `--write-baseline` must
/// record both, so the next run is clean with two baselined.
#[test]
fn write_baseline_keeps_already_baselined_findings() {
    let wall = "pub fn a() -> std::time::Instant { std::time::Instant::now() }\n";
    let root = fixture_root("baseline", &[("crates/app/src/lib.rs", wall)]);
    run_cli(&root, &["--write-baseline"], "1", 0);
    let first = run_cli(&root, &["--json"], "1", 0);
    assert_eq!(summary_count(&first, "baselined"), 1);

    let env = "pub fn b() -> Option<String> { std::env::var(\"B\").ok() }\n";
    std::fs::write(root.join("crates/app/src/lib.rs"), format!("{wall}{env}")).expect("edit");
    let before = run_cli(&root, &["--json"], "1", 1);
    assert_eq!(summary_count(&before, "findings"), 1);
    assert_eq!(summary_count(&before, "baselined"), 1);

    run_cli(&root, &["--write-baseline"], "1", 0);
    let after = run_cli(&root, &["--json"], "1", 0);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(summary_count(&after, "findings"), 0);
    assert_eq!(summary_count(&after, "baselined"), 2);
}
