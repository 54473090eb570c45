//! Real-code mutation suite: each test copies the workspace's crate
//! sources and manifests into a temp directory, plants one plausible
//! regression in real repository code, runs the full `run_check`
//! pipeline, and asserts that the named lint fires in the edited file.
//! A cross-file lint that no plausible edit can trip is a candidate for
//! deletion, so each one keeps a test here. The edits anchor on live
//! source text: when a refactor moves an anchor, the test fails naming
//! it, and the mutation is re-planted on the new code.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use sfcheck::{run_check, CheckOptions};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/sfcheck sits two levels below the workspace root")
        .to_path_buf()
}

/// A copy of the workspace under the system temp dir, removed on drop
/// (also when an assertion fails).
struct TempCopy(PathBuf);

impl Drop for TempCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies made so far by this process; numbers each copy's directory so
/// concurrent tests planting the same lint never share one.
static COPIES: AtomicUsize = AtomicUsize::new(0);

/// Copy `crates/**/{*.rs,Cargo.toml}` and the root manifest into a fresh
/// directory named after `name`, unique per call.
fn copy_workspace(name: &str) -> TempCopy {
    let dst = std::env::temp_dir().join(format!(
        "sfcheck-mutation-{name}-{}-{}",
        std::process::id(),
        COPIES.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dst);
    let src = workspace_root();
    copy_crates(&src.join("crates"), &dst.join("crates"));
    std::fs::copy(src.join("Cargo.toml"), dst.join("Cargo.toml")).expect("copy root manifest");
    TempCopy(dst)
}

fn copy_crates(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read crate dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                copy_crates(&path, &to.join(name));
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            std::fs::create_dir_all(to).expect("mkdir");
            std::fs::copy(&path, to.join(name)).expect("copy source");
        }
    }
}

/// Replace the first `anchor` in `rel` with `replacement` in a fresh copy,
/// run the checker, and assert `lint` fires live in `rel`.
fn assert_fires(lint: &str, rel: &str, anchor: &str, replacement: &str) {
    let copy = copy_workspace(lint);
    let path = copy.0.join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
    assert!(
        text.contains(anchor),
        "mutation anchor not found in {rel}: `{anchor}`"
    );
    std::fs::write(&path, text.replacen(anchor, replacement, 1)).expect("plant mutation");
    let outcome = run_check(&CheckOptions::new(&copy.0)).expect("scan runs");
    assert!(
        outcome
            .findings
            .iter()
            .any(|f| f.lint == lint && f.file == rel),
        "{lint} did not fire in {rel}; live findings:\n{}",
        outcome
            .findings
            .iter()
            .map(sfcheck::report::human_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

const CASCADE: &str = "crates/fm/src/cascade.rs";
const EVALUATE: &str = "crates/core/src/evaluate.rs";

#[test]
fn unmutated_copy_is_clean() {
    let copy = copy_workspace("clean");
    let outcome = run_check(&CheckOptions::new(&copy.0)).expect("scan runs");
    assert!(
        outcome.clean(),
        "the copied workspace must scan clean before any mutation:\n{}",
        outcome
            .findings
            .iter()
            .map(sfcheck::report::human_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
#[should_panic(expected = "`no such anchor text`")]
fn missing_anchor_fails_naming_the_anchor() {
    assert_fires("lock-confinement", CASCADE, "no such anchor text", "");
}

#[test]
fn mutex_field_in_the_cascade_is_lock_confinement() {
    assert_fires(
        "lock-confinement",
        CASCADE,
        "routing: RefCell<RoutingSnapshot>,",
        "routing: std::sync::Mutex<RoutingSnapshot>,",
    );
}

#[test]
fn unwrap_in_candidate_check_is_panic_reachable() {
    assert_fires(
        "panic-reachability",
        EVALUATE,
        "let null_fraction = col.null_fraction();",
        "let null_fraction = Some(col.null_fraction()).unwrap();",
    );
}
