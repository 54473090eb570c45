//! Guards for the hermetic-build policy: the workspace must build with
//! zero registry dependencies, so `cargo build && cargo test` works
//! offline with an empty Cargo registry.
//!
//! Layers, cheapest first:
//! 1. `manifests_declare_only_path_dependencies` — scans every
//!    `Cargo.toml` (root, members, and the `perfbench` workspace) and
//!    fails on any dependency that is not a `path` dependency (or
//!    `workspace = true` inheritance of one). This is the repository's
//!    only static hermetic check.
//! 2. `cargo_metadata_resolves_offline_with_empty_cargo_home` — asks
//!    cargo to resolve the full dependency graph offline against a clean
//!    `CARGO_HOME`; any registry dependency fails resolution.
//! 3. `full_build_succeeds_offline` (`#[ignore]`, run explicitly with
//!    `cargo test --test hermetic -- --ignored`) — a complete
//!    `cargo build --offline` in a scratch target directory. Too slow for
//!    every test run, but the definitive end-to-end check.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // tests/ lives directly under the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn manifest_paths() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut out = vec![root.join("Cargo.toml"), root.join("perfbench/Cargo.toml")];
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let dir = entry.expect("readable dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(
        out.len() >= 13,
        "expected root + perfbench + member manifests, got {out:?}"
    );
    out
}

/// Minimal line-oriented scan of a manifest's dependency tables. Returns
/// `(table, dependency-line)` pairs for entries that are neither `path`
/// dependencies nor `workspace = true` inheritance.
fn non_path_dependencies(manifest: &str) -> Vec<(String, String)> {
    let mut offenders = Vec::new();
    let mut table = String::new();
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            table = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let in_dep_table = table == "workspace.dependencies"
            || table == "dependencies"
            || table == "dev-dependencies"
            || table == "build-dependencies"
            || table.ends_with(".dependencies")
            || table.ends_with(".dev-dependencies")
            || table.ends_with(".build-dependencies");
        if !in_dep_table {
            continue;
        }
        // `name = { path = "..." }`, `name.workspace = true`, and
        // `name = { workspace = true }` are the only allowed shapes.
        // A bare version (`name = "1.0"`) or any `version`/`git` key is a
        // registry/network dependency.
        let ok = line.contains("path =")
            || line.contains("path=")
            || line.contains("workspace = true")
            || line.contains("workspace=true");
        if !ok {
            offenders.push((table.clone(), line.to_string()));
        }
    }
    offenders
}

#[test]
fn manifests_declare_only_path_dependencies() {
    for manifest in manifest_paths() {
        let text = fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let offenders = non_path_dependencies(&text);
        assert!(
            offenders.is_empty(),
            "{} declares non-path dependencies (hermetic-build policy: \
             std-only, zero registry deps): {offenders:?}",
            manifest.display()
        );
    }
}

#[test]
fn manifest_scan_catches_registry_dependencies() {
    // The scanner itself must flag the shapes the policy forbids …
    let bad = "[dependencies]\nserde = \"1.0\"\n\
               [dev-dependencies]\nproptest = { version = \"1\", default-features = false }\n";
    assert_eq!(non_path_dependencies(bad).len(), 2);
    // … and accept the allowed ones.
    let good = "[package]\nname = \"x\"\nversion = \"1.0\"\n\
                [dependencies]\nsmartfeat-rng = { path = \"../rng\" }\n\
                smartfeat-frame.workspace = true\n";
    assert_eq!(non_path_dependencies(good), vec![]);
}

#[test]
fn registry_line_planted_in_perfbench_manifest_is_caught() {
    let path = workspace_root().join("perfbench/Cargo.toml");
    assert!(manifest_paths().contains(&path), "perfbench is scanned");
    let text = fs::read_to_string(&path).expect("read perfbench manifest");
    assert_eq!(non_path_dependencies(&text), vec![]);
    let planted = text.replacen("[dependencies]\n", "[dependencies]\nserde = \"1.0\"\n", 1);
    assert_ne!(planted, text, "perfbench declares a [dependencies] table");
    assert_eq!(
        non_path_dependencies(&planted),
        vec![("dependencies".to_string(), "serde = \"1.0\"".to_string())]
    );
}

/// A scratch directory unique to this process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smartfeat-hermetic-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn cargo_metadata_resolves_offline_with_empty_cargo_home() {
    let cargo_home = scratch_dir("home");
    let output = Command::new(env!("CARGO"))
        .args(["metadata", "--format-version", "1", "--offline", "--locked"])
        .current_dir(workspace_root())
        .env("CARGO_HOME", &cargo_home)
        .output()
        .expect("spawn cargo metadata");
    let _ = fs::remove_dir_all(&cargo_home);
    assert!(
        output.status.success(),
        "cargo metadata --offline failed with an empty CARGO_HOME — a \
         registry dependency crept in:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Every package in the resolved graph must come from this workspace
    // (path dependencies have `"source": null` in cargo metadata).
    let stdout = String::from_utf8_lossy(&output.stdout);
    let meta = smartfeat_repro::frame::json::JsonValue::parse(&stdout)
        .expect("cargo metadata emits valid JSON");
    let packages = meta
        .get("packages")
        .and_then(|p| p.as_array())
        .expect("packages array");
    assert!(!packages.is_empty());
    for pkg in packages {
        let name = pkg.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        assert_eq!(
            pkg.get("source"),
            Some(&smartfeat_repro::frame::json::JsonValue::Null),
            "package {name} resolves from a registry, not a workspace path"
        );
    }
}

#[test]
#[ignore = "full offline build; slow — run with: cargo test --test hermetic -- --ignored"]
fn full_build_succeeds_offline() {
    let cargo_home = scratch_dir("build-home");
    let target_dir = scratch_dir("build-target");
    let output = Command::new(env!("CARGO"))
        .args(["build", "--offline", "--workspace"])
        .current_dir(workspace_root())
        .env("CARGO_HOME", &cargo_home)
        .env("CARGO_TARGET_DIR", &target_dir)
        .output()
        .expect("spawn cargo build");
    let _ = fs::remove_dir_all(&cargo_home);
    let _ = fs::remove_dir_all(&target_dir);
    assert!(
        output.status.success(),
        "cargo build --offline failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
