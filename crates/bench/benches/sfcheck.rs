//! Analyzer benchmarks for the sfcheck v3/v4 pipeline: per-file
//! lex+parse throughput, the cross-file passes (symbol resolution, call
//! graph, dataflow, taint, stream registry, lock discipline) over a
//! synthetic workspace, the lock pass's per-fn walks on a lock-heavy
//! tree, and one end-to-end `run_check` over a small on-disk workspace.
//! The blessed medians live in
//! `BENCH_PR10.json` (regenerate with `SMARTFEAT_BENCH_JSON=$PWD/BENCH_PR10.json
//! cargo bench -p smartfeat-bench --bench sfcheck`); CI's bench-smoke job
//! checks the benchmark set still matches that file's line count.
//!
//! ci-baseline: BENCH_PR10.json

use std::path::PathBuf;

use sfcheck::walker::{classify, crate_dir_of, SourceFile};
use sfcheck::{
    callgraph, dataflow, lexer, locks, parser, resolve, run_check, streams, taint, CheckOptions,
};
use smartfeat_bench::{criterion_group, criterion_main, Criterion};

/// A taint-flavored module body: sources, a helper chain, and a sink
/// call, so the benched text exercises the constructs the passes model.
const MODULE_TEMPLATE: &str = "\
pub fn source_NNN() -> String {\n\
    let raw = std::env::var(\"SMARTFEAT_KNOB\").unwrap_or_default();\n\
    decorate_NNN(raw)\n\
}\n\
pub fn decorate_NNN(s: String) -> String {\n\
    let mut out = String::new();\n\
    for part in s.split(',') {\n\
        out.push_str(part.trim());\n\
    }\n\
    out\n\
}\n\
pub fn dump_NNN(rows: &[u64]) {\n\
    let text: Vec<String> = rows.iter().map(|r| r.to_string()).collect();\n\
    write_csv(&text.join(\"\\n\"));\n\
}\n";

/// `count` template instances concatenated, names uniqued per instance.
fn synthetic_module(count: usize) -> String {
    let mut text = String::from("// sfcheck:output-sink\npub fn write_csv(text: &str) {}\n");
    for i in 0..count {
        text.push_str(&MODULE_TEMPLATE.replace("NNN", &i.to_string()));
    }
    text
}

fn source(rel: &str, text: String) -> SourceFile {
    SourceFile {
        rel_path: rel.to_string(),
        text,
        class: classify(rel),
        crate_dir: crate_dir_of(rel),
    }
}

fn manifest(rel: &str, name: &str) -> SourceFile {
    source(rel, format!("[package]\nname = \"{name}\"\n"))
}

/// A lock-flavored module body: a per-instance static acquired before
/// the shared one, plus a relay holding the shared lock across a call,
/// so every body carries live guards through the per-fn held-set walk.
const LOCK_TEMPLATE: &str = "\
static GATE_NNN: Mutex<u64> = Mutex::new(0);\n\
pub fn stage_NNN() {\n\
    let a = GATE_NNN.lock().unwrap();\n\
    let b = SHARED.lock().unwrap();\n\
    drop(b);\n\
    drop(a);\n\
}\n\
pub fn relay_NNN() {\n\
    let g = SHARED.lock().unwrap();\n\
    stage_NNN();\n\
    drop(g);\n\
}\n";

/// `count` lock-template instances behind one shared static.
fn synthetic_lock_module(count: usize) -> String {
    let mut text =
        String::from("use std::sync::Mutex;\nstatic SHARED: Mutex<u64> = Mutex::new(0);\n");
    for i in 0..count {
        text.push_str(&LOCK_TEMPLATE.replace("NNN", &i.to_string()));
    }
    text
}

fn bench_per_file(c: &mut Criterion) {
    let text = synthetic_module(64);
    c.bench_function("perfile/lex_parse_64_fns", |b| {
        b.iter(|| {
            let tokens = lexer::lex(&text);
            let tree = parser::parse(&tokens);
            (tokens.len(), tree.items.len())
        })
    });
}

/// The serial cross-file phase on an eight-file, four-crate workspace:
/// everything `run_check` does after the parallel per-file scans.
fn bench_global_passes(c: &mut Criterion) {
    let manifests = vec![
        manifest("crates/core/Cargo.toml", "smartfeat"),
        manifest("crates/frame/Cargo.toml", "smartfeat-frame"),
        manifest("crates/ml/Cargo.toml", "smartfeat-ml"),
        manifest("crates/rng/Cargo.toml", "smartfeat-rng"),
    ];
    let files: Vec<SourceFile> = (0..8)
        .map(|i| {
            let dir = ["core", "frame", "ml", "rng"][i % 4];
            source(&format!("crates/{dir}/src/mod{i}.rs"), synthetic_module(16))
        })
        .collect();
    c.bench_function("global/passes_8_files", |b| {
        b.iter(|| {
            let parsed = files
                .iter()
                .map(|f| (f.clone(), parser::parse(&lexer::lex(&f.text))))
                .collect();
            let ws = resolve::build(parsed, &manifests);
            let cg = callgraph::build(&ws);
            let mut findings = dataflow::run(&ws, &cg);
            findings.extend(taint::run(&ws));
            findings.extend(streams::run(&ws));
            findings.extend(locks::run(&ws, &cg));
            findings.len()
        })
    });
}

/// The lock pass alone — one held-set walk per fn — on an eight-file
/// lock-heavy workspace (resolution and call graph prebuilt, so only
/// `locks::run` is timed). The label predates the AST walk and is kept
/// so the bench history in `BENCH_PR10.json` stays comparable.
fn bench_lock_fixpoint(c: &mut Criterion) {
    let manifests = vec![
        manifest("crates/core/Cargo.toml", "smartfeat"),
        manifest("crates/frame/Cargo.toml", "smartfeat-frame"),
        manifest("crates/ml/Cargo.toml", "smartfeat-ml"),
        manifest("crates/rng/Cargo.toml", "smartfeat-rng"),
    ];
    let parsed = (0..8)
        .map(|i| {
            let dir = ["core", "frame", "ml", "rng"][i % 4];
            let f = source(
                &format!("crates/{dir}/src/mod{i}.rs"),
                synthetic_lock_module(16),
            );
            let tree = parser::parse(&lexer::lex(&f.text));
            (f, tree)
        })
        .collect();
    let ws = resolve::build(parsed, &manifests);
    let cg = callgraph::build(&ws);
    c.bench_function("locks/fixpoint_8_files", |b| {
        b.iter(|| locks::run(&ws, &cg).len())
    });
}

/// On-disk fixture for the end-to-end run; lives under the system temp
/// dir so `cargo bench` never writes into the repo tree.
fn write_fixture() -> PathBuf {
    let root = std::env::temp_dir().join(format!("sfcheck-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\n".to_string(),
        ),
        (
            "crates/frame/Cargo.toml",
            "[package]\nname = \"smartfeat-frame\"\n".to_string(),
        ),
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"smartfeat\"\n".to_string(),
        ),
        ("crates/frame/src/lib.rs", synthetic_module(32)),
        ("crates/core/src/lib.rs", synthetic_module(32)),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, text).expect("write fixture");
    }
    root
}

fn bench_end_to_end(c: &mut Criterion) {
    let root = write_fixture();

    c.bench_function("run_check/full", |b| {
        let opts = CheckOptions::new(&root);
        b.iter(|| run_check(&opts).expect("fixture scan runs").waived.len())
    });

    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    benches,
    bench_per_file,
    bench_global_passes,
    bench_lock_fixpoint,
    bench_end_to_end
);
criterion_main!(benches);
