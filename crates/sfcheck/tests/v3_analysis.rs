//! The v3 cross-file lints, exercised end-to-end: seeded-random totality
//! for the whole analysis stack, and a golden SARIF document pinned for a
//! workspace that trips both cross-file dataflow lints
//! (`rng-seed-discipline` and `panic-reachability`).
//!
//! After an intentional lint or SARIF change, regenerate the golden with
//! `SFCHECK_BLESS=1 cargo test -p sfcheck --test v3_analysis`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sfcheck::resolve::Workspace;
use sfcheck::walker::{classify, crate_dir_of, SourceFile};
use sfcheck::{callgraph, dataflow, lexer, parser, resolve};
use smartfeat_rng::check;

fn source(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel_path: rel.to_string(),
        text: text.to_string(),
        class: classify(rel),
        crate_dir: crate_dir_of(rel),
    }
}

fn manifest(rel: &str, name: &str) -> SourceFile {
    source(rel, &format!("[package]\nname = \"{name}\"\n"))
}

/// The skeleton the fixtures plug into: an rng crate exporting the
/// derivation fn and a stream constructor, and a blessed parallel runtime.
const RNG_SRC: &str = "// sfcheck:seed-derivation\n\
    pub fn seed_jump(base: u64, index: u64) -> u64 { base }\n\
    pub struct Rng;\nimpl Rng { pub fn seed_from_u64(seed: u64) -> Rng { Rng } }";
const PAR_SRC: &str = "// sfcheck:parallel-entry\n\
    pub fn par_map<R, F>(threads: usize, items: usize, f: F) -> Vec<R> { vec![] }";

/// Build a three-crate workspace: the skeleton above plus `pipeline` as
/// the core crate's `pipeline` module, whose public fns are the
/// `panic-reachability` roots.
fn fixture_ws(pipeline: &str) -> Workspace {
    let manifests = vec![
        manifest("crates/core/Cargo.toml", "smartfeat"),
        manifest("crates/par/Cargo.toml", "smartfeat-par"),
        manifest("crates/rng/Cargo.toml", "smartfeat-rng"),
    ];
    let parsed = [
        ("crates/rng/src/lib.rs", RNG_SRC),
        ("crates/par/src/lib.rs", PAR_SRC),
        ("crates/core/src/pipeline.rs", pipeline),
    ]
    .into_iter()
    .map(|(rel, text)| (source(rel, text), parser::parse(&lexer::lex(text))))
    .collect();
    resolve::build(parsed, &manifests)
}

/// Rust-flavored fragments biased toward the constructs the v3 passes
/// inspect: parallel entries, rng constructors, derivation calls, panic
/// sites, markers.
const FRAGMENTS: &[&str] = &[
    "fn f(",
    "pub fn run(",
    ") { ",
    "}",
    "let x = ",
    ".iter()",
    "par_map(4, n, |i| ",
    "Rng::seed_from_u64(",
    "seed_jump(seed, ",
    ".unwrap()",
    ".expect(\"x\")",
    "panic!(\"x\")",
    "// sfcheck:parallel-entry",
    "// sfcheck:seed-derivation",
    "const S: u64 = 7;",
    "impl R {",
    "match x {",
    "=> ",
    "|| ",
    "if let Ok(v) = ",
    "self.",
    // Bindings and the control flow the passes walk.
    "let _ = ",
    "let g = ",
    "loop {",
    "return;",
    "break;",
    "continue;",
];

/// The whole v3 stack — resolve, call graph, dataflow — is total on
/// garbage: seeded token soup in the core crate's pipeline module must
/// never panic any pass.
#[test]
fn v3_passes_never_panic_on_token_soup() {
    check::cases(256, |rng| {
        let mut soup = String::new();
        for _ in 0..rng.gen_range(0..32u32) {
            if rng.gen_bool(0.3) {
                soup.push_str(check::arbitrary_text(rng, 10).as_str());
            } else {
                soup.push_str(rng.choose(FRAGMENTS).expect("non-empty"));
            }
            if rng.gen_bool(0.3) {
                soup.push('\n');
            }
        }
        let ws = fixture_ws(&soup);
        let cg = callgraph::build(&ws);
        let _ = dataflow::run(&ws, &cg);
    });
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/sfcheck sits two levels below the workspace root")
        .to_path_buf()
}

/// Write a small on-disk workspace that trips both cross-file dataflow
/// lints, run the full `run_check` pipeline over it, and pin the SARIF
/// document against a golden. This is the end-to-end contract: positions,
/// rule metadata, and message text (including the panic path) are all
/// frozen here.
#[test]
fn sarif_golden_for_v3_lints() {
    let root = std::env::temp_dir().join(format!("sfcheck-v3-sarif-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let files: &[(&str, &str)] = &[
        (
            "crates/rng/Cargo.toml",
            "[package]\nname = \"smartfeat-rng\"\n",
        ),
        (
            "crates/par/Cargo.toml",
            "[package]\nname = \"smartfeat-par\"\n",
        ),
        (
            "crates/ml/Cargo.toml",
            "[package]\nname = \"smartfeat-ml\"\n",
        ),
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"smartfeat\"\n",
        ),
        ("crates/rng/src/lib.rs", RNG_SRC),
        ("crates/par/src/lib.rs", PAR_SRC),
        (
            "crates/ml/src/lib.rs",
            "/// Fits on a present value; panics on `None`.\n\
             pub fn fit(v: Option<u32>) -> u32 { v.unwrap() }\n",
        ),
        (
            "crates/core/src/pipeline.rs",
            "//! A pipeline that trips both cross-file dataflow lints.\n\
             use smartfeat_ml::fit;\n\
             use smartfeat_par::par_map;\n\
             use smartfeat_rng::Rng;\n\
             /// Every item shares one stream: an rng-seed-discipline finding.\n\
             pub fn shared(n: usize, seed: u64) {\n\
             let out = par_map(4, n, |i| { let r = Rng::seed_from_u64(seed); i });\n}\n\
             /// Reaches the unwrap in `ml`: a panic-reachability finding.\n\
             pub fn run(v: Option<u32>) -> u32 { fit(v) }\n",
        ),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, text).expect("write fixture");
    }

    let outcome =
        sfcheck::run_check(&sfcheck::CheckOptions::new(&root)).expect("fixture scan runs");
    let _ = std::fs::remove_dir_all(&root);

    let lints: BTreeSet<&str> = outcome.findings.iter().map(|f| f.lint).collect();
    for lint in ["panic-reachability", "rng-seed-discipline"] {
        assert!(
            lints.contains(lint),
            "fixture must trip {lint}, got {lints:?}"
        );
    }
    let sarif = outcome.sarif.emit();
    let golden_path = workspace_root().join("crates/sfcheck/tests/goldens/v3_lints.sarif.json");
    // sfcheck:allow(env-dependence) test-only bless knob; never reaches pipeline output
    if std::env::var("SFCHECK_BLESS").is_ok() {
        std::fs::write(&golden_path, &sarif).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with SFCHECK_BLESS=1",
            golden_path.display()
        )
    });
    assert_eq!(
        sarif, expected,
        "v3 SARIF drifted; if intentional, regenerate with \
         SFCHECK_BLESS=1 cargo test -p sfcheck --test v3_analysis"
    );
}
