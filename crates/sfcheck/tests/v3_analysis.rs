//! The v3 cross-file lint, exercised end-to-end: seeded-random totality
//! for the whole analysis stack, and the `panic-reachability` finding of a
//! small on-disk workspace pinned through `run_check`.

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

/// The skeleton the soup plugs into: an rng crate with a seed fn and a
/// stream constructor, and a parallel runtime taking a closure.
const RNG_SRC: &str = "pub fn seed_jump(base: u64, index: u64) -> u64 { base }\n\
    pub struct Rng;\nimpl Rng { pub fn seed_from_u64(seed: u64) -> Rng { Rng } }";
const PAR_SRC: &str =
    "pub fn par_map<R, F>(threads: usize, items: usize, f: F) -> Vec<R> { vec![] }";

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
/// inspect: calls into other crates, closures, panic sites.
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

/// Write a small on-disk workspace whose public pipeline reaches an
/// `unwrap` in another crate, run the full `run_check` pipeline over it,
/// and pin the one finding: its position and its full message, call path
/// included.
#[test]
fn run_check_pins_the_panic_reachability_finding() {
    let root = std::env::temp_dir().join(format!("sfcheck-v3-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let files: &[(&str, &str)] = &[
        (
            "crates/ml/Cargo.toml",
            "[package]\nname = \"smartfeat-ml\"\n",
        ),
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"smartfeat\"\n",
        ),
        (
            "crates/ml/src/lib.rs",
            "/// Fits on a present value; panics on `None`.\n\
             pub fn fit(v: Option<u32>) -> u32 { v.unwrap() }\n",
        ),
        (
            "crates/core/src/pipeline.rs",
            "//! A pipeline that trips the cross-file dataflow lint.\n\
             use smartfeat_ml::fit;\n\
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

    let found: Vec<(&str, u32, u32, &str, &str)> = outcome
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.col, f.lint, f.message.as_str()))
        .collect();
    assert_eq!(
        found,
        [(
            "crates/ml/src/lib.rs",
            2,
            39,
            "panic-reachability",
            "`unwrap` is reachable from the public pipeline API via smartfeat::pipeline::run \
             → smartfeat_ml::fit; return a typed error or prove the invariant and waive with \
             a reason",
        )]
    );
}
