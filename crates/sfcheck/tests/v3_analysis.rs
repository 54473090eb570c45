//! The v3 cross-file lints, exercised end-to-end: seeded-random totality
//! for the whole analysis stack, a hand-rolled fixture oracle for the
//! `determinism-taint` / `seed-stream-collision` /
//! `obs-volatile-discipline` verdicts, and a golden SARIF document pinned
//! for a workspace that trips all three.
//!
//! After an intentional lint or SARIF change, regenerate the golden with
//! `SFCHECK_BLESS=1 cargo test -p sfcheck --test v3_analysis`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sfcheck::resolve::Workspace;
use sfcheck::walker::{classify, crate_dir_of, SourceFile};
use sfcheck::{callgraph, dataflow, lexer, parser, resolve, streams, taint};
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
/// derivation fn, a blessed parallel runtime, a sink-bearing frame crate,
/// and an obs crate whose report handles its volatile field correctly.
const RNG_SRC: &str = "// sfcheck:seed-derivation\n\
    pub fn seed_jump(base: u64, index: u64) -> u64 { base }";
const PAR_SRC: &str = "// sfcheck:parallel-entry\n\
    pub fn par_map<R, F>(threads: usize, items: usize, f: F) -> Vec<R> { vec![] }\n\
    pub fn resolve_threads(req: usize) -> usize { req }";
const FRAME_SRC: &str = "// sfcheck:output-sink\npub fn write_csv(text: &str) {}";
const OBS_SRC: &str =
    "pub struct WorkStat {\n// sfcheck:volatile-field(ns)\npub ns: u64,\npub count: u64,\n}\n\
    pub struct Rec;\nimpl Rec {\n\
    // sfcheck:metrics-report\n\
    pub fn report(&self, v: WorkStat) -> u64 {\nlet a = v.count;\n\
    let b = pair(\"volatile\", v.ns);\na\n}\n}\n\
    pub fn pair(k: &str, v: u64) -> u64 { v }";

/// Build a seven-crate workspace: the skeleton above plus fixture files.
/// An `extra` entry whose path matches a skeleton file replaces it.
fn fixture_ws(extra: &[(&str, &str)]) -> Workspace {
    let manifests = vec![
        manifest("crates/core/Cargo.toml", "smartfeat"),
        manifest("crates/frame/Cargo.toml", "smartfeat-frame"),
        manifest("crates/ml/Cargo.toml", "smartfeat-ml"),
        manifest("crates/obs/Cargo.toml", "smartfeat-obs"),
        manifest("crates/par/Cargo.toml", "smartfeat-par"),
        manifest("crates/rng/Cargo.toml", "smartfeat-rng"),
        manifest("crates/util/Cargo.toml", "smartfeat-util"),
    ];
    let mut files: Vec<(String, String)> = vec![
        ("crates/rng/src/lib.rs".into(), RNG_SRC.into()),
        ("crates/par/src/lib.rs".into(), PAR_SRC.into()),
        ("crates/frame/src/csv.rs".into(), FRAME_SRC.into()),
        ("crates/obs/src/lib.rs".into(), OBS_SRC.into()),
    ];
    for (rel, text) in extra {
        if let Some(slot) = files.iter_mut().find(|(p, _)| p == rel) {
            slot.1 = (*text).to_string();
        } else {
            files.push(((*rel).to_string(), (*text).to_string()));
        }
    }
    let parsed = files
        .iter()
        .map(|(rel, text)| {
            let src = source(rel, text);
            let tree = parser::parse(&lexer::lex(text));
            (src, tree)
        })
        .collect();
    resolve::build(parsed, &manifests)
}

/// The v3 verdict for a fixture: both taint-family lints plus the stream
/// registry, as a sorted lint-id list (one entry per finding).
fn verdict(extra: &[(&str, &str)]) -> Vec<&'static str> {
    let ws = fixture_ws(extra);
    let mut findings = taint::run(&ws);
    findings.extend(streams::run(&ws));
    let mut lints: Vec<&'static str> = findings.iter().map(|f| f.lint).collect();
    lints.sort_unstable();
    lints
}

/// Rust-flavored fragments biased toward the constructs the v3 passes
/// inspect: sources, sinks, markers, derivation calls, annotations.
const FRAGMENTS: &[&str] = &[
    "fn f(",
    ") { ",
    "}",
    "let x = ",
    "std::env::var(\"K\")",
    "Instant::now()",
    "SystemTime::now()",
    "resolve_threads(0)",
    "HashMap::new()",
    ".iter()",
    "write_csv(",
    "seed_jump(seed, ",
    "STREAM + i",
    "// sfcheck:seed-stream(",
    "0..8)",
    "// sfcheck:output-sink",
    "// sfcheck:metrics-report",
    "// sfcheck:volatile-field(ns)",
    "// sfcheck:parallel-entry",
    "// sfcheck:seed-derivation",
    "const S: u64 = 7;",
    "impl R {",
    "match x {",
    "=> ",
    "|| ",
    "if let Ok(v) = ",
    "self.",
    "v.ns",
    "\"volatile\"",
    // Bindings and the control flow the passes walk.
    "let _ = ",
    "let g = ",
    "loop {",
    "return;",
    "break;",
    "continue;",
];

/// The whole v3 stack — resolve, call graph, dataflow, taint, streams —
/// is total on garbage: seeded token soup in a consumer crate must never
/// panic any pass.
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
        let ws = fixture_ws(&[("crates/core/src/lib.rs", soup.as_str())]);
        let cg = callgraph::build(&ws);
        let _ = dataflow::run(&ws, &cg);
        let _ = taint::run(&ws);
        let _ = streams::run(&ws);
    });
}

/// The fixture oracle: ~20 hand-verdicted workspaces. Each entry is the
/// fixture files plus the exact sorted lint-id list the v3 passes must
/// produce — derived by hand from the documented semantics, not from the
/// implementation.
#[test]
fn fixture_verdicts_match_hand_rolled_oracle() {
    type Fixture = (
        &'static str,
        &'static [(&'static str, &'static str)],
        &'static [&'static str],
    );
    const TAINT: &str = "determinism-taint";
    const STREAM: &str = "seed-stream-collision";
    const VOLATILE: &str = "obs-volatile-discipline";
    /// Reads the environment and hands it to the frame sink through
    /// `smartfeat_util::decorate`.
    const CORE_DECORATE_SRC: &str =
        "use smartfeat_frame::csv::write_csv;\nuse smartfeat_util::decorate;\n\
         pub fn dump() {\nlet p = std::env::var(\"OUT\").unwrap_or_default();\n\
         let d = decorate(p);\nwrite_csv(&d);\n}";
    /// A metrics report that leaks `ns` outside the volatile section but
    /// carries no annotation itself.
    const OBS_REPORT_SRC: &str = "pub struct WorkStat {\npub ns: u64,\n}\n\
         pub struct Rec;\nimpl Rec {\n\
         // sfcheck:metrics-report\n\
         pub fn report(&self, v: WorkStat) -> u64 {\nlet leak = v.ns;\nleak\n}\n}";
    const FIXTURES: &[Fixture] = &[
        (
            "env read flowing to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
                 let path = std::env::var(\"OUT\").unwrap_or_default();\nwrite_csv(&path);\n}",
            )],
            &[TAINT],
        ),
        (
            "pure data to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\n\
                 pub fn dump(rows: &str) {\nwrite_csv(rows);\n}",
            )],
            &[],
        ),
        (
            "Instant::now flowing to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
                 let t = std::time::Instant::now();\nwrite_csv(t);\n}",
            )],
            &[TAINT],
        ),
        (
            "SystemTime::now flowing to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
                 let t = SystemTime::now();\nwrite_csv(t);\n}",
            )],
            &[TAINT],
        ),
        (
            "thread count flowing to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\nuse smartfeat_par::resolve_threads;\n\
                 pub fn dump() {\nlet n = resolve_threads(0);\nwrite_csv(n);\n}",
            )],
            &[TAINT],
        ),
        (
            "hash-map iteration order flowing to a sink",
            &[(
                "crates/core/src/lib.rs",
                "use std::collections::HashMap;\nuse smartfeat_frame::csv::write_csv;\n\
                 pub fn dump() {\nlet table: HashMap<String, u64> = HashMap::new();\n\
                 let joined = join(table.iter());\nwrite_csv(&joined);\n}\n\
                 fn join(it: String) -> String { it }",
            )],
            &[TAINT],
        ),
        (
            "taint through a value-preserving helper",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\n\
                 fn pick() -> String { std::env::var(\"OUT\").unwrap_or_default() }\n\
                 pub fn dump() {\nlet path = pick();\nwrite_csv(&path);\n}",
            )],
            &[TAINT],
        ),
        (
            "taint through a sink-forwarding wrapper",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\n\
                 fn emit(text: &str) { write_csv(text) }\npub fn dump() {\n\
                 let path = std::env::var(\"OUT\").unwrap_or_default();\nemit(&path);\n}",
            )],
            &[TAINT],
        ),
        (
            "taint chain across three crates",
            &[
                (
                    "crates/util/src/lib.rs",
                    "pub fn decorate(s: String) -> String { s }",
                ),
                ("crates/core/src/lib.rs", CORE_DECORATE_SRC),
            ],
            &[TAINT],
        ),
        (
            "three-crate chain broken by a constant-returning middle crate",
            &[
                (
                    "crates/util/src/lib.rs",
                    "pub fn decorate(s: String) -> String { String::new() }",
                ),
                ("crates/core/src/lib.rs", CORE_DECORATE_SRC),
            ],
            &[],
        ),
        (
            "helper returning a constant drops taint",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
                 let t = std::env::var(\"MODE\").unwrap_or_default();\n\
                 let n = label(t);\nwrite_csv(&n);\n}\n\
                 fn label(t: String) -> String { String::new() }",
            )],
            &[],
        ),
        (
            "parallel-entry blessing launders the thread count",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_par::{par_map, resolve_threads};\n\
                 use smartfeat_frame::csv::write_csv;\npub fn pipeline(rows: usize) {\n\
                 let threads = resolve_threads(0);\n\
                 let out = par_map(threads, rows, |i| i);\nwrite_csv(out);\n}",
            )],
            &[],
        ),
        (
            "env read in a binary is interface, not taint",
            &[(
                "crates/core/src/main.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn main() {\n\
                 let path = std::env::var(\"OUT\").unwrap_or_default();\nwrite_csv(&path);\n}",
            )],
            &[],
        ),
        (
            "env read inside the par crate is sanctioned",
            &[(
                "crates/par/src/threads.rs",
                "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
                 let v = std::env::var(\"SMARTFEAT_THREADS\").unwrap_or_default();\n\
                 write_csv(&v);\n}",
            )],
            &[],
        ),
        (
            "tainted value into a non-sink stays local",
            &[(
                "crates/core/src/lib.rs",
                "pub fn tune() {\nlet t = std::env::var(\"MODE\").unwrap_or_default();\n\
                 let n = local(t);\n}\nfn local(t: String) -> usize { 0 }",
            )],
            &[],
        ),
        (
            "volatile field outside the volatile section",
            &[(
                "crates/obs/src/lib.rs",
                "pub struct WorkStat {\n// sfcheck:volatile-field(ns)\npub ns: u64,\n}\n\
                 pub struct Rec;\nimpl Rec {\n\
                 // sfcheck:metrics-report\n\
                 pub fn report(&self, v: WorkStat) -> u64 {\nlet leak = v.ns;\nleak\n}\n}",
            )],
            &[VOLATILE],
        ),
        (
            "volatile annotation in another obs file than the report",
            &[
                ("crates/obs/src/lib.rs", OBS_REPORT_SRC),
                (
                    "crates/obs/src/fields.rs",
                    "pub struct Stats {\n// sfcheck:volatile-field(ns)\npub ns: u64,\n}",
                ),
            ],
            &[VOLATILE],
        ),
        (
            "unannotated field in the report is clean",
            &[
                ("crates/obs/src/lib.rs", OBS_REPORT_SRC),
                (
                    "crates/obs/src/fields.rs",
                    "pub struct Stats {\npub ns: u64,\n}",
                ),
            ],
            &[],
        ),
        (
            "volatile field kept inside the volatile statement",
            &[("crates/core/src/lib.rs", "pub fn nothing() {}")],
            &[],
        ),
        (
            "disjoint constant streams",
            &[
                (
                    "crates/core/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\npub const A_STREAM: u64 = 101;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, A_STREAM) }",
                ),
                (
                    "crates/ml/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, 7) }",
                ),
            ],
            &[],
        ),
        (
            "equal stream constants in two crates collide",
            &[
                (
                    "crates/core/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\npub const A_STREAM: u64 = 101;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, A_STREAM) }",
                ),
                (
                    "crates/ml/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\npub const B_STREAM: u64 = 101;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, B_STREAM) }",
                ),
            ],
            &[STREAM, STREAM],
        ),
        (
            "dynamic stream argument without a reserved range",
            &[(
                "crates/ml/src/lib.rs",
                "use smartfeat_rng::seed_jump;\npub fn run(seed: u64, i: u64) -> u64 {\n\
                 seed_jump(seed, i)\n}",
            )],
            &[STREAM],
        ),
        (
            "annotated dynamic family is a single clean claim",
            &[(
                "crates/ml/src/lib.rs",
                "use smartfeat_rng::seed_jump;\npub fn run(seed: u64, i: u64) -> u64 {\n\
                 // sfcheck:seed-stream(0..100) per-tree streams\n\
                 seed_jump(seed, i)\n}",
            )],
            &[],
        ),
        (
            "declared range overlapping a constant claim",
            &[
                (
                    "crates/core/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, 50) }",
                ),
                (
                    "crates/ml/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\npub fn run(seed: u64, i: u64) -> u64 {\n\
                     // sfcheck:seed-stream(0..100) per-tree streams\n\
                     seed_jump(seed, i)\n}",
                ),
            ],
            &[STREAM, STREAM],
        ),
        (
            "derived namespaces never claim root indices",
            &[(
                "crates/core/src/lib.rs",
                "use smartfeat_rng::seed_jump;\npub const E_STREAM: u64 = 211;\n\
                 pub fn run(seed: u64, g: u64) -> u64 {\n\
                 seed_jump(seed_jump(seed, E_STREAM), g)\n}",
            )],
            &[],
        ),
        (
            "taint and stream collision fire independently",
            &[
                (
                    "crates/core/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\nuse smartfeat_frame::csv::write_csv;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, 31) }\n\
                     pub fn dump() {\nlet p = std::env::var(\"OUT\").unwrap_or_default();\n\
                     write_csv(&p);\n}",
                ),
                (
                    "crates/ml/src/lib.rs",
                    "use smartfeat_rng::seed_jump;\n\
                     pub fn run(seed: u64) -> u64 { seed_jump(seed, 31) }",
                ),
            ],
            &[TAINT, STREAM, STREAM],
        ),
    ];

    let mut failures = Vec::new();
    for (name, extra, expected) in FIXTURES {
        let got = verdict(extra);
        let mut want: Vec<&str> = expected.to_vec();
        want.sort_unstable();
        if got != want {
            failures.push(format!("{name}: expected {want:?}, got {got:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "oracle mismatches:\n{}",
        failures.join("\n")
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/sfcheck sits two levels below the workspace root")
        .to_path_buf()
}

/// Write a small on-disk workspace that trips all three v3 lints, run the
/// full `run_check` pipeline over it, and pin the SARIF document against
/// a golden. This is the end-to-end contract: positions, rule metadata,
/// and message text for the new lints are all frozen here.
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
            "crates/frame/Cargo.toml",
            "[package]\nname = \"smartfeat-frame\"\n",
        ),
        (
            "crates/obs/Cargo.toml",
            "[package]\nname = \"smartfeat-obs\"\n",
        ),
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"smartfeat\"\n",
        ),
        (
            "crates/ml/Cargo.toml",
            "[package]\nname = \"smartfeat-ml\"\n",
        ),
        ("crates/rng/src/lib.rs", RNG_SRC),
        ("crates/par/src/lib.rs", PAR_SRC),
        ("crates/frame/src/csv.rs", FRAME_SRC),
        (
            "crates/obs/src/lib.rs",
            "pub struct WorkStat {\n// sfcheck:volatile-field(ns)\npub ns: u64,\n}\n\
             pub struct Rec;\nimpl Rec {\n\
             // sfcheck:metrics-report\n\
             pub fn report(&self, v: WorkStat) -> u64 {\nlet leak = v.ns;\nleak\n}\n}",
        ),
        (
            "crates/core/src/lib.rs",
            "use smartfeat_rng::seed_jump;\nuse smartfeat_frame::csv::write_csv;\n\
             use smartfeat_par::resolve_threads;\n\
             pub fn run(seed: u64) -> u64 { seed_jump(seed, 41) }\n\
             pub fn dump() {\nlet n = resolve_threads(0);\nwrite_csv(n);\n}\n",
        ),
        (
            "crates/ml/src/lib.rs",
            "use smartfeat_rng::seed_jump;\n\
             pub fn run(seed: u64) -> u64 { seed_jump(seed, 41) }\n",
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
    for lint in [
        "determinism-taint",
        "seed-stream-collision",
        "obs-volatile-discipline",
    ] {
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
