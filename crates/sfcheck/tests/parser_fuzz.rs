//! Parser robustness and golden-AST pinning.
//!
//! Two contracts:
//!
//! 1. **Total on garbage** — `lex` + `parse` are fed seeded random token
//!    soup (printable ASCII, newlines, multi-byte chars, and Rust-flavored
//!    fragments) and must never panic; every token's byte span must
//!    round-trip through the source.
//! 2. **Stable on real code** — `ast::dump` of five representative
//!    workspace files is pinned against goldens under `tests/goldens/`.
//!    The sources are frozen copies under `tests/fixtures/` (the `.txt`
//!    suffix keeps them out of the workspace walker and cargo), so edits
//!    to the live files never move the goldens. After an intentional
//!    parser change, regenerate with
//!    `SFCHECK_BLESS=1 cargo test -p sfcheck --test parser_fuzz`.

use std::path::Path;

use sfcheck::{ast, lexer, parser};
use smartfeat_rng::check;

/// Rust-flavored fragments the plain `arbitrary_text` generator would
/// almost never assemble: unbalanced delimiters, keyword runs, raw
/// strings, attribute and macro shapes.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "impl ",
    "let mut ",
    "match ",
    "move |x| ",
    "::<",
    "..=",
    "r#\"",
    "\"#",
    "#[cfg(",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "'a",
    "=> ",
    "macro!(",
    "unsafe ",
    "//",
    "/*",
    "*/",
    "b\"",
    "\\",
];

#[test]
fn parse_never_panics_on_token_soup() {
    check::cases(512, |rng| {
        let mut src = String::new();
        for _ in 0..rng.gen_range(0..24u32) {
            if rng.gen_bool(0.4) {
                src.push_str(check::arbitrary_text(rng, 12).as_str());
            } else {
                src.push_str(rng.choose(FRAGMENTS).expect("non-empty"));
            }
        }
        let tokens = lexer::lex(&src);
        // Span round-trip: every token's byte span slices the source at
        // char boundaries and (modulo the documented prefix-dropping for
        // raw idents/lifetimes) reconstructs the token.
        for t in &tokens {
            let span = t.span();
            assert!(
                span.end <= src.len() && src.is_char_boundary(span.start),
                "token span {span:?} out of bounds or off-boundary in {src:?}"
            );
            assert!(src.is_char_boundary(span.end));
            let slice = &src[span];
            assert!(
                slice.ends_with(t.text.as_str()) || slice.starts_with(t.text.as_str()),
                "span slice {slice:?} does not contain token text {:?}",
                t.text
            );
        }
        // The parser is total: garbage parses to *some* tree.
        let _tree = parser::parse(&tokens);
    });
}

/// The five pinned sources under `tests/fixtures/`, frozen copies of
/// one file per layer the lints reason about (rng derivation, parallel
/// runtime, JSON emission, the pipeline itself, and sfcheck's own AST —
/// deeply nested generics and matches). Each is named after its original
/// path with `/` spelled `__`.
const GOLDEN_FILES: &[&str] = &[
    "crates__rng__src__lib.rs.txt",
    "crates__par__src__lib.rs.txt",
    "crates__frame__src__json.rs.txt",
    "crates__core__src__pipeline.rs.txt",
    "crates__sfcheck__src__ast.rs.txt",
];

#[test]
fn golden_ast_dumps_are_stable() {
    let tests = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    // sfcheck:allow(env-dependence) test-only bless knob; never reaches pipeline output
    let bless = std::env::var("SFCHECK_BLESS").is_ok();
    let mut mismatches = Vec::new();
    for name in GOLDEN_FILES {
        let src = std::fs::read_to_string(tests.join("fixtures").join(name))
            .expect("golden source fixture exists");
        let dump = ast::dump(&parser::parse(&lexer::lex(&src)));
        let golden_path = tests
            .join("goldens")
            .join(name.replace(".rs.txt", ".ast.txt"));
        if bless {
            std::fs::create_dir_all(golden_path.parent().expect("parent")).expect("mkdir");
            std::fs::write(&golden_path, &dump).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; regenerate with SFCHECK_BLESS=1",
                golden_path.display()
            )
        });
        if dump != expected {
            mismatches.push(name.to_string());
        }
    }
    assert!(
        mismatches.is_empty(),
        "AST dump drifted for {mismatches:?}; if intentional, regenerate with \
         SFCHECK_BLESS=1 cargo test -p sfcheck --test parser_fuzz"
    );
}

#[test]
fn dump_is_deterministic_for_identical_input() {
    check::cases(32, |rng| {
        let src = format!(
            "pub fn f_{}(x: u32) -> u32 {{ x + {} }}",
            rng.gen_range(0..1000u32),
            rng.gen_range(0..1000u32)
        );
        let a = ast::dump(&parser::parse(&lexer::lex(&src)));
        let b = ast::dump(&parser::parse(&lexer::lex(&src)));
        assert_eq!(a, b);
    });
}
