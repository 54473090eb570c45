//! Cross-file semantic lint over the symbol table and call graph.
//!
//! **`panic-reachability`** (waivable with the usual inline syntax): a
//! panic site (`unwrap`, string-`expect`, `panic!`, `unreachable!`,
//! `todo!`, `unimplemented!`) in non-test library code is transitively
//! reachable from the public `pipeline` API of the core crate. The message
//! carries the BFS call path, so the finding is explainable and the waiver
//! reviewable.
//!
//! Races in pool closures are not checked here: `par`'s `Sync`/`Send`
//! bounds and the workspace's `unsafe_code = "deny"` make them compile
//! errors (DESIGN.md §8). Neither are shared RNG streams across pool
//! items: the forest and extra-trees unit tests pin that every tree draws
//! its own stream (DESIGN.md §13).
//!
//! The analysis is conservative by construction — see DESIGN.md §11 for
//! the approximations (unambiguous method dispatch).

use crate::callgraph::CallGraph;
use crate::lints::Finding;
use crate::resolve::{FnId, Workspace};

fn finding_at(ws: &Workspace, file_idx: usize, pos: crate::ast::Pos, message: String) -> Finding {
    let file = &ws.files[file_idx];
    let snippet = file
        .text
        .lines()
        .nth(pos.line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    Finding {
        file: file.rel_path.clone(),
        line: pos.line,
        col: pos.col,
        lint: "panic-reachability",
        message,
        snippet,
    }
}

/// Run the cross-file lint: panic sites in non-test lib code reachable
/// from the core crate's public `pipeline` fns. Findings are sorted by
/// the caller.
pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let roots: Vec<FnId> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.is_pub
                && !f.is_test
                && ws.files[f.file].crate_name == "smartfeat"
                && f.module.first().map(String::as_str) == Some("pipeline")
        })
        .map(|(id, _)| id)
        .collect();
    let parent = cg.reachable_from(&roots);
    for &target in parent.keys() {
        let info = &ws.fns[target];
        if info.is_test || ws.files[info.file].class != crate::walker::FileClass::Lib {
            continue;
        }
        for site in &cg.panic_sites[target] {
            let path = cg.path_to(ws, &parent, target);
            out.push(finding_at(
                ws,
                info.file,
                site.pos,
                format!(
                    "`{}` is reachable from the public pipeline API via {}; return a typed \
                     error or prove the invariant and waive with a reason",
                    site.what,
                    path.join(" → ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::{classify, SourceFile};

    /// A miniature workspace: one consumer crate named `smartfeat`, so
    /// pipeline roots resolve.
    fn mini_ws(consumer: &str) -> (Workspace, CallGraph) {
        let manifests = vec![manifest("crates/core/Cargo.toml", "smartfeat")];
        let parsed = vec![file("crates/core/src/pipeline.rs", consumer)];
        let ws = crate::resolve::build(parsed, &manifests);
        let cg = crate::callgraph::build(&ws);
        (ws, cg)
    }

    fn file(rel: &str, text: &str) -> (SourceFile, crate::ast::File) {
        (
            SourceFile {
                rel_path: rel.to_string(),
                text: text.to_string(),
                class: classify(rel),
                crate_dir: crate::walker::crate_dir_of(rel),
            },
            parse(&lex(text)),
        )
    }

    fn manifest(rel: &str, name: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            text: format!("[package]\nname = \"{name}\"\n"),
            class: classify(rel),
            crate_dir: crate::walker::crate_dir_of(rel),
        }
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn panic_reachability_walks_the_call_graph() {
        let src = "pub fn run(v: Option<u32>) -> u32 { step(v) }\n\
                   fn step(v: Option<u32>) -> u32 { v.unwrap() }\n\
                   fn orphan(v: Option<u32>) -> u32 { v.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t(v: Option<u32>) -> u32 { v.unwrap() } }";
        let (ws, cg) = mini_ws(src);
        let findings = run(&ws, &cg);
        assert_eq!(lints_of(&findings), ["panic-reachability"]);
        assert!(
            findings[0].message.contains("smartfeat::pipeline::run"),
            "{}",
            findings[0].message
        );
        assert!(findings[0].message.contains("smartfeat::pipeline::step"));
    }
}
