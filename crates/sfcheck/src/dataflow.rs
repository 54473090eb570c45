//! Cross-file semantic lints over the symbol table and call graph: the
//! determinism dataflow pass.
//!
//! Two lints run here (both waivable with the usual inline syntax):
//!
//! - **`rng-seed-discipline`** — an `Rng`/`SplitMix64` constructor runs
//!   inside a parallel-region closure with a seed that is not derived
//!   per item: the argument neither calls a `// sfcheck:seed-derivation`
//!   fn (`smartfeat_rng::seed_jump`), nor mentions the closure's
//!   parameters, nor indexes a precomputed seed table. A shared stream
//!   across pool items makes output depend on scheduling order.
//! - **`panic-reachability`** — a panic site (`unwrap`, string-`expect`,
//!   `panic!`, `unreachable!`, `todo!`, `unimplemented!`) in non-test
//!   library code is transitively reachable from the public `pipeline`
//!   API of the core crate. The message carries the BFS call path, so
//!   the finding is explainable and the waiver reviewable.
//!
//! Races in pool closures are not checked here: `par`'s `Sync`/`Send`
//! bounds and the workspace's `unsafe_code = "deny"` make them compile
//! errors (DESIGN.md §8).
//!
//! The analysis is conservative by construction — see DESIGN.md §11 for
//! the approximations (unambiguous method dispatch, one-level
//! seed-argument dataflow).

use std::collections::BTreeSet;

use crate::ast::Expr;
use crate::callgraph::CallGraph;
use crate::lints::Finding;
use crate::resolve::{FnId, Workspace};

/// Marker naming sanctioned parallel entry points (`crates/par`).
const PARALLEL_ENTRY: &str = "parallel-entry";
/// Marker naming sanctioned seed-derivation fns (`crates/rng`).
const SEED_DERIVATION: &str = "seed-derivation";

/// Run all cross-file lints; findings are sorted by the caller.
pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let entries: BTreeSet<FnId> = ws.marked(PARALLEL_ENTRY).into_iter().collect();
    let derivations: BTreeSet<FnId> = ws.marked(SEED_DERIVATION).into_iter().collect();
    seed_discipline_lint(ws, cg, &entries, &derivations, &mut out);
    panic_reachability_lint(ws, cg, &mut out);
    out
}

/// Find parallel-entry call sites, then check the rng constructors of
/// each closure argument.
fn seed_discipline_lint(
    ws: &Workspace,
    cg: &CallGraph,
    entries: &BTreeSet<FnId>,
    derivations: &BTreeSet<FnId>,
    out: &mut Vec<Finding>,
) {
    for id in 0..ws.fns.len() {
        let info = &ws.fns[id];
        if info.is_test {
            continue;
        }
        let Some(body) = ws.body_of(id) else { continue };
        crate::ast::walk_block(body, &mut |e| {
            let (is_entry, args): (bool, &[Expr]) = match e {
                Expr::Call(c) => {
                    if let Expr::Path(p) = &*c.callee {
                        let resolved = ws.resolve_path(
                            info.file,
                            &info.module,
                            info.impl_ty.as_deref(),
                            &p.segments,
                        );
                        (resolved.iter().any(|t| entries.contains(t)), &c.args)
                    } else {
                        (false, &c.args)
                    }
                }
                Expr::MethodCall(m) => {
                    let resolved = ws
                        .methods
                        .get(&m.method)
                        .filter(|c| c.len() == 1)
                        .map(|c| c[0]);
                    (resolved.is_some_and(|t| entries.contains(&t)), &m.args)
                }
                _ => (false, &[]),
            };
            if !is_entry {
                return;
            }
            for arg in args {
                if let Expr::Closure(closure) = arg {
                    check_seed_discipline(ws, cg, derivations, id, closure, out);
                }
            }
        });
    }
}

fn finding_at(
    ws: &Workspace,
    file_idx: usize,
    pos: crate::ast::Pos,
    lint: &'static str,
    message: String,
) -> Finding {
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
        lint,
        message,
        snippet,
        suggestion: None,
    }
}

/// Constructor names in `smartfeat_rng` that start a stream.
fn is_rng_ctor(ws: &Workspace, target: FnId) -> bool {
    let f = &ws.fns[target];
    ws.files[f.file].crate_name == "smartfeat_rng"
        && matches!(f.name.as_str(), "seed_from_u64" | "new" | "from_seed")
        && f.impl_ty.is_some()
}

/// Is this expression an acceptable per-item seed derivation inside the
/// given closure? True when it calls a marked derivation fn, mentions a
/// closure parameter, or indexes into a precomputed table.
fn seed_is_derived(
    ws: &Workspace,
    derivations: &BTreeSet<FnId>,
    fn_id: FnId,
    closure: &crate::ast::ClosureExpr,
    arg: &Expr,
) -> bool {
    let info = &ws.fns[fn_id];
    let mut ok = false;
    arg.walk(&mut |e| match e {
        Expr::Call(c) => {
            if let Expr::Path(p) = &*c.callee {
                let resolved = ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                );
                if resolved.iter().any(|t| derivations.contains(t)) {
                    ok = true;
                }
            }
        }
        Expr::Index(_) => ok = true,
        Expr::Path(p) if p.segments.len() == 1 && closure.params.contains(&p.segments[0]) => {
            ok = true;
        }
        _ => {}
    });
    ok
}

fn check_seed_discipline(
    ws: &Workspace,
    cg: &CallGraph,
    derivations: &BTreeSet<FnId>,
    fn_id: FnId,
    closure: &crate::ast::ClosureExpr,
    out: &mut Vec<Finding>,
) {
    let info = &ws.fns[fn_id];
    // Direct constructors inside the closure body.
    closure.body.walk(&mut |e| {
        if let Expr::Call(c) = e {
            if let Expr::Path(p) = &*c.callee {
                let resolved = ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                );
                if resolved.iter().any(|t| is_rng_ctor(ws, *t))
                    && !c
                        .args
                        .first()
                        .is_some_and(|a| seed_is_derived(ws, derivations, fn_id, closure, a))
                {
                    out.push(finding_at(
                        ws,
                        info.file,
                        e.pos(),
                        "rng-seed-discipline",
                        format!(
                            "rng constructor `{}` inside a parallel-region closure with a seed \
                             that is not derived per item; derive it from the item index via \
                             `smartfeat_rng::seed_jump` (or an indexed seed table) so streams \
                             are independent of scheduling",
                            p.segments.join("::")
                        ),
                    ));
                }
            }
        }
    });
    // Constructors in fns reachable from the closure body: flag only
    // seeds that mention neither the callee's parameters (deferring the
    // derivation to this call site) nor a derivation fn / index.
    let mut roots: Vec<FnId> = Vec::new();
    closure.body.walk(&mut |e| {
        if let Expr::Call(c) = e {
            if let Expr::Path(p) = &*c.callee {
                roots.extend(ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                ));
            }
        }
    });
    let reachable = cg.reachable_from(&roots);
    for &target in reachable.keys() {
        let tinfo = &ws.fns[target];
        if tinfo.is_test {
            continue;
        }
        let Some(body) = ws.body_of(target) else {
            continue;
        };
        crate::ast::walk_block(body, &mut |e| {
            if let Expr::Call(c) = e {
                if let Expr::Path(p) = &*c.callee {
                    let resolved = ws.resolve_path(
                        tinfo.file,
                        &tinfo.module,
                        tinfo.impl_ty.as_deref(),
                        &p.segments,
                    );
                    if !resolved.iter().any(|t| is_rng_ctor(ws, *t)) {
                        return;
                    }
                    let arg_ok = c.args.first().is_some_and(|a| {
                        let mut ok = false;
                        a.walk(&mut |sub| match sub {
                            Expr::Call(inner) => {
                                if let Expr::Path(ip) = &*inner.callee {
                                    let r = ws.resolve_path(
                                        tinfo.file,
                                        &tinfo.module,
                                        tinfo.impl_ty.as_deref(),
                                        &ip.segments,
                                    );
                                    if r.iter().any(|t| derivations.contains(t)) {
                                        ok = true;
                                    }
                                }
                            }
                            Expr::Index(_) => ok = true,
                            Expr::Path(p) => {
                                let head = &p.segments[0];
                                if head == "self"
                                    || tinfo.params.iter().any(|prm| prm.name == *head)
                                {
                                    ok = true;
                                }
                            }
                            Expr::Field(f) => {
                                if let Expr::Path(p) = &*f.base {
                                    if p.segments.first().map(String::as_str) == Some("self") {
                                        ok = true;
                                    }
                                }
                            }
                            _ => {}
                        });
                        ok
                    });
                    if !arg_ok {
                        out.push(finding_at(
                            ws,
                            tinfo.file,
                            e.pos(),
                            "rng-seed-discipline",
                            format!(
                                "rng constructor `{}` in `{}` (reachable from a parallel-region \
                                 closure) uses a fixed seed; thread it from the caller's \
                                 per-item derivation instead",
                                p.segments.join("::"),
                                tinfo.qname
                            ),
                        ));
                    }
                }
            }
        });
    }
}

/// Panic sites in non-test lib code reachable from the core crate's
/// public `pipeline` fns.
fn panic_reachability_lint(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Finding>) {
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
    if roots.is_empty() {
        return;
    }
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
                "panic-reachability",
                format!(
                    "`{}` is reachable from the public pipeline API via {}; return a typed \
                     error or prove the invariant and waive with a reason",
                    site.what,
                    path.join(" → ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::{classify, SourceFile};

    /// A miniature workspace with a marked par crate, a marked rng crate,
    /// and a consumer crate named `smartfeat` (so pipeline roots resolve).
    fn mini_ws(consumer: &str) -> (Workspace, CallGraph) {
        let manifests = vec![
            manifest("crates/par/Cargo.toml", "smartfeat-par"),
            manifest("crates/rng/Cargo.toml", "smartfeat-rng"),
            manifest("crates/core/Cargo.toml", "smartfeat"),
        ];
        let parsed = vec![
            file(
                "crates/par/src/lib.rs",
                "// sfcheck:parallel-entry\npub fn par_map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R> { vec![] }\n\
                 pub struct Scope;\nimpl Scope {\n// sfcheck:parallel-entry\npub fn spawn<F>(&self, f: F) {}\n}",
            ),
            file(
                "crates/rng/src/lib.rs",
                "// sfcheck:seed-derivation\npub fn seed_jump(base: u64, index: u64) -> u64 { base }\n\
                 pub struct Rng;\nimpl Rng { pub fn seed_from_u64(seed: u64) -> Rng { Rng } }",
            ),
            file("crates/core/src/pipeline.rs", consumer),
        ];
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
    fn fixed_seed_in_closure_flagged_derived_seed_clean() {
        let src = "use smartfeat_par::par_map_indexed;\nuse smartfeat_rng::{seed_jump, Rng};\n\
                   pub fn bad(n: usize, seed: u64) {\n\
                   par_map_indexed(4, n, |i| { let r = Rng::seed_from_u64(seed); i });\n}\n\
                   pub fn good(n: usize, seed: u64) {\n\
                   par_map_indexed(4, n, |i| { let r = Rng::seed_from_u64(seed_jump(seed, i as u64)); i });\n}\n\
                   pub fn table(n: usize, seeds: &[u64]) {\n\
                   par_map_indexed(4, n, |i| { let r = Rng::seed_from_u64(seeds[i]); i });\n}";
        let (ws, cg) = mini_ws(src);
        let findings = run(&ws, &cg);
        assert_eq!(lints_of(&findings), ["rng-seed-discipline"]);
        assert_eq!(findings[0].line, 4, "only the underived seed fires");
    }

    #[test]
    fn reachable_fixed_seed_constructor_is_flagged() {
        let src = "use smartfeat_par::par_map_indexed;\nuse smartfeat_rng::Rng;\n\
                   fn helper_fixed() { let r = Rng::seed_from_u64(42); }\n\
                   fn helper_param(seed: u64) { let r = Rng::seed_from_u64(seed); }\n\
                   pub fn run(n: usize) {\n\
                   par_map_indexed(4, n, |i| { helper_fixed(); helper_param(i as u64); i });\n}";
        let (ws, cg) = mini_ws(src);
        let findings = run(&ws, &cg);
        assert_eq!(lints_of(&findings), ["rng-seed-discipline"]);
        assert!(findings[0].message.contains("helper_fixed"));
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

    #[test]
    fn spawn_method_closures_are_checked() {
        let src = "use smartfeat_rng::Rng;\n\
                   pub fn run(s: &smartfeat_par::Scope, seed: u64) {\n\
                   s.spawn(|| { let r = Rng::seed_from_u64(seed); });\n}";
        let (ws, cg) = mini_ws(src);
        let findings = run(&ws, &cg);
        assert_eq!(lints_of(&findings), ["rng-seed-discipline"]);
    }
}
