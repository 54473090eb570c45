//! Conservative call graph over the [`crate::resolve::Workspace`] symbol
//! table.
//!
//! Edges come from two sources:
//!
//! - **Path calls** (`f(…)`, `a::b::f(…)`, `Ty::assoc(…)`) resolved with
//!   [`crate::resolve::Workspace::resolve_path`]. Multi-segment paths used
//!   as values (function references passed to combinators) also produce
//!   edges; single-segment bare names only do so in call position, so a
//!   local variable sharing a fn name does not fabricate an edge.
//! - **Method calls** (`x.f(…)`) under the *unambiguous-dispatch* rule:
//!   an edge is added only when exactly one non-test impl-associated fn in
//!   the entire workspace has that name. Ambiguous names produce no edge,
//!   and neither do names std types also provide (`STD_METHOD_NAMES`:
//!   `load`, `lock`, `parse`, …) — the approximation trades recall for
//!   zero-noise reachability reports (DESIGN.md §11).
//!
//! Alongside edges, each function records its panic sites (`unwrap`,
//! string-`expect`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`)
//! so the `panic-reachability` lint can walk roots → sites with an
//! explainable path.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::{Expr, Pos};
use crate::resolve::{FnId, Workspace};

/// Method names common on std types (atomics, locks, iterators,
/// collections, `str`). A workspace fn that happens to share one of these
/// names is *not* the unambiguous dispatch target of `x.name(…)` — the
/// receiver is far more likely a std value (`AtomicU64::load` vs a
/// workspace `load`), so these names never produce method edges.
const STD_METHOD_NAMES: [&str; 24] = [
    "clone", "cmp", "default", "drain", "eq", "fmt", "from", "get", "insert", "into", "iter",
    "len", "load", "lock", "new", "next", "parse", "push", "read", "send", "store", "swap", "take",
    "write",
];

/// One panic-capable expression inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What panics: `unwrap`, `expect`, or a macro name with `!`.
    pub what: String,
    /// Line/column of the site.
    pub pos: Pos,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// `edges[f]`: sorted, deduplicated callee IDs of function `f`.
    pub edges: Vec<Vec<FnId>>,
    /// `panic_sites[f]`: panic-capable sites inside `f`, in source order.
    pub panic_sites: Vec<Vec<PanicSite>>,
}

/// Build the call graph for every function in the workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut edges = Vec::with_capacity(ws.fns.len());
    let mut panic_sites = Vec::with_capacity(ws.fns.len());
    for id in 0..ws.fns.len() {
        let (e, p) = analyze_fn(ws, id);
        edges.push(e);
        panic_sites.push(p);
    }
    CallGraph { edges, panic_sites }
}

fn analyze_fn(ws: &Workspace, id: FnId) -> (Vec<FnId>, Vec<PanicSite>) {
    let info = &ws.fns[id];
    let Some(body) = ws.body_of(id) else {
        return (Vec::new(), Vec::new());
    };
    let file = &ws.files[info.file];
    let mut callees: BTreeSet<FnId> = BTreeSet::new();
    let mut sites: Vec<PanicSite> = Vec::new();
    crate::ast::walk_block(body, &mut |e| match e {
        Expr::Call(c) => {
            if let Expr::Path(p) = &*c.callee {
                for target in ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                ) {
                    if target != id {
                        callees.insert(target);
                    }
                }
            }
        }
        Expr::Path(p) if p.segments.len() >= 2 => {
            // Fn reference used as a value (`map(parse_row)` etc.). The
            // callee-position duplicate of a direct call dedupes here.
            for target in ws.resolve_path(
                info.file,
                &info.module,
                info.impl_ty.as_deref(),
                &p.segments,
            ) {
                if target != id {
                    callees.insert(target);
                }
            }
        }
        Expr::MethodCall(m) => {
            if !STD_METHOD_NAMES.contains(&m.method.as_str()) {
                if let Some(cands) = ws.methods.get(&m.method) {
                    if cands.len() == 1 && cands[0] != id {
                        callees.insert(cands[0]);
                    }
                }
            }
            match m.method.as_str() {
                "unwrap" if m.args.is_empty() => sites.push(PanicSite {
                    what: "unwrap".into(),
                    pos: m.pos,
                }),
                "expect" if m.args.len() == 1 && is_string_arg(&m.args[0], &file.text) => {
                    sites.push(PanicSite {
                        what: "expect".into(),
                        pos: m.pos,
                    });
                }
                _ => {}
            }
        }
        Expr::Macro(mac) => {
            if let Some(last) = mac.segments.last() {
                if matches!(
                    last.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) {
                    sites.push(PanicSite {
                        what: format!("{last}!"),
                        pos: mac.pos,
                    });
                }
            }
        }
        _ => {}
    });
    sites.sort_by_key(|s| (s.pos.line, s.pos.col));
    (callees.into_iter().collect(), sites)
}

/// `expect(arg)` only panics with a message when `arg` is a string — a
/// byte/char argument is a parser-style `expect` method. Checked against
/// the source bytes at the argument's span.
fn is_string_arg(arg: &Expr, text: &str) -> bool {
    if let Expr::Lit(l) = arg {
        let bytes = text.as_bytes();
        let at = l.span.start as usize;
        return match bytes.get(at) {
            Some(b'"') => true,
            Some(b'r') => matches!(bytes.get(at + 1), Some(b'"') | Some(b'#')),
            _ => false,
        };
    }
    // Non-literal expect arguments (formatted messages) count as panics.
    !matches!(arg, Expr::Lit(_))
}

impl CallGraph {
    /// BFS from `roots`, returning each reachable fn mapped to its BFS
    /// parent (`roots` map to themselves). Deterministic: the queue is
    /// seeded with sorted roots and edges are stored sorted.
    pub fn reachable_from(&self, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
        let mut sorted_roots: Vec<FnId> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in &sorted_roots {
            if r < self.edges.len() && !parent.contains_key(&r) {
                parent.insert(r, r);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(callee) {
                    slot.insert(f);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// The call path `root → … → target` implied by a BFS parent map,
    /// rendered as qualified names.
    pub fn path_to(
        &self,
        ws: &Workspace,
        parent: &BTreeMap<FnId, FnId>,
        target: FnId,
    ) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = target;
        let mut guard = 0usize;
        while let Some(&p) = parent.get(&cur) {
            path.push(ws.fns[cur].qname.clone());
            if p == cur || guard > self.edges.len() {
                break;
            }
            cur = p;
            guard += 1;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::{classify, SourceFile};

    fn ws_from(files: &[(&str, &str)]) -> Workspace {
        let manifests = vec![SourceFile {
            rel_path: "crates/x/Cargo.toml".into(),
            text: "[package]\nname = \"smartfeat-x\"\n".into(),
            class: classify("crates/x/Cargo.toml"),
            crate_dir: "x".into(),
        }];
        let parsed = files
            .iter()
            .map(|(rel, text)| {
                (
                    SourceFile {
                        rel_path: rel.to_string(),
                        text: text.to_string(),
                        class: classify(rel),
                        crate_dir: crate::walker::crate_dir_of(rel),
                    },
                    parse(&lex(text)),
                )
            })
            .collect();
        crate::resolve::build(parsed, &manifests)
    }

    #[test]
    fn direct_and_transitive_edges_reach_panic_sites() {
        let ws = ws_from(&[(
            "crates/x/src/lib.rs",
            "pub fn entry() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf(v: Option<u32>) -> u32 { v.unwrap() }\n\
             fn unrelated() { panic!(\"boom\") }",
        )]);
        let cg = build(&ws);
        let entry = 0;
        let parent = cg.reachable_from(&[entry]);
        assert!(parent.contains_key(&2), "leaf reachable via middle");
        assert!(!parent.contains_key(&3), "unrelated not reachable");
        assert_eq!(cg.panic_sites[2][0].what, "unwrap");
        assert_eq!(cg.panic_sites[3][0].what, "panic!");
        let path = cg.path_to(&ws, &parent, 2);
        assert_eq!(
            path,
            [
                "smartfeat_x::entry",
                "smartfeat_x::middle",
                "smartfeat_x::leaf"
            ]
        );
    }

    #[test]
    fn method_edges_require_unambiguous_dispatch() {
        let ws = ws_from(&[(
            "crates/x/src/lib.rs",
            "pub struct A; impl A { pub fn only(&self) {} pub fn dup(&self) {} }\n\
             pub struct B; impl B { pub fn dup(&self) {} }\n\
             pub fn caller(a: &A) { a.only(); a.dup(); }",
        )]);
        let cg = build(&ws);
        let caller = ws
            .fns
            .iter()
            .position(|f| f.name == "caller")
            .expect("caller indexed");
        let only = ws.fns.iter().position(|f| f.name == "only").expect("only");
        assert_eq!(cg.edges[caller], vec![only], "dup is ambiguous: no edge");
    }

    #[test]
    fn std_shadowed_method_names_produce_no_edges() {
        // `stats.load()` is far more likely an atomic than the workspace's
        // only `load` — even unambiguous dispatch must not claim it.
        let ws = ws_from(&[(
            "crates/x/src/lib.rs",
            "pub struct Cfg; impl Cfg { pub fn load(&self) {} }\n\
             pub fn caller(n: &AtomicU64) { n.load(Ordering::Relaxed); }",
        )]);
        let cg = build(&ws);
        let caller = ws.fns.iter().position(|f| f.name == "caller").expect("c");
        assert!(cg.edges[caller].is_empty());
    }

    #[test]
    fn fn_references_as_values_count_as_edges() {
        let ws = ws_from(&[(
            "crates/x/src/lib.rs",
            "pub mod inner { pub fn parse_row() {} }\n\
             pub fn caller(xs: Vec<u32>) { xs.iter().map(inner::parse_row); }",
        )]);
        let cg = build(&ws);
        let caller = ws.fns.iter().position(|f| f.name == "caller").expect("c");
        let target = ws
            .fns
            .iter()
            .position(|f| f.name == "parse_row")
            .expect("t");
        assert_eq!(cg.edges[caller], vec![target]);
    }

    #[test]
    fn parser_style_expect_is_not_a_panic_site() {
        let ws = ws_from(&[(
            "crates/x/src/lib.rs",
            "pub fn f(p: &mut P) { p.expect(b'{'); }\n\
             pub fn g(v: Option<u32>) { v.expect(\"present\"); }",
        )]);
        let cg = build(&ws);
        assert!(cg.panic_sites[0].is_empty(), "byte expect is a parser call");
        assert_eq!(cg.panic_sites[1].len(), 1);
    }
}
