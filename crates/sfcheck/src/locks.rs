//! Lock-discipline analysis: a flow-sensitive walk over each fn's AST
//! that models `Mutex` guard acquisition and guard liveness (binding
//! drops, explicit `drop`, scope exit) within one body. Three lints ride
//! on it:
//!
//! - `double-lock` — re-acquiring a possibly-held, non-reentrant
//!   `std::sync::Mutex` on any control-flow path of the same body: a
//!   guaranteed self-deadlock.
//! - `held-lock-blocking` — a live guard across a call into a
//!   `// sfcheck:parallel-entry` fn or a blocking primitive (`.join()`,
//!   `.recv()`, `thread::scope`): the pool-starvation shape.
//! - `guard-discipline` — `let _ = m.lock()` (drops the guard
//!   immediately, silently unsynchronizing the critical section; gets a
//!   machine fix to `let _guard = …`) and locked-then-never-used named
//!   guards.
//!
//! Every fact is per fn (DESIGN.md §16). The workspace's locks are all
//! struct fields reached through `par::lock_or_poison`; none is
//! process-wide, so nothing is compared across fns. A lock's identity is
//! its receiver's field chain (`self.routing`) or joined path (`ALPHA`,
//! `m::ALPHA`), meaningful only within one body. `.lock()` receivers are
//! acquisitions unless they are stdio handles; closure bodies are
//! excluded from the held set (they run elsewhere); test fns and
//! `// sfcheck:lock-helper` fns are never linted. Known blind spots:
//! locks taken inside a callee, guards stored in structs, guards bound
//! through `if let`/`match` patterns.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Block, Ctrl, Expr, LetStmt, Pos, SeqExpr, Stmt};
use crate::callgraph::CallGraph;
use crate::dataflow::{finding_at, PARALLEL_ENTRY};
use crate::lints::Finding;
use crate::resolve::{FnId, Workspace};

/// Marker naming a fn whose first argument is locked on the caller's
/// behalf (the shared poisoned-lock helper).
pub const LOCK_HELPER: &str = "lock-helper";

/// What a guard locks: the receiver's field chain (`self.inner.state`)
/// or joined path (`m::ALPHA`). Compared only within one body.
type LockId = String;

/// One acquisition event.
struct Acq {
    /// Lock identity, when the receiver shape names one.
    id: Option<LockId>,
    pos: Pos,
}

/// Dataflow fact: may-live guards by binding name, each with the lock it
/// holds (`None` when the receiver is unnamed or the paths disagree).
type Fact = BTreeMap<String, Option<LockId>>;

/// One lock-relevant event, in evaluation (walk) order.
enum Event {
    Acq(Acq),
    /// A resolved call into a `// sfcheck:parallel-entry` fn.
    Entry(FnId, Pos),
    /// A blocking primitive.
    Blocking(&'static str, Pos),
    /// `drop(name)` releases the named guard.
    Drop(String),
}

/// The workspace inputs the per-fn analysis reads: the call graph and
/// the two markers it honours.
struct Pass<'a> {
    ws: &'a Workspace,
    cg: &'a CallGraph,
    helpers: BTreeSet<FnId>,
    parallel: BTreeSet<FnId>,
}

/// Per-fn analysis context: the lock model specialized to one body.
struct FnCtx<'a> {
    pass: &'a Pass<'a>,
    id: FnId,
    /// Every identifier the body mentions in value position (plus
    /// format-interpolated names) — the guard-usage oracle.
    uses: BTreeSet<String>,
}

impl<'a> FnCtx<'a> {
    fn new(pass: &'a Pass<'a>, id: FnId, body: &Block) -> FnCtx<'a> {
        let mut uses = BTreeSet::new();
        let mut interpolated = Vec::new();
        ast::walk_block(body, &mut |e: &Expr| match e {
            Expr::Path(p) => {
                if let Some(head) = p.segments.first() {
                    uses.insert(head.clone());
                }
            }
            Expr::Lit(l) => ast::interpolated_idents(&l.text, &mut interpolated),
            _ => {}
        });
        uses.extend(interpolated);
        FnCtx { pass, id, uses }
    }

    /// The workspace fns a call path resolves to from this body.
    fn resolve(&self, segments: &[String]) -> Vec<FnId> {
        let info = &self.pass.ws.fns[self.id];
        self.pass
            .ws
            .resolve_path(info.file, &info.module, info.impl_ty.as_deref(), segments)
    }

    /// A call edge of this fn into a `// sfcheck:parallel-entry` fn
    /// (agreeing with the call graph, where std-name and self-edge
    /// filtering live).
    fn enters_pool(&self, callee: FnId) -> bool {
        self.pass.parallel.contains(&callee)
            && self.pass.cg.edges[self.id].binary_search(&callee).is_ok()
    }

    /// Is this expression node itself an acquisition?
    fn acquisition(&self, e: &Expr) -> Option<Acq> {
        match e {
            Expr::MethodCall(m) if m.method == "lock" && m.args.is_empty() => {
                if stdio_handle(&m.recv) {
                    return None;
                }
                Some(Acq {
                    id: identity(&m.recv),
                    pos: m.pos,
                })
            }
            Expr::Call(c) => {
                // A `// sfcheck:lock-helper` fn locks its first argument.
                let Expr::Path(p) = &*c.callee else {
                    return None;
                };
                if !self
                    .resolve(&p.segments)
                    .iter()
                    .any(|t| self.pass.helpers.contains(t))
                {
                    return None;
                }
                Some(Acq {
                    id: c.args.first().and_then(identity),
                    pos: c.pos,
                })
            }
            _ => None,
        }
    }

    /// An initializer whose value IS a guard (possibly behind
    /// `.expect()`/`.unwrap()`), so the binding keeps the lock held.
    fn direct_guard(&self, e: &Expr) -> Option<Acq> {
        if let Some(acq) = self.acquisition(e) {
            return Some(acq);
        }
        if let Expr::MethodCall(m) = e {
            if matches!(m.method.as_str(), "expect" | "unwrap") {
                return self.direct_guard(&m.recv);
            }
        }
        None
    }

    /// Collect lock-relevant events under a statement, in order.
    fn stmt_events(&self, stmt: &Stmt, out: &mut Vec<Event>) {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    self.expr_events(init, out);
                }
            }
            Stmt::Expr(e) => self.expr_events(e, out),
            Stmt::Item(_) => {}
        }
    }

    /// Collect lock-relevant events under an expression, in evaluation
    /// order. Closure bodies are skipped: they execute elsewhere, so
    /// their acquisitions are not held here.
    fn expr_events(&self, e: &Expr, out: &mut Vec<Event>) {
        if let Some(acq) = self.acquisition(e) {
            out.push(Event::Acq(acq));
        }
        match e {
            Expr::Path(_) | Expr::Lit(_) | Expr::Closure(_) => {}
            Expr::Call(c) => {
                if let Expr::Path(p) = &*c.callee {
                    let last = p.segments.last().map(String::as_str).unwrap_or("");
                    if last == "drop" && c.args.len() == 1 {
                        if let Expr::Path(a) = &c.args[0] {
                            if a.segments.len() == 1 {
                                out.push(Event::Drop(a.segments[0].clone()));
                            }
                        }
                    }
                    if last == "scope"
                        && p.segments.len() >= 2
                        && p.segments[p.segments.len() - 2] == "thread"
                    {
                        out.push(Event::Blocking("thread::scope", c.pos));
                    }
                    for t in self.resolve(&p.segments) {
                        if self.enters_pool(t) {
                            out.push(Event::Entry(t, c.pos));
                        }
                    }
                }
                self.expr_events(&c.callee, out);
                for a in &c.args {
                    self.expr_events(a, out);
                }
            }
            Expr::MethodCall(m) => {
                if m.args.is_empty()
                    && matches!(m.method.as_str(), "join" | "recv" | "recv_timeout")
                {
                    let what: &'static str = match m.method.as_str() {
                        "join" => ".join()",
                        "recv" => ".recv()",
                        _ => ".recv_timeout()",
                    };
                    out.push(Event::Blocking(what, m.pos));
                }
                if let Some([single]) = self.pass.ws.methods.get(&m.method).map(Vec::as_slice) {
                    if self.enters_pool(*single) {
                        out.push(Event::Entry(*single, m.pos));
                    }
                }
                self.expr_events(&m.recv, out);
                for a in &m.args {
                    self.expr_events(a, out);
                }
            }
            Expr::Macro(mac) => {
                for a in &mac.args {
                    self.expr_events(a, out);
                }
            }
            Expr::Index(i) => {
                self.expr_events(&i.base, out);
                self.expr_events(&i.index, out);
            }
            Expr::Field(f) => self.expr_events(&f.base, out),
            Expr::Block(b) => {
                for stmt in &b.stmts {
                    self.stmt_events(stmt, out);
                }
            }
            Expr::Seq(s) => {
                for c in &s.children {
                    self.expr_events(c, out);
                }
            }
        }
    }

    /// Push the fact through a `let`. With a sink, also emit findings —
    /// the state updates are identical either way, so the converging walk
    /// and the emitting walk always agree on guard liveness.
    fn bind(&self, fact: &mut Fact, l: &LetStmt, mut sink: Option<&mut Vec<Finding>>) {
        let Some(init) = &l.init else { return };
        self.eval_events(init, fact, sink.as_deref_mut());
        let Some(acq) = self.direct_guard(init) else {
            return;
        };
        match l.bound.first() {
            None => {
                // `let _ = m.lock()` drops the guard immediately.
                if let Some(out) = sink {
                    let what = acq
                        .id
                        .as_ref()
                        .map(|id| format!("`{id}` "))
                        .unwrap_or_default();
                    let mut f = self.finding(
                        l.pos,
                        "guard-discipline",
                        format!(
                            "guard-discipline: `let _ = …` drops the {what}guard \
                             immediately — the critical section is empty; bind it \
                             as `let _guard = …` to hold the lock"
                        ),
                    );
                    if f.snippet.contains("let _ =") {
                        f.suggestion = Some(f.snippet.replacen("let _ =", "let _guard =", 1));
                    }
                    out.push(f);
                }
            }
            Some(g) => {
                if let Some(out) = sink {
                    if !g.starts_with('_') && !self.uses.contains(g) {
                        out.push(self.finding(
                            l.pos,
                            "guard-discipline",
                            format!(
                                "guard-discipline: guard `{g}` is locked but never \
                                 used — name it `_{g}` if the lock is held for \
                                 effect, or delete the acquisition"
                            ),
                        ));
                    }
                }
                fact.insert(g.clone(), acq.id);
            }
        }
    }

    /// Process the events under one evaluated expression against the
    /// current held set, in order.
    fn eval_events(&self, e: &Expr, fact: &mut Fact, mut sink: Option<&mut Vec<Finding>>) {
        let mut events = Vec::new();
        self.expr_events(e, &mut events);
        for ev in events {
            if let Event::Drop(name) = &ev {
                fact.remove(name);
                continue;
            }
            let Some(out) = sink.as_deref_mut() else {
                continue;
            };
            match ev {
                Event::Acq(Acq { id: Some(id), pos }) => {
                    let held = fact.iter().find(|(_, g)| g.as_ref() == Some(&id));
                    if let Some((gname, _)) = held {
                        out.push(self.finding(
                            pos,
                            "double-lock",
                            format!(
                                "double-lock: `{id}` may already be held here (guard \
                                 `{gname}`) — re-acquiring a non-reentrant lock \
                                 self-deadlocks"
                            ),
                        ));
                    }
                }
                Event::Entry(callee, pos) if !fact.is_empty() => {
                    out.push(self.finding(
                        pos,
                        "held-lock-blocking",
                        format!(
                            "held-lock-blocking: {} held across a call into \
                             `{}` (marked {PARALLEL_ENTRY}) — a lock must never span a \
                             blocking boundary",
                            held_desc(fact),
                            self.pass.ws.fns[callee].qname,
                        ),
                    ));
                }
                Event::Blocking(what, pos) if !fact.is_empty() => {
                    out.push(self.finding(
                        pos,
                        "held-lock-blocking",
                        format!(
                            "held-lock-blocking: {} held across blocking `{what}` — \
                             a lock must never span a blocking boundary",
                            held_desc(fact),
                        ),
                    ));
                }
                _ => {}
            }
        }
    }

    /// A finding at `pos` in this fn's file.
    fn finding(&self, pos: Pos, lint: &'static str, message: String) -> Finding {
        let file = self.pass.ws.fns[self.id].file;
        finding_at(self.pass.ws, file, pos, lint, message)
    }
}

/// Join two may-facts at a control-flow merge (`None` = unreachable).
/// A binding live on either side stays live; one naming different locks
/// on the two sides keeps living but forgets the identity (may-hold).
fn join(a: Option<Fact>, b: Option<Fact>) -> Option<Fact> {
    match (a, b) {
        (None, f) | (f, None) => f,
        (Some(mut out), Some(b)) => {
            for (name, id) in b {
                match out.get_mut(&name) {
                    None => {
                        out.insert(name, id);
                    }
                    Some(have) if *have != id => *have = None,
                    Some(_) => {}
                }
            }
            Some(out)
        }
    }
}

/// Facts leaving the innermost enclosing loop early.
#[derive(Default)]
struct Exits {
    breaks: Option<Fact>,
    continues: Option<Fact>,
}

/// The flow-sensitive walk of one fn body: threads the held set through
/// statements in evaluation order (`None` = unreachable), joins at the
/// ends of `if`/`match` arms, and runs each loop head to a fixpoint.
/// Statement granularity: a control-flow construct nested inside an
/// expression (a call argument, a `let` initializer, a condition) is
/// evaluated as part of that expression, never split.
struct Walk<'w, 'a> {
    ctx: &'w FnCtx<'a>,
    /// Each loop's converged head fact, keyed by the loop node, so a
    /// revisit (the enclosing loop's next trip, or the emitting pass)
    /// starts there instead of from scratch — without it the walk is
    /// exponential in loop nesting.
    heads: BTreeMap<*const SeqExpr, Option<Fact>>,
    /// Break/continue facts of the enclosing loops, innermost last.
    loops: Vec<Exits>,
    /// Findings go here on the emitting pass; `None` while converging.
    sink: Option<&'w mut Vec<Finding>>,
}

impl Walk<'_, '_> {
    /// A `{ … }` scope. Only the fall-through end drops its bindings:
    /// `break`/`continue`/`return` leave before the scope end.
    fn block(&mut self, b: &Block, mut fact: Option<Fact>) -> Option<Fact> {
        let mut scope: Vec<&str> = Vec::new();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(f) = fact.as_mut() {
                        self.ctx.bind(f, l, self.sink.as_deref_mut());
                    }
                    scope.extend(l.bound.iter().map(String::as_str));
                }
                Stmt::Expr(e) => fact = self.stmt(e, fact),
                Stmt::Item(_) => {} // nested fns are walked on their own
            }
        }
        if let Some(f) = fact.as_mut() {
            for name in scope {
                f.remove(name);
            }
        }
        fact
    }

    /// An expression evaluated as one unit.
    fn eval(&mut self, e: &Expr, mut fact: Option<Fact>) -> Option<Fact> {
        if let Some(f) = fact.as_mut() {
            self.ctx.eval_events(e, f, self.sink.as_deref_mut());
        }
        fact
    }

    /// Statement-position expressions in order.
    fn seq(&mut self, exprs: &[Expr], mut fact: Option<Fact>) -> Option<Fact> {
        for e in exprs {
            fact = self.stmt(e, fact);
        }
        fact
    }

    /// A statement-position expression; returns the fact flowing out.
    fn stmt(&mut self, e: &Expr, fact: Option<Fact>) -> Option<Fact> {
        let s = match e {
            Expr::Block(b) => return self.block(b, fact),
            Expr::Seq(s) => s,
            _ => return self.eval(e, fact),
        };
        match s.ctrl {
            // Plain runs evaluate in order; an orphaned arm likewise.
            Ctrl::None | Ctrl::Arm => self.seq(&s.children, fact),
            Ctrl::Return | Ctrl::Break | Ctrl::Continue => {
                let fact = self.seq(&s.children, fact);
                match (s.ctrl, self.loops.last_mut()) {
                    (Ctrl::Break, Some(x)) => x.breaks = join(x.breaks.take(), fact),
                    (Ctrl::Continue, Some(x)) => x.continues = join(x.continues.take(), fact),
                    _ => {} // `return`, or soup outside any loop
                }
                None
            }
            Ctrl::If | Ctrl::Match => {
                let fact = match s.children.first() {
                    Some(head) => self.eval(head, fact),
                    None => fact,
                };
                let arms = s.children.get(1..).unwrap_or_default();
                let mut out = None;
                for arm in arms {
                    out = join(out, self.stmt(arm, fact.clone()));
                }
                // An `if` without `else` (or an arm-less `match`) can
                // fall through.
                let falls = match s.ctrl {
                    Ctrl::If => arms.len() < 2,
                    _ => arms.is_empty(),
                };
                if falls {
                    out = join(out, fact);
                }
                out
            }
            Ctrl::While | Ctrl::For => {
                // `for`: the iterable evaluates once, up front; `while`:
                // the condition re-evaluates at the head of every trip.
                let mut fact = fact;
                let mut cond = None;
                if let Some(first) = s.children.first() {
                    if s.ctrl == Ctrl::For {
                        fact = self.eval(first, fact);
                    } else {
                        cond = Some(first);
                    }
                }
                let (top, breaks) = self.looped(s, fact, cond, s.children.get(1));
                // Fuzz soup can attach trailing children (a stray `else`).
                let extra = s.children.get(2..).unwrap_or_default();
                self.seq(extra, join(top, breaks))
            }
            Ctrl::Loop => match s.children.first() {
                // Only breaks leave a `loop`; extra soup children are
                // never evaluated.
                Some(body) => self.looped(s, fact, None, Some(body)).1,
                None => fact,
            },
        }
    }

    /// Run a loop head to a fixpoint: the head joins the entry fact with
    /// the body's fall-through and `continue` facts, starting from the
    /// head this loop converged to on an earlier visit. Returns the fact
    /// after the head (and its condition) plus the joined `break` facts,
    /// both at the converged head. The emitting pass walks the body once,
    /// from the head the converging pass left in the memo.
    fn looped(
        &mut self,
        s: &SeqExpr,
        entry: Option<Fact>,
        cond: Option<&Expr>,
        body: Option<&Expr>,
    ) -> (Option<Fact>, Option<Fact>) {
        let key: *const SeqExpr = s;
        let mut head = join(self.heads.get(&key).cloned().flatten(), entry);
        loop {
            let top = match cond {
                Some(c) => self.eval(c, head.clone()),
                None => head.clone(),
            };
            self.loops.push(Exits::default());
            let end = match body {
                Some(b) => self.stmt(b, top.clone()),
                None => None,
            };
            let exits = self.loops.pop().unwrap_or_default();
            let next = join(join(head.clone(), end), exits.continues);
            if next == head || self.sink.is_some() {
                self.heads.insert(key, head);
                return (top, exits.breaks);
            }
            head = next;
        }
    }
}

/// The lock a receiver/argument expression names, if any.
fn identity(e: &Expr) -> Option<LockId> {
    match e {
        Expr::Path(p) if !p.segments.is_empty() => Some(p.segments.join("::")),
        Expr::Field(f) => {
            let mut parts = vec![f.name.clone()];
            let mut base = &*f.base;
            loop {
                match base {
                    Expr::Field(inner) => {
                        parts.push(inner.name.clone());
                        base = &inner.base;
                    }
                    Expr::Path(p) => {
                        parts.push(p.segments.join("::"));
                        break;
                    }
                    _ => return None,
                }
            }
            parts.reverse();
            Some(parts.join("."))
        }
        Expr::MethodCall(m) if matches!(m.method.as_str(), "expect" | "unwrap") => {
            identity(&m.recv)
        }
        _ => None,
    }
}

/// Human description of the held set for messages.
fn held_desc(fact: &Fact) -> String {
    let parts: Vec<String> = fact
        .iter()
        .map(|(name, id)| match id {
            Some(id) => format!("guard `{name}` on `{id}`"),
            None => format!("guard `{name}`"),
        })
        .collect();
    parts.join(", ")
}

/// `io::stdout().lock()` and friends are not sync locks.
fn stdio_handle(e: &Expr) -> bool {
    match e {
        Expr::Call(c) => stdio_handle(&c.callee),
        Expr::MethodCall(m) => stdio_handle(&m.recv),
        Expr::Path(p) => matches!(
            p.segments.last().map(String::as_str),
            Some("stdout" | "stderr" | "stdin")
        ),
        _ => false,
    }
}

impl Pass<'_> {
    /// Lint one fn body: one walk to converge its loop heads, then one
    /// emitting walk at the converged facts.
    fn lint(&self, id: FnId, body: &Block, out: &mut Vec<Finding>) {
        let ctx = FnCtx::new(self, id, body);
        let mut walk = Walk {
            ctx: &ctx,
            heads: BTreeMap::new(),
            loops: Vec::new(),
            sink: None,
        };
        walk.block(body, Some(Fact::new()));
        walk.sink = Some(out);
        walk.block(body, Some(Fact::new()));
    }
}

/// Run the lock-discipline lints over every non-test fn.
pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let pass = Pass {
        ws,
        cg,
        helpers: ws.marked(LOCK_HELPER).into_iter().collect(),
        parallel: ws.marked(PARALLEL_ENTRY).into_iter().collect(),
    };
    let mut out: Vec<Finding> = Vec::new();
    for id in 0..ws.fns.len() {
        if ws.fns[id].is_test || pass.helpers.contains(&id) {
            continue;
        }
        if let Some(body) = ws.body_of(id) {
            pass.lint(id, body, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::{classify, crate_dir_of, SourceFile};

    fn workspace_of(src: &str) -> Workspace {
        let manifests = vec![SourceFile {
            rel_path: "crates/app/Cargo.toml".to_string(),
            text: "[package]\nname = \"app\"\n".to_string(),
            class: classify("crates/app/Cargo.toml"),
            crate_dir: crate_dir_of("crates/app/Cargo.toml"),
        }];
        let rel = "crates/app/src/lib.rs";
        let parsed = vec![(
            SourceFile {
                rel_path: rel.to_string(),
                text: src.to_string(),
                class: classify(rel),
                crate_dir: crate_dir_of(rel),
            },
            parse(&lex(src)),
        )];
        crate::resolve::build(parsed, &manifests)
    }

    fn lints_of(src: &str) -> Vec<Finding> {
        let ws = workspace_of(src);
        run(&ws, &crate::callgraph::build(&ws))
    }

    #[test]
    fn double_lock_behind_a_branch_is_caught() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f(flag: bool) {\n\
                   let g1 = M.lock().unwrap();\n\
                   if flag { let g2 = M.lock().unwrap(); drop(g2); }\n\
                   drop(g1);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn path_receivers_are_identities_within_one_body_only() {
        // `m::M` and `M` are named by their joined paths, so they are two
        // locks; a callee that re-locks `M` is outside this body's facts.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn leaf() { let g = M.lock().unwrap(); drop(g); }\n\
                   pub fn f() {\n\
                   let a = M.lock().unwrap();\n\
                   let b = m::M.lock().unwrap();\n\
                   leaf();\n\
                   let c = m::M.lock().unwrap();\n\
                   drop(c); drop(b); drop(a);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
        assert_eq!(found[0].line, 7);
        assert!(found[0].message.contains("`m::M`"), "{}", found[0].message);
    }

    #[test]
    fn guard_dropped_before_the_blocking_call_is_clean() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   // sfcheck:parallel-entry\n\
                   pub fn heavy() {}\n\
                   pub fn f() { let g = M.lock().unwrap(); drop(g); heavy(); }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn guard_held_across_parallel_entry_call_is_flagged() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   // sfcheck:parallel-entry\n\
                   pub fn heavy() {}\n\
                   pub fn f() { let g = M.lock().unwrap(); heavy(); drop(g); }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "held-lock-blocking");
        assert!(
            found[0].message.contains("app::heavy"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn guard_held_across_recv_is_flagged() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f(rx: Receiver<i32>) {\n\
                   let g = M.lock().unwrap();\n\
                   let v = rx.recv().unwrap();\n\
                   drop(v); drop(g);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "held-lock-blocking");
        assert!(found[0].message.contains(".recv()"), "{}", found[0].message);
    }

    #[test]
    fn let_underscore_lock_gets_a_machine_fix() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() { let _ = M.lock().unwrap(); }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "guard-discipline");
        let fix = found[0].suggestion.as_deref().expect("machine fix");
        assert!(fix.contains("let _guard ="), "{fix}");
    }

    #[test]
    fn unused_named_guard_is_flagged_and_underscore_name_is_not() {
        let noisy = "static M: Mutex<i32> = Mutex::new(0);\n\
                     pub fn compute() {}\n\
                     pub fn f() { let guard = M.lock().unwrap(); compute(); }\n";
        let found = lints_of(noisy);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "guard-discipline");
        assert!(
            found[0].message.contains("never used"),
            "{}",
            found[0].message
        );

        let quiet = "static M: Mutex<i32> = Mutex::new(0);\n\
                     pub fn compute() {}\n\
                     pub fn f() { let _guard = M.lock().unwrap(); compute(); }\n";
        assert!(lints_of(quiet).is_empty());
    }

    #[test]
    fn lock_helper_call_counts_as_acquisition_and_helper_is_not_linted() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   // sfcheck:lock-helper\n\
                   pub fn lp(m: &Mutex<i32>) -> i32 { m.lock().unwrap() }\n\
                   pub fn f() { let a = lp(&M); let b = lp(&M); drop(b); drop(a); }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
        assert!(found[0].message.contains('M'), "{}", found[0].message);
    }

    #[test]
    fn stdio_locks_and_unproven_read_write_are_ignored() {
        let src = "pub fn f(buf: Cursor<i32>) {\n\
                   let out = std::io::stdout().lock();\n\
                   let n = buf.read();\n\
                   drop(n); drop(out);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn closure_bodies_are_outside_the_held_set() {
        // The closure runs elsewhere; its acquisition must not count as
        // held at the call site.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() {\n\
                   let g = M.lock().unwrap();\n\
                   let job = move || M.lock().unwrap();\n\
                   drop(job); drop(g);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { let g = M.lock().unwrap(); let h = M.lock().unwrap(); drop(h); drop(g); }\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn guard_named_only_inside_an_escaped_brace_is_unused() {
        let escaped = "static M: Mutex<i32> = Mutex::new(0);\n\
                       pub fn f() { let g = M.lock().unwrap(); println!(\"{{g}}\"); }\n";
        let found = lints_of(escaped);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "guard-discipline");
        assert!(found[0].message.contains("`g`"), "{}", found[0].message);

        let interpolated = "static M: Mutex<i32> = Mutex::new(0);\n\
                            pub fn f() { let g = M.lock().unwrap(); println!(\"{g:?}\"); }\n";
        assert!(lints_of(interpolated).is_empty());
    }

    /// Lint ids and lines of the findings, in report order.
    fn verdicts(src: &str) -> Vec<(&'static str, u32)> {
        let mut found = lints_of(src);
        found.sort();
        found.iter().map(|f| (f.lint, f.line)).collect()
    }

    #[test]
    fn early_return_skips_a_relock() {
        // The only path that keeps `g` leaves through `return`.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f(c: bool) {\n\
                   let g = M.lock().unwrap();\n\
                   if c { drop(g); } else { use_it(&g); return; }\n\
                   let h = M.lock().unwrap();\n\
                   drop(h);\n\
                   }\n";
        assert_eq!(verdicts(src), []);
    }

    #[test]
    fn if_without_else_falls_through() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f(c: bool) {\n\
                   let g = M.lock().unwrap();\n\
                   if c { drop(g); }\n\
                   let h = M.lock().unwrap();\n\
                   drop(h);\n\
                   }\n";
        assert_eq!(verdicts(src), [("double-lock", 5)]);
    }

    #[test]
    fn code_after_a_loop_without_break_is_unreachable() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() {\n\
                   let g = M.lock().unwrap();\n\
                   loop { tick(&g); }\n\
                   let h = M.lock().unwrap();\n\
                   drop(h);\n\
                   }\n";
        assert_eq!(verdicts(src), []);
    }

    #[test]
    fn break_carries_a_held_guard_out_of_its_loop() {
        // The fall-through path drops `g` and returns; only the `break`
        // reaches the code after the loop, still holding it.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() {\n\
                   let g = M.lock().unwrap();\n\
                   loop { if ready(&g) { break; } drop(g); return; }\n\
                   let h = M.lock().unwrap();\n\
                   drop(h);\n\
                   }\n";
        assert_eq!(verdicts(src), [("double-lock", 5)]);
    }

    #[test]
    fn continue_reenters_its_loop_with_the_guard_held() {
        // `continue` leaves before the body's scope end, so the second
        // trip starts with `g` live: across the `.recv()` and at the
        // re-acquisition.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f(rx: Receiver<i32>) {\n\
                   loop {\n\
                   let v = rx.recv();\n\
                   let g = M.lock().unwrap();\n\
                   if retry(&g, v) { continue; }\n\
                   drop(g);\n\
                   break;\n\
                   }\n\
                   }\n";
        assert_eq!(
            verdicts(src),
            [("held-lock-blocking", 4), ("double-lock", 5)]
        );
    }

    #[test]
    fn deep_loop_nest_finishes() {
        // Level k re-acquires `gk` and carries it back to its own head
        // through `continue`, then its enclosing level drops it: every
        // visit to every level runs two trips, so a walk that re-converged
        // each loop from scratch would take 2^64 of them. The parser
        // flattens nesting this deep, so one fn per level is parsed and
        // the levels are spliced into one body on the AST.
        let depth = 64;
        let mut src = String::from("static M: Mutex<i32> = Mutex::new(0);\n");
        for k in 0..depth {
            let enclosed = match k {
                0 => String::new(),
                _ => format!("nest(); drop(g{});", k - 1),
            };
            src.push_str(&format!(
                "pub fn f{k}() {{ while c() {{ {enclosed} let g{k} = M.lock().unwrap(); \
                 if c() {{ continue; }} drop(g{k}); }} }}\n"
            ));
        }
        let ws = workspace_of(&src);
        let cg = crate::callgraph::build(&ws);
        let id_of = |k: usize| {
            let id = ws.fns.iter().position(|f| f.qname == format!("app::f{k}"));
            id.expect("one fn per level")
        };
        let level = |k: usize| {
            let body = ws.body_of(id_of(k)).expect("body");
            match body.stmts.first() {
                Some(Stmt::Expr(Expr::Seq(s))) if s.ctrl == Ctrl::While => s.clone(),
                _ => panic!("level {k} is one `while`"),
            }
        };
        let mut nest = level(0);
        for k in 1..depth {
            let mut outer = level(k);
            let Some(Expr::Block(body)) = outer.children.get_mut(1) else {
                panic!("level {k} has a body");
            };
            body.stmts[0] = Stmt::Expr(Expr::Seq(nest));
            nest = outer;
        }
        let id = id_of(depth - 1);
        let mut body = ws.body_of(id).expect("body").clone();
        body.stmts = vec![Stmt::Expr(Expr::Seq(nest))];
        let pass = Pass {
            ws: &ws,
            cg: &cg,
            helpers: BTreeSet::new(),
            parallel: BTreeSet::new(),
        };
        let mut found = Vec::new();
        pass.lint(id, &body, &mut found);
        found.sort();
        // Every level's acquisition re-locks `M` on its second trip.
        let lines: Vec<u32> = found.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            (2..2 + depth as u32).collect::<Vec<_>>(),
            "{found:?}"
        );
        assert!(found.iter().all(|f| f.lint == "double-lock"), "{found:?}");
    }
}
