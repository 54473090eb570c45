//! Lock-discipline analysis over the [`crate::cfg`] layer: models
//! `Mutex`/`RwLock` guard acquisition, guard liveness (binding drops,
//! explicit `drop`, scope exit), and a held-lock summary propagated
//! interprocedurally over the call graph. Four lints ride on it:
//!
//! - `double-lock` — re-acquiring a possibly-held, non-reentrant
//!   `std::sync::Mutex` (or write-locking a held `RwLock`) on any CFG
//!   path, directly or through a call chain: a guaranteed self-deadlock.
//! - `lock-order-inversion` — two process-wide locks acquired in
//!   opposite orders on any two interprocedural paths: a potential
//!   deadlock, reported with both acquisition chains.
//! - `held-lock-blocking` — a live guard across a call into a
//!   `// sfcheck:parallel-entry` fn, an `// sfcheck:io-blocking` fn, or
//!   a blocking primitive (`.join()`, `.recv()`, `thread::scope`): the
//!   pool-starvation shape a multi-tenant server must never ship.
//! - `guard-discipline` — `let _ = m.lock()` (drops the guard
//!   immediately, silently unsynchronizing the critical section; gets a
//!   machine fix to `let _guard = …`), locked-then-never-used named
//!   guards, and `sfcheck:` lock-annotation typos.
//!
//! The zero-false-positive dial (DESIGN.md §16): `.lock()` receivers are
//! acquisitions unless they are stdio handles; `.read()`/`.write()` only
//! count on receivers *proven* `RwLock` (a typed static or a local built
//! by `RwLock::new`); interprocedural propagation covers process-wide
//! identities only (statics and accessor fns); closure bodies are
//! excluded from held-state and summaries (they run elsewhere); test fns
//! and `// sfcheck:lock-helper` fns are never linted. Known blind spots:
//! trait-object dispatch, guards stored in structs, guards bound through
//! `if let`/`match` patterns.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ast::{self, Block, Expr, Pos, Stmt};
use crate::callgraph::CallGraph;
use crate::cfg::{self, BlockId, Cfg, Step};
use crate::dataflow::{finding_at, PARALLEL_ENTRY};
use crate::lints::Finding;
use crate::resolve::{FnId, Workspace};
use crate::walker::FileClass;

/// Marker naming a fn that blocks on I/O; holding a lock across a call
/// into one is flagged.
pub const IO_BLOCKING: &str = "io-blocking";
/// Marker naming a fn whose first argument is locked on the caller's
/// behalf (the shared poisoned-lock helper).
pub const LOCK_HELPER: &str = "lock-helper";

/// What a guard locks. `Static` and `Accessor` name process-wide locks
/// and participate in interprocedural propagation; `Field`/`Local` are
/// meaningful only within one fn.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockId {
    /// A `static` (module-level or fn-local) with a lock value.
    Static(String),
    /// The result of calling a workspace fn (`registry().lock()`), by
    /// the accessor's qualified name.
    Accessor(String),
    /// A field chain (`self.inner.state`).
    Field(String),
    /// A plain local binding.
    Local(String),
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockId::Static(n) | LockId::Field(n) | LockId::Local(n) => write!(f, "{n}"),
            LockId::Accessor(q) => write!(f, "{q}()"),
        }
    }
}

impl LockId {
    /// Process-wide identities propagate across calls.
    fn is_global(&self) -> bool {
        matches!(self, LockId::Static(_) | LockId::Accessor(_))
    }
}

/// One acquisition event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Acq {
    /// Lock identity, when the receiver shape names one.
    id: Option<LockId>,
    /// Exclusive (`lock`/`write`) vs shared (`read`).
    excl: bool,
    pos: Pos,
}

/// A live, named guard.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Guard {
    id: Option<LockId>,
    excl: bool,
}

/// Dataflow fact: may-live guards by binding name.
type Fact = BTreeMap<String, Guard>;

/// First deterministic witness of an ordered acquisition pair: `a` held
/// at `pos` while `b` is acquired through `chain`.
#[derive(Debug, Clone)]
struct Witness {
    file: usize,
    pos: Pos,
    chain: Vec<String>,
}

type Pairs = BTreeMap<(LockId, LockId), Witness>;

/// Findings and pair witnesses collected during the emission replay.
struct Emit<'s> {
    findings: &'s mut Vec<Finding>,
    pairs: &'s mut Pairs,
}

/// One lock-relevant event, in evaluation (walk) order.
enum Event {
    Acq(Acq),
    /// A resolved workspace call (path or unambiguous method dispatch).
    Call(FnId, Pos),
    /// A blocking primitive.
    Blocking(&'static str, Pos),
    /// `drop(name)` releases the named guard.
    Drop(String),
}

/// Workspace-wide lock model: markers plus the transitive may-acquire
/// summary (global identities only) with witness back-links.
struct Pass<'a> {
    ws: &'a Workspace,
    cg: &'a CallGraph,
    helpers: BTreeSet<FnId>,
    parallel: BTreeSet<FnId>,
    io_blocking: BTreeSet<FnId>,
    /// Per fn: global lock → any-path exclusive acquisition.
    trans: Vec<BTreeMap<LockId, bool>>,
    /// Per fn and lock: the callee the acquisition arrives through
    /// (self for direct sites) — the witness-chain back-link.
    via: Vec<BTreeMap<LockId, FnId>>,
}

impl<'a> Pass<'a> {
    fn build(ws: &'a Workspace, cg: &'a CallGraph) -> Pass<'a> {
        let mut pass = Pass {
            ws,
            cg,
            helpers: ws.marked(LOCK_HELPER).into_iter().collect(),
            parallel: ws.marked(PARALLEL_ENTRY).into_iter().collect(),
            io_blocking: ws.marked(IO_BLOCKING).into_iter().collect(),
            trans: vec![BTreeMap::new(); ws.fns.len()],
            via: vec![BTreeMap::new(); ws.fns.len()],
        };
        // Direct global acquisitions. Helpers are excluded: their
        // `.lock()` on a parameter is the implementation, not a site.
        for id in 0..ws.fns.len() {
            if pass.helpers.contains(&id) {
                continue;
            }
            let Some(body) = ws.body_of(id) else { continue };
            let ctx = FnCtx::new(&pass, id, body);
            let mut events = Vec::new();
            for stmt in &body.stmts {
                ctx.stmt_events(stmt, &mut events);
            }
            for ev in events {
                if let Event::Acq(acq) = ev {
                    if let Some(lock) = acq.id {
                        if lock.is_global() {
                            let e = pass.trans[id].entry(lock.clone()).or_insert(false);
                            *e |= acq.excl;
                            pass.via[id].entry(lock).or_insert(id);
                        }
                    }
                }
            }
        }
        // Transitive closure over call edges, to fixpoint. Deterministic:
        // fns and locks iterate in ID/lock order every round.
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..ws.fns.len() {
                for callee_ix in 0..pass.cg.edges[id].len() {
                    let callee = pass.cg.edges[id][callee_ix];
                    let inherited: Vec<(LockId, bool)> = pass.trans[callee]
                        .iter()
                        .map(|(l, e)| (l.clone(), *e))
                        .collect();
                    for (lock, excl) in inherited {
                        match pass.trans[id].get(&lock) {
                            Some(&have) if have || !excl => {}
                            _ => {
                                pass.trans[id].insert(lock.clone(), excl);
                                pass.via[id].entry(lock).or_insert(callee);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        pass
    }

    /// The acquisition chain `fn → … → direct site` for a lock in a
    /// fn's transitive summary, as qualified names.
    fn chain_of(&self, mut id: FnId, lock: &LockId) -> Vec<String> {
        let mut out = vec![self.ws.fns[id].qname.clone()];
        let mut budget = self.ws.fns.len() + 1;
        while let Some(&next) = self.via[id].get(lock) {
            if next == id || budget == 0 {
                break;
            }
            budget -= 1;
            id = next;
            out.push(self.ws.fns[id].qname.clone());
        }
        out
    }
}

/// Per-fn analysis context: the lock model specialized to one body.
struct FnCtx<'a> {
    pass: &'a Pass<'a>,
    id: FnId,
    /// Local binding names proven `RwLock` (typed or `RwLock::new`).
    rwlocks: BTreeSet<String>,
    /// Every identifier the body mentions in value position (plus
    /// format-interpolated names) — the guard-usage oracle.
    uses: BTreeSet<String>,
}

impl<'a> FnCtx<'a> {
    fn new<'b>(pass: &'a Pass<'a>, id: FnId, body: &'b Block) -> FnCtx<'a> {
        let mut rwlocks = BTreeSet::new();
        let mut uses = BTreeSet::new();
        let mut lets: Vec<&'b ast::LetStmt> = Vec::new();
        for stmt in &body.stmts {
            if let Stmt::Let(l) = stmt {
                lets.push(l);
            }
        }
        let mut visit = |e: &'b Expr| {
            match e {
                // Nested blocks: their `let`s feed the RwLock proof too.
                Expr::Block(b) => {
                    for stmt in &b.stmts {
                        if let Stmt::Let(l) = stmt {
                            lets.push(l);
                        }
                    }
                }
                Expr::Path(p) => {
                    if let Some(head) = p.segments.first() {
                        uses.insert(head.clone());
                    }
                }
                Expr::Lit(l) => {
                    for name in interpolated(&l.text) {
                        uses.insert(name);
                    }
                }
                _ => {}
            }
        };
        ast::walk_block(body, &mut visit);
        for l in lets {
            let from_ctor = matches!(
                &l.init,
                Some(Expr::Call(c)) if matches!(
                    &*c.callee,
                    Expr::Path(p) if p.segments.len() >= 2
                        && p.segments[p.segments.len() - 2] == "RwLock"
                )
            );
            if l.ty.contains("RwLock") || from_ctor {
                rwlocks.extend(l.bound.iter().cloned());
            }
        }
        FnCtx {
            pass,
            id,
            rwlocks,
            uses,
        }
    }

    /// The lock a receiver/argument expression names, if any.
    fn identity(&self, e: &Expr) -> Option<LockId> {
        match e {
            Expr::Path(p) => {
                let last = p.segments.last()?;
                if self.pass.ws.statics.contains_key(last) {
                    Some(LockId::Static(last.clone()))
                } else if p.segments.len() == 1 {
                    Some(LockId::Local(last.clone()))
                } else {
                    None
                }
            }
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
                Some(LockId::Field(parts.join(".")))
            }
            Expr::Call(c) => {
                // An accessor fn returning the lock (`registry().lock()`).
                let Expr::Path(p) = &*c.callee else {
                    return None;
                };
                let info = &self.pass.ws.fns[self.id];
                let targets = self.pass.ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                );
                let first = *targets.first()?;
                let qname = &self.pass.ws.fns[first].qname;
                // cfg-variants share a qname; anything else is ambiguous.
                if targets.iter().all(|&t| &self.pass.ws.fns[t].qname == qname) {
                    Some(LockId::Accessor(qname.clone()))
                } else {
                    None
                }
            }
            Expr::MethodCall(m) if matches!(m.method.as_str(), "expect" | "unwrap") => {
                self.identity(&m.recv)
            }
            _ => None,
        }
    }

    /// True when `id` is a proven `RwLock`, so `.read()`/`.write()` on it
    /// count as acquisitions.
    fn proven_rwlock(&self, id: &LockId) -> bool {
        match id {
            LockId::Static(n) => self
                .pass
                .ws
                .statics
                .get(n)
                .is_some_and(|s| s.ty.contains("RwLock")),
            LockId::Local(n) => self.rwlocks.contains(n),
            LockId::Accessor(_) | LockId::Field(_) => false,
        }
    }

    /// Is this expression node itself an acquisition?
    fn acquisition(&self, e: &Expr) -> Option<Acq> {
        match e {
            Expr::MethodCall(m) if m.method == "lock" && m.args.is_empty() => {
                if stdio_handle(&m.recv) {
                    return None;
                }
                Some(Acq {
                    id: self.identity(&m.recv),
                    excl: true,
                    pos: m.pos,
                })
            }
            Expr::MethodCall(m)
                if matches!(m.method.as_str(), "read" | "write") && m.args.is_empty() =>
            {
                let id = self.identity(&m.recv)?;
                if !self.proven_rwlock(&id) {
                    return None;
                }
                Some(Acq {
                    excl: m.method == "write",
                    id: Some(id),
                    pos: m.pos,
                })
            }
            Expr::Call(c) => {
                // A `// sfcheck:lock-helper` fn locks its first argument.
                let Expr::Path(p) = &*c.callee else {
                    return None;
                };
                let info = &self.pass.ws.fns[self.id];
                let targets = self.pass.ws.resolve_path(
                    info.file,
                    &info.module,
                    info.impl_ty.as_deref(),
                    &p.segments,
                );
                if !targets.iter().any(|t| self.pass.helpers.contains(t)) {
                    return None;
                }
                Some(Acq {
                    id: c.args.first().and_then(|a| self.identity(a)),
                    excl: true,
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
    /// their acquisitions are neither held here nor part of this fn's
    /// summary.
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
                    let info = &self.pass.ws.fns[self.id];
                    for t in self.pass.ws.resolve_path(
                        info.file,
                        &info.module,
                        info.impl_ty.as_deref(),
                        &p.segments,
                    ) {
                        // Agree with the call graph (std-name and
                        // self-edge filtering live there).
                        if self.pass.cg.edges[self.id].binary_search(&t).is_ok()
                            && !self.pass.helpers.contains(&t)
                        {
                            out.push(Event::Call(t, c.pos));
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
                if let Some(cands) = self.pass.ws.methods.get(&m.method) {
                    if let [single] = cands[..] {
                        if self.pass.cg.edges[self.id].binary_search(&single).is_ok() {
                            out.push(Event::Call(single, m.pos));
                        }
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

    /// Push the fact through one step. With a sink, also emit findings
    /// and record acquisition pairs — the state updates are identical
    /// either way, so the fixpoint transfer and the emission replay
    /// always agree on guard liveness.
    fn step_fact(&self, fact: &mut Fact, step: &Step<'_>, mut sink: Option<&mut Emit<'_>>) {
        match step {
            Step::Bind { names, init, pos } => {
                let Some(init) = init else { return };
                self.eval_events(init, fact, sink.as_deref_mut());
                let Some(acq) = self.direct_guard(init) else {
                    return;
                };
                match names.first() {
                    None => {
                        // `let _ = m.lock()` drops the guard immediately.
                        if let Some(s) = sink {
                            let what = acq
                                .id
                                .as_ref()
                                .map(|id| format!("`{id}` "))
                                .unwrap_or_default();
                            let mut f = finding_at(
                                self.pass.ws,
                                self.pass.ws.fns[self.id].file,
                                *pos,
                                "guard-discipline",
                                format!(
                                    "guard-discipline: `let _ = …` drops the {what}guard \
                                     immediately — the critical section is empty; bind it \
                                     as `let _guard = …` to hold the lock"
                                ),
                            );
                            if f.snippet.contains("let _ =") {
                                f.suggestion =
                                    Some(f.snippet.replacen("let _ =", "let _guard =", 1));
                            }
                            s.findings.push(f);
                        }
                    }
                    Some(g) => {
                        if let Some(s) = sink {
                            if !g.starts_with('_') && !self.uses.contains(*g) {
                                s.findings.push(finding_at(
                                    self.pass.ws,
                                    self.pass.ws.fns[self.id].file,
                                    *pos,
                                    "guard-discipline",
                                    format!(
                                        "guard-discipline: guard `{g}` is locked but never \
                                         used — name it `_{g}` if the lock is held for \
                                         effect, or delete the acquisition"
                                    ),
                                ));
                            }
                        }
                        fact.insert(
                            (*g).to_string(),
                            Guard {
                                id: acq.id,
                                excl: acq.excl,
                            },
                        );
                    }
                }
            }
            Step::Eval(e) => self.eval_events(e, fact, sink),
            Step::EndScope(names) => {
                for n in names {
                    fact.remove(*n);
                }
            }
        }
    }

    /// Process the events under one evaluated expression against the
    /// current held set, in order.
    fn eval_events(&self, e: &Expr, fact: &mut Fact, mut sink: Option<&mut Emit<'_>>) {
        let mut events = Vec::new();
        self.expr_events(e, &mut events);
        let file = self.pass.ws.fns[self.id].file;
        for ev in events {
            match ev {
                Event::Drop(name) => {
                    fact.remove(&name);
                }
                Event::Acq(acq) => {
                    let Some(s) = sink.as_deref_mut() else {
                        continue;
                    };
                    let Some(id) = &acq.id else { continue };
                    if let Some(gname) = conflicting_guard(fact, id, acq.excl) {
                        s.findings.push(finding_at(
                            self.pass.ws,
                            file,
                            acq.pos,
                            "double-lock",
                            format!(
                                "double-lock: `{id}` may already be held here (guard \
                                 `{gname}`) — re-acquiring a non-reentrant lock \
                                 self-deadlocks"
                            ),
                        ));
                    }
                    if id.is_global() {
                        let me = &self.pass.ws.fns[self.id].qname;
                        for held in held_globals(fact, id) {
                            s.pairs.entry((held, id.clone())).or_insert(Witness {
                                file,
                                pos: acq.pos,
                                chain: vec![me.clone()],
                            });
                        }
                    }
                }
                Event::Call(callee, pos) => {
                    let Some(s) = sink.as_deref_mut() else {
                        continue;
                    };
                    if !fact.is_empty() {
                        let kind = if self.pass.parallel.contains(&callee) {
                            Some(PARALLEL_ENTRY)
                        } else if self.pass.io_blocking.contains(&callee) {
                            Some(IO_BLOCKING)
                        } else {
                            None
                        };
                        if let Some(kind) = kind {
                            s.findings.push(finding_at(
                                self.pass.ws,
                                file,
                                pos,
                                "held-lock-blocking",
                                format!(
                                    "held-lock-blocking: {} held across a call into \
                                     `{}` (marked {kind}) — a lock must never span a \
                                     blocking boundary",
                                    held_desc(fact),
                                    self.pass.ws.fns[callee].qname,
                                ),
                            ));
                        }
                    }
                    for (lock, excl) in &self.pass.trans[callee] {
                        if let Some(gname) = conflicting_guard(fact, lock, *excl) {
                            let mut chain = vec![self.pass.ws.fns[self.id].qname.clone()];
                            chain.extend(self.pass.chain_of(callee, lock));
                            s.findings.push(finding_at(
                                self.pass.ws,
                                file,
                                pos,
                                "double-lock",
                                format!(
                                    "double-lock: `{lock}` is held here (guard `{gname}`) \
                                     and re-acquired through the call path {} — \
                                     self-deadlock",
                                    chain.join(" → "),
                                ),
                            ));
                        }
                        for held in held_globals(fact, lock) {
                            let mut chain = vec![self.pass.ws.fns[self.id].qname.clone()];
                            chain.extend(self.pass.chain_of(callee, lock));
                            s.pairs.entry((held, lock.clone())).or_insert(Witness {
                                file,
                                pos,
                                chain,
                            });
                        }
                    }
                }
                Event::Blocking(what, pos) => {
                    let Some(s) = sink.as_deref_mut() else {
                        continue;
                    };
                    if !fact.is_empty() {
                        s.findings.push(finding_at(
                            self.pass.ws,
                            file,
                            pos,
                            "held-lock-blocking",
                            format!(
                                "held-lock-blocking: {} held across blocking `{what}` — \
                                 a lock must never span a blocking boundary",
                                held_desc(fact),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

impl<'a, 'p> cfg::Analysis<'a> for FnCtx<'p> {
    type Fact = Fact;

    fn entry_fact(&self) -> Fact {
        BTreeMap::new()
    }

    fn join(&self, a: &Fact, b: &Fact) -> Fact {
        let mut out = a.clone();
        for (name, g) in b {
            match out.get_mut(name) {
                None => {
                    out.insert(name.clone(), g.clone());
                }
                Some(have) if have == g => {}
                Some(have) => {
                    // Same binding, different lock on the two paths:
                    // keep it live but forget the identity (may-hold).
                    have.excl |= g.excl;
                    if have.id != g.id {
                        have.id = None;
                    }
                }
            }
        }
        out
    }

    fn transfer(&self, cfg: &Cfg<'a>, block: BlockId, fact: Fact) -> Fact {
        let mut fact = fact;
        for step in &cfg.blocks[block].steps {
            self.step_fact(&mut fact, step, None);
        }
        fact
    }
}

/// A held guard on `id` whose mode conflicts with a new `excl`
/// acquisition (read/read is the only compatible pairing).
fn conflicting_guard(fact: &Fact, id: &LockId, excl: bool) -> Option<String> {
    fact.iter()
        .find(|(_, g)| g.id.as_ref() == Some(id) && (g.excl || excl))
        .map(|(name, _)| name.clone())
}

/// Global locks held by the fact, other than `acquiring`.
fn held_globals(fact: &Fact, acquiring: &LockId) -> Vec<LockId> {
    let mut out: Vec<LockId> = fact
        .values()
        .filter_map(|g| g.id.clone())
        .filter(|id| id.is_global() && id != acquiring)
        .collect();
    out.dedup();
    out
}

/// Human description of the held set for messages.
fn held_desc(fact: &Fact) -> String {
    let parts: Vec<String> = fact
        .iter()
        .map(|(name, g)| match &g.id {
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

/// `{ident}`-style names inside a literal (format interpolation), for
/// the guard-usage oracle.
fn interpolated(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j > i + 1 && !bytes[i + 1].is_ascii_digit() {
                if let Ok(name) = std::str::from_utf8(&bytes[i + 1..j]) {
                    out.push(name.to_string());
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Typo'd marker spellings the guard-discipline lint repairs.
const MARKER_TYPOS: [(&str, &str); 3] = [
    ("sfcheck:io_blocking", "sfcheck:io-blocking"),
    ("sfcheck:lock_helper", "sfcheck:lock-helper"),
    ("sfcheck:parallel_entry", "sfcheck:parallel-entry"),
];

/// Run the lock-discipline lints. Summaries and acquisition pairs are
/// computed whole-workspace: an inversion's two sides can live in
/// call-graph-disconnected files.
pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let pass = Pass::build(ws, cg);
    let mut out: Vec<Finding> = Vec::new();
    let mut pairs: Pairs = BTreeMap::new();
    for id in 0..ws.fns.len() {
        let info = &ws.fns[id];
        if info.is_test || pass.helpers.contains(&id) {
            continue;
        }
        let Some(body) = ws.body_of(id) else { continue };
        let ctx = FnCtx::new(&pass, id, body);
        let cfg = Cfg::build(body);
        let facts = cfg::fixpoint(&cfg, &ctx);
        for (b, entry) in facts.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let mut fact = entry.clone();
            let mut emit = Emit {
                findings: &mut out,
                pairs: &mut pairs,
            };
            for step in &cfg.blocks[b].steps {
                ctx.step_fact(&mut fact, step, Some(&mut emit));
            }
        }
    }
    for ((a, b), w) in &pairs {
        if a >= b {
            continue;
        }
        let Some(rev) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        out.push(finding_at(
            ws,
            w.file,
            w.pos,
            "lock-order-inversion",
            format!(
                "lock-order-inversion: `{a}` then `{b}` (path: {}) but `{b}` then \
                 `{a}` (path: {}) — opposite acquisition orders can deadlock",
                w.chain.join(" → "),
                rev.chain.join(" → "),
            ),
        ));
    }
    // Marker typos: an `sfcheck:` lock annotation that silently does
    // nothing is a discipline hole, not a style nit.
    for (idx, file) in ws.files.iter().enumerate() {
        if file.class == FileClass::Test {
            continue;
        }
        for (lno, line) in file.text.lines().enumerate() {
            let Some(slashes) = line.find("//") else {
                continue;
            };
            for (typo, fixed) in MARKER_TYPOS {
                if let Some(col) = line.find(typo) {
                    if col < slashes {
                        continue;
                    }
                    let pos = Pos {
                        line: lno as u32 + 1,
                        col: col as u32 + 1,
                    };
                    let mut f = finding_at(
                        ws,
                        idx,
                        pos,
                        "guard-discipline",
                        format!(
                            "guard-discipline: annotation typo — `{typo}` is not a \
                             recognized marker; write `{fixed}`"
                        ),
                    );
                    f.suggestion = Some(f.snippet.replacen(typo, fixed, 1));
                    out.push(f);
                }
            }
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

    fn ws_from(files: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let manifests = vec![SourceFile {
            rel_path: "crates/app/Cargo.toml".to_string(),
            text: "[package]\nname = \"app\"\n".to_string(),
            class: classify("crates/app/Cargo.toml"),
            crate_dir: crate_dir_of("crates/app/Cargo.toml"),
        }];
        let parsed = files
            .iter()
            .map(|(rel, text)| {
                (
                    SourceFile {
                        rel_path: rel.to_string(),
                        text: text.to_string(),
                        class: classify(rel),
                        crate_dir: crate_dir_of(rel),
                    },
                    parse(&lex(text)),
                )
            })
            .collect();
        let ws = crate::resolve::build(parsed, &manifests);
        let cg = crate::callgraph::build(&ws);
        (ws, cg)
    }

    fn lints_of(src: &str) -> Vec<Finding> {
        let (ws, cg) = ws_from(&[("crates/app/src/lib.rs", src)]);
        run(&ws, &cg)
    }

    const TWO_MUTEXES: &str = "static A: Mutex<i32> = Mutex::new(0);\n\
                               static B: Mutex<i32> = Mutex::new(0);\n";

    #[test]
    fn inversion_across_three_fns_is_reported_with_both_chains() {
        let src = format!(
            "{TWO_MUTEXES}\
             pub fn f1() {{ let ga = A.lock().unwrap(); g(); drop(ga); }}\n\
             pub fn g() {{ let gb = B.lock().unwrap(); drop(gb); }}\n\
             pub fn f2() {{ let gb = B.lock().unwrap(); h(); drop(gb); }}\n\
             pub fn h() {{ let ga = A.lock().unwrap(); drop(ga); }}\n"
        );
        let found = lints_of(&src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "lock-order-inversion");
        assert!(
            found[0].message.contains("f1 → app::g"),
            "{}",
            found[0].message
        );
        assert!(
            found[0].message.contains("f2 → app::h"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn consistent_nesting_order_is_clean() {
        let src = format!(
            "{TWO_MUTEXES}\
             pub fn f() {{ let a = A.lock().unwrap(); let b = B.lock().unwrap(); drop(b); drop(a); }}\n\
             pub fn g() {{ let a = A.lock().unwrap(); let b = B.lock().unwrap(); drop(b); drop(a); }}\n"
        );
        assert!(lints_of(&src).is_empty());
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
    fn double_lock_through_a_call_chain_names_the_path() {
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() { let g1 = M.lock().unwrap(); mid(); drop(g1); }\n\
                   pub fn mid() { leaf(); }\n\
                   pub fn leaf() { let g2 = M.lock().unwrap(); drop(g2); }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
        assert!(
            found[0].message.contains("app::f → app::mid → app::leaf"),
            "{}",
            found[0].message
        );
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
    fn rwlock_read_read_is_clean_but_read_write_is_double_lock() {
        let clean = "static R: RwLock<i32> = RwLock::new(0);\n\
                     pub fn f() {\n\
                     let a = R.read().unwrap();\n\
                     let b = R.read().unwrap();\n\
                     drop(b); drop(a);\n\
                     }\n";
        assert!(lints_of(clean).is_empty());

        let bad = "static R: RwLock<i32> = RwLock::new(0);\n\
                   pub fn f() {\n\
                   let a = R.read().unwrap();\n\
                   let b = R.write().unwrap();\n\
                   drop(b); drop(a);\n\
                   }\n";
        let found = lints_of(bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
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
    fn accessor_fn_gives_the_lock_a_process_wide_identity() {
        let src = "pub fn registry() -> i32 { 0 }\n\
                   pub fn f() {\n\
                   let a = registry().lock().unwrap();\n\
                   let b = registry().lock().unwrap();\n\
                   drop(b); drop(a);\n\
                   }\n";
        let found = lints_of(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "double-lock");
        assert!(
            found[0].message.contains("registry()"),
            "{}",
            found[0].message
        );
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
        // held at the call site, and must not enter the fn summary.
        let src = "static M: Mutex<i32> = Mutex::new(0);\n\
                   pub fn f() {\n\
                   let g = M.lock().unwrap();\n\
                   let job = move || M.lock().unwrap();\n\
                   drop(job); drop(g);\n\
                   }\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn marker_typo_is_reported_with_a_fix() {
        let src = format!(
            "pub fn slow() {{}}\n{} sfcheck:io{}blocking\npub fn f() {{}}\n",
            "//", '_'
        );
        let found = lints_of(&src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "guard-discipline");
        let fix = found[0].suggestion.as_deref().expect("machine fix");
        assert!(fix.contains("sfcheck:io-blocking"), "{fix}");
    }

    #[test]
    fn inversion_pairs_survive_disconnected_call_components() {
        // The two sides live in files with no call path between them.
        let shared = "static A: Mutex<i32> = Mutex::new(0);\n\
                      static B: Mutex<i32> = Mutex::new(0);\n";
        let one = "pub fn f() { let a = A.lock().unwrap(); let b = B.lock().unwrap(); drop(b); drop(a); }\n";
        let two = "pub fn g() { let b = B.lock().unwrap(); let a = A.lock().unwrap(); drop(a); drop(b); }\n";
        let (ws, cg) = ws_from(&[
            ("crates/app/src/lib.rs", shared),
            ("crates/app/src/one.rs", one),
            ("crates/app/src/two.rs", two),
        ]);
        let found = run(&ws, &cg);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, "lock-order-inversion");
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
}
