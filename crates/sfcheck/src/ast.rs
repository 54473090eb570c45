//! The abstract syntax tree produced by [`crate::parser`].
//!
//! This is a *lint-grade* AST, not a compiler-grade one: it models exactly
//! the structure the semantic lints reason about — items, function
//! signatures (`&mut` params, generics), `use` paths, impl blocks,
//! closures, call/method-call expressions, and the binding forms needed
//! for free-variable (capture) analysis — and deliberately flattens
//! everything else into [`Expr::Seq`] "expression soup" that still records
//! its children, so a walk never loses a nested call or closure.
//!
//! Every node carries a byte [`Span`] into the source file plus the
//! 1-based line/column of its first token, so findings and `--fix`
//! rewrites anchor exactly. [`dump`] renders a deterministic, indented
//! text form of the tree (the golden-AST tests pin it for representative
//! workspace files).

use std::fmt::Write as _;

/// Byte range into the source file (`start..end`).
pub type Span = std::ops::Range<u32>;

/// Line + column (1-based) of a node's first token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column in characters.
    pub col: u32,
}

/// A parsed source file.
#[derive(Debug, Clone, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (top-level or nested in a `mod`/`impl`/function body).
#[derive(Debug, Clone)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Byte span of the whole item including attributes.
    pub span: Span,
    /// Position of the item's first token.
    pub pos: Pos,
    /// Flattened attribute texts, e.g. `cfg(test)`, `test`, `derive(Debug)`.
    pub attrs: Vec<String>,
    /// `// sfcheck:<name>` marker comments attached directly above the
    /// item (e.g. `parallel-entry`, `seed-derivation`).
    pub markers: Vec<String>,
}

impl Item {
    /// True when the item is gated to test builds (`#[cfg(test)]` or
    /// `#[test]`-family attributes).
    pub fn is_test_gated(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a == "test" || (a.starts_with("cfg") && a.contains("test")))
    }
}

/// Item discriminant.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `fn` definition (free or associated).
    Fn(FnItem),
    /// `use` declaration, expanded to one target per imported name.
    Use(UseItem),
    /// `impl` block.
    Impl(ImplBlock),
    /// `mod` declaration, inline or file-backed.
    Mod(ModItem),
    /// `static` item.
    Static(StaticItem),
    /// Anything else (`struct`, `enum`, `trait`, `const`, `type`, …):
    /// structure is skipped, keyword and name are kept.
    Other(OtherItem),
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Whether the definition is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Generic type-parameter names (lifetimes and bounds dropped).
    pub generics: Vec<String>,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body block; `None` for trait-method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name: the first identifier of the pattern (`self` for any
    /// self receiver).
    pub name: String,
    /// Flattened type text (empty for bare `self` receivers).
    pub ty: String,
    /// True when the parameter is taken by `&mut` (including `&mut self`).
    pub by_mut_ref: bool,
}

/// A `use` declaration.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// One entry per imported name, groups expanded.
    pub targets: Vec<UseTarget>,
}

/// One imported name.
#[derive(Debug, Clone)]
pub struct UseTarget {
    /// Full path segments as written (`crate`, `super`, `self` kept).
    pub path: Vec<String>,
    /// The name the import binds (`as` alias, else the last segment;
    /// `*` for glob imports).
    pub alias: String,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Last segment of the self type's path (`Foo` for `impl Foo<T>`).
    pub ty_name: String,
    /// Last segment of the implemented trait's path, if a trait impl.
    pub trait_name: Option<String>,
    /// Associated items (functions, consts, …).
    pub items: Vec<Item>,
}

/// A `mod` declaration.
#[derive(Debug, Clone)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// Inline items; `None` for `mod name;` (file-backed).
    pub items: Option<Vec<Item>>,
}

/// A `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Static's name.
    pub name: String,
    /// True for `static mut`.
    pub mutable: bool,
    /// Declared type, as written (empty when unparseable). The lock pass
    /// reads this to spot `Mutex`/`RwLock`-typed process globals.
    pub ty: String,
}

/// An item the parser does not model structurally.
#[derive(Debug, Clone)]
pub struct OtherItem {
    /// Leading keyword (`struct`, `enum`, `const`, …).
    pub keyword: String,
    /// The declared name, when one follows the keyword.
    pub name: Option<String>,
}

/// A `{ … }` block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Byte span including the braces.
    pub span: Span,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let` binding.
    Let(LetStmt),
    /// Expression statement (or trailing expression).
    Expr(Expr),
    /// Nested item (fn, use, const, … defined inside a body).
    Item(Item),
}

/// A `let` binding.
#[derive(Debug, Clone)]
pub struct LetStmt {
    /// First identifier of the pattern (`_` when none).
    pub name: String,
    /// All identifiers bound by the pattern (tuple/struct patterns).
    pub bound: Vec<String>,
    /// True for `let mut`.
    pub mutable: bool,
    /// Flattened type annotation text (empty when inferred).
    pub ty: String,
    /// Initializer expression.
    pub init: Option<Expr>,
    /// Position of the `let` keyword.
    pub pos: Pos,
    /// Byte span of the whole statement.
    pub span: Span,
}

/// An expression. Structured variants carry exactly what the lints need;
/// everything else nests under [`Expr::Seq`].
#[derive(Debug, Clone)]
pub enum Expr {
    /// A (possibly qualified) path: `x`, `a::b::c`, `Self::f`.
    Path(PathExpr),
    /// A call whose callee is an expression (usually a path).
    Call(CallExpr),
    /// A method call `recv.name(args)`.
    MethodCall(MethodCallExpr),
    /// A closure `move? |params| body`.
    Closure(ClosureExpr),
    /// A macro invocation `name!(…)` / `name![…]` / `name!{…}`.
    Macro(MacroExpr),
    /// An index expression `base[index]`.
    Index(IndexExpr),
    /// A field access `base.name` (also tuple indices and `.await`).
    Field(FieldExpr),
    /// A block expression.
    Block(Block),
    /// A literal (string/char/number).
    Lit(LitExpr),
    /// An uninterpreted run of sub-expressions (operator chains, tuples,
    /// control-flow headers, …). `binds` lists pattern-bound names whose
    /// scope is this node (for-loop patterns, match-arm patterns,
    /// `if let`/`while let`), so free-variable analysis can exclude them.
    Seq(SeqExpr),
}

/// See [`Expr::Path`].
#[derive(Debug, Clone)]
pub struct PathExpr {
    /// Path segments (turbofish generics dropped).
    pub segments: Vec<String>,
    /// Span of the whole path.
    pub span: Span,
    /// Position of the first segment.
    pub pos: Pos,
}

/// See [`Expr::Call`].
#[derive(Debug, Clone)]
pub struct CallExpr {
    /// The called expression.
    pub callee: Box<Expr>,
    /// Arguments in order.
    pub args: Vec<Expr>,
    /// Span of callee + argument list.
    pub span: Span,
    /// Position of the callee's first token.
    pub pos: Pos,
}

/// See [`Expr::MethodCall`].
#[derive(Debug, Clone)]
pub struct MethodCallExpr {
    /// Receiver expression.
    pub recv: Box<Expr>,
    /// Method name.
    pub method: String,
    /// Arguments in order (receiver excluded).
    pub args: Vec<Expr>,
    /// Span of receiver + call.
    pub span: Span,
    /// Position of the method name token.
    pub pos: Pos,
}

/// See [`Expr::Closure`].
#[derive(Debug, Clone)]
pub struct ClosureExpr {
    /// True for `move` closures.
    pub is_move: bool,
    /// Parameter names in order.
    pub params: Vec<String>,
    /// Body expression.
    pub body: Box<Expr>,
    /// Span from `move`/`|` through the body.
    pub span: Span,
    /// Position of the closure's first token.
    pub pos: Pos,
}

/// See [`Expr::Macro`].
#[derive(Debug, Clone)]
pub struct MacroExpr {
    /// Macro path segments (`panic`, `obs::event`, …).
    pub segments: Vec<String>,
    /// Parsed argument expressions (for `(…)`/`[…]` macros).
    pub args: Vec<Expr>,
    /// Span of the whole invocation.
    pub span: Span,
    /// Position of the macro name.
    pub pos: Pos,
}

/// See [`Expr::Index`].
#[derive(Debug, Clone)]
pub struct IndexExpr {
    /// Indexed expression.
    pub base: Box<Expr>,
    /// Index expression.
    pub index: Box<Expr>,
    /// Span of base + brackets.
    pub span: Span,
    /// Position of the base's first token.
    pub pos: Pos,
}

/// See [`Expr::Field`].
#[derive(Debug, Clone)]
pub struct FieldExpr {
    /// Base expression.
    pub base: Box<Expr>,
    /// Field name (or tuple index / `await`).
    pub name: String,
    /// Span of base + field.
    pub span: Span,
    /// Position of the base's first token.
    pub pos: Pos,
}

/// See [`Expr::Lit`].
#[derive(Debug, Clone)]
pub struct LitExpr {
    /// Literal text as written.
    pub text: String,
    /// Span of the literal.
    pub span: Span,
    /// Position of the literal.
    pub pos: Pos,
}

/// Control-flow role of a [`SeqExpr`]. The parser tags the `Seq` nodes
/// it builds for control-flow constructs so downstream passes (the lock
/// walk in particular) can recover branch/loop/early-exit structure
/// without re-deriving it from token shapes. Plain expression runs and
/// groups stay `Ctrl::None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ctrl {
    /// Plain expression run, group, struct literal, or soup.
    #[default]
    None,
    /// `if`/`if let` (children: cond, then-block, optional else).
    If,
    /// `while`/`while let` (children: cond, body-block).
    While,
    /// `for` (children: iterable, body-block; binds from the pattern).
    For,
    /// `loop` (children: body-block).
    Loop,
    /// `match` (children: scrutinee, then one `Arm` per arm).
    Match,
    /// One match arm (children: body; binds from the pattern).
    Arm,
    /// `return expr?` (children: the value, when present).
    Return,
    /// `break expr?`.
    Break,
    /// `continue`.
    Continue,
}

impl Ctrl {
    /// Short name for AST dumps (empty for `None`).
    pub fn name(self) -> &'static str {
        match self {
            Ctrl::None => "",
            Ctrl::If => "if",
            Ctrl::While => "while",
            Ctrl::For => "for",
            Ctrl::Loop => "loop",
            Ctrl::Match => "match",
            Ctrl::Arm => "arm",
            Ctrl::Return => "return",
            Ctrl::Break => "break",
            Ctrl::Continue => "continue",
        }
    }
}

/// See [`Expr::Seq`].
#[derive(Debug, Clone, Default)]
pub struct SeqExpr {
    /// Child expressions in source order.
    pub children: Vec<Expr>,
    /// Names bound by patterns scoped to this node.
    pub binds: Vec<String>,
    /// Control-flow role (`Ctrl::None` for plain runs).
    pub ctrl: Ctrl,
    /// Span of the run.
    pub span: Span,
    /// Position of the first token.
    pub pos: Pos,
}

impl Expr {
    /// The expression's byte span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path(e) => e.span.clone(),
            Expr::Call(e) => e.span.clone(),
            Expr::MethodCall(e) => e.span.clone(),
            Expr::Closure(e) => e.span.clone(),
            Expr::Macro(e) => e.span.clone(),
            Expr::Index(e) => e.span.clone(),
            Expr::Field(e) => e.span.clone(),
            Expr::Block(b) => b.span.clone(),
            Expr::Lit(e) => e.span.clone(),
            Expr::Seq(e) => e.span.clone(),
        }
    }

    /// The position of the expression's first token.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Path(e) => e.pos,
            Expr::Call(e) => e.pos,
            Expr::MethodCall(e) => e.pos,
            Expr::Closure(e) => e.pos,
            Expr::Macro(e) => e.pos,
            Expr::Index(e) => e.pos,
            Expr::Field(e) => e.pos,
            Expr::Block(b) => b.stmts.first().map(Stmt::pos).unwrap_or_default(),
            Expr::Lit(e) => e.pos,
            Expr::Seq(e) => e.pos,
        }
    }

    /// Visit this expression and every nested expression (pre-order),
    /// including closure bodies and statements of nested blocks.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Path(_) | Expr::Lit(_) => {}
            Expr::Call(e) => {
                e.callee.walk(f);
                for a in &e.args {
                    a.walk(f);
                }
            }
            Expr::MethodCall(e) => {
                e.recv.walk(f);
                for a in &e.args {
                    a.walk(f);
                }
            }
            Expr::Closure(e) => e.body.walk(f),
            Expr::Macro(e) => {
                for a in &e.args {
                    a.walk(f);
                }
            }
            Expr::Index(e) => {
                e.base.walk(f);
                e.index.walk(f);
            }
            Expr::Field(e) => e.base.walk(f),
            Expr::Block(b) => walk_block(b, f),
            Expr::Seq(e) => {
                for c in &e.children {
                    c.walk(f);
                }
            }
        }
    }
}

/// Visit every expression under a block (see [`Expr::walk`]).
pub fn walk_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    init.walk(f);
                }
            }
            Stmt::Expr(e) => e.walk(f),
            Stmt::Item(item) => {
                if let ItemKind::Fn(fun) = &item.kind {
                    if let Some(body) = &fun.body {
                        walk_block(body, f);
                    }
                }
            }
        }
    }
}

/// Identifiers interpolated format-style inside a literal's text:
/// `"{threads}"` and `"{threads:>8}"` name `threads`; `{{` escapes are
/// skipped and positional or empty braces (`{}`, `{0}`) name nothing.
pub fn interpolated_idents(text: &str, names: &mut Vec<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &text[start..j];
        if !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            names.push(name.to_string());
        }
        i = j + 1;
    }
}

impl Stmt {
    /// Position of the statement's first token.
    pub fn pos(&self) -> Pos {
        match self {
            Stmt::Let(l) => l.pos,
            Stmt::Expr(e) => e.pos(),
            Stmt::Item(i) => i.pos,
        }
    }
}

/// Render a deterministic, indented text dump of the tree. Line-oriented:
/// one node per line, children indented two spaces — the golden-AST
/// format.
pub fn dump(file: &File) -> String {
    let mut out = String::from("file\n");
    for item in &file.items {
        dump_item(item, 1, &mut out);
    }
    out
}

fn pad(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn dump_item(item: &Item, depth: usize, out: &mut String) {
    pad(depth, out);
    match &item.kind {
        ItemKind::Fn(f) => {
            let _ = write!(out, "fn {} pub={}", f.name, f.is_pub);
            if !f.generics.is_empty() {
                let _ = write!(out, " generics=[{}]", f.generics.join(","));
            }
            let params: Vec<String> = f
                .params
                .iter()
                .map(|p| {
                    if p.by_mut_ref {
                        format!("&mut {}", p.name)
                    } else {
                        p.name.clone()
                    }
                })
                .collect();
            let _ = write!(out, " params=[{}]", params.join(","));
        }
        ItemKind::Use(u) => {
            let targets: Vec<String> = u
                .targets
                .iter()
                .map(|t| {
                    let path = t.path.join("::");
                    if t.path.last().map(String::as_str) == Some(t.alias.as_str()) {
                        path
                    } else {
                        format!("{path} as {}", t.alias)
                    }
                })
                .collect();
            let _ = write!(out, "use {}", targets.join(", "));
        }
        ItemKind::Impl(i) => match &i.trait_name {
            Some(t) => {
                let _ = write!(out, "impl {t} for {}", i.ty_name);
            }
            None => {
                let _ = write!(out, "impl {}", i.ty_name);
            }
        },
        ItemKind::Mod(m) => {
            let _ = write!(
                out,
                "mod {}{}",
                m.name,
                if m.items.is_none() { " (file)" } else { "" }
            );
        }
        ItemKind::Static(s) => {
            let _ = write!(out, "static {} mut={}", s.name, s.mutable);
            if !s.ty.is_empty() {
                let _ = write!(out, " ty={}", s.ty);
            }
        }
        ItemKind::Other(o) => {
            let _ = write!(out, "{} {}", o.keyword, o.name.as_deref().unwrap_or("?"));
        }
    }
    if !item.attrs.is_empty() {
        let _ = write!(out, " attrs=[{}]", item.attrs.join(","));
    }
    if !item.markers.is_empty() {
        let _ = write!(out, " markers=[{}]", item.markers.join(","));
    }
    out.push('\n');
    match &item.kind {
        ItemKind::Fn(f) => {
            if let Some(body) = &f.body {
                dump_block(body, depth + 1, out);
            }
        }
        ItemKind::Impl(i) => {
            for nested in &i.items {
                dump_item(nested, depth + 1, out);
            }
        }
        ItemKind::Mod(m) => {
            if let Some(items) = &m.items {
                for nested in items {
                    dump_item(nested, depth + 1, out);
                }
            }
        }
        _ => {}
    }
}

fn dump_block(b: &Block, depth: usize, out: &mut String) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let(l) => {
                pad(depth, out);
                let _ = write!(out, "let {} mut={}", l.name, l.mutable);
                if !l.ty.is_empty() {
                    let _ = write!(out, " ty={}", l.ty);
                }
                out.push('\n');
                if let Some(init) = &l.init {
                    dump_expr(init, depth + 1, out);
                }
            }
            Stmt::Expr(e) => dump_expr(e, depth, out),
            Stmt::Item(i) => dump_item(i, depth, out),
        }
    }
}

fn dump_expr(e: &Expr, depth: usize, out: &mut String) {
    match e {
        Expr::Path(p) => {
            pad(depth, out);
            let _ = writeln!(out, "path {}", p.segments.join("::"));
        }
        Expr::Call(c) => {
            pad(depth, out);
            out.push_str("call\n");
            dump_expr(&c.callee, depth + 1, out);
            for a in &c.args {
                dump_expr(a, depth + 1, out);
            }
        }
        Expr::MethodCall(m) => {
            pad(depth, out);
            let _ = writeln!(out, "method .{}", m.method);
            dump_expr(&m.recv, depth + 1, out);
            for a in &m.args {
                dump_expr(a, depth + 1, out);
            }
        }
        Expr::Closure(c) => {
            pad(depth, out);
            let _ = writeln!(
                out,
                "closure move={} params=[{}]",
                c.is_move,
                c.params.join(",")
            );
            dump_expr(&c.body, depth + 1, out);
        }
        Expr::Macro(m) => {
            pad(depth, out);
            let _ = writeln!(out, "macro {}!", m.segments.join("::"));
            for a in &m.args {
                dump_expr(a, depth + 1, out);
            }
        }
        Expr::Index(i) => {
            pad(depth, out);
            out.push_str("index\n");
            dump_expr(&i.base, depth + 1, out);
            dump_expr(&i.index, depth + 1, out);
        }
        Expr::Field(f) => {
            pad(depth, out);
            let _ = writeln!(out, "field .{}", f.name);
            dump_expr(&f.base, depth + 1, out);
        }
        Expr::Block(b) => {
            pad(depth, out);
            out.push_str("block\n");
            dump_block(b, depth + 1, out);
        }
        Expr::Lit(l) => {
            pad(depth, out);
            let mut text = l.text.clone();
            if text.chars().count() > 40 {
                text = text.chars().take(40).collect::<String>() + "…";
            }
            let _ = writeln!(out, "lit {text}");
        }
        Expr::Seq(s) => {
            pad(depth, out);
            out.push_str("seq");
            if s.ctrl != Ctrl::None {
                let _ = write!(out, " {}", s.ctrl.name());
            }
            if !s.binds.is_empty() {
                let _ = write!(out, " binds=[{}]", s.binds.join(","));
            }
            out.push('\n');
            for c in &s.children {
                dump_expr(c, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_idents_parses_format_braces() {
        let mut names = Vec::new();
        interpolated_idents(
            "\"a={alpha} b={beta:>8} c={} d={0} e={{gamma}} f={x.y}\"",
            &mut names,
        );
        assert_eq!(names, ["alpha", "beta"]);
    }
}
