//! A tolerant recursive-descent parser from [`crate::lexer`] tokens to the
//! [`crate::ast`] tree.
//!
//! Design goals, in order:
//!
//! 1. **Never panic, never loop.** Every construct the parser does not
//!    understand is consumed as [`crate::ast::Expr::Seq`] soup; every loop either
//!    consumes a token or breaks. The rng-driven fuzz harness holds the
//!    parser to this on arbitrary byte soup.
//! 2. **Never lose a call or closure.** The semantic lints walk the tree
//!    for call edges, rng constructors, and parallel-region closures, so
//!    arguments of calls, macros, struct literals, match arms, and nested
//!    blocks are all recursively parsed rather than skipped.
//! 3. **Bindings where capture analysis needs them.** `let` patterns,
//!    closure/fn parameters, `for` patterns, `if let`/`while let`
//!    patterns, and match-arm patterns record the names they bind, so
//!    free-variable (capture) analysis over closure bodies is possible
//!    without a full name-resolution pass.
//!
//! It is *not* a validating parser: precedence, type grammar, and most of
//! the pattern grammar are deliberately out of scope (see DESIGN.md §11
//! for the accepted approximations).

use crate::ast::{
    Block, ClosureExpr, Ctrl, Expr, File, FnItem, ImplBlock, Item, ItemKind, LetStmt, LitExpr,
    MacroExpr, ModItem, OtherItem, Param, PathExpr, Pos, SeqExpr, StaticItem, Stmt, UseItem,
    UseTarget,
};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Maximum recursion depth before the parser flattens the rest of the
/// current construct (guards against pathological nesting in fuzz input).
const MAX_DEPTH: u32 = 120;

/// Marker-comment prefix: `// sfcheck:parallel-entry`, `// sfcheck:seed-derivation`.
const MARKER_PREFIX: &str = "sfcheck:";

/// Parse a token stream (as produced by [`crate::lexer::lex`], comments
/// included) into a [`File`]. Infallible by construction.
pub fn parse(tokens: &[Token]) -> File {
    let mut code: Vec<Token> = Vec::with_capacity(tokens.len());
    let mut markers: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for t in tokens {
        if t.is_code() {
            code.push(t.clone());
        } else if t.kind == TokenKind::LineComment {
            // `// sfcheck:<name>` (not `allow(...)`) is a marker that
            // attaches to the next item.
            let body = t.text.trim_start_matches('/').trim();
            if let Some(rest) = body.strip_prefix(MARKER_PREFIX) {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !name.is_empty() && name != "allow" {
                    markers.entry(code.len()).or_default().push(name);
                }
            }
        }
    }
    let mut p = Parser {
        code,
        i: 0,
        markers,
        depth: 0,
    };
    let items = p.items_until(None);
    File { items }
}

struct Parser {
    code: Vec<Token>,
    i: usize,
    /// Markers keyed by the code-token index they precede.
    markers: BTreeMap<usize, Vec<String>>,
    depth: u32,
}

impl Parser {
    // ---- token primitives -------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.code.get(self.i)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.code.get(self.i + n)
    }

    fn text(&self) -> &str {
        self.peek().map(|t| t.text.as_str()).unwrap_or("")
    }

    fn text_at(&self, n: usize) -> &str {
        self.peek_at(n).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn is_ident(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.text() == s {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn pos_here(&self) -> Pos {
        self.peek()
            .map(|t| Pos {
                line: t.line,
                col: t.col,
            })
            .unwrap_or_default()
    }

    fn offset_here(&self) -> u32 {
        self.peek()
            .map(|t| t.offset)
            .unwrap_or_else(|| self.code.last().map(|t| t.offset + t.len).unwrap_or(0))
    }

    fn span_from(&self, start: u32) -> std::ops::Range<u32> {
        let end = if self.i == 0 {
            start
        } else {
            self.code
                .get(self.i - 1)
                .map(|t| t.offset + t.len)
                .unwrap_or(start)
        };
        start..end.max(start)
    }

    /// Consume one balanced `(…)`, `[…]`, or `{…}` group (opening token
    /// under the cursor), tolerating EOF.
    fn skip_balanced(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    self.i += 1;
                    if depth == 0 {
                        return;
                    }
                    continue;
                }
                _ => {}
            }
            self.i += 1;
            if depth == 0 {
                return;
            }
        }
    }

    /// Consume a balanced `<…>` run (turbofish / generics).
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth = depth.saturating_sub(1);
                    self.i += 1;
                    if depth == 0 {
                        return;
                    }
                    continue;
                }
                "(" | "[" | "{" => {
                    self.skip_balanced();
                    continue;
                }
                ";" => return, // a `;` inside angles means we misjudged
                _ => {}
            }
            self.i += 1;
            if depth == 0 {
                return;
            }
        }
    }

    fn take_markers(&mut self, lo: usize, hi: usize) -> Vec<String> {
        let keys: Vec<usize> = self.markers.range(lo..=hi).map(|(k, _)| *k).collect();
        let mut out = Vec::new();
        for k in keys {
            if let Some(mut v) = self.markers.remove(&k) {
                out.append(&mut v);
            }
        }
        out
    }

    // ---- attributes -------------------------------------------------------

    /// Parse any run of `#[…]` / `#![…]` attributes; outer attribute texts
    /// are returned flattened, inner ones discarded.
    fn parse_attrs(&mut self) -> Vec<String> {
        let mut attrs = Vec::new();
        while self.text() == "#" {
            let inner = self.text_at(1) == "!";
            let bracket_at = if inner { 2 } else { 1 };
            if self.text_at(bracket_at) != "[" {
                break;
            }
            self.i += bracket_at; // `#` (+ `!`)
            let start = self.i;
            self.skip_balanced(); // the `[...]` group
            if !inner {
                // Flatten the tokens between the brackets.
                let body: Vec<&str> = self.code[start + 1..self.i.saturating_sub(1)]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect();
                attrs.push(join_tokens(&body));
            }
        }
        attrs
    }

    // ---- items ------------------------------------------------------------

    fn items_until(&mut self, closer: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        if self.depth >= MAX_DEPTH {
            // Too deep: flatten the remainder of this group.
            while let Some(t) = self.peek() {
                if Some(t.text.as_str()) == closer {
                    self.i += 1;
                    return items;
                }
                if matches!(t.text.as_str(), "(" | "[" | "{") {
                    self.skip_balanced();
                } else {
                    self.i += 1;
                }
            }
            return items;
        }
        self.depth += 1;
        loop {
            match self.peek() {
                None => break,
                Some(t) if Some(t.text.as_str()) == closer => {
                    self.i += 1;
                    break;
                }
                Some(t) if t.text == ";" => {
                    self.i += 1;
                    continue;
                }
                _ => {}
            }
            let before = self.i;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.i == before {
                self.i += 1; // unknown token: skip, keep walking
            }
        }
        self.depth -= 1;
        items
    }

    /// Parse one item if the cursor is at something item-shaped.
    fn parse_item(&mut self) -> Option<Item> {
        let start_idx = self.i;
        let start = self.offset_here();
        let pos = self.pos_here();
        let attrs = self.parse_attrs();

        // Visibility and fn-qualifier prefixes.
        let mut is_pub = false;
        loop {
            if self.is_ident("pub") {
                is_pub = true;
                self.i += 1;
                if self.text() == "(" {
                    self.skip_balanced(); // pub(crate), pub(in …)
                }
                continue;
            }
            if (self.is_ident("const") && self.text_at(1) == "fn")
                || (self.is_ident("async") && matches!(self.text_at(1), "fn" | "unsafe"))
                || (self.is_ident("unsafe") && matches!(self.text_at(1), "fn" | "extern" | "impl"))
                || (self.is_ident("default") && self.text_at(1) == "fn")
            {
                self.i += 1;
                continue;
            }
            if self.is_ident("extern")
                && self.peek_at(1).is_some_and(|t| t.kind == TokenKind::StrLit)
                && self.text_at(2) == "fn"
            {
                self.i += 2;
                continue;
            }
            break;
        }

        let kw = self.peek()?.clone();
        if kw.kind != TokenKind::Ident {
            // Not an item; let the caller treat the token as soup.
            return None;
        }
        let kind = match kw.text.as_str() {
            "fn" => ItemKind::Fn(self.parse_fn(is_pub)),
            "use" => ItemKind::Use(self.parse_use()),
            "impl" => ItemKind::Impl(self.parse_impl()),
            "mod" => ItemKind::Mod(self.parse_mod()),
            "static" => ItemKind::Static(self.parse_static()),
            "struct" | "enum" | "union" | "trait" | "type" | "const" | "macro_rules" | "extern"
            | "macro" => {
                self.i += 1; // the keyword
                if kw.text == "macro_rules" {
                    self.eat("!");
                }
                let name = self
                    .peek()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone());
                if name.is_some() {
                    self.i += 1;
                }
                self.skip_item_rest();
                ItemKind::Other(OtherItem {
                    keyword: kw.text.clone(),
                    name,
                })
            }
            _ => return None,
        };
        let header_end = self.i.min(self.code.len());
        let markers = self.take_markers(start_idx, header_end.saturating_sub(1));
        Some(Item {
            kind,
            span: self.span_from(start),
            pos,
            attrs,
            markers,
        })
    }

    /// Skip the remainder of an unmodelled item: through the first
    /// balanced `{…}` group, or to a `;` at depth 0, whichever first.
    fn skip_item_rest(&mut self) {
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                ";" => {
                    self.i += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" | "[" => self.skip_balanced(),
                "<" => self.skip_angles(),
                "}" => return, // enclosing group's closer: stop before it
                _ => self.i += 1,
            }
        }
    }

    fn parse_fn(&mut self, is_pub: bool) -> FnItem {
        self.i += 1; // `fn`
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.i += 1;
                n
            }
            _ => String::from("?"),
        };
        // Generics: idents at depth 1 directly after `<` or `,`.
        let mut generics = Vec::new();
        if self.text() == "<" {
            let mut depth = 0usize;
            let mut after_sep = false;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "<" => {
                        depth += 1;
                        after_sep = depth == 1;
                    }
                    ">" => {
                        depth = depth.saturating_sub(1);
                        self.i += 1;
                        if depth == 0 {
                            break;
                        }
                        continue;
                    }
                    "," => after_sep = depth == 1,
                    _ => {
                        if after_sep && t.kind == TokenKind::Ident && t.text != "const" {
                            generics.push(t.text.clone());
                        }
                        after_sep = false;
                    }
                }
                self.i += 1;
            }
        }
        // Parameters.
        let mut params = Vec::new();
        if self.text() == "(" {
            self.i += 1;
            while self.peek().is_some() && self.text() != ")" {
                params.push(self.parse_param());
                if !self.eat(",") && self.text() != ")" {
                    self.i += 1; // tolerate junk
                }
            }
            self.eat(")");
        }
        // Return type + where clause: skip to the body or `;`.
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "{" | ";" => break,
                "(" | "[" => self.skip_balanced(),
                "<" => self.skip_angles(),
                "}" => break,
                _ => self.i += 1,
            }
        }
        let body = if self.text() == "{" {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnItem {
            name,
            is_pub,
            generics,
            params,
            body,
        }
    }

    /// One parameter: pattern `:` type, or a `self` receiver.
    fn parse_param(&mut self) -> Param {
        // Pattern part: up to a depth-0 `:` or the end of the parameter.
        let mut name = String::new();
        let mut saw_colon = false;
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," if depth == 0 => break,
                ":" if depth == 0 && self.text_at(1) != ":" => {
                    saw_colon = true;
                    self.i += 1;
                    break;
                }
                _ => {
                    if t.kind == TokenKind::Ident && name.is_empty() && t.text != "mut" {
                        name = t.text.clone();
                    }
                }
            }
            self.i += 1;
        }
        // Type part: flatten tokens, note leading `& mut`.
        let ty_start = self.i;
        if saw_colon {
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," if depth == 0 => break,
                    "<" => {
                        self.skip_angles();
                        continue;
                    }
                    _ => {}
                }
                self.i += 1;
            }
        }
        let ty_toks: Vec<&str> = self.code[ty_start..self.i]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        let by_mut_ref = (ty_toks.first() == Some(&"&")
            && (ty_toks.get(1) == Some(&"mut")
                || self.code[ty_start..self.i]
                    .iter()
                    .skip(1)
                    .find(|t| t.kind != TokenKind::Lifetime)
                    .is_some_and(|t| t.text == "mut")))
            || (!saw_colon && name == "self" && {
                // `&mut self` receiver: look back over the pattern tokens.
                let mut j = ty_start;
                let mut is_mut = false;
                while j > 0 {
                    j -= 1;
                    match self.code.get(j).map(|t| t.text.as_str()) {
                        Some("self") | Some("mut") => {
                            is_mut |= self.code[j].text == "mut";
                        }
                        Some("&") | Some("'") => {}
                        _ => break,
                    }
                }
                is_mut
            });
        if name.is_empty() {
            name = String::from("_");
        }
        Param {
            name,
            ty: join_tokens(&ty_toks),
            by_mut_ref,
        }
    }

    fn parse_use(&mut self) -> UseItem {
        self.i += 1; // `use`
        let mut targets = Vec::new();
        self.parse_use_tree(Vec::new(), &mut targets);
        self.eat(";");
        UseItem { targets }
    }

    fn parse_use_tree(&mut self, prefix: Vec<String>, out: &mut Vec<UseTarget>) {
        if self.depth >= MAX_DEPTH {
            self.skip_item_rest();
            return;
        }
        self.depth += 1;
        let mut path = prefix;
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    path.push(t.text.clone());
                    self.i += 1;
                }
                Some(t) if t.text == "*" => {
                    self.i += 1;
                    out.push(UseTarget {
                        path: path.clone(),
                        alias: "*".into(),
                    });
                    self.depth -= 1;
                    return;
                }
                Some(t) if t.text == "{" => {
                    self.i += 1;
                    while self.peek().is_some() && self.text() != "}" {
                        self.parse_use_tree(path.clone(), out);
                        if !self.eat(",") && self.text() != "}" {
                            self.i += 1;
                        }
                    }
                    self.eat("}");
                    self.depth -= 1;
                    return;
                }
                _ => break,
            }
            if self.text() == ":" && self.text_at(1) == ":" {
                self.i += 2;
                continue;
            }
            break;
        }
        self.depth -= 1;
        if path.is_empty() {
            return;
        }
        let alias = if self.is_ident("as") {
            self.i += 1;
            let a = self.text().to_string();
            if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                self.i += 1;
            }
            a
        } else {
            path.last().cloned().unwrap_or_default()
        };
        out.push(UseTarget { path, alias });
    }

    fn parse_impl(&mut self) -> ImplBlock {
        self.i += 1; // `impl`
        if self.text() == "<" {
            self.skip_angles();
        }
        // Collect header tokens up to the body / where clause, noting a
        // top-level `for` separating trait from self type.
        let mut pre_for: Vec<String> = Vec::new();
        let mut post_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "{" | ";" => break,
                "where" if t.kind == TokenKind::Ident => {
                    // Skip the where clause.
                    while self.peek().is_some() && !matches!(self.text(), "{" | ";") {
                        if self.text() == "<" {
                            self.skip_angles();
                        } else if matches!(self.text(), "(" | "[") {
                            self.skip_balanced();
                        } else {
                            self.i += 1;
                        }
                    }
                    break;
                }
                "for" if t.kind == TokenKind::Ident => {
                    saw_for = true;
                    self.i += 1;
                }
                "<" => self.skip_angles(),
                "(" | "[" => self.skip_balanced(),
                _ => {
                    if t.kind == TokenKind::Ident {
                        if saw_for {
                            post_for.push(t.text.clone());
                        } else {
                            pre_for.push(t.text.clone());
                        }
                    }
                    self.i += 1;
                }
            }
        }
        let (trait_name, ty_name) = if saw_for {
            (pre_for.last().cloned(), post_for.last().cloned())
        } else {
            (None, pre_for.last().cloned())
        };
        let items = if self.text() == "{" {
            self.i += 1;
            self.items_until(Some("}"))
        } else {
            self.eat(";");
            Vec::new()
        };
        ImplBlock {
            ty_name: ty_name.unwrap_or_else(|| "?".into()),
            trait_name,
            items,
        }
    }

    fn parse_mod(&mut self) -> ModItem {
        self.i += 1; // `mod`
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.i += 1;
                n
            }
            _ => String::from("?"),
        };
        let items = if self.text() == "{" {
            self.i += 1;
            Some(self.items_until(Some("}")))
        } else {
            self.eat(";");
            None
        };
        ModItem { name, items }
    }

    fn parse_static(&mut self) -> StaticItem {
        self.i += 1; // `static`
        let mutable = self.is_ident("mut") && {
            self.i += 1;
            true
        };
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.i += 1;
                n
            }
            _ => String::from("?"),
        };
        // Declared type: everything between `:` and a depth-0 `=`/`;`.
        let ty = if self.eat(":") {
            let ty_start = self.i;
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "<" => {
                        self.skip_angles();
                        continue;
                    }
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                self.i += 1;
            }
            let toks: Vec<&str> = self.code[ty_start..self.i]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            join_tokens(&toks)
        } else {
            String::new()
        };
        self.skip_item_rest();
        StaticItem { name, mutable, ty }
    }

    // ---- statements and blocks -------------------------------------------

    /// Parse a `{ … }` block (cursor on the opening brace).
    fn parse_block(&mut self) -> Block {
        let start = self.offset_here();
        if self.depth >= MAX_DEPTH {
            self.skip_balanced();
            return Block {
                stmts: Vec::new(),
                span: self.span_from(start),
            };
        }
        self.depth += 1;
        self.eat("{");
        let mut stmts = Vec::new();
        loop {
            match self.text() {
                "" => break,
                "}" => {
                    self.i += 1;
                    break;
                }
                ";" | "," => {
                    self.i += 1;
                    continue;
                }
                _ => {}
            }
            let before = self.i;
            let attrs = self.parse_attrs();
            match self.text() {
                "let" if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) => {
                    stmts.push(Stmt::Let(self.parse_let()));
                }
                "fn" | "use" | "struct" | "enum" | "union" | "impl" | "mod" | "trait"
                | "static" | "type" | "macro_rules"
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) =>
                {
                    if let Some(mut item) = self.parse_item() {
                        item.attrs = attrs;
                        stmts.push(Stmt::Item(item));
                    }
                }
                "const"
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
                        && self.text_at(1) != "{" =>
                {
                    if let Some(mut item) = self.parse_item() {
                        item.attrs = attrs;
                        stmts.push(Stmt::Item(item));
                    }
                }
                "pub" if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) => {
                    if let Some(mut item) = self.parse_item() {
                        item.attrs = attrs;
                        stmts.push(Stmt::Item(item));
                    }
                }
                _ => {
                    let e = self.parse_expr_in(&[], true);
                    stmts.push(Stmt::Expr(e));
                }
            }
            if self.i == before {
                self.i += 1;
            }
        }
        self.depth -= 1;
        Block {
            stmts,
            span: self.span_from(start),
        }
    }

    fn parse_let(&mut self) -> LetStmt {
        let start = self.offset_here();
        let pos = self.pos_here();
        self.i += 1; // `let`
        let mutable = self.is_ident("mut") && {
            self.i += 1;
            true
        };
        // Pattern: everything to a depth-0 `:`, `=`, or `;`.
        let mut bound = Vec::new();
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ":" if depth == 0 && self.text_at(1) != ":" => break,
                "=" | ";" if depth == 0 => break,
                _ => {
                    // An ident before `:` is a struct-pattern field label
                    // (`Point { x: px }`) — except at depth 0, where a
                    // single `:` is the let's type annotation and the
                    // ident is the binding itself (`let x: T = …`).
                    let field_label =
                        self.text_at(1) == ":" && (depth > 0 || self.text_at(2) == ":");
                    if t.kind == TokenKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "_")
                        && !field_label
                        && !matches!(self.text_at(1), "(" | "{" | "!")
                        && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
                    {
                        bound.push(t.text.clone());
                    }
                }
            }
            self.i += 1;
        }
        let name = bound.first().cloned().unwrap_or_else(|| "_".into());
        // Optional type annotation.
        let ty_start = if self.eat(":") { Some(self.i) } else { None };
        if ty_start.is_some() {
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "<" => {
                        self.skip_angles();
                        continue;
                    }
                    "=" | ";" if depth == 0 => break,
                    _ => {}
                }
                self.i += 1;
            }
        }
        let ty = ty_start
            .map(|s| {
                let toks: Vec<&str> = self.code[s..self.i]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect();
                join_tokens(&toks)
            })
            .unwrap_or_default();
        // Initializer (with let-else support).
        let init = if self.eat("=") {
            let mut e = self.parse_expr(&["else"]);
            if self.is_ident("else") {
                self.i += 1;
                if self.text() == "{" {
                    let b = self.parse_block();
                    let span = e.span().start..b.span.end;
                    e = Expr::Seq(SeqExpr {
                        children: vec![e, Expr::Block(b)],
                        binds: Vec::new(),
                        ctrl: Ctrl::None,
                        span,
                        pos,
                    });
                }
            }
            Some(e)
        } else {
            None
        };
        self.eat(";");
        LetStmt {
            name,
            bound,
            mutable,
            ty,
            init,
            pos,
            span: self.span_from(start),
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Parse an expression run. Stops (without consuming) at `;`, `,`, a
    /// closing delimiter, or any text in `extra` at nesting depth 0.
    fn parse_expr(&mut self, extra: &[&str]) -> Expr {
        self.parse_expr_in(extra, false)
    }

    /// [`Self::parse_expr`] with statement-position semantics: when
    /// `stmt` is set, a block-ending operand (`match`/`if`/`for`/`loop`/
    /// block, i.e. one whose last consumed token is `}`) terminates the
    /// expression unless a `.`/`?`/`else` continuation follows — matching
    /// Rust's rule that block expressions end statements without `;`.
    fn parse_expr_in(&mut self, extra: &[&str], stmt: bool) -> Expr {
        let start = self.offset_here();
        let pos = self.pos_here();
        if self.depth >= MAX_DEPTH {
            // Flatten: consume to a terminator without recursing.
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    ";" | "," | ")" | "]" | "}" => break,
                    s if extra.contains(&s) => break,
                    "(" | "[" | "{" => self.skip_balanced(),
                    _ => self.i += 1,
                }
            }
            return Expr::Seq(SeqExpr {
                children: Vec::new(),
                binds: Vec::new(),
                ctrl: Ctrl::None,
                span: self.span_from(start),
                pos,
            });
        }
        self.depth += 1;
        let mut children: Vec<Expr> = Vec::new();
        let mut expect_operand = true;
        while let Some(t) = self.peek() {
            let text = t.text.as_str();
            if matches!(text, ";" | "," | ")" | "]" | "}") || extra.contains(&text) {
                break;
            }
            if expect_operand {
                match self.parse_operand(extra) {
                    Some(e) => {
                        children.push(e);
                        expect_operand = false;
                        if stmt
                            && self.i > 0
                            && self.code.get(self.i - 1).is_some_and(|t| t.text == "}")
                            && !matches!(self.text(), "." | "?")
                            && !self.is_ident("else")
                        {
                            break;
                        }
                    }
                    None => {
                        self.i += 1; // soup token; stay in operand position
                    }
                }
            } else {
                // Operator position: consume one operator token (or an
                // `as`-cast's type) and return to operand position.
                if self.is_ident("as") {
                    self.i += 1;
                    self.skip_type_path();
                    expect_operand = false;
                    continue;
                }
                // `||` lexes as two `|` tokens; consume both here so the
                // second is not mistaken for a closure opener.
                let was_pipe = text == "|";
                self.i += 1;
                if was_pipe && self.text() == "|" {
                    self.i += 1;
                }
                expect_operand = true;
            }
        }
        self.depth -= 1;
        if children.len() == 1 {
            match children.pop() {
                Some(e) => e,
                None => Expr::Seq(SeqExpr::default()),
            }
        } else {
            Expr::Seq(SeqExpr {
                children,
                binds: Vec::new(),
                ctrl: Ctrl::None,
                span: self.span_from(start),
                pos,
            })
        }
    }

    /// Skip a type-ish path after `as` (idents, `::`, balanced generics).
    fn skip_type_path(&mut self) {
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => self.i += 1,
                Some(t) if t.text == "&" || t.text == "*" => {
                    self.i += 1;
                    continue;
                }
                _ => return,
            }
            if self.text() == ":" && self.text_at(1) == ":" {
                self.i += 2;
                continue;
            }
            if self.text() == "<" {
                self.skip_angles();
            }
            return;
        }
    }

    /// Parse one operand (with its postfix chain). `None` when the cursor
    /// is not at anything operand-shaped (caller skips the token as soup).
    fn parse_operand(&mut self, terms: &[&str]) -> Option<Expr> {
        let t = self.peek()?;
        let start = t.offset;
        let pos = Pos {
            line: t.line,
            col: t.col,
        };
        match t.kind {
            TokenKind::Ident => match t.text.as_str() {
                "if" | "while" => Some(self.parse_conditional(start, pos)),
                "for" => Some(self.parse_for(start, pos)),
                "loop" => {
                    self.i += 1;
                    if self.text() == "{" {
                        let body = Expr::Block(self.parse_block());
                        Some(Expr::Seq(SeqExpr {
                            children: vec![body],
                            binds: Vec::new(),
                            ctrl: Ctrl::Loop,
                            span: self.span_from(start),
                            pos,
                        }))
                    } else {
                        Some(self.empty_seq(start, pos))
                    }
                }
                "match" => Some(self.parse_match(start, pos)),
                "unsafe" | "async" => {
                    self.i += 1;
                    if self.is_ident("move") {
                        self.i += 1;
                    }
                    if self.text() == "{" {
                        Some(Expr::Block(self.parse_block()))
                    } else {
                        Some(self.empty_seq(start, pos))
                    }
                }
                "move" => {
                    self.i += 1;
                    if self.text() == "|" {
                        Some(self.parse_closure(true, start, pos, terms))
                    } else {
                        Some(self.empty_seq(start, pos))
                    }
                }
                kw @ ("return" | "break" | "continue" | "yield") => {
                    let ctrl = match kw {
                        "return" | "yield" => Ctrl::Return,
                        "break" => Ctrl::Break,
                        _ => Ctrl::Continue,
                    };
                    self.i += 1;
                    // A value may follow; if a terminator follows, this is
                    // the whole operand.
                    let value = match self.peek() {
                        Some(n)
                            if !matches!(n.text.as_str(), ";" | "," | ")" | "]" | "}")
                                && !terms.contains(&n.text.as_str()) =>
                        {
                            self.parse_operand(terms)
                        }
                        _ => None,
                    };
                    Some(Expr::Seq(SeqExpr {
                        children: value.into_iter().collect(),
                        binds: Vec::new(),
                        ctrl,
                        span: self.span_from(start),
                        pos,
                    }))
                }
                "let" => {
                    // Let-chain / malformed: consume the keyword as soup.
                    self.i += 1;
                    Some(self.empty_seq(start, pos))
                }
                _ => {
                    let path = self.parse_path(pos);
                    self.finish_path_operand(path, start, pos, terms)
                }
            },
            TokenKind::StrLit | TokenKind::RawStrLit | TokenKind::CharLit | TokenKind::NumLit => {
                let lit = Expr::Lit(LitExpr {
                    text: t.text.clone(),
                    span: t.span().start as u32..t.span().end as u32,
                    pos,
                });
                self.i += 1;
                Some(self.parse_postfix(lit, start, terms))
            }
            TokenKind::Lifetime => {
                // Loop label `'x: loop { … }`.
                self.i += 1;
                self.eat(":");
                self.parse_operand(terms)
                    .or_else(|| Some(self.empty_seq(start, pos)))
            }
            TokenKind::Punct => match t.text.as_str() {
                "|" => Some(self.parse_closure(false, start, pos, terms)),
                "&" | "*" | "!" | "-" => {
                    self.i += 1;
                    while self.is_ident("mut") || matches!(self.text(), "&" | "*" | "!" | "-") {
                        self.i += 1;
                    }
                    self.parse_operand(terms)
                        .or_else(|| Some(self.empty_seq(start, pos)))
                }
                "(" => {
                    let group = self.parse_group("(", ")", start, pos);
                    Some(self.parse_postfix(group, start, terms))
                }
                "[" => {
                    let group = self.parse_group("[", "]", start, pos);
                    Some(self.parse_postfix(group, start, terms))
                }
                "{" => Some(Expr::Block(self.parse_block())),
                _ => None,
            },
            _ => None,
        }
    }

    fn empty_seq(&self, start: u32, pos: Pos) -> Expr {
        Expr::Seq(SeqExpr {
            children: Vec::new(),
            binds: Vec::new(),
            ctrl: Ctrl::None,
            span: self.span_from(start),
            pos,
        })
    }

    /// `if`/`while`, including the `let`-pattern forms.
    fn parse_conditional(&mut self, start: u32, pos: Pos) -> Expr {
        let ctrl = if self.is_ident("while") {
            Ctrl::While
        } else {
            Ctrl::If
        };
        self.i += 1; // if / while
        let mut binds = Vec::new();
        if self.is_ident("let") {
            self.i += 1;
            binds = self.parse_pattern_binds(&["="]);
            self.eat("=");
        }
        let mut children = vec![self.parse_expr(&["{"])];
        if self.text() == "{" {
            children.push(Expr::Block(self.parse_block()));
        }
        if self.is_ident("else") {
            self.i += 1;
            if self.is_ident("if") {
                children.push(self.parse_conditional(start, pos));
            } else if self.text() == "{" {
                children.push(Expr::Block(self.parse_block()));
            }
        }
        Expr::Seq(SeqExpr {
            children,
            binds,
            ctrl,
            span: self.span_from(start),
            pos,
        })
    }

    fn parse_for(&mut self, start: u32, pos: Pos) -> Expr {
        self.i += 1; // for
        let binds = self.parse_pattern_binds(&["in"]);
        self.eat("in");
        let mut children = vec![self.parse_expr(&["{"])];
        if self.text() == "{" {
            children.push(Expr::Block(self.parse_block()));
        }
        Expr::Seq(SeqExpr {
            children,
            binds,
            ctrl: Ctrl::For,
            span: self.span_from(start),
            pos,
        })
    }

    fn parse_match(&mut self, start: u32, pos: Pos) -> Expr {
        self.i += 1; // match
        let mut children = vec![self.parse_expr(&["{"])];
        if self.text() == "{" {
            self.i += 1;
            // Arms: pattern (with binds) `=>` expr `,`
            loop {
                match self.text() {
                    "" => break,
                    "}" => {
                        self.i += 1;
                        break;
                    }
                    "," => {
                        self.i += 1;
                        continue;
                    }
                    _ => {}
                }
                let before = self.i;
                let arm_start = self.offset_here();
                let arm_pos = self.pos_here();
                let binds = self.parse_pattern_binds(&[]);
                // `=>` lexes as `=` `>`.
                if self.text() == "=" && self.text_at(1) == ">" {
                    self.i += 2;
                }
                let body = self.parse_expr(&[]);
                children.push(Expr::Seq(SeqExpr {
                    children: vec![body],
                    binds,
                    ctrl: Ctrl::Arm,
                    span: self.span_from(arm_start),
                    pos: arm_pos,
                }));
                if self.i == before {
                    self.i += 1;
                }
            }
        }
        Expr::Seq(SeqExpr {
            children,
            binds: Vec::new(),
            ctrl: Ctrl::Match,
            span: self.span_from(start),
            pos,
        })
    }

    /// Collect identifiers bound by a pattern, consuming tokens up to a
    /// depth-0 `=>`, `=`, `{`, or any text in `stops`. Path segments
    /// (`Enum::Variant`) and segments directly followed by `::`, `(`, or
    /// `{` are constructors, not bindings, and are skipped.
    fn parse_pattern_binds(&mut self, stops: &[&str]) -> Vec<String> {
        let mut binds = Vec::new();
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            let text = t.text.as_str();
            if depth == 0 {
                if stops.contains(&text) {
                    break;
                }
                if text == "=" && self.text_at(1) == ">" {
                    break;
                }
                if text == "{" && !self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                    // A bare `{` at depth 0 would be a body, not a pattern
                    // struct — only struct patterns (ident then `{`) nest.
                    break;
                }
                if matches!(text, ";" | ")" | "]" | "}") {
                    break;
                }
                if text == "if" && t.kind == TokenKind::Ident {
                    // Match-arm guard: the guard expression is not pattern.
                    // Consume it as soup up to `=>`.
                    self.i += 1;
                    while let Some(g) = self.peek() {
                        if g.text == "=" && self.text_at(1) == ">" {
                            break;
                        }
                        if matches!(g.text.as_str(), ";" | "}") {
                            break;
                        }
                        if matches!(g.text.as_str(), "(" | "[" | "{") {
                            self.skip_balanced();
                        } else {
                            self.i += 1;
                        }
                    }
                    break;
                }
            }
            match text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                _ => {
                    // Lowercase-initial idents not followed by constructor
                    // syntax are bindings; uppercase ones are variants and
                    // types by Rust convention.
                    if t.kind == TokenKind::Ident
                        && !matches!(text, "mut" | "ref" | "box" | "_")
                        && self.text_at(1) != ":"
                        && !matches!(self.text_at(1), "(" | "{" | "!")
                        && !text.starts_with(|c: char| c.is_ascii_uppercase())
                    {
                        binds.push(t.text.clone());
                    }
                }
            }
            self.i += 1;
        }
        binds.sort();
        binds.dedup();
        binds
    }

    /// Parse a path: `seg (:: seg | ::<…>)*` with the cursor on the first
    /// segment (an identifier).
    fn parse_path(&mut self, pos: Pos) -> PathExpr {
        let start = self.offset_here();
        let mut segments = Vec::new();
        if let Some(t) = self.peek() {
            segments.push(t.text.clone());
            self.i += 1;
        }
        loop {
            if self.text() == ":" && self.text_at(1) == ":" {
                if self.text_at(2) == "<" {
                    self.i += 2;
                    self.skip_angles();
                    continue;
                }
                if self.peek_at(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                    segments.push(self.text_at(2).to_string());
                    self.i += 3;
                    continue;
                }
            }
            break;
        }
        PathExpr {
            segments,
            span: self.span_from(start),
            pos,
        }
    }

    /// After a path operand: macro bang, struct literal, or postfix chain.
    fn finish_path_operand(
        &mut self,
        path: PathExpr,
        start: u32,
        pos: Pos,
        terms: &[&str],
    ) -> Option<Expr> {
        // Macro invocation.
        if self.text() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
            self.i += 1; // !
            let args = match self.text() {
                "(" => self.parse_call_args("(", ")"),
                "[" => self.parse_call_args("[", "]"),
                _ => {
                    // Brace macro: parse as a block so nested closures and
                    // calls are still visited.
                    vec![Expr::Block(self.parse_block())]
                }
            };
            let mac = Expr::Macro(MacroExpr {
                segments: path.segments,
                args,
                span: self.span_from(start),
                pos,
            });
            return Some(self.parse_postfix(mac, start, terms));
        }
        // Struct literal `Path { … }` — only when `{` is not a block
        // terminator in this context (control-flow headers pass `{`).
        let mut expr = Expr::Path(path);
        if self.text() == "{" && !terms.contains(&"{") {
            let body = self.parse_block();
            let span = expr.span().start..body.span.end;
            expr = Expr::Seq(SeqExpr {
                children: vec![expr, Expr::Block(body)],
                binds: Vec::new(),
                ctrl: Ctrl::None,
                span,
                pos,
            });
        }
        Some(self.parse_postfix(expr, start, terms))
    }

    /// Postfix chain: calls, method calls, fields, indexing, `?`.
    fn parse_postfix(&mut self, mut expr: Expr, start: u32, terms: &[&str]) -> Expr {
        loop {
            match self.text() {
                "(" => {
                    let args = self.parse_call_args("(", ")");
                    let pos = expr.pos();
                    expr = Expr::Call(
                        CallExprParts {
                            callee: expr,
                            args,
                            span: self.span_from(start),
                            pos,
                        }
                        .into(),
                    );
                }
                "[" => {
                    self.i += 1;
                    let index = self.parse_expr(&[]);
                    self.eat("]");
                    let pos = expr.pos();
                    expr = Expr::Index(crate::ast::IndexExpr {
                        base: Box::new(expr),
                        index: Box::new(index),
                        span: self.span_from(start),
                        pos,
                    });
                }
                "." => {
                    let name_tok = self.peek_at(1);
                    match name_tok {
                        Some(nt) if nt.kind == TokenKind::Ident || nt.kind == TokenKind::NumLit => {
                            let name = nt.text.clone();
                            let name_pos = Pos {
                                line: nt.line,
                                col: nt.col,
                            };
                            let is_ident = nt.kind == TokenKind::Ident;
                            self.i += 2;
                            // Turbofish on the method: `.collect::<Vec<_>>()`.
                            if self.text() == ":"
                                && self.text_at(1) == ":"
                                && self.text_at(2) == "<"
                            {
                                self.i += 2;
                                self.skip_angles();
                            }
                            if is_ident && self.text() == "(" {
                                let args = self.parse_call_args("(", ")");
                                expr = Expr::MethodCall(crate::ast::MethodCallExpr {
                                    recv: Box::new(expr),
                                    method: name,
                                    args,
                                    span: self.span_from(start),
                                    pos: name_pos,
                                });
                            } else {
                                let pos = expr.pos();
                                expr = Expr::Field(crate::ast::FieldExpr {
                                    base: Box::new(expr),
                                    name,
                                    span: self.span_from(start),
                                    pos,
                                });
                            }
                        }
                        _ => {
                            // `..` range or stray dot: operator territory.
                            break;
                        }
                    }
                }
                "?" => {
                    self.i += 1;
                }
                _ => break,
            }
            let _ = terms;
        }
        expr
    }

    /// `( a, b, … )`-style argument list (cursor on the opener).
    fn parse_call_args(&mut self, open: &str, close: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        if self.text() != open {
            return args;
        }
        self.i += 1;
        loop {
            match self.text() {
                "" => break,
                s if s == close => {
                    self.i += 1;
                    break;
                }
                "," | ";" => {
                    self.i += 1;
                    continue;
                }
                _ => {}
            }
            let before = self.i;
            args.push(self.parse_expr(&[]));
            if self.i == before {
                self.i += 1;
            }
        }
        args
    }

    /// `( … )` / `[ … ]` group parsed as a Seq of comma-separated children.
    fn parse_group(&mut self, open: &str, close: &str, start: u32, pos: Pos) -> Expr {
        let children = {
            let mut out = Vec::new();
            if self.text() == open {
                self.i += 1;
                loop {
                    match self.text() {
                        "" => break,
                        s if s == close => {
                            self.i += 1;
                            break;
                        }
                        "," | ";" => {
                            self.i += 1;
                            continue;
                        }
                        _ => {}
                    }
                    let before = self.i;
                    out.push(self.parse_expr(&[]));
                    if self.i == before {
                        self.i += 1;
                    }
                }
            }
            out
        };
        Expr::Seq(SeqExpr {
            children,
            binds: Vec::new(),
            ctrl: Ctrl::None,
            span: self.span_from(start),
            pos,
        })
    }

    /// `move? |params| body` with the cursor on `|` (move consumed).
    fn parse_closure(&mut self, is_move: bool, start: u32, pos: Pos, terms: &[&str]) -> Expr {
        self.eat("|");
        let mut params = Vec::new();
        let mut depth = 0usize;
        let mut in_type = false;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "|" if depth == 0 => {
                    self.i += 1;
                    break;
                }
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                "," if depth == 0 => in_type = false,
                ":" if depth == 0 && self.text_at(1) != ":" => in_type = true,
                _ => {
                    if !in_type
                        && t.kind == TokenKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    {
                        params.push(t.text.clone());
                    }
                }
            }
            self.i += 1;
        }
        // Optional `-> Type` before a brace body.
        if self.text() == "-" && self.text_at(1) == ">" {
            self.i += 2;
            while self.peek().is_some() && !matches!(self.text(), "{" | ";" | "," | ")") {
                if self.text() == "<" {
                    self.skip_angles();
                } else if matches!(self.text(), "(" | "[") {
                    self.skip_balanced();
                } else {
                    self.i += 1;
                }
            }
        }
        let body = if self.text() == "{" {
            Expr::Block(self.parse_block())
        } else {
            self.parse_expr(terms)
        };
        Expr::Closure(ClosureExpr {
            is_move,
            params,
            body: Box::new(body),
            span: self.span_from(start),
            pos,
        })
    }
}

/// Helper carrying [`crate::ast::CallExpr`] fields before boxing.
struct CallExprParts {
    callee: Expr,
    args: Vec<Expr>,
    span: std::ops::Range<u32>,
    pos: Pos,
}

impl From<CallExprParts> for crate::ast::CallExpr {
    fn from(p: CallExprParts) -> Self {
        crate::ast::CallExpr {
            callee: Box::new(p.callee),
            args: p.args,
            span: p.span,
            pos: p.pos,
        }
    }
}

/// Join token texts into readable flattened text (`::` and `<>` tight,
/// single spaces elsewhere).
fn join_tokens(toks: &[&str]) -> String {
    let mut out = String::new();
    for (k, t) in toks.iter().enumerate() {
        let tight = matches!(*t, ":" | "<" | ">" | "," | "'" | ")" | "]")
            || matches!(
                toks.get(k.wrapping_sub(1)).copied(),
                Some(":") | Some("<") | Some("'") | Some("(") | Some("[") | Some("&")
            )
            || k == 0;
        if !tight && !out.is_empty() {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src))
    }

    fn first_fn(file: &File) -> &FnItem {
        file.items
            .iter()
            .find_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .expect("a fn item")
    }

    #[test]
    fn fn_signature_with_mut_ref_and_generics() {
        let file = parse_src(
            "pub fn apply<T, F>(items: &mut Vec<T>, n: usize, f: F) -> usize where F: Fn() {0}",
        );
        let f = first_fn(&file);
        assert_eq!(f.name, "apply");
        assert!(f.is_pub);
        assert_eq!(f.generics, ["T", "F"]);
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].name, "items");
        assert!(f.params[0].by_mut_ref);
        assert!(!f.params[1].by_mut_ref);
        assert!(f.body.is_some());
    }

    #[test]
    fn self_receivers() {
        let file = parse_src("impl X { fn a(&self) {} fn b(&mut self, k: u32) {} }");
        let ItemKind::Impl(imp) = &file.items[0].kind else {
            panic!("impl expected");
        };
        assert_eq!(imp.ty_name, "X");
        let fns: Vec<&FnItem> = imp
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].params[0].name, "self");
        assert!(!fns[0].params[0].by_mut_ref);
        assert!(fns[1].params[0].by_mut_ref, "&mut self receiver");
    }

    #[test]
    fn use_groups_expand_with_aliases() {
        let file = parse_src("use std::collections::{BTreeMap, BTreeSet as Set};\nuse a::b::*;");
        let ItemKind::Use(u) = &file.items[0].kind else {
            panic!()
        };
        assert_eq!(u.targets.len(), 2);
        assert_eq!(u.targets[0].path, ["std", "collections", "BTreeMap"]);
        assert_eq!(u.targets[0].alias, "BTreeMap");
        assert_eq!(u.targets[1].alias, "Set");
        let ItemKind::Use(glob) = &file.items[1].kind else {
            panic!()
        };
        assert_eq!(glob.targets[0].alias, "*");
    }

    #[test]
    fn calls_methods_closures_nest() {
        let file = parse_src(
            "fn f() { par_map(threads, &items, |x| g(x.val())); s.spawn(move || h(1)); }",
        );
        let body = first_fn(&file).body.as_ref().unwrap();
        let mut calls = Vec::new();
        let mut closures = 0;
        ast::walk_block(body, &mut |e| match e {
            ast::Expr::Call(c) => {
                if let ast::Expr::Path(p) = &*c.callee {
                    calls.push(p.segments.join("::"));
                }
            }
            ast::Expr::MethodCall(m) => calls.push(format!(".{}", m.method)),
            ast::Expr::Closure(cl) => {
                closures += 1;
                if closures == 2 {
                    assert!(cl.is_move);
                }
            }
            _ => {}
        });
        assert!(calls.contains(&"par_map".to_string()));
        assert!(calls.contains(&"g".to_string()));
        assert!(calls.contains(&"h".to_string()));
        assert!(calls.contains(&".val".to_string()));
        assert!(calls.contains(&".spawn".to_string()));
        assert_eq!(closures, 2);
    }

    #[test]
    fn let_bindings_record_mut_ty_and_pattern_names() {
        let file =
            parse_src("fn f() { let mut cache = RefCell::new(0); let (a, b): (u32, u32) = t; }");
        let body = first_fn(&file).body.as_ref().unwrap();
        let lets: Vec<&LetStmt> = body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Let(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lets.len(), 2);
        assert!(lets[0].mutable);
        assert_eq!(lets[0].name, "cache");
        let init = lets[0].init.as_ref().unwrap();
        let mut saw_refcell_new = false;
        init.walk(&mut |e| {
            if let ast::Expr::Path(p) = e {
                if p.segments == ["RefCell", "new"] {
                    saw_refcell_new = true;
                }
            }
        });
        assert!(saw_refcell_new);
        assert_eq!(lets[1].bound, ["a", "b"]);
        assert_eq!(lets[1].ty, "(u32, u32)");
    }

    #[test]
    fn match_arms_and_for_loops_bind_patterns() {
        let file = parse_src(
            "fn f(v: Option<u32>) { match v { Some(x) => use_it(x), None => {} } \
             for (i, item) in items.iter().enumerate() { touch(i, item); } }",
        );
        let body = first_fn(&file).body.as_ref().unwrap();
        let mut binds: Vec<Vec<String>> = Vec::new();
        ast::walk_block(body, &mut |e| {
            if let ast::Expr::Seq(s) = e {
                if !s.binds.is_empty() {
                    binds.push(s.binds.clone());
                }
            }
        });
        assert!(binds.contains(&vec!["x".to_string()]), "{binds:?}");
        assert!(
            binds.contains(&vec!["i".to_string(), "item".to_string()]),
            "{binds:?}"
        );
    }

    #[test]
    fn markers_attach_to_next_item() {
        let src = "\
/// Docs here.
// sfcheck:parallel-entry
pub fn par_map() {}

pub fn unmarked() {}
";
        let file = parse_src(src);
        assert_eq!(file.items.len(), 2);
        assert_eq!(file.items[0].markers, ["parallel-entry"]);
        assert!(file.items[1].markers.is_empty());
    }

    #[test]
    fn test_gated_items_are_flagged() {
        let file = parse_src("#[cfg(test)]\nmod tests { fn t() {} }\n#[test]\nfn unit() {}");
        assert!(file.items[0].is_test_gated());
        assert!(file.items[1].is_test_gated());
    }

    #[test]
    fn macros_parse_arguments() {
        let file = parse_src("fn f() { assert_eq!(g(1), vec![h(2)]); panic!(\"boom\"); }");
        let body = first_fn(&file).body.as_ref().unwrap();
        let mut macros = Vec::new();
        let mut calls = Vec::new();
        ast::walk_block(body, &mut |e| match e {
            ast::Expr::Macro(m) => macros.push(m.segments.join("::")),
            ast::Expr::Call(c) => {
                if let ast::Expr::Path(p) = &*c.callee {
                    calls.push(p.segments.join("::"));
                }
            }
            _ => {}
        });
        assert_eq!(macros, ["assert_eq", "vec", "panic"]);
        assert!(calls.contains(&"g".to_string()));
        assert!(calls.contains(&"h".to_string()), "call inside vec! found");
    }

    #[test]
    fn struct_literals_keep_nested_closures() {
        let file = parse_src("fn f() { let c = Config { op: |x| run(x), n: 3 }; }");
        let body = first_fn(&file).body.as_ref().unwrap();
        let mut found = false;
        ast::walk_block(body, &mut |e| {
            if matches!(e, ast::Expr::Closure(_)) {
                found = true;
            }
        });
        assert!(found, "closure inside struct literal must be visited");
    }

    #[test]
    fn statics_and_mods() {
        let file = parse_src("static mut GLOBAL: u32 = 0;\nmod inner { pub fn g() {} }\nmod leaf;");
        let ItemKind::Static(s) = &file.items[0].kind else {
            panic!()
        };
        assert!(s.mutable);
        assert_eq!(s.name, "GLOBAL");
        let ItemKind::Mod(m) = &file.items[1].kind else {
            panic!()
        };
        assert_eq!(m.items.as_ref().unwrap().len(), 1);
        let ItemKind::Mod(leaf) = &file.items[2].kind else {
            panic!()
        };
        assert!(leaf.items.is_none());
    }

    #[test]
    fn garbage_never_panics_and_terminates() {
        for src in [
            "",
            "}}}}",
            "fn",
            "fn (",
            "((((((((",
            "let | | |",
            "impl for for {",
            "fn f() { match { { { }",
            "r#\"unterminated",
            "#[cfg(test)",
            "fn f(x: &mut) -> { |y",
        ] {
            let _ = parse_src(src);
        }
    }

    #[test]
    fn dump_is_deterministic() {
        let src = "fn f(n: usize) -> usize { (0..n).map(|i| i + 1).sum() }";
        let a = ast::dump(&parse_src(src));
        let b = ast::dump(&parse_src(src));
        assert_eq!(a, b);
        assert!(a.contains("closure"));
        assert!(a.contains("method .map"));
    }
}
