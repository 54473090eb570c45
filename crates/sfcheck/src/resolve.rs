//! Workspace symbol table: every function definition across every crate,
//! with deterministic IDs and a conservative intra-workspace path
//! resolver.
//!
//! Names are resolved the way the lints need, not the way rustc does:
//! crate names come from manifests (hyphens normalized to underscores),
//! module paths come from file locations plus inline `mod` nesting, and a
//! path expression resolves through the file's `use` imports, `crate` /
//! `self` / `super` heads, and enclosing-module fallback. Anything that
//! leaves the workspace (`std`, …) resolves to nothing. The approximation
//! is documented in DESIGN.md §11.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, File, Item, ItemKind};
use crate::walker::{FileClass, SourceFile};

/// Deterministic function ID: index into [`Workspace::fns`], which is
/// sorted by `(file, span.start)`.
pub type FnId = usize;

/// One parsed source file with its resolution context.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Source text (spans index into this).
    pub text: String,
    /// Classification from the path shape.
    pub class: FileClass,
    /// The `crates/<name>` directory (or `"root"`), from the walker.
    pub crate_dir: String,
    /// Crate name, underscore-normalized (`smartfeat_par`); empty when the
    /// file is under no manifest.
    pub crate_name: String,
    /// Module path of the file within its crate (`["ops", "binary"]`).
    pub module: Vec<String>,
    /// The parsed tree.
    pub ast: File,
    /// Flat import map: binding name → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Glob-import prefixes (`use a::b::*` contributes `["a", "b"]`).
    pub globs: Vec<Vec<String>>,
}

/// One function definition in the symbol table.
#[derive(Debug)]
pub struct FnInfo {
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// Fully qualified name: `crate::module::…::[Ty::]name`.
    pub qname: String,
    /// Bare function name.
    pub name: String,
    /// Module path of the definition site (inline `mod`s included).
    pub module: Vec<String>,
    /// Enclosing `impl` self-type name, for associated fns.
    pub impl_ty: Option<String>,
    /// Whether the fn is `pub`.
    pub is_pub: bool,
    /// True for test code: test-classified files, `#[cfg(test)]` /
    /// `#[test]` items, or fns nested under such items.
    pub is_test: bool,
    /// Byte span of the item.
    pub span: ast::Span,
    /// Navigation path from `File::items` to the fn item (indices through
    /// `Mod`/`Impl` nesting), so the body can be fetched on demand.
    pub item_path: Vec<usize>,
}

/// The workspace-wide symbol table.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files in walk (sorted-path) order.
    pub files: Vec<ParsedFile>,
    /// All function definitions, sorted by `(file, span.start)`.
    pub fns: Vec<FnInfo>,
    /// Qualified name → function IDs (cfg-variants can collide).
    pub by_qname: BTreeMap<String, Vec<FnId>>,
    /// Impl-associated functions by bare name (for unambiguous-dispatch
    /// method-call edges).
    pub methods: BTreeMap<String, Vec<FnId>>,
    /// Underscore-normalized names of workspace crates.
    pub crate_names: BTreeSet<String>,
}

/// Crate name per manifest directory (`"" → workspace package`), parsed
/// from `[package] name = …` lines; hyphens normalized to underscores.
pub fn crate_dirs(manifests: &[SourceFile]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for m in manifests {
        let dir = m
            .rel_path
            .strip_suffix("Cargo.toml")
            .unwrap_or(&m.rel_path)
            .trim_end_matches('/')
            .to_string();
        let mut table = String::new();
        for raw in m.text.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                table = line.trim_matches(['[', ']']).to_string();
                continue;
            }
            if table == "package" {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(value) = rest.strip_prefix('=') {
                        let name = value.trim().trim_matches('"').replace('-', "_");
                        out.insert(dir.clone(), name);
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Module path of a source file within its crate, from the path shape:
/// `src/lib.rs` / `src/main.rs` / `src/bin/*` → crate root, `src/a/b.rs` →
/// `["a", "b"]`, `mod.rs` names its directory. Test/bench/example files
/// are roots of their own target; they get an empty module path.
fn module_of(rel_in_crate: &str) -> Vec<String> {
    let Some(under_src) = rel_in_crate.strip_prefix("src/") else {
        return Vec::new();
    };
    let mut parts: Vec<&str> = under_src.split('/').collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    if parts.first() == Some(&"bin") {
        return Vec::new();
    }
    let mut module: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    match last {
        "lib.rs" | "main.rs" | "mod.rs" => {}
        other => {
            if let Some(stem) = other.strip_suffix(".rs") {
                module.push(stem.to_string());
            }
        }
    }
    module
}

/// Build the symbol table from parsed files.
///
/// `parsed` carries `(source, ast)` pairs in walk order; `manifests` maps
/// files to crates.
pub fn build(parsed: Vec<(SourceFile, File)>, manifests: &[SourceFile]) -> Workspace {
    let dirs = crate_dirs(manifests);
    let mut files = Vec::with_capacity(parsed.len());
    for (src, tree) in parsed {
        // Longest manifest-directory prefix wins.
        let mut crate_name = String::new();
        let mut best = 0usize;
        for (dir, name) in &dirs {
            let matches = dir.is_empty() || src.rel_path.starts_with(dir);
            if matches && dir.len() >= best {
                best = dir.len();
                crate_name = name.clone();
            }
        }
        let rel_in_crate = if best == 0 {
            src.rel_path.as_str()
        } else {
            src.rel_path[best..].trim_start_matches('/')
        };
        let module = module_of(rel_in_crate);
        let (imports, globs) = collect_imports(&tree);
        files.push(ParsedFile {
            rel_path: src.rel_path,
            text: src.text,
            class: src.class,
            crate_dir: src.crate_dir,
            crate_name,
            module,
            ast: tree,
            imports,
            globs,
        });
    }

    let mut fns: Vec<FnInfo> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let in_test_file = file.class == FileClass::Test;
        let mut ctx = CollectCtx {
            file: file_idx,
            crate_name: &file.crate_name,
            module: file.module.clone(),
            impl_ty: None,
            in_test: in_test_file,
            fns: &mut fns,
        };
        collect_items(&file.ast.items, &mut Vec::new(), &mut ctx);
    }
    fns.sort_by_key(|f| (f.file, f.span.start));

    let mut by_qname: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
    let mut methods: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_qname.entry(f.qname.clone()).or_default().push(id);
        if f.impl_ty.is_some() && !f.is_test {
            methods.entry(f.name.clone()).or_default().push(id);
        }
    }
    let crate_names = dirs.values().cloned().collect();
    Workspace {
        files,
        fns,
        by_qname,
        methods,
        crate_names,
    }
}

struct CollectCtx<'a> {
    file: usize,
    crate_name: &'a str,
    module: Vec<String>,
    impl_ty: Option<String>,
    in_test: bool,
    fns: &'a mut Vec<FnInfo>,
}

fn collect_items(items: &[Item], path: &mut Vec<usize>, ctx: &mut CollectCtx<'_>) {
    for (idx, item) in items.iter().enumerate() {
        path.push(idx);
        let item_test = ctx.in_test || item.is_test_gated();
        match &item.kind {
            ItemKind::Fn(f) => {
                let mut qname = String::new();
                if !ctx.crate_name.is_empty() {
                    qname.push_str(ctx.crate_name);
                }
                for seg in &ctx.module {
                    qname.push_str("::");
                    qname.push_str(seg);
                }
                if let Some(ty) = &ctx.impl_ty {
                    qname.push_str("::");
                    qname.push_str(ty);
                }
                qname.push_str("::");
                qname.push_str(&f.name);
                ctx.fns.push(FnInfo {
                    file: ctx.file,
                    qname,
                    name: f.name.clone(),
                    module: ctx.module.clone(),
                    impl_ty: ctx.impl_ty.clone(),
                    is_pub: f.is_pub,
                    is_test: item_test,
                    span: item.span.clone(),
                    item_path: path.clone(),
                });
            }
            ItemKind::Mod(m) => {
                if let Some(nested) = &m.items {
                    ctx.module.push(m.name.clone());
                    let was_test = ctx.in_test;
                    ctx.in_test = item_test;
                    collect_items(nested, path, ctx);
                    ctx.in_test = was_test;
                    ctx.module.pop();
                }
            }
            ItemKind::Impl(imp) => {
                let was_ty = ctx.impl_ty.replace(imp.ty_name.clone());
                let was_test = ctx.in_test;
                ctx.in_test = item_test;
                collect_items(&imp.items, path, ctx);
                ctx.in_test = was_test;
                ctx.impl_ty = was_ty;
            }
            _ => {}
        }
        path.pop();
    }
}

/// Flatten a file's `use` declarations (top-level and inside inline mods)
/// into `alias → path` plus glob prefixes.
fn collect_imports(file: &File) -> (BTreeMap<String, Vec<String>>, Vec<Vec<String>>) {
    let mut imports = BTreeMap::new();
    let mut globs = Vec::new();
    fn walk(
        items: &[Item],
        imports: &mut BTreeMap<String, Vec<String>>,
        globs: &mut Vec<Vec<String>>,
    ) {
        for item in items {
            match &item.kind {
                ItemKind::Use(u) => {
                    for t in &u.targets {
                        if t.alias == "*" {
                            globs.push(t.path.clone());
                        } else {
                            imports
                                .entry(t.alias.clone())
                                .or_insert_with(|| t.path.clone());
                        }
                    }
                }
                ItemKind::Mod(m) => {
                    if let Some(nested) = &m.items {
                        walk(nested, imports, globs);
                    }
                }
                _ => {}
            }
        }
    }
    walk(&file.items, &mut imports, &mut globs);
    (imports, globs)
}

impl Workspace {
    /// The body of a function, navigated via its stored item path.
    pub fn body_of(&self, id: FnId) -> Option<&ast::Block> {
        let info = self.fns.get(id)?;
        let file = self.files.get(info.file)?;
        let mut items = &file.ast.items;
        for (depth, &idx) in info.item_path.iter().enumerate() {
            let item = items.get(idx)?;
            if depth + 1 == info.item_path.len() {
                return match &item.kind {
                    ItemKind::Fn(f) => f.body.as_ref(),
                    _ => None,
                };
            }
            items = match &item.kind {
                ItemKind::Mod(m) => m.items.as_ref()?,
                ItemKind::Impl(i) => &i.items,
                _ => return None,
            };
        }
        None
    }

    /// Resolve a path expression written in `file_idx`, inside a fn whose
    /// module path is `module` and whose enclosing impl type is `impl_ty`.
    /// Returns sorted, deduplicated candidate fn IDs; empty for paths that
    /// leave the workspace or do not name a known fn.
    pub fn resolve_path(
        &self,
        file_idx: usize,
        module: &[String],
        impl_ty: Option<&str>,
        segments: &[String],
    ) -> Vec<FnId> {
        if segments.is_empty() {
            return Vec::new();
        }
        let Some(file) = self.files.get(file_idx) else {
            return Vec::new();
        };
        let mut expanded: Vec<Vec<String>> = Vec::new();
        expanded.push(segments.to_vec());
        if let Some(full) = file.imports.get(&segments[0]) {
            let mut v = full.clone();
            v.extend(segments[1..].iter().cloned());
            expanded.push(v);
        }
        for glob in &file.globs {
            let mut v = glob.clone();
            v.extend(segments.iter().cloned());
            expanded.push(v);
        }

        let mut out = BTreeSet::new();
        for segs in expanded {
            for qname in self.absolute_candidates(file, module, impl_ty, &segs) {
                if let Some(ids) = self.by_qname.get(&qname) {
                    out.extend(ids.iter().copied());
                }
            }
        }
        out.into_iter().collect()
    }

    /// Absolute qualified-name candidates for one (possibly relative)
    /// segment list in the given context.
    fn absolute_candidates(
        &self,
        file: &ParsedFile,
        module: &[String],
        impl_ty: Option<&str>,
        segs: &[String],
    ) -> Vec<String> {
        let head = segs[0].as_str();
        let crate_name = file.crate_name.as_str();
        let join = |parts: &[&str]| parts.join("::");
        let mut out = Vec::new();
        match head {
            "std" | "core" | "alloc" if crate_name != head => return out,
            "crate" => {
                let mut parts: Vec<&str> = vec![crate_name];
                parts.extend(segs[1..].iter().map(String::as_str));
                out.push(join(&parts));
            }
            "self" => {
                let mut parts: Vec<&str> = vec![crate_name];
                parts.extend(module.iter().map(String::as_str));
                parts.extend(segs[1..].iter().map(String::as_str));
                out.push(join(&parts));
            }
            "super" => {
                let mut supers = 0usize;
                while segs.get(supers).map(String::as_str) == Some("super") {
                    supers += 1;
                }
                let keep = module.len().saturating_sub(supers);
                let mut parts: Vec<&str> = vec![crate_name];
                parts.extend(module[..keep].iter().map(String::as_str));
                parts.extend(segs[supers..].iter().map(String::as_str));
                out.push(join(&parts));
            }
            "Self" => {
                if let Some(ty) = impl_ty {
                    let mut parts: Vec<&str> = vec![crate_name];
                    parts.extend(module.iter().map(String::as_str));
                    parts.push(ty);
                    parts.extend(segs[1..].iter().map(String::as_str));
                    out.push(join(&parts));
                }
            }
            _ if self.crate_names.contains(head) => {
                out.push(segs.join("::"));
            }
            _ => {
                // Relative: resolve from the enclosing module, then from
                // the crate root.
                let mut from_mod: Vec<&str> = vec![crate_name];
                from_mod.extend(module.iter().map(String::as_str));
                from_mod.extend(segs.iter().map(String::as_str));
                out.push(join(&from_mod));
                let mut from_root: Vec<&str> = vec![crate_name];
                from_root.extend(segs.iter().map(String::as_str));
                out.push(join(&from_root));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::classify;

    fn src(rel: &str, text: &str) -> (SourceFile, File) {
        let sf = SourceFile {
            rel_path: rel.to_string(),
            text: text.to_string(),
            class: classify(rel),
            crate_dir: crate::walker::crate_dir_of(rel),
        };
        let tree = parse(&lex(text));
        (sf, tree)
    }

    fn manifest(rel: &str, name: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            text: format!("[package]\nname = \"{name}\"\n"),
            class: classify(rel),
            crate_dir: crate::walker::crate_dir_of(rel),
        }
    }

    fn two_crate_workspace() -> Workspace {
        let manifests = vec![
            manifest("crates/alpha/Cargo.toml", "smartfeat-alpha"),
            manifest("crates/beta/Cargo.toml", "smartfeat-beta"),
        ];
        let parsed = vec![
            src(
                "crates/alpha/src/lib.rs",
                "pub mod ops;\npub fn top() { ops::inner(); }\n\
                 pub struct T;\nimpl T { pub fn assoc(&self) {} }\n\
                 static mut COUNTER: u32 = 0;",
            ),
            src(
                "crates/alpha/src/ops.rs",
                "use smartfeat_beta::helper;\npub fn inner() { helper(); crate::top(); }",
            ),
            src(
                "crates/beta/src/lib.rs",
                "pub fn helper() {}\n\
                 #[cfg(test)]\nmod tests { fn t() {} }",
            ),
        ];
        build(parsed, &manifests)
    }

    #[test]
    fn qnames_modules_and_ids_are_deterministic() {
        let ws = two_crate_workspace();
        let qnames: Vec<&str> = ws.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            qnames,
            [
                "smartfeat_alpha::top",
                "smartfeat_alpha::T::assoc",
                "smartfeat_alpha::ops::inner",
                "smartfeat_beta::helper",
                "smartfeat_beta::tests::t",
            ]
        );
        assert!(ws.fns[4].is_test, "cfg(test) mod marks nested fns as test");
        assert!(!ws.fns[3].is_test);
    }

    #[test]
    fn resolution_covers_imports_crate_and_relative_paths() {
        let ws = two_crate_workspace();
        let inner = 2usize; // smartfeat_alpha::ops::inner, file crates/alpha/src/ops.rs
        let file = ws.fns[inner].file;
        let module = ws.fns[inner].module.clone();
        // Imported name.
        assert_eq!(
            ws.resolve_path(file, &module, None, &["helper".into()]),
            vec![3]
        );
        // crate:: head.
        assert_eq!(
            ws.resolve_path(file, &module, None, &["crate".into(), "top".into()]),
            vec![0]
        );
        // Cross-crate absolute path.
        assert_eq!(
            ws.resolve_path(
                file,
                &module,
                None,
                &["smartfeat_beta".into(), "helper".into()]
            ),
            vec![3]
        );
        // Relative path from the lib root file.
        let top_file = ws.fns[0].file;
        assert_eq!(
            ws.resolve_path(top_file, &[], None, &["ops".into(), "inner".into()]),
            vec![2]
        );
        // std paths resolve to nothing.
        assert!(ws
            .resolve_path(
                file,
                &module,
                None,
                &["std".into(), "mem".into(), "swap".into()]
            )
            .is_empty());
    }

    #[test]
    fn bodies_are_reachable_through_item_paths() {
        let ws = two_crate_workspace();
        assert!(ws.body_of(0).is_some());
        assert!(ws.body_of(1).is_some(), "impl-associated fn body");
        assert_eq!(ws.fns[1].impl_ty.as_deref(), Some("T"));
    }
}
