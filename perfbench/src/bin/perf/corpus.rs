//! A seeded synthetic Rust workspace: the `sfcheck` workload's input.
//!
//! The analyzer is measured on input that never changes with the
//! repository, so its cost is compared on fixed work. The generator
//! builds a workspace shaped like this repository: crates under
//! `crates/<name>` with manifests and path dependencies, modules with
//! imports across modules and crates, structs, enums, traits and impls,
//! and function bodies drawn from templates that exercise what the lints
//! model — loops, matches, closures, `?`, hash-map iteration, statics
//! behind mutexes, environment reads, a parallel-entry pool, a seed
//! derivation helper and test modules. The seed picks the template of
//! every function, its constants and its callees, and so the call graph.

use std::fmt::Write as _;

use smartfeat_rng::Rng;

/// Size of the generated workspace.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Crates (at most [`CRATES`]`.len()`).
    pub crates: usize,
    /// Modules per crate.
    pub modules: usize,
    /// Free functions per module.
    pub free_fns: usize,
}

/// The full-size workspace: close to this repository's own file and
/// function counts.
pub const FULL: Shape = Shape {
    crates: 8,
    modules: 18,
    free_fns: 9,
};

/// A small workspace for `--smoke`.
pub const SMOKE: Shape = Shape {
    crates: 3,
    modules: 3,
    free_fns: 4,
};

/// Crate directories, in dependency order (each may use any earlier one).
/// Named like this repository's crates so the crate-scoped lints apply.
const CRATES: [&str; 8] = [
    "rng",
    "par",
    "frame",
    "ml",
    "fm",
    "core",
    "baselines",
    "bench",
];

/// Function-body templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Smooth,
    Parse,
    Tally,
    Measure,
    Record,
    Scramble,
    FanOut,
    Knob,
    PickBest,
}

const KINDS: [Kind; 9] = [
    Kind::Smooth,
    Kind::Parse,
    Kind::Tally,
    Kind::Measure,
    Kind::Record,
    Kind::Scramble,
    Kind::FanOut,
    Kind::Knob,
    Kind::PickBest,
];

impl Kind {
    fn prefix(self) -> &'static str {
        match self {
            Kind::Smooth => "smooth",
            Kind::Parse => "parse",
            Kind::Tally => "tally",
            Kind::Measure => "measure",
            Kind::Record => "record",
            Kind::Scramble => "scramble",
            Kind::FanOut => "fan_out",
            Kind::Knob => "knob",
            Kind::PickBest => "pick_best",
        }
    }
}

/// A generated free function other modules may call.
struct FnRef {
    krate: usize,
    module: usize,
    name: String,
    kind: Kind,
}

/// The generated workspace.
pub struct Corpus {
    /// `(path relative to the workspace root, contents)`.
    pub files: Vec<(String, String)>,
    /// `.rs` files among `files`.
    pub rust_files: usize,
    /// `fn` items written outside trait definitions.
    pub fns: usize,
}

struct Gen {
    rng: Rng,
    registry: Vec<FnRef>,
    fns: usize,
}

/// Per-module state: imports collect while bodies are written.
struct Module {
    krate: usize,
    module: usize,
    imports: Vec<String>,
}

impl Module {
    /// The path to call `f` by from this module, adding its `use`.
    fn call_path(&mut self, f: &FnRef) -> String {
        if f.krate == self.krate && f.module == self.module {
            return f.name.clone();
        }
        let line = if f.krate == self.krate {
            format!("use crate::m{}::{};", f.module, f.name)
        } else {
            format!("use synth_{}::m{}::{};", CRATES[f.krate], f.module, f.name)
        };
        if !self.imports.contains(&line) {
            self.imports.push(line);
        }
        f.name.clone()
    }
}

impl Gen {
    fn constant(&mut self) -> String {
        format!("{:.3}", 0.5 + self.rng.gen_f64() * 4.0)
    }

    fn int(&mut self, hi: u64) -> u64 {
        1 + self.rng.next_u64() % hi
    }

    /// A random earlier function of `kind` reachable from `m`.
    fn callee(&mut self, m: &mut Module, kind: Kind) -> Option<String> {
        let candidates: Vec<usize> = (0..self.registry.len())
            .filter(|&i| {
                let f = &self.registry[i];
                f.kind == kind && f.krate <= m.krate
            })
            .collect();
        let &i = self.rng.choose(&candidates)?;
        Some(m.call_path(&self.registry[i]))
    }

    fn free_fn(&mut self, m: &mut Module, kind: Kind, name: &str, k: &str) -> String {
        self.fns += 1;
        let c1 = self.constant();
        let c2 = self.constant();
        match kind {
            Kind::Smooth => {
                let tail = match self.callee(m, Kind::Smooth) {
                    Some(f) => format!("    out.extend({f}(&tail, k.saturating_sub(1)));\n"),
                    None => "    out.extend(tail);\n".to_string(),
                };
                format!(
                    "/// Running smoothed prefix of `xs` with period `k`.\n\
                     pub fn {name}(xs: &[f64], k: usize) -> Vec<f64> {{\n    \
                     let mut out = Vec::with_capacity(xs.len());\n    \
                     let mut acc = 0.0f64;\n    \
                     for (i, x) in xs.iter().enumerate() {{\n        \
                     if i % (k + 1) == 0 {{\n            acc += x * {c1};\n        \
                     }} else if *x > {c2} {{\n            acc -= x / {c1};\n        \
                     }} else {{\n            acc = acc.max(*x);\n        }}\n        \
                     out.push(acc);\n    }}\n    \
                     let tail: Vec<f64> = out\n        .iter()\n        .rev()\n        \
                     .take(k)\n        .map(|v| v * 0.5)\n        .filter(|v| v.is_finite())\n        \
                     .collect();\n{tail}    out\n}}\n"
                )
            }
            Kind::Parse => {
                let nested = match self.callee(m, Kind::Parse) {
                    Some(f) => format!("    let nested = {f}(&fields.join(\"\\n\"))?;\n    fields.extend(nested);\n"),
                    None => String::new(),
                };
                format!(
                    "/// Split `key = value` lines, skipping comments.\n\
                     pub fn {name}(text: &str) -> Result<Vec<String>, String> {{\n    \
                     let mut fields = Vec::new();\n    \
                     for (n, line) in text.lines().enumerate() {{\n        \
                     let line = line.trim();\n        \
                     if line.is_empty() || line.starts_with('#') {{\n            continue;\n        }}\n        \
                     match line.split_once('=') {{\n            \
                     Some((key, value)) => fields.push(format!(\"{{}}:{{}}\", key.trim(), value.trim())),\n            \
                     None if n == 0 => return Err(format!(\"line {{n}}: missing '='\")),\n            \
                     None => fields.push(line.to_string()),\n        }}\n    }}\n\
                     {nested}    Ok(fields)\n}}\n"
                )
            }
            Kind::Tally => format!(
                "/// Weighted totals per key, normalized by {c2}.\n\
                 pub fn {name}(keys: &[String], weights: &[f64]) -> BTreeMap<String, f64> {{\n    \
                 let mut totals: HashMap<String, f64> = HashMap::new();\n    \
                 for (key, w) in keys.iter().zip(weights) {{\n        \
                 *totals.entry(key.clone()).or_insert(0.0) += w * {c1};\n    }}\n    \
                 let mut out = BTreeMap::new();\n    \
                 for (key, v) in totals.iter() {{\n        out.insert(key.clone(), v / {c2});\n    }}\n    \
                 out\n}}\n"
            ),
            Kind::Measure => {
                let extra = self.int(9);
                format!(
                    "/// Total extent of `shapes`.\n\
                     pub fn {name}(shapes: &[Shape{k}]) -> usize {{\n    \
                     let mut total = 0usize;\n    \
                     for s in shapes {{\n        \
                     total += match s {{\n            \
                     Shape{k}::Point => 1,\n            \
                     Shape{k}::Pair(a, b) if a > b => (a - b) as usize,\n            \
                     Shape{k}::Pair(a, b) => (b - a) as usize + {extra},\n            \
                     Shape{k}::Named {{ name, size }} => name.len() * size,\n        }};\n    }}\n    \
                     total\n}}\n"
                )
            }
            Kind::Record => {
                let mul = self.int(1000);
                let then = match self.callee(m, Kind::Record) {
                    Some(f) => format!("    {f}(n as u64 + 1)\n"),
                    None => "    n\n".to_string(),
                };
                format!(
                    "/// Append to the module registry; returns its new length.\n\
                     pub fn {name}(v: u64) -> usize {{\n    \
                     let mut guard = REGISTRY_{k}.lock().expect(\"registry lock poisoned\");\n    \
                     guard.push(v.wrapping_mul({mul}));\n    \
                     let n = guard.len();\n    \
                     drop(guard);\n{then}}}\n"
                )
            }
            Kind::Scramble => {
                let salt = self.rng.next_u64();
                format!(
                    "/// Scrambled stream of `n` values from `seed`.\n\
                     pub fn {name}(seed: u64, n: usize) -> Vec<u64> {{\n    \
                     let mut state = seed ^ {salt:#x};\n    \
                     let mut stack: Vec<u64> = (0..n as u64).collect();\n    \
                     let mut out = Vec::new();\n    \
                     while let Some(x) = stack.pop() {{\n        \
                     state = state.wrapping_mul(6364136223846793005).wrapping_add(x);\n        \
                     if state >> 60 == 0 {{\n            continue;\n        }}\n        \
                     out.push(state.rotate_left((x % 64) as u32));\n    }}\n    \
                     out\n}}\n"
                )
            }
            Kind::FanOut => {
                let inner = match self.callee(m, Kind::Scramble) {
                    Some(f) => format!("{f}(*x, 3).len() as u64"),
                    None => "x.count_ones() as u64".to_string(),
                };
                let pool = m.call_path(&FnRef {
                    krate: 1,
                    module: 0,
                    name: "par_map".into(),
                    kind: Kind::FanOut,
                });
                let stream = self.int(50);
                let derive = m.call_path(&FnRef {
                    krate: 0,
                    module: 0,
                    name: "seed_jump".into(),
                    kind: Kind::Scramble,
                });
                format!(
                    "/// Per-item work on the pool, each item seeded from its value.\n\
                     pub fn {name}(items: &[u64], threads: usize, seed: u64) -> Vec<u64> {{\n    \
                     let scale = {c1} as u64 + 1;\n    \
                     {pool}(threads, items, |x| {{\n        \
                     let s = {derive}(seed, *x + {stream});\n        \
                     x.wrapping_mul(scale) ^ s ^ {inner}\n    }})\n}}\n"
                )
            }
            Kind::Knob => {
                let base = self.int(64);
                format!(
                    "/// Operator knob length, offset by {base}.\n\
                     pub fn {name}() -> usize {{\n    \
                     // sfcheck:allow(env-dependence) synthetic operator knob\n    \
                     let raw = std::env::var(\"SYNTH_KNOB_{k}\").unwrap_or_default();\n    \
                     raw.len() + {base}\n}}\n"
                )
            }
            Kind::PickBest => format!(
                "/// Largest item accepted by `f`.\n\
                 pub fn {name}<T, F>(items: &[T], f: F) -> Option<T>\nwhere\n    \
                 T: Clone + PartialOrd,\n    F: Fn(&T) -> bool,\n{{\n    \
                 let mut best: Option<T> = None;\n    \
                 for it in items.iter().filter(|x| f(x)) {{\n        \
                 best = match best {{\n            \
                 Some(b) if b >= *it => Some(b),\n            \
                 _ => Some(it.clone()),\n        }};\n    }}\n    \
                 best\n}}\n"
            ),
        }
    }

    /// One module file: types, impls, free functions and a test module.
    fn module(&mut self, shape: &Shape, krate: usize, module: usize) -> String {
        let k = format!("{krate}_{module}");
        let mut m = Module {
            krate,
            module,
            imports: Vec::new(),
        };
        let mut body = String::new();
        let c = self.constant();
        let _ = write!(
            body,
            "static REGISTRY_{k}: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\n\
             /// A weighted, tagged record.\n\
             #[derive(Debug, Clone, PartialEq)]\n\
             pub struct Rec{k} {{\n    pub id: u64,\n    pub weight: f64,\n    pub tags: Vec<String>,\n}}\n\n\
             /// Extents the `measure` functions fold.\n\
             #[derive(Debug, Clone)]\n\
             pub enum Shape{k} {{\n    Point,\n    Pair(u64, u64),\n    Named {{ name: String, size: usize }},\n}}\n\n\
             /// Depth-bounded traversal.\n\
             pub trait Visit{k} {{\n    fn visit(&self, depth: usize) -> usize;\n}}\n\n"
        );
        let distance = match self.callee(&mut m, Kind::Smooth) {
            Some(f) => format!("d + {f}(&[d], 1).len() as f64"),
            None => "d".to_string(),
        };
        let _ = write!(
            body,
            "impl Rec{k} {{\n    \
             /// A record with one tag.\n    \
             pub fn new(id: u64) -> Self {{\n        \
             Rec{k} {{\n            id,\n            weight: id as f64 * {c},\n            \
             tags: vec![format!(\"r{{}}\", id)],\n        }}\n    }}\n\n    \
             /// Distance to `other`, halved when they share a tag.\n    \
             pub fn distance_{k}(&self, other: &Rec{k}) -> f64 {{\n        \
             let d = (self.weight - other.weight).abs();\n        \
             if self.tags.iter().any(|t| other.tags.contains(t)) {{\n            d * 0.5\n        \
             }} else {{\n            {distance}\n        }}\n    }}\n\n    \
             /// Fold `other` into this record.\n    \
             pub fn merge(&mut self, other: Rec{k}) {{\n        \
             self.weight += other.weight;\n        \
             for t in other.tags {{\n            \
             if !self.tags.contains(&t) {{\n                self.tags.push(t);\n            }}\n        }}\n    }}\n}}\n\n\
             impl Visit{k} for Rec{k} {{\n    \
             fn visit(&self, depth: usize) -> usize {{\n        \
             if depth == 0 {{\n            self.tags.len()\n        }} else {{\n            \
             self.visit(depth - 1) + 1\n        }}\n    }}\n}}\n\n"
        );
        // new, distance, merge and the impl's visit; the analyzer skips
        // trait bodies, so the trait's declaration is not a fn to it.
        self.fns += 4;

        let mut scramble = None;
        for i in 0..shape.free_fns {
            let kind = match *self.rng.choose(&KINDS).unwrap_or(&Kind::Smooth) {
                // The pool lives in the second crate; the first cannot use it.
                Kind::FanOut if krate == 0 => Kind::Scramble,
                kind => kind,
            };
            let name = format!("{}_{k}_{i}", kind.prefix());
            body.push_str(&self.free_fn(&mut m, kind, &name, &k));
            body.push('\n');
            if kind == Kind::Scramble {
                scramble = Some(name.clone());
            }
            self.registry.push(FnRef {
                krate,
                module,
                name,
                kind,
            });
        }
        let check = scramble.map_or(String::new(), |f| {
            format!("        assert!({f}(7, 4).len() <= 4);\n")
        });
        let _ = write!(
            body,
            "#[cfg(test)]\nmod tests {{\n    use super::*;\n\n    \
             #[test]\n    fn record_{k}_round_trips() {{\n        \
             let r = Rec{k}::new(3);\n        assert_eq!(r.id, 3);\n        \
             assert_eq!(r.visit(2), 3);\n{check}    }}\n}}\n"
        );
        self.fns += 1;

        let mut text = format!(
            "//! Synthetic module {}::m{module} (generated benchmark input).\n\n\
             use std::collections::{{BTreeMap, HashMap}};\nuse std::sync::Mutex;\n",
            CRATES[krate]
        );
        for line in &m.imports {
            text.push_str(line);
            text.push('\n');
        }
        text.push('\n');
        text.push_str(&body);
        text
    }
}

/// The helpers the templates call into, with their `fn` counts: a seed
/// derivation in `rng` and an ordered pool with a lock helper in `par`.
fn support_module(krate: usize) -> Option<(String, usize)> {
    match CRATES[krate] {
        "rng" => Some((
            "//! Seed derivation for the synthetic workspace.\n\n\
             /// The `index`-th derived seed of `base`.\n\
             // sfcheck:seed-derivation\n\
             pub fn seed_jump(base: u64, index: u64) -> u64 {\n    \
             let z = base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));\n    \
             (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9)\n}\n"
                .to_string(),
            1,
        )),
        "par" => Some((
            "//! Ordered pool for the synthetic workspace.\n\n\
             use std::sync::{Mutex, MutexGuard};\n\n\
             /// Map `f` over `items`, results in input order.\n\
             // sfcheck:parallel-entry\n\
             pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>\nwhere\n    \
             T: Sync,\n    R: Send,\n    F: Fn(&T) -> R + Sync,\n{\n    \
             let _ = threads;\n    items.iter().map(f).collect()\n}\n\n\
             /// Acquire `m`, re-raising a poisoned lock's panic.\n\
             // sfcheck:lock-helper\n\
             pub fn lock_or_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    \
             m.lock().expect(\"lock poisoned\")\n}\n"
                .to_string(),
            2,
        )),
        _ => None,
    }
}

/// Generate the workspace for `shape` from `seed`.
pub fn generate(shape: &Shape, seed: u64) -> Corpus {
    let crates = shape.crates.clamp(2, CRATES.len());
    let mut g = Gen {
        rng: Rng::seed_from_u64(seed),
        registry: Vec::new(),
        fns: 0,
    };
    let mut files = vec![(
        "Cargo.toml".to_string(),
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n".to_string(),
    )];
    for krate in 0..crates {
        let dir = format!("crates/{}", CRATES[krate]);
        let mut manifest = format!(
            "[package]\nname = \"synth-{}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[dependencies]\n",
            CRATES[krate]
        );
        for dep in &CRATES[..krate] {
            let _ = writeln!(manifest, "synth-{dep} = {{ path = \"../{dep}\" }}");
        }
        files.push((format!("{dir}/Cargo.toml"), manifest));

        let mut lib = format!("//! Synthetic crate `{}`.\n\n", CRATES[krate]);
        let first = match support_module(krate) {
            Some((text, fns)) => {
                files.push((format!("{dir}/src/m0.rs"), text));
                g.fns += fns;
                lib.push_str("pub mod m0;\n");
                1
            }
            None => 0,
        };
        for module in first..shape.modules.max(first + 1) {
            let text = g.module(shape, krate, module);
            files.push((format!("{dir}/src/m{module}.rs"), text));
            let _ = writeln!(lib, "pub mod m{module};");
        }
        files.push((format!("{dir}/src/lib.rs"), lib));
    }
    let rust_files = files.iter().filter(|(p, _)| p.ends_with(".rs")).count();
    Corpus {
        files,
        rust_files,
        fns: g.fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus() {
        let a = generate(&SMOKE, 5);
        let b = generate(&SMOKE, 5);
        assert_eq!(a.files, b.files);
        assert_eq!(a.fns, b.fns);
        let c = generate(&SMOKE, 6);
        assert_ne!(a.files, c.files);
    }

    #[test]
    fn every_fn_is_found_by_the_analyzer() {
        let corpus = generate(&SMOKE, 11);
        let mut parsed = Vec::new();
        let mut manifests = Vec::new();
        for (path, text) in &corpus.files {
            let file = sfcheck::walker::SourceFile {
                rel_path: path.clone(),
                text: text.clone(),
                class: sfcheck::walker::classify(path),
                crate_dir: sfcheck::walker::crate_dir_of(path),
            };
            if path.ends_with(".rs") {
                let tree = sfcheck::parser::parse(&sfcheck::lexer::lex(text));
                parsed.push((file, tree));
            } else {
                manifests.push(file);
            }
        }
        assert_eq!(parsed.len(), corpus.rust_files);
        let ws = sfcheck::resolve::build(parsed, &manifests);
        assert_eq!(ws.fns.len(), corpus.fns);
    }
}
