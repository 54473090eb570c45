//! The `sfcheck` workload: a whole-workspace analyzer run over the
//! generated corpus, cold every time.
//!
//! `run_check` keeps an incremental cache under `<root>/target`. The
//! set-up puts a regular file there, so the cache can be neither read nor
//! written: every pass is a full analysis, and no pass writes to disk,
//! which keeps file-system churn out of the timings.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use sfcheck::lints::scan_rust_raw;
use sfcheck::{callgraph, lexer, parser, resolve, run_check, walker, CheckOptions};

use crate::corpus::{self, Shape};
use crate::measure::OpTimer;
use crate::trace::{span, span_timed, Tracer};
use crate::{PassOut, PerfError, Workload};

/// The generated workspace on disk, and what the analyzer must find in it.
pub struct Analyzer {
    root: PathBuf,
    rust_files: usize,
    fns: usize,
    /// `run_check` wall time of the latest pass, the base of the probe's
    /// shares.
    last_check_s: f64,
}

impl Analyzer {
    /// Generate the corpus and bring `dir` up to date with it (the timed
    /// set-up). A file is written only when its content differs, so a
    /// repeated set-up reads the tree instead of rewriting it; `dir` must
    /// be used for this shape and seed only, so no stale file can remain.
    pub fn setup(
        shape: &Shape,
        seed: u64,
        dir: &Path,
        tracer: Option<&Tracer>,
    ) -> Result<Analyzer, PerfError> {
        let corpus = span(tracer, "corpus.generate", "", || {
            corpus::generate(shape, seed)
        });
        span(tracer, "corpus.write", "", || -> Result<(), PerfError> {
            for (rel, text) in &corpus.files {
                let path = dir.join(rel);
                if std::fs::read_to_string(&path).is_ok_and(|old| old == *text) {
                    continue;
                }
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).map_err(|e| PerfError::io(parent, e))?;
                }
                std::fs::write(&path, text).map_err(|e| PerfError::io(&path, e))?;
            }
            let target = dir.join("target");
            if target.is_dir() {
                std::fs::remove_dir_all(&target).map_err(|e| PerfError::io(&target, e))?;
            }
            if !target.is_file() {
                let note = "Not a directory: keeps sfcheck's cache from being written.\n";
                std::fs::write(&target, note).map_err(|e| PerfError::io(&target, e))?;
            }
            Ok(())
        })?;
        Ok(Analyzer {
            root: dir.to_path_buf(),
            rust_files: corpus.rust_files,
            fns: corpus.fns,
            last_check_s: 0.0,
        })
    }
}

impl Workload for Analyzer {
    fn pass(&mut self, tracer: Option<&Tracer>, timer: &mut OpTimer) -> PassOut {
        let mut out = PassOut {
            attempted: 1,
            ..PassOut::default()
        };
        let result = timer.op(|| {
            span(tracer, "sfcheck.run_check", "", || {
                run_check(&CheckOptions::new(&self.root))
            })
        });
        self.last_check_s = timer.last_raw();
        match result {
            Ok(outcome) => {
                let scanned = outcome
                    .report
                    .get("summary")
                    .and_then(|s| s.get("files_scanned"))
                    .and_then(|n| n.as_usize());
                if scanned != Some(self.rust_files) {
                    out.problems.push(format!(
                        "sfcheck scanned {scanned:?} files; the corpus has {}",
                        self.rust_files
                    ));
                }
                out.digest.add(&outcome.report.emit());
            }
            Err(e) => {
                out.failed = 1;
                out.digest.add(&e.message);
            }
        }
        out
    }

    /// `run_check`'s phases, each timed alone: the walk, the per-file
    /// phase (as `run_check` runs it on the pool, and lex and parse
    /// serially), symbol resolution and the call graph. What `run_check`
    /// spends beyond them is the global lint passes.
    fn probe(&mut self, tracer: &Tracer, out: &mut PassOut) {
        let (walked, walk) = span_timed(tracer, "sfcheck.walk", "", || {
            walker::rust_sources(&self.root).and_then(|s| Ok((s, walker::manifests(&self.root)?)))
        });
        let (sources, manifests) = match walked {
            Ok(w) => w,
            Err(e) => {
                out.problems
                    .push(format!("probe walk failed: {}", e.message));
                return;
            }
        };
        let (tokens, lex) = span_timed(tracer, "sfcheck.lex", "", || {
            sources
                .iter()
                .map(|f| lexer::lex(&f.text))
                .collect::<Vec<_>>()
        });
        let (trees, parse) = span_timed(tracer, "sfcheck.parse", "", || {
            tokens
                .iter()
                .map(|tk| parser::parse(tk))
                .collect::<Vec<_>>()
        });
        let threads = smartfeat_par::resolve_threads(0);
        let (scans, perfile) = span_timed(tracer, "sfcheck.perfile", "", || {
            smartfeat_par::par_map(threads, &sources, |file| {
                let tk = lexer::lex(&file.text);
                let tree = parser::parse(&tk);
                let (raw, waivers) = scan_rust_raw(file, &tk);
                (tree, raw, waivers)
            })
        });
        black_box(scans);
        let files = sources.len();
        let parsed = sources.into_iter().zip(trees).collect();
        let (ws, resolve) = span_timed(tracer, "sfcheck.resolve", "", || {
            resolve::build(parsed, &manifests)
        });
        let (graph, callgraph) =
            span_timed(tracer, "sfcheck.callgraph", "", || callgraph::build(&ws));
        black_box(graph);

        if ws.fns.len() != self.fns {
            out.problems.push(format!(
                "sfcheck resolved {} fns; the corpus has {}",
                ws.fns.len(),
                self.fns
            ));
        }
        let check = self.last_check_s;
        if check > 0.0 {
            for (name, secs) in [
                ("sfcheck.walk_share", walk),
                ("sfcheck.perfile_share", perfile),
                ("sfcheck.lex_share", lex),
                ("sfcheck.parse_share", parse),
                ("sfcheck.resolve_share", resolve),
                ("sfcheck.callgraph_share", callgraph),
            ] {
                out.add(name, secs / check);
            }
            let phases = walk + perfile + resolve + callgraph;
            out.add("sfcheck.global_share", (check - phases) / check);
        }
        out.add("sfcheck.files", files as f64);
        out.add("sfcheck.fns", ws.fns.len() as f64);
    }
}
