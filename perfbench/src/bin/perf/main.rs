//! `perf`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perf --workload <construct|search|grid|sfcheck> [--seed N] [--seconds S]
//!      [--trace 0|1] [--workdir DIR]
//! perf --smoke [--trace 0|1] [--workdir DIR]
//! ```
//!
//! One invocation runs one workload. It builds the inputs from `--seed`
//! (default 42), runs the warm-up passes, then measured passes for
//! `--seconds` (default 20; a pass starts only while a typical pass still
//! ends inside the window, and at least one runs), checks every pass's
//! outputs, and prints each metric by name with its unit. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The process exits 0 only when
//! every output check passes, 1 when a check or the run fails, and 2 on a
//! bad command line. Scratch files (the synthetic workspace, the span
//! dump) go under `--workdir` (default `target/perf`). The benchmark reads
//! no environment variable; the thread pool resolves its own thread count
//! (`SMARTFEAT_THREADS`, else the core count), and `BENCHMARK.json` runs
//! it with 2. The load is a closed loop: one caller waits for each result
//! before making the next call.
//!
//! # Workloads
//!
//! A *pass* is one run over the workload's fixed input list. The seed
//! generates the inputs — the datasets, or the synthetic workspace. The
//! system under test keeps its default configuration (SMARTFEAT's seed 0,
//! the grid's seed 42), so every seed's inputs cost the same work to
//! within about 1%.
//!
//! | name | one pass | warm-up | why |
//! |---|---|---|---|
//! | `construct` | `SmartFeat::run`, one-shot, paper pairing (GPT-4 selector, GPT-3.5 generator via `build_role_fms`), on all 8 datasets at paper row counts (`all_scaled(1.0)`, 111k rows) | 1 | The paper's headline path. `core` does almost all the work and no `ml` runs, so an `ml` change must show no effect here. |
//! | `search` | beam, evolutionary and ReAct search (default knobs) × 8 datasets at scale 0.25, the default cascade ladder serving both roles | 1 | The same `core` loop plus a 3-fold LR CV per kept column — many small `ml` fits instead of a few large ones — and `fm` work spread over cascade rungs. |
//! | `grid` | the Table 4 grid, `grid::run_dataset` per dataset: 8 datasets at scale 0.03 × (initial + 4 methods) × 5 models, 600 s method deadline | 0 | Five-model evaluation (mostly the DNN) and the baselines dominate; SMARTFEAT is about 1% of a pass, so a `core` change must show no effect here. |
//! | `sfcheck` | `sfcheck::run_check` on a seeded synthetic workspace ([`corpus`]: 8 crates, 152 files, about 2,000 fns), and a regular file at `<root>/target`, where the analyzer would keep its incremental cache | 1 | The whole-workspace analyzer run on input that does not grow with the repository; every pass is a full (cold) analysis that writes nothing to disk. |
//!
//! # Time at reference speed
//!
//! The benchmark runs on shared machines whose speed swings by tens of
//! percent within seconds and drifts by more over minutes, which is more
//! than any useful regression bound. So every timed operation — one
//! `SmartFeat::run`, one grid row, one `run_check`, one set-up — is timed
//! by a [`measure::OpTimer`]: its wall time is scaled by
//! [`measure::REFERENCE_KERNEL_S`] ÷ the mean wall time of a fixed
//! calibration kernel (the benchmark's own integer code, about 3 ms)
//! sampled right before and right after it. The result is seconds at the
//! reference machine's speed. The samples run between operations and
//! count towards no time. The human-readable lines give the wall times as
//! well.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | name | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `pass_s` | s | lower | +25% | Median over the measured passes of a pass's time at reference speed (the sum over its operations). |
//! | `setup_s` | s | lower | +25% | Median time at reference speed of building the inputs: dataset generation, `prep::prepare` and the data agenda, or generating the synthetic workspace and bringing it up to date on disk. Built at least [`SETUP_MIN_REPS`] times and for at least [`SETUP_MIN_SECS`] in all (at most [`SETUP_MAX_REPS`] times), half before the passes and half after. |
//! | `peak_rss_mb` | MB | lower | +20% | `VmHWM` from `/proc/self/status` at the end of the run. |
//!
//! The spreads the bounds were chosen from are recorded in
//! `perfbench/BASELINE.md`.
//!
//! `attempted` counts operations over the measured passes — a
//! `SmartFeat::run`, a grid cell or a `run_check` — and `failed` those
//! that returned an error or an empty cell. A baseline crashing on the
//! code it generated (CAAFE on Diabetes, the paper's "–") is the
//! reproduced result, counted in `baselines.failed_cells`, not a failure.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Layers are named after the crates. A traced run makes the same passes
//! with spans around the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Spans are
//! written to `<workdir>/<workload>-spans.jsonl`. A layer's time is
//! reported as its *share*: the self time (span minus child spans) of its
//! spans over all measured passes ÷ the wall time of the passes'
//! operations, so a layer a workload bypasses reads 0 rather than a
//! constant 0-second time; the human-readable lines above the JSON give
//! the seconds.
//! Counts are per pass, median over passes. A traced run reports no
//! end-to-end numbers; the tracing overhead (traced ÷ untraced `pass_s`)
//! is recorded in `perfbench/BASELINE.md`.
//!
//! | metric | unit | from | should move |
//! |---|---|---|---|
//! | `trace.pass_s` | s | traced pass median, at reference speed | — |
//! | `trace.coverage` | ratio | top-level layer spans ÷ the wall time of the passes' operations; outside [0.95, 1.05] fails the run | — |
//! | `datasets.setup_share`, `frame.setup_share`, `core.agenda_setup_share` | ratio | `all_scaled`, `prep::prepare`, `Dataset::agenda` ÷ set-up time | `setup_s` on `construct`, `search`, `grid` |
//! | `core.self_share` | ratio | `SmartFeat::run` minus its FM calls | `pass_s` on `construct` and `search` |
//! | `core.kept`, `core.skipped`, `core.keep_ratio` | count, ratio | the report | `pass_s` on `construct` |
//! | `fm.share` | ratio | every `complete`, through a per-role wrapper | FM cost only (about 3% of a pass): never claim `pass_s` from it |
//! | `fm.selector_calls`, `fm.generator_calls`, `fm.errors` | count | the wrapper | `fm.usd` |
//! | `fm.usd` | USD | the report's meters | — |
//! | `ml.eval_share`, `ml.eval_calls` | ratio, count | `evalml::evaluate_frame_models` | `pass_s` on `grid` |
//! | `ml.auc_avg` | AUCx100 | mean over datasets of SMARTFEAT's Table 4 cell | — (a quality guard) |
//! | `ml.probe.{lr,nb,rf,et,dnn}_share` | ratio | serial single-kind evaluation of SMARTFEAT's output frames after each pass, outside its time, ÷ the probe's total | `pass_s` on `grid` |
//! | `baselines.{caafe,featuretools,autofeat}_share` | ratio | `methods::run_method` | `pass_s` on `grid` |
//! | `baselines.failed_cells` | count | grid cells a baseline crashed in | — |
//! | `sfcheck.{walk,perfile,lex,parse,resolve,callgraph,global}_share` | ratio | each phase timed alone after the pass, ÷ that pass's `run_check`; `global` is the rest of `run_check` | `pass_s` on `sfcheck` |
//! | `sfcheck.files`, `sfcheck.fns` | count | the walk and the symbol table | — |
//!
//! # Output checks
//!
//! Every pass's digest (kept feature names, frame shapes and FM meter
//! totals; every grid AUC and cell note; the `sfcheck` report JSON) must
//! equal the first pass's. Every kept feature must be a column of its
//! output frame; the wrapper's call count must equal the meter's calls
//! minus cascade escalations; no grid cell may hit the method deadline
//! and no AUC may be NaN; the analyzer must scan every generated file
//! and resolve every generated fn.
//!
//! `--smoke` runs every workload once at the smallest scale (every
//! dataset at `all_scaled`'s 200-row floor, a small synthetic workspace)
//! with the same checks, in about 10 s.

mod analyzer;
mod corpus;
mod grid;
mod measure;
mod pipeline;
mod trace;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smartfeat_frame::json::JsonValue;

use crate::measure::{median, now, peak_rss_mb, quartiles, secs_since, Digest, OpTimer};
use crate::trace::{self_time_by_name, span, Phase, Tracer};

const USAGE: &str = "\
usage: perf --workload <construct|search|grid|sfcheck> [--seed N] [--seconds S]
            [--trace 0|1] [--workdir DIR]
       perf --smoke [--trace 0|1] [--workdir DIR]";

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Measuring time when `--seconds` is not given (`BENCHMARK.json`'s).
const DEFAULT_SECONDS: u64 = 20;
/// Set-up runs at least [`SETUP_MIN_REPS`] times and until it has taken
/// [`SETUP_MIN_SECS`] in all, at most [`SETUP_MAX_REPS`] times; `setup_s`
/// is the median.
const SETUP_MIN_REPS: usize = 6;
const SETUP_MIN_SECS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 60;
/// Scale that puts every dataset at `all_scaled`'s 200-row floor.
const SMOKE_SCALE: f64 = 0.0;
/// `trace.coverage` outside this range fails the run.
const COVERAGE_RANGE: (f64, f64) = (0.95, 1.05);

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// For span-derived shares: the span names whose self time counts,
    /// and the phase they are taken from.
    spans: Option<(Phase, &'static [&'static str])>,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        spans: None,
    }
}

const fn share(name: &'static str, phase: Phase, spans: &'static [&'static str]) -> Metric {
    Metric {
        name,
        unit: "ratio",
        better: "lower",
        spans: Some((phase, spans)),
    }
}

/// Printed with `--trace 0`.
const END_TO_END: [Metric; 3] = [
    metric("pass_s", "s", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
];

/// Printed with `--trace 1`.
const PER_LAYER: [Metric; 35] = [
    metric("trace.pass_s", "s", "lower"),
    metric("trace.coverage", "ratio", "higher"),
    share("datasets.setup_share", Phase::Setup, &["datasets.generate"]),
    share("frame.setup_share", Phase::Setup, &["frame.prepare"]),
    share("core.agenda_setup_share", Phase::Setup, &["core.agenda"]),
    share("core.self_share", Phase::Pass, &["core.run"]),
    metric("core.kept", "count", "higher"),
    metric("core.skipped", "count", "lower"),
    metric("core.keep_ratio", "ratio", "higher"),
    share("fm.share", Phase::Pass, &["fm.selector", "fm.generator"]),
    metric("fm.selector_calls", "count", "lower"),
    metric("fm.generator_calls", "count", "lower"),
    metric("fm.usd", "USD", "lower"),
    metric("fm.errors", "count", "lower"),
    share("ml.eval_share", Phase::Pass, &["ml.eval"]),
    metric("ml.eval_calls", "count", "lower"),
    metric("ml.auc_avg", "AUCx100", "higher"),
    metric("ml.probe.lr_share", "ratio", "lower"),
    metric("ml.probe.nb_share", "ratio", "lower"),
    metric("ml.probe.rf_share", "ratio", "lower"),
    metric("ml.probe.et_share", "ratio", "lower"),
    metric("ml.probe.dnn_share", "ratio", "lower"),
    share("baselines.caafe_share", Phase::Pass, &["baselines.caafe"]),
    share(
        "baselines.featuretools_share",
        Phase::Pass,
        &["baselines.featuretools"],
    ),
    share(
        "baselines.autofeat_share",
        Phase::Pass,
        &["baselines.autofeat"],
    ),
    metric("baselines.failed_cells", "count", "lower"),
    metric("sfcheck.walk_share", "ratio", "lower"),
    metric("sfcheck.perfile_share", "ratio", "lower"),
    metric("sfcheck.lex_share", "ratio", "lower"),
    metric("sfcheck.parse_share", "ratio", "lower"),
    metric("sfcheck.resolve_share", "ratio", "lower"),
    metric("sfcheck.callgraph_share", "ratio", "lower"),
    metric("sfcheck.global_share", "ratio", "lower"),
    metric("sfcheck.files", "count", "higher"),
    metric("sfcheck.fns", "count", "higher"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    Construct,
    Search,
    Grid,
    Sfcheck,
}

impl WorkloadName {
    const ALL: [WorkloadName; 4] = [
        WorkloadName::Construct,
        WorkloadName::Search,
        WorkloadName::Grid,
        WorkloadName::Sfcheck,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadName::Construct => "construct",
            WorkloadName::Search => "search",
            WorkloadName::Grid => "grid",
            WorkloadName::Sfcheck => "sfcheck",
        }
    }

    fn parse(s: &str) -> Result<WorkloadName, ArgError> {
        WorkloadName::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| ArgError::UnknownWorkload(s.to_string()))
    }

    /// Warm-up passes before measuring (none for `grid`, whose pass is
    /// long and whose set-up leaves nothing to warm).
    fn warmup(self) -> usize {
        match self {
            WorkloadName::Grid => 0,
            _ => 1,
        }
    }

    /// Build the workload's inputs.
    fn setup(
        self,
        smoke: bool,
        seed: u64,
        workdir: &Path,
        tracer: Option<&Tracer>,
    ) -> Result<Box<dyn Workload>, PerfError> {
        let scale = |full: f64| if smoke { SMOKE_SCALE } else { full };
        Ok(match self {
            WorkloadName::Construct => {
                Box::new(pipeline::Pipeline::construct(scale(1.0), seed, tracer))
            }
            WorkloadName::Search => Box::new(pipeline::Pipeline::search(scale(0.25), seed, tracer)),
            WorkloadName::Grid => Box::new(grid::Grid::setup(scale(0.03), seed, tracer)),
            WorkloadName::Sfcheck => {
                let (shape, size) = if smoke {
                    (corpus::SMOKE, "smoke")
                } else {
                    (corpus::FULL, "full")
                };
                let dir = workdir.join(format!("sfcheck-{size}-{seed}"));
                Box::new(analyzer::Analyzer::setup(&shape, seed, &dir, tracer)?)
            }
        })
    }
}

/// A workload after set-up: passes over fixed inputs.
trait Workload {
    /// One pass over the inputs, traced when `tracer` is given. Each
    /// operation runs inside `timer.op`.
    fn pass(&mut self, tracer: Option<&Tracer>, timer: &mut OpTimer) -> PassOut;

    /// Traced-only measurements after a pass, outside its time.
    fn probe(&mut self, _tracer: &Tracer, _out: &mut PassOut) {}
}

/// What one pass produced.
#[derive(Debug, Default)]
struct PassOut {
    /// Digest of the pass's outputs.
    digest: Digest,
    /// Operations attempted.
    attempted: usize,
    /// Operations that returned an error (or an empty grid cell).
    failed: usize,
    /// Failed output checks.
    problems: Vec<String>,
    /// Per-layer values of the pass, by metric name.
    values: BTreeMap<&'static str, f64>,
}

impl PassOut {
    /// Add `v` to the pass's value of `name`.
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// The pass's value of `name` (0 when never added).
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// A bad command line (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArgError {
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue { flag: &'static str, value: String },
    UnknownWorkload(String),
    NoWorkload,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(a) => write!(f, "unknown argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => write!(f, "bad value `{value}` for {flag}"),
            ArgError::UnknownWorkload(w) => write!(
                f,
                "unknown workload `{w}` (expected construct, search, grid or sfcheck)"
            ),
            ArgError::NoWorkload => write!(f, "--workload is required unless --smoke is given"),
        }
    }
}

/// A run that could not complete (exit 1): a scratch file the benchmark
/// could not read or write.
#[derive(Debug)]
struct PerfError(String);

impl PerfError {
    fn io(path: &Path, e: std::io::Error) -> PerfError {
        PerfError(format!("{}: {e}", path.display()))
    }
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` with `--smoke` (all workloads) or `--help`.
    workload: Option<WorkloadName>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    help: bool,
    workdir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            help: false,
            workdir: PathBuf::from("target/perf"),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let flag: &'static str = match arg.as_str() {
                "--smoke" => {
                    args.smoke = true;
                    continue;
                }
                "--help" | "-h" => {
                    args.help = true;
                    continue;
                }
                "--workload" => "--workload",
                "--seed" => "--seed",
                "--seconds" => "--seconds",
                "--trace" => "--trace",
                "--workdir" => "--workdir",
                _ => return Err(ArgError::UnknownFlag(arg.clone())),
            };
            let value = it.next().ok_or(ArgError::MissingValue(flag))?;
            let bad = || ArgError::BadValue {
                flag,
                value: value.clone(),
            };
            match flag {
                "--workload" => args.workload = Some(WorkloadName::parse(value)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => args.workdir = PathBuf::from(value),
            }
        }
        if args.workload.is_none() && !args.smoke && !args.help {
            return Err(ArgError::NoWorkload);
        }
        Ok(args)
    }
}

/// Everything one workload run measured.
struct Run {
    workload: WorkloadName,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// In table order.
    metrics: Vec<Value>,
}

/// `(name, value, unit)` of one reported metric.
type Value = (&'static str, f64, &'static str);

/// The `--trace 0` metrics.
fn end_to_end_metrics(pass_s: &[f64], setup_s: &[f64]) -> Vec<Value> {
    let rss = peak_rss_mb().unwrap_or(0.0);
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "pass_s" => median(pass_s),
                "setup_s" => median(setup_s),
                _ => rss,
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// The `--trace 1` metrics, from the spans, the passes' values and their
/// times (`raw`: wall time of the passes' operations; `scaled`: the same
/// at reference speed). A `trace.coverage` outside [`COVERAGE_RANGE`] is
/// added to `problems`.
fn layer_metrics(
    tr: &Tracer,
    passes: &[PassOut],
    raw: &[f64],
    scaled: &[f64],
    problems: &mut Vec<String>,
) -> Vec<Value> {
    let spans = tr.spans();
    let pass_self = self_time_by_name(&spans, Phase::Pass);
    let setup_self = self_time_by_name(&spans, Phase::Setup);
    let pass_total: f64 = raw.iter().sum();
    let setup_total = spans
        .iter()
        .filter(|s| s.phase == Phase::Setup && s.name == "setup")
        .fold(0.0, |acc, s| acc + s.duration());
    // Layer spans directly under a pass span, against the passes' timed
    // operations (which exclude the speed samples between them).
    let top_level = spans
        .iter()
        .filter(|s| s.phase == Phase::Pass && s.parent.is_some_and(|p| spans[p].name == "pass"))
        .fold(0.0, |acc, s| acc + s.duration());
    let coverage = top_level / pass_total;
    if !(COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&coverage) {
        problems.push(format!(
            "trace.coverage {coverage:.4} is outside [{}, {}]",
            COVERAGE_RANGE.0, COVERAGE_RANGE.1
        ));
    }
    for (name, (secs, calls)) in &pass_self {
        println!(
            "perf:   span {name:<24} self {:.4}s per pass over {calls} calls",
            secs / passes.len() as f64
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match (m.name, m.spans) {
                ("trace.pass_s", _) => median(scaled),
                ("trace.coverage", _) => coverage,
                (_, Some((phase, names))) => {
                    let (by, base) = if phase == Phase::Setup {
                        (&setup_self, setup_total)
                    } else {
                        (&pass_self, pass_total)
                    };
                    let own = names
                        .iter()
                        .filter_map(|n| by.get(*n))
                        .fold(0.0, |acc, e| acc + e.0);
                    own / base
                }
                (name, None) => median(&passes.iter().map(|p| p.get(name)).collect::<Vec<_>>()),
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// Run one workload: set-up, warm-up, measured passes, checks, metrics.
fn run_workload(w: WorkloadName, args: &Args, seconds: f64) -> Result<Run, PerfError> {
    let smoke = args.smoke;
    let tracer = args.trace.then(Tracer::new);
    let t = tracer.as_ref();
    std::fs::create_dir_all(&args.workdir).map_err(|e| PerfError::io(&args.workdir, e))?;

    // Each set-up's inputs are freed before the next is built, so
    // repetition does not raise peak memory.
    let mut setup_timer = OpTimer::new();
    let mut build = |rep: usize| {
        if let Some(t) = t {
            t.enter(Phase::Setup, rep);
        }
        let built = setup_timer.op(|| {
            span(t, "setup", "", || {
                w.setup(smoke, args.seed, &args.workdir, t)
            })
        });
        built.map(|b| (b, setup_timer.last_scaled()))
    };
    // Half the set-up repetitions run before the passes and half after,
    // so a slow spell of the machine does not make the median.
    let (mut work, first) = build(1)?;
    let mut setup_s = vec![first];
    let enough = |s: &[f64]| {
        smoke
            || s.len() >= SETUP_MAX_REPS / 2
            || (s.len() >= SETUP_MIN_REPS / 2 && s.iter().sum::<f64>() >= SETUP_MIN_SECS / 2.0)
    };
    while !enough(&setup_s) {
        drop(work);
        let (next, secs) = build(setup_s.len() + 1)?;
        work = next;
        setup_s.push(secs);
    }
    let before = setup_s.len();

    let mut problems: Vec<String> = Vec::new();
    let mut reference: Option<Digest> = None;
    let mut check_digest = |label: String, d: Digest, problems: &mut Vec<String>| match reference {
        None => reference = Some(d),
        Some(r) if r != d => problems.push(format!(
            "{label}: output digest differs from the first pass"
        )),
        Some(_) => {}
    };
    let warmup = if smoke { 0 } else { w.warmup() };
    for i in 1..=warmup {
        if let Some(t) = t {
            t.enter(Phase::Warmup, i);
        }
        let out = work.pass(t, &mut OpTimer::new());
        check_digest(format!("warm-up {i}"), out.digest, &mut problems);
        problems.extend(out.problems);
    }

    let start = now();
    let mut passes: Vec<PassOut> = Vec::new();
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    // A pass starts only if a typical pass still ends inside the window.
    while passes.is_empty() || secs_since(start) + median(&raw) <= seconds {
        let n = passes.len() + 1;
        if let Some(t) = t {
            t.enter(Phase::Pass, n);
        }
        let mut timer = OpTimer::new();
        let mut out = span(t, "pass", "", || work.pass(t, &mut timer));
        if let Some(t) = t {
            t.enter(Phase::Probe, n);
            work.probe(t, &mut out);
        }
        check_digest(format!("pass {n}"), out.digest, &mut problems);
        problems.append(&mut out.problems);
        raw.push(timer.raw());
        scaled.push(timer.scaled());
        passes.push(out);
    }
    drop(work);
    if !smoke {
        for rep in 0..before {
            let (_, secs) = build(before + rep + 1)?;
            setup_s.push(secs);
        }
    }

    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let (p25, p75) = quartiles(&scaled);
    println!(
        "perf: {} seed={} trace={} digest={:016x} passes={} scaled pass_s median={:.4} \
         p25={p25:.4} p75={p75:.4}, wall median={:.4}; setup_s median={:.4} over {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        reference.map_or(0, Digest::value),
        passes.len(),
        median(&scaled),
        median(&raw),
        median(&setup_s),
        setup_s.len(),
    );

    let metrics = match &tracer {
        None => end_to_end_metrics(&scaled, &setup_s),
        Some(tr) => {
            let metrics = layer_metrics(tr, &passes, &raw, &scaled, &mut problems);
            let path = args.workdir.join(format!("{}-spans.jsonl", w.name()));
            std::fs::write(&path, tr.jsonl()).map_err(|e| PerfError::io(&path, e))?;
            println!("perf: wrote the spans to {}", path.display());
            metrics
        }
    };
    for (name, value, unit) in &metrics {
        let better = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.name == *name)
            .map_or("", |m| m.better);
        println!("perf:   {name} = {value:.6} {unit} ({better} is better)");
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &problems {
        *seen.entry(p).or_insert(0) += 1;
    }
    for (p, n) in seen {
        eprintln!("perf: {} check failed ({n}x): {p}", w.name());
    }
    Ok(Run {
        workload: w,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The final standard-output line.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                JsonValue::object([("value", (*value).into()), ("unit", (*unit).into())]),
            )
        })
        .collect();
    JsonValue::object([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .emit()
}

/// Run what `args` asks for; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, PerfError> {
    let (workloads, seconds) = match args.workload {
        Some(w) if !args.smoke => (vec![w], args.seconds as f64),
        _ => (WorkloadName::ALL.to_vec(), 0.0),
    };
    let mut runs = Vec::new();
    for w in workloads {
        runs.push(run_workload(w, args, seconds)?);
    }
    let correct = runs.iter().all(|r| r.correct);
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();
    let metrics: Vec<(String, f64, &str)> = runs
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(|(name, value, unit)| {
                let name = if args.smoke {
                    format!("{}.{name}", r.workload.name())
                } else {
                    (*name).to_string()
                };
                (name, *value, *unit)
            })
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The message for a bad command line.
fn usage_error(e: &ArgError) -> String {
    format!("perf: {e}\n{USAGE}")
}

/// Run the command line `argv`; returns the exit code.
fn cli(argv: &[String]) -> u8 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{}", usage_error(&e));
            return 2;
        }
    };
    if args.help {
        println!("{USAGE}");
        return 0;
    }
    match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perf: {e}");
            1
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(cli(&argv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            Args::parse(&argv("--workload grid --seed 7 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(a.workload, Some(WorkloadName::Grid));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        let d = Args::parse(&argv("--workload sfcheck")).expect("valid");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(Args::parse(&argv("--smoke")).expect("valid").smoke);
    }

    #[test]
    fn bad_argv_is_a_typed_error() {
        assert_eq!(
            Args::parse(&argv("--workload nope")),
            Err(ArgError::UnknownWorkload("nope".into()))
        );
        assert_eq!(
            Args::parse(&argv("--workload grid --trace 2")),
            Err(ArgError::BadValue {
                flag: "--trace",
                value: "2".into()
            })
        );
        assert_eq!(
            Args::parse(&argv("--workload grid --seed -1")),
            Err(ArgError::BadValue {
                flag: "--seed",
                value: "-1".into()
            })
        );
        assert_eq!(
            Args::parse(&argv("--workload")),
            Err(ArgError::MissingValue("--workload"))
        );
        assert_eq!(
            Args::parse(&argv("--frobnicate")),
            Err(ArgError::UnknownFlag("--frobnicate".into()))
        );
        assert_eq!(Args::parse(&[]), Err(ArgError::NoWorkload));
    }

    #[test]
    fn bad_argv_exits_2_with_usage() {
        assert_eq!(cli(&argv("--workload nope")), 2);
        assert_eq!(cli(&argv("--seconds")), 2);
        let msg = usage_error(&ArgError::UnknownWorkload("nope".into()));
        assert!(
            msg.contains("unknown workload `nope`") && msg.contains("usage:"),
            "{msg}"
        );
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for w in WorkloadName::ALL {
            assert!(ok(w.name()));
            for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
                assert!(ok(&format!("{}.{}", w.name(), m.name)));
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), table(&END_TO_END));
        assert_eq!(list("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        let ours: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[("pass_s".into(), 1.25, "s")]);
        let v = JsonValue::parse(&line).expect("valid JSON");
        let JsonValue::Object(map) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("pass_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
