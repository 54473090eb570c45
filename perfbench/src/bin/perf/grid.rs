//! The `grid` workload: the Table 4 evaluation grid — every dataset ×
//! (initial + SMARTFEAT + three baselines) × five downstream models.
//!
//! Untraced, a pass calls `grid::run_dataset` per dataset, exactly as
//! `grid::run_grid` does after generating the data. Traced, a pass makes
//! the calls `run_dataset` makes, in the same order, each inside a span:
//! `prepare` → initial evaluation → each method (CAAFE once per model) →
//! its evaluation. The SMARTFEAT cell is `methods::run_smartfeat`'s body
//! with the two FMs wrapped. If `run_dataset` ever drifts from this order,
//! the traced pass's `trace.coverage` shows it.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Duration;

use smartfeat::SmartFeatConfig;
use smartfeat_bench::evalml::evaluate_frame_models;
use smartfeat_bench::grid::{run_dataset, CellOutcome, DatasetResult, GridConfig};
use smartfeat_bench::methods::{run_method, MethodName};
use smartfeat_bench::prep::prepare;
use smartfeat_datasets::Dataset;
use smartfeat_fm::{FoundationModel, SimulatedFm};
use smartfeat_frame::DataFrame;
use smartfeat_ml::cv::ModelScores;
use smartfeat_ml::ModelKind;

use crate::measure::OpTimer;
use crate::pipeline::{finish_keep_ratio, run_checked};
use crate::trace::{span, span_timed, Tracer};
use crate::{PassOut, Workload};

/// A per-method budget far above any cell's run time, so no cell's
/// result depends on the wall clock (a deadline hit fails the check).
pub const METHOD_DEADLINE: Duration = Duration::from_secs(600);

/// Probe span names and the per-layer metric each one's share feeds, in
/// `ModelKind::all()` order.
const PROBES: [(&str, &str); 5] = [
    ("ml.probe.lr", "ml.probe.lr_share"),
    ("ml.probe.nb", "ml.probe.nb_share"),
    ("ml.probe.rf", "ml.probe.rf_share"),
    ("ml.probe.et", "ml.probe.et_share"),
    ("ml.probe.dnn", "ml.probe.dnn_share"),
];

/// The Table 4 grid over pre-generated datasets.
pub struct Grid {
    datasets: Vec<Dataset>,
    config: GridConfig,
    /// `(dataset, SMARTFEAT output frame, target)` from the last traced
    /// pass, for the probe.
    smartfeat_frames: Vec<(String, DataFrame, String)>,
}

impl Grid {
    /// Generate the datasets (the timed set-up).
    pub fn setup(scale: f64, seed: u64, tracer: Option<&Tracer>) -> Grid {
        let datasets = span(tracer, "datasets.generate", "", || {
            smartfeat_datasets::all_scaled(scale, seed)
        });
        Grid {
            datasets,
            // The seed makes the data; the methods and the evaluation
            // split keep the grid's default seed, so every seed's grid
            // does the same work.
            config: GridConfig {
                scale,
                method_deadline: METHOD_DEADLINE,
                ..GridConfig::default()
            },
            smartfeat_frames: Vec::new(),
        }
    }

    fn eval_seed(&self) -> u64 {
        self.config.seed.wrapping_add(1000)
    }

    /// `grid::run_dataset`, call for call, with a span around each one.
    /// Also returns SMARTFEAT's output frame and the target, for the probe.
    fn traced_row(
        &self,
        ds: &Dataset,
        tracer: &Tracer,
        out: &mut PassOut,
    ) -> (DatasetResult, Option<(String, DataFrame, String)>) {
        let t = Some(tracer);
        let seed = self.config.seed;
        let eval_seed = self.eval_seed();
        let deadline = self.config.method_deadline;
        let prep = span(t, "frame.prepare", ds.name, || prepare(ds));
        let eval_calls = Cell::new(0usize);
        let eval = |frame: &DataFrame, models: &[ModelKind]| {
            eval_calls.set(eval_calls.get() + 1);
            span(t, "ml.eval", ds.name, || {
                evaluate_frame_models(frame, &prep.target, models, eval_seed)
            })
        };
        let baseline = |name: &str, method: MethodName, kind: ModelKind| {
            span(t, name, ds.name, || {
                run_method(
                    method,
                    &prep.frame,
                    ds,
                    &prep.categorical,
                    kind,
                    deadline,
                    seed,
                )
            })
        };
        let initial =
            eval(&prep.frame, &ModelKind::all()).unwrap_or(ModelScores { scores: vec![] });
        let mut smartfeat_frame = None;
        let mut cells = Vec::new();
        for method in MethodName::all() {
            let c = match method {
                MethodName::SmartFeat => {
                    let fms: (Box<dyn FoundationModel>, Box<dyn FoundationModel>) = (
                        Box::new(SimulatedFm::gpt4(seed)),
                        Box::new(SimulatedFm::gpt35(seed.wrapping_add(0x9e37_79b9))),
                    );
                    let agenda = ds.agenda("RF");
                    let config = SmartFeatConfig::default();
                    match run_checked(ds.name, fms, config, &prep.frame, &agenda, t, out) {
                        Some(r) => {
                            let kept = r.generated.len();
                            let tried = kept + r.skipped.len();
                            let scores = eval(&r.frame, &ModelKind::all());
                            smartfeat_frame =
                                Some((ds.name.to_string(), r.frame, prep.target.clone()));
                            cell(scores, None, tried, kept)
                        }
                        None => cell(None, Some("failed: SmartFeat::run".into()), 0, 0),
                    }
                }
                MethodName::Caafe => {
                    let mut per_model = Vec::new();
                    let mut excluded = Vec::new();
                    let (mut generated, mut selected) = (0, 0);
                    let mut crash = None;
                    for kind in ModelKind::all() {
                        let o = baseline("baselines.caafe", method, kind);
                        generated = generated.max(o.generated_count);
                        selected = selected.max(o.selected_count);
                        if let Some(f) = o.failure {
                            crash = Some(format!("failed: {f}"));
                            break;
                        }
                        if o.timed_out {
                            excluded.push(kind);
                            continue;
                        }
                        if let Some(s) = eval(&o.frame, &[kind]) {
                            per_model.extend(s.scores);
                        }
                    }
                    if crash.is_some() {
                        cell(None, crash, generated, selected)
                    } else if per_model.is_empty() {
                        let mut c = cell(None, Some("timeout".into()), generated, selected);
                        c.excluded_models = excluded;
                        c
                    } else {
                        let scores = Some(ModelScores { scores: per_model });
                        let mut c = cell(scores, None, generated, selected);
                        c.excluded_models = excluded;
                        c
                    }
                }
                MethodName::Featuretools | MethodName::AutoFeat => {
                    let name = if method == MethodName::Featuretools {
                        "baselines.featuretools"
                    } else {
                        "baselines.autofeat"
                    };
                    let o = baseline(name, method, ModelKind::RF);
                    let (g, s) = (o.generated_count, o.selected_count);
                    if let Some(f) = o.failure {
                        cell(None, Some(format!("failed: {f}")), g, s)
                    } else if o.timed_out {
                        let mut c = cell(None, Some("timeout".into()), g, s);
                        c.excluded_models = ModelKind::all().to_vec();
                        c
                    } else {
                        cell(eval(&o.frame, &ModelKind::all()), None, g, s)
                    }
                }
            };
            cells.push((method, c));
        }
        out.add("ml.eval_calls", eval_calls.get() as f64);
        let row = DatasetResult {
            name: ds.name.to_string(),
            initial,
            cells,
        };
        (row, smartfeat_frame)
    }
}

/// A cell without its wall time: the grid's `elapsed` is volatile, so it
/// never enters the digest.
fn cell(
    scores: Option<ModelScores>,
    note: Option<String>,
    generated: usize,
    selected: usize,
) -> CellOutcome {
    CellOutcome {
        scores,
        excluded_models: Vec::new(),
        note,
        elapsed: Duration::ZERO,
        generated,
        selected,
    }
}

/// Check one dataset row and fold it into the pass's digest and counts.
/// Returns SMARTFEAT's Table 4 cell (mean AUC over the models), if any.
fn account(row: &DatasetResult, out: &mut PassOut) -> Option<f64> {
    out.digest.add(&row.name);
    let mut scores_of = |what: &str, s: &ModelScores| {
        for (kind, auc) in &s.scores {
            if auc.is_nan() {
                out.problems
                    .push(format!("{}: {what} {} AUC is NaN", row.name, kind.name()));
            }
            out.digest.add(kind.name());
            out.digest.add_f64(*auc);
        }
    };
    scores_of("initial", &row.initial);
    for (method, c) in &row.cells {
        if let Some(s) = &c.scores {
            scores_of(method.name(), s);
        }
    }
    if row.initial.scores.is_empty() {
        out.problems
            .push(format!("{}: initial evaluation failed", row.name));
    }
    for (method, c) in &row.cells {
        out.attempted += 1;
        if c.note.as_deref() == Some("timeout") || !c.excluded_models.is_empty() {
            out.problems.push(format!(
                "{}: {} hit the {}s method deadline",
                row.name,
                method.name(),
                METHOD_DEADLINE.as_secs()
            ));
        }
        let crashed = c.note.as_deref().is_some_and(|n| n.starts_with("failed"));
        if crashed && *method != MethodName::SmartFeat {
            // The paper's "–": a baseline crashing on code it generated is
            // the reproduced result, not a failed benchmark operation.
            out.add("baselines.failed_cells", 1.0);
        } else if c.scores.is_none() {
            out.failed += 1;
        }
        out.digest.add(&format!(
            "{} {:?} {} {}",
            method.name(),
            c.note,
            c.generated,
            c.selected
        ));
    }
    row.cells
        .iter()
        .find(|(m, _)| *m == MethodName::SmartFeat)
        .and_then(|(_, c)| c.scores.as_ref())
        .map(ModelScores::average)
}

impl Workload for Grid {
    fn pass(&mut self, tracer: Option<&Tracer>, timer: &mut OpTimer) -> PassOut {
        let mut out = PassOut::default();
        let mut frames = Vec::new();
        let mut aucs = Vec::new();
        for ds in &self.datasets {
            let row = timer.op(|| match tracer {
                Some(t) => {
                    let (row, frame) = self.traced_row(ds, t, &mut out);
                    frames.extend(frame);
                    row
                }
                None => run_dataset(ds, &self.config),
            });
            aucs.extend(account(&row, &mut out));
        }
        self.smartfeat_frames = frames;
        finish_keep_ratio(&mut out);
        out.add(
            "ml.auc_avg",
            aucs.iter().sum::<f64>() / aucs.len().max(1) as f64,
        );
        out
    }

    /// Serial single-kind evaluation of each SMARTFEAT output frame: the
    /// `ml` layer split by model kind, outside the timed pass.
    fn probe(&mut self, tracer: &Tracer, out: &mut PassOut) {
        let eval_seed = self.eval_seed();
        let mut secs = [0.0f64; 5];
        for (name, frame, target) in &self.smartfeat_frames {
            for (i, kind) in ModelKind::all().into_iter().enumerate() {
                let (scores, t) = span_timed(tracer, PROBES[i].0, name, || {
                    evaluate_frame_models(frame, target, &[kind], eval_seed)
                });
                black_box(scores);
                secs[i] += t;
            }
        }
        let total: f64 = secs.iter().sum();
        if total > 0.0 {
            for ((_, metric), s) in PROBES.iter().zip(secs) {
                out.add(metric, s / total);
            }
        }
    }
}
