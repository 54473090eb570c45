//! Pluggable search strategies over the propose→realize→evaluate→prune
//! loop.
//!
//! The paper explores the operator space with a single pass (unary
//! proposals, then one sampling walk per family). This module runs that
//! loop as one of four strategies, picked by a `match` on
//! [`SearchStrategyKind`] in `search`; three of them are score-guided
//! alternatives:
//!
//! - `one_shot` — the paper's walk, bit-for-bit;
//! - `beam` — pooled sampling rounds pruned to the top `beam_width`
//!   columns by single-feature CV AUC;
//! - `evolution` — an LLM-FE-style population loop that mutates and
//!   crosses over survivors through FM prompts;
//! - `react` — an observe-think-act agent that feeds evaluation results
//!   back to the FM and lets it pick the next move.
//!
//! A strategy owns only its control flow. What happens to a candidate is
//! decided here, once, by `SearchCtx`'s helpers: `draw_sample` asks
//! the selector for one sample (with the malformed-response retries) and
//! hands it to `take_sample`, the one path every drawn sample —
//! evolutionary offspring included — goes through. `take_sample` records
//! an invalid or repeated sample as a skip row (a repeat also emits
//! `sample.repeated`), inserts the dedup key, realizes a fresh candidate
//! as a batch of one and marks its input columns referenced.
//! `propose_for` is the unary counterpart, and `realize` the only way a
//! candidate becomes columns.
//!
//! # Determinism contract
//!
//! Every strategy must produce bit-identical reports for every thread
//! count. The obligations (DESIGN.md §13):
//!
//! - FM calls, sampling decisions, and event emission happen only on the
//!   serial control path; parallelism stays inside the CV scorer, which
//!   is ordered and thread-invariant.
//! - Randomness comes from [`smartfeat_rng::Rng`] streams derived from
//!   `config.seed` via [`smartfeat_rng::seed_jump`], one
//!   [`smartfeat_rng::Stream`] per purpose: `Stream::Score` for the
//!   single-feature CV scorer and `Stream::Generation(g)` for generation
//!   `g` of the evolutionary loop — never from ambient state. A strategy
//!   that needs randomness of its own adds a variant (and its reserved
//!   index range) to `Stream`; re-using another purpose's stream would
//!   couple their draws.
//! - Candidate ordering ties are broken by name, never by map iteration
//!   order.

pub(crate) mod beam;
pub(crate) mod evolution;
pub(crate) mod one_shot;
pub(crate) mod react;

use smartfeat_frame::Column;

use crate::config::{OperatorFamily, SearchStrategyKind};
use crate::error::{CoreError, Result};
use crate::evaluate::check_new_column;
use crate::generator::{FunctionGenerator, Generated};
use crate::operators::Candidate;
use crate::pipeline::{RunState, SmartFeat};
use crate::report::{GeneratedFeature, SkipReason, SkippedFeature};
use crate::selector::{OperatorSelector, Sample};
use crate::transform::{self, TransformFunction};

/// Run the configured strategy's explore loop, the part of a run between
/// the pipeline's setup and its drop-heuristic / removal epilogue. Each
/// strategy mutates `ctx.state` (frame, agenda, report rows).
pub(crate) fn search(kind: SearchStrategyKind, ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
    match kind {
        SearchStrategyKind::OneShot => one_shot::search(ctx),
        SearchStrategyKind::Beam => beam::search(ctx),
        SearchStrategyKind::Evolutionary => evolution::search(ctx),
        SearchStrategyKind::React => react::search(ctx),
    }
}

/// What became of one drawn sample ([`SearchCtx::take_sample`]).
pub(crate) enum Drawn {
    /// The FM declined to sample (extractor `kind: none`).
    Exhausted,
    /// An invalid or repeated sample, already recorded as a skip row with
    /// this reason.
    Skipped(SkipReason),
    /// A fresh candidate, realized; `kept` names the columns it kept.
    Realized {
        cand: Box<Candidate>,
        kept: Vec<String>,
    },
}

/// One candidate's outcome from [`SearchCtx::realize`]'s FM walk, held
/// for the commit pass.
enum Staged {
    /// Generation failed or yielded only a source suggestion; the skip (or
    /// suggestion) entry is already recorded. Nothing left to do.
    Rejected,
    /// Transform execution failed; the skip entry is recorded by the
    /// commit pass so report order follows candidate order.
    Failed(String),
    /// Columns ready for the commit pass.
    Ready {
        func: TransformFunction,
        columns: Vec<Column>,
    },
}

/// Everything a strategy needs: the tool (config + FM handles), the two
/// FM-facing components, and the run's mutable state.
pub(crate) struct SearchCtx<'a, 'r> {
    pub(crate) sf: &'r SmartFeat<'a>,
    pub(crate) selector: &'r OperatorSelector<'r>,
    pub(crate) generator: &'r FunctionGenerator<'r>,
    pub(crate) state: &'r mut RunState,
    /// Selector-meter call count when the run started; the FM-call budget
    /// is measured against the delta from here.
    pub(crate) selector_calls_start: usize,
}

impl SearchCtx<'_, '_> {
    /// Selector-role FM calls spent by this run so far.
    pub(crate) fn selector_calls_used(&self) -> usize {
        self.sf
            .selector_fm
            .meter()
            .snapshot()
            .calls
            .saturating_sub(self.selector_calls_start)
    }

    /// Whether `n` more selector calls fit in `search.fm_call_budget`
    /// (0 = unlimited). Strategies gate each step on the worst-case cost
    /// of that step, so the budget is never exceeded, only undershot.
    pub(crate) fn can_spend(&self, n: usize) -> bool {
        let budget = self.sf.config.search.fm_call_budget;
        budget == 0 || self.selector_calls_used() + n <= budget
    }

    /// Worst-case selector calls for one sampling step (the initial ask
    /// plus the malformed-response retries).
    pub(crate) fn sample_cost(&self) -> usize {
        1 + self.sf.config.retry_malformed
    }

    /// Draw one sample from `family` with the LangChain-style retry loop
    /// and the `stage.select` span — the exact call pattern of the
    /// paper's sampling phase — and [`take_sample`](Self::take_sample)
    /// it, charging an invalid sample to `<family sample>`.
    pub(crate) fn draw_sample(&mut self, family: OperatorFamily) -> Result<Drawn> {
        let mut sample = Sample::Invalid(String::new());
        let select_span = self.state.rec.span("stage.select");
        for _attempt in 0..=self.sf.config.retry_malformed {
            sample = self.selector.sample(&self.state.agenda, family)?;
            if !matches!(sample, Sample::Invalid(_)) {
                break;
            }
        }
        drop(select_span);
        self.take_sample(sample, family, &format!("<{} sample>", family.name()))
    }

    /// The one path of a drawn sample. An invalid sample becomes an
    /// [`SkipReason::InvalidSample`] row named `invalid_name` and charged
    /// to `family`; a candidate whose dedup key was seen before becomes a
    /// [`SkipReason::RepeatedSample`] row and a `sample.repeated` event.
    /// A fresh candidate is realized as a batch of one — each sample's
    /// prompt depends on the agenda as enriched by earlier acceptances,
    /// so sampling is serial across draws — and, when it kept a column,
    /// its input columns count as referenced for the drop heuristic.
    pub(crate) fn take_sample(
        &mut self,
        sample: Sample,
        family: OperatorFamily,
        invalid_name: &str,
    ) -> Result<Drawn> {
        let cand = match sample {
            Sample::Exhausted => return Ok(Drawn::Exhausted),
            Sample::Invalid(_) => {
                self.state.skipped.push(SkippedFeature::new(
                    invalid_name,
                    family,
                    SkipReason::InvalidSample,
                ));
                return Ok(Drawn::Skipped(SkipReason::InvalidSample));
            }
            Sample::Candidate(cand) => cand,
        };
        if !self.state.seen_keys.insert(cand.dedup_key()) {
            self.state.rec.event(
                "sample.repeated",
                &[
                    ("family", cand.family.name().into()),
                    ("name", cand.name.as_str().into()),
                ],
            );
            self.state.skipped.push(SkippedFeature::new(
                &cand.name,
                cand.family,
                SkipReason::RepeatedSample,
            ));
            return Ok(Drawn::Skipped(SkipReason::RepeatedSample));
        }
        let kept = self.realize(std::slice::from_ref(&*cand))?.swap_remove(0);
        if !kept.is_empty() {
            self.state.referenced.extend(cand.columns.iter().cloned());
        }
        Ok(Drawn::Realized { cand, kept })
    }

    /// Run the proposal strategy on original attribute `attr`: one
    /// selector call, candidates already seen dropped, the rest realized
    /// as one batch. `attr` counts as unary-transformed once any column
    /// is kept. Returns the kept column names.
    pub(crate) fn propose_for(&mut self, attr: &str) -> Result<Vec<String>> {
        let select_span = self.state.rec.span("stage.select");
        let candidates = self.selector.propose_unary(&self.state.agenda, attr)?;
        drop(select_span);
        // Dedup serially: the seen-set is ordered state.
        let fresh: Vec<Candidate> = candidates
            .into_iter()
            .filter(|cand| self.state.seen_keys.insert(cand.dedup_key()))
            .collect();
        let kept: Vec<String> = self.realize(&fresh)?.into_iter().flatten().collect();
        if !kept.is_empty() {
            self.state.unary_transformed.insert(attr.to_string());
        }
        Ok(kept)
    }

    /// Score realized feature columns: for each name, the 3-fold CV AUC
    /// of a linear model over that single column. All columns go to the
    /// ml crate as one batch (one pool batch of columns × folds). A name
    /// scores 0.0 whenever it cannot be scored (string target, missing
    /// column, degenerate folds), so ranking stays total and
    /// deterministic instead of erroring the run.
    ///
    /// A column's score depends only on its cells, the target and the
    /// seed, and a committed column is never replaced, so scoring it
    /// later, or in another batch, gives the same bits.
    pub(crate) fn feature_scores(&self, names: &[String]) -> Vec<f64> {
        if names.is_empty() {
            return Vec::new();
        }
        let Ok(labels) = self.state.frame.to_labels(&self.state.agenda.target) else {
            return vec![0.0; names.len()];
        };
        // Each name's index into the batch, if its column could be read.
        let mut xs = Vec::with_capacity(names.len());
        let slots: Vec<Option<usize>> = names
            .iter()
            .map(|name| {
                let column = self.state.frame.column(name).ok()?;
                // `to_matrix`'s fill rule: null or non-finite cells read 0.0.
                let values: Vec<f64> = column
                    .to_f64()
                    .into_iter()
                    .map(|v| v.filter(|v| v.is_finite()).unwrap_or(0.0))
                    .collect();
                let n = values.len();
                xs.push(smartfeat_ml::Matrix::new(values, n, 1).ok()?);
                Some(xs.len() - 1)
            })
            .collect();
        let seed = smartfeat_rng::seed_jump(self.sf.config.seed, smartfeat_rng::Stream::Score);
        let Ok(scores) =
            smartfeat_ml::kfold_cv_auc_many(smartfeat_ml::ModelKind::LR, &xs, &labels, 3, seed)
        else {
            return vec![0.0; names.len()];
        };
        slots
            .into_iter()
            .map(|slot| {
                slot.and_then(|i| scores.get(i)?.as_ref().ok().copied())
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Remove a previously kept feature that lost a selection round:
    /// drop the column, retract it from the agenda and the generated
    /// list, and record a [`SkipReason::Pruned`] row. The candidate's
    /// dedup key stays in `seen_keys`, so a pruned feature is never
    /// re-admitted.
    pub(crate) fn prune_feature(&mut self, name: &str) {
        let Some(pos) = self.state.generated.iter().position(|g| g.name == name) else {
            return;
        };
        let gone = self.state.generated.remove(pos);
        let _ = self.state.frame.drop_column(name);
        self.state.agenda.remove(name);
        if gone.family == OperatorFamily::Unary {
            // Without any surviving unary feature over the same original,
            // the drop heuristic must not retire that original.
            let still_covered = self
                .state
                .generated
                .iter()
                .any(|g| g.family == OperatorFamily::Unary && g.columns == gone.columns);
            if !still_covered {
                if let Some(attr) = gone.columns.first() {
                    self.state.unary_transformed.remove(attr);
                }
            }
        }
        self.state.rec.event(
            "search.pruned",
            &[("family", gone.family.name().into()), ("name", name.into())],
        );
        self.state
            .skipped
            .push(SkippedFeature::new(name, gone.family, SkipReason::Pruned));
    }

    /// Sampled operator families enabled by the config mask, in pipeline
    /// order.
    pub(crate) fn sampled_families(&self) -> Vec<OperatorFamily> {
        OperatorFamily::all()
            .into_iter()
            .filter(|&f| f != OperatorFamily::Unary && self.sf.config.operators.enabled(f))
            .collect()
    }

    /// Realize a batch of candidates: generate each function, execute it,
    /// filter the resulting column(s), and attach survivors. Returns the
    /// kept column names per candidate, so score-guided strategies (beam,
    /// evolutionary) can evaluate and prune exactly what each candidate
    /// contributed.
    ///
    /// Two serial passes, both in candidate order:
    ///
    /// 1. **FM walk** — one generation round-trip per candidate, then the
    ///    function runs at once against the frame as it stood at batch
    ///    start (row completion calls the generator FM from here). The
    ///    generation prompt renders the whole agenda, so nothing is
    ///    committed until every candidate of the batch is generated.
    ///    Transforms read through the frame's zero-copy column views
    ///    (`NumericView` / `KeysView`) instead of materialising
    ///    per-candidate copies of the input columns.
    /// 2. **Commit** — filtering and attachment against the live frame, so
    ///    duplicate detection sees earlier batch survivors and report and
    ///    agenda order follow the candidates.
    pub(crate) fn realize(&mut self, cands: &[Candidate]) -> Result<Vec<Vec<String>>> {
        let (generator, state) = (self.generator, &mut *self.state);
        // Pass 1: generate and apply each function.
        let fm_walk_span = state.rec.span("realize.fm_walk");
        let mut staged: Vec<Staged> = Vec::with_capacity(cands.len());
        for cand in cands {
            state.rec.family(cand.family.name(), |f| f.candidates += 1);
            let generated = match generator.generate(&state.agenda, cand) {
                Ok(g) => g,
                Err(CoreError::InvalidTransform(msg))
                | Err(CoreError::RowCompletionUnavailable(msg)) => {
                    state.skipped.push(SkippedFeature::new(
                        &cand.name,
                        cand.family,
                        SkipReason::GenerationFailed(msg),
                    ));
                    staged.push(Staged::Rejected);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let func = match generated {
                Generated::Function(f) => f,
                Generated::SourceSuggestion(src) => {
                    state
                        .source_suggestions
                        .push((cand.name.clone(), src.clone()));
                    state.skipped.push(SkippedFeature::new(
                        &cand.name,
                        cand.family,
                        SkipReason::SourceOnly(src),
                    ));
                    staged.push(Staged::Rejected);
                    continue;
                }
            };
            staged.push(
                match transform::apply(&func, &state.frame, &cand.name, self.sf.generator_fm) {
                    Ok(columns) => Staged::Ready { func, columns },
                    Err(e) => Staged::Failed(e.to_string()),
                },
            );
        }
        drop(fm_walk_span);

        // Pass 2: in-order filter and commit.
        let commit_span = state.rec.span("realize.commit");
        let mut accepted: Vec<Vec<String>> = Vec::with_capacity(cands.len());
        for (cand, slot) in cands.iter().zip(staged) {
            let (func, columns) = match slot {
                Staged::Rejected => {
                    accepted.push(Vec::new());
                    continue;
                }
                Staged::Failed(msg) => {
                    state.skipped.push(SkippedFeature::new(
                        &cand.name,
                        cand.family,
                        SkipReason::TransformFailed(msg),
                    ));
                    accepted.push(Vec::new());
                    continue;
                }
                Staged::Ready { func, columns } => (func, columns),
            };
            let mut kept: Vec<String> = Vec::new();
            for col in columns {
                if self.sf.config.feature_filter {
                    let eval_span = state.rec.span("stage.evaluate");
                    let verdict = smartfeat_obs::global::time("evaluate.check", || {
                        check_new_column(&col, &state.frame)
                    });
                    drop(eval_span);
                    if let Some(reason) = verdict {
                        state.rec.event(
                            "candidate.skipped",
                            &[
                                ("family", cand.family.name().into()),
                                ("name", col.name().into()),
                                ("reason", reason.tag().into()),
                            ],
                        );
                        state
                            .skipped
                            .push(SkippedFeature::new(col.name(), cand.family, reason));
                        continue;
                    }
                } else if state.frame.has_column(col.name()) {
                    state.skipped.push(SkippedFeature::new(
                        col.name(),
                        cand.family,
                        SkipReason::Duplicate(col.name().to_string()),
                    ));
                    continue;
                }
                let name = col.name().to_string();
                let dtype = col.dtype().name().to_string();
                let distinct =
                    smartfeat_obs::global::time("agenda.cardinality", || col.cardinality());
                state.rec.event(
                    "candidate.kept",
                    &[
                        ("family", cand.family.name().into()),
                        ("name", name.as_str().into()),
                    ],
                );
                state.frame.add_column(col)?;
                state.agenda.push_generated(
                    &name,
                    &dtype,
                    Some(distinct),
                    &cand.description,
                    cand.family,
                );
                state.generated.push(GeneratedFeature {
                    name: name.clone(),
                    family: cand.family,
                    columns: cand.columns.clone(),
                    description: cand.description.clone(),
                    transform: format!("{func:?}"),
                });
                kept.push(name);
            }
            if !kept.is_empty() {
                state.rec.family(cand.family.name(), |f| f.accepted += 1);
            }
            accepted.push(kept);
        }
        drop(commit_span);
        Ok(accepted)
    }
}
