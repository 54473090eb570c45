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
//! # Determinism contract
//!
//! Every strategy must produce bit-identical reports for every thread
//! count. The obligations (DESIGN.md §13):
//!
//! - FM calls, sampling decisions, and event emission happen only on the
//!   serial control path; parallelism stays inside
//!   `SmartFeat::realize_batch_kept` and the CV scorer, both of which
//!   are ordered and thread-invariant.
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

use crate::config::{OperatorFamily, SearchStrategyKind};
use crate::error::{CoreError, Result};
use crate::generator::FunctionGenerator;
use crate::pipeline::{RunState, SmartFeat};
use crate::report::{SkipReason, SkippedFeature};
use crate::selector::{OperatorSelector, Sample};

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
    /// paper's sampling phase.
    pub(crate) fn draw_sample(&mut self, family: OperatorFamily) -> Result<Sample> {
        let mut sample = Sample::Invalid(String::new());
        let select_span = self.state.rec.span("stage.select");
        for _attempt in 0..=self.sf.config.retry_malformed {
            sample = match family {
                OperatorFamily::Binary => self.selector.sample_binary(&self.state.agenda)?,
                OperatorFamily::HighOrder => self.selector.sample_highorder(&self.state.agenda)?,
                OperatorFamily::Extractor => self.selector.sample_extractor(&self.state.agenda)?,
                // Strategies route Unary to `one_shot::unary_phase`.
                OperatorFamily::Unary => {
                    return Err(CoreError::InvalidConfig(
                        "unary features come from proposals, not sampling".into(),
                    ))
                }
            };
            if !matches!(sample, Sample::Invalid(_)) {
                break;
            }
        }
        drop(select_span);
        Ok(sample)
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
        self.state.skipped.push(SkippedFeature {
            name: name.to_string(),
            family: gone.family,
            reason: SkipReason::Pruned,
        });
    }

    /// Sampled operator families enabled by the config mask, in pipeline
    /// order.
    pub(crate) fn sampled_families(&self) -> Vec<OperatorFamily> {
        let m = self.sf.config.operators;
        [
            (OperatorFamily::Binary, m.binary),
            (OperatorFamily::HighOrder, m.high_order),
            (OperatorFamily::Extractor, m.extractor),
        ]
        .into_iter()
        .filter_map(|(f, on)| on.then_some(f))
        .collect()
    }
}
