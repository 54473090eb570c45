//! ReAct-style search: an observe-think-act loop where the FM reads the
//! run so far (features generated, remaining attributes, the last
//! action's outcome and CV score) and picks the next exploration move —
//! a unary proposal on a named attribute, one sample from a family, or
//! stop. Turns are bounded by `react_turns`; unparseable decisions and
//! fruitless actions count as failures against `error_threshold`. A
//! turn's kept columns are scored when the next observation is built, so
//! a run that ends after a turn never pays for that turn's score.

use std::collections::BTreeSet;

use crate::config::OperatorFamily;
use crate::error::Result;
use crate::report::SkipReason;
use crate::selector::ReactDecision;

use super::{Drawn, SearchCtx};

/// Observe-think-act agent over the operator space.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
    let turns = ctx.sf.config.search.react_turns;
    let mut failures = 0usize;
    let mut last_action = "start".to_string();
    let mut last_outcome = "n/a".to_string();
    // The last turn's kept columns, scored only when the next
    // observation reports them.
    let mut last_kept: Vec<String> = Vec::new();
    // Attributes already proposed on this run, fruitful or not —
    // `unary_transformed` only records fruitful ones, and retrying a
    // fruitless attribute would burn every remaining turn on it.
    let mut explored: BTreeSet<String> = BTreeSet::new();
    for turn in 0..turns {
        if failures >= ctx.sf.config.error_threshold {
            break;
        }
        // Worst case per turn: one decision call plus one sampling
        // step with retries.
        if !ctx.can_spend(1 + ctx.sample_cost()) {
            break;
        }
        let turn_span = ctx.state.rec.span("search.react.turn");
        let observation = observe(
            ctx,
            &explored,
            turn,
            turns,
            &last_action,
            &last_outcome,
            &last_kept,
            failures,
        );
        let select_span = ctx.state.rec.span("stage.select");
        let decision = ctx.selector.decide(&ctx.state.agenda, &observation)?;
        drop(select_span);

        let mut kept: Vec<String> = Vec::new();
        let (action, outcome) = match decision {
            ReactDecision::Stop => {
                drop(turn_span);
                ctx.state.rec.event(
                    "search.react.turn",
                    &[
                        ("turn", (turn as u64).into()),
                        ("action", "stop".into()),
                        ("outcome", "stopped".into()),
                    ],
                );
                break;
            }
            ReactDecision::Invalid => {
                failures += 1;
                ("invalid", "failed".to_string())
            }
            ReactDecision::ProposeUnary(attr) => {
                let attr = attr
                    .filter(|a| unexplored(ctx, &explored).contains(a))
                    .or_else(|| unexplored(ctx, &explored).first().cloned());
                match attr {
                    None => {
                        failures += 1;
                        ("propose_unary", "exhausted".to_string())
                    }
                    Some(attr) => {
                        explored.insert(attr.clone());
                        kept = ctx.propose_for(&attr)?;
                        if kept.is_empty() {
                            failures += 1;
                            ("propose_unary", "nothing_kept".to_string())
                        } else {
                            failures = 0;
                            ("propose_unary", format!("kept {}", kept.len()))
                        }
                    }
                }
            }
            ReactDecision::SampleFamily(family) => {
                if !ctx.sf.config.operators.enabled(family) {
                    failures += 1;
                    ("sample", "family_disabled".to_string())
                } else {
                    let (outcome, k) = sample_step(ctx, family)?;
                    kept = k;
                    if kept.is_empty() {
                        failures += 1;
                    } else {
                        failures = 0;
                    }
                    ("sample", outcome)
                }
            }
        };
        last_action = action.to_string();
        last_outcome = outcome.clone();
        last_kept = kept;
        drop(turn_span);
        ctx.state.rec.event(
            "search.react.turn",
            &[
                ("turn", (turn as u64).into()),
                ("action", action.into()),
                ("outcome", outcome.as_str().into()),
            ],
        );
    }
    Ok(())
}

/// Original attributes not yet unary-proposed this run, in agenda order.
fn unexplored(ctx: &SearchCtx<'_, '_>, explored: &BTreeSet<String>) -> Vec<String> {
    ctx.state
        .agenda
        .original_names()
        .into_iter()
        .filter(|a| {
            !explored.contains(a)
                && !ctx.state.unary_transformed.contains(a)
                && *a != ctx.state.agenda.target
        })
        .collect()
}

/// Render the observation block the FM sees at the top of each turn.
#[allow(clippy::too_many_arguments)]
fn observe(
    ctx: &SearchCtx<'_, '_>,
    explored: &BTreeSet<String>,
    turn: usize,
    turns: usize,
    last_action: &str,
    last_outcome: &str,
    last_kept: &[String],
    failures: usize,
) -> String {
    let last_score = if last_kept.is_empty() {
        "n/a".to_string()
    } else {
        let best = ctx
            .feature_scores(last_kept)
            .into_iter()
            .fold(0.0, f64::max);
        format!("{best:.2}")
    };
    let unexplored = unexplored(ctx, explored);
    let unexplored = if unexplored.is_empty() {
        "none".to_string()
    } else {
        unexplored.join(", ")
    };
    format!(
        "Turn: {turn}/{turns}\n\
         Features generated: {}\n\
         Unexplored attributes: {unexplored}\n\
         Last action: {last_action}\n\
         Last outcome: {last_outcome}\n\
         Last feature score: {last_score}\n\
         Consecutive failures: {failures}\n",
        ctx.state.generated.len(),
    )
}

/// One sampling action from `family`; returns the outcome tag and kept
/// column names.
fn sample_step(
    ctx: &mut SearchCtx<'_, '_>,
    family: OperatorFamily,
) -> Result<(String, Vec<String>)> {
    Ok(match ctx.draw_sample(family)? {
        Drawn::Exhausted => ("exhausted".to_string(), Vec::new()),
        Drawn::Skipped(SkipReason::RepeatedSample) => ("repeated_sample".to_string(), Vec::new()),
        Drawn::Skipped(_) => ("invalid_sample".to_string(), Vec::new()),
        Drawn::Realized { kept, .. } if kept.is_empty() => ("nothing_kept".to_string(), kept),
        Drawn::Realized { kept, .. } => (format!("kept {}", kept.len()), kept),
    })
}
