//! The paper's single-pass walk (Section 3.2), unchanged: unary
//! proposals per original attribute, then one sampling loop per enabled
//! family. With `fm_call_budget = 0` (the default) this emits exactly
//! the FM calls, events, and report rows of the pipeline before search
//! strategies became pluggable — `tests/strategy_oracle.rs` holds the
//! byte-level proof.

use crate::config::OperatorFamily;
use crate::error::Result;

use super::{Drawn, SearchCtx};

/// The default strategy: one proposal pass, one sampling pass per family.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
    if ctx.sf.config.operators.unary {
        let _span = ctx.state.rec.span("phase.unary");
        unary_phase(ctx)?;
    }
    if ctx.sf.config.operators.binary {
        let _span = ctx.state.rec.span("phase.binary");
        sampling_phase(ctx, OperatorFamily::Binary)?;
    }
    if ctx.sf.config.operators.high_order {
        let _span = ctx.state.rec.span("phase.high_order");
        sampling_phase(ctx, OperatorFamily::HighOrder)?;
    }
    if ctx.sf.config.operators.extractor {
        let _span = ctx.state.rec.span("phase.extractor");
        sampling_phase(ctx, OperatorFamily::Extractor)?;
    }
    Ok(())
}

/// Unary exploration with the proposal strategy, one call per original
/// feature.
pub(crate) fn unary_phase(ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
    for attr in ctx.state.agenda.original_names() {
        if !ctx.can_spend(1) {
            break;
        }
        ctx.propose_for(&attr)?;
    }
    Ok(())
}

/// Sampling exploration for one family: continue until the sampling
/// budget or the generation-error threshold is reached (paper §3.2).
pub(crate) fn sampling_phase(ctx: &mut SearchCtx<'_, '_>, family: OperatorFamily) -> Result<()> {
    let mut errors = 0usize;
    for _ in 0..ctx.sf.config.sampling_budget {
        if errors >= ctx.sf.config.error_threshold {
            break;
        }
        if !ctx.can_spend(ctx.sample_cost()) {
            break;
        }
        // One sample, with LangChain-style retries when the response is
        // unparseable: re-ask up to `retry_malformed` times before the
        // failure counts against the error threshold.
        match ctx.draw_sample(family)? {
            Drawn::Exhausted => break,
            Drawn::Skipped(_) => errors += 1,
            Drawn::Realized { .. } => {}
        }
    }
    Ok(())
}
