//! Beam search: pooled sampling rounds with CV-score-guided pruning.
//!
//! Each of the `beam_depth` rounds pools up to `beam_width` samples per
//! enabled family (so the FM sees one enriched agenda per round), scores
//! every column the round kept with the single-feature CV scorer in one
//! batch, and prunes the round's keeps down to the top `beam_width`
//! across all families. Survivors stay in the frame and agenda, steering the next
//! round's prompts; pruned candidates keep their dedup keys, so the beam
//! never revisits them. Unary proposals seed the beam exactly as in the
//! one-shot walk.

use crate::error::Result;

use super::{one_shot, Drawn, SearchCtx};

/// Score-guided beam over the sampled operator families.
pub(crate) fn search(ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
    if ctx.sf.config.operators.unary {
        let _span = ctx.state.rec.span("phase.unary");
        one_shot::unary_phase(ctx)?;
    }
    let width = ctx.sf.config.search.beam_width;
    let families = ctx.sampled_families();
    if families.is_empty() {
        return Ok(());
    }
    let mut errors = 0usize;
    for round in 0..ctx.sf.config.search.beam_depth {
        let round_span = ctx.state.rec.span("search.beam.round");
        // Pool: up to `width` samples per family, realized one by one
        // so each prompt sees the agenda as enriched so far.
        let mut kept_this_round: Vec<String> = Vec::new();
        let mut pooled = 0usize;
        for &family in &families {
            for _ in 0..width {
                if errors >= ctx.sf.config.error_threshold || !ctx.can_spend(ctx.sample_cost()) {
                    break;
                }
                pooled += 1;
                match ctx.draw_sample(family)? {
                    Drawn::Exhausted => break,
                    Drawn::Skipped(_) => errors += 1,
                    Drawn::Realized { kept, .. } => kept_this_round.extend(kept),
                }
            }
        }
        // Score (one batch per round) and prune: keep the round's top
        // `width` columns by CV AUC, ties broken by name so the ranking
        // is total.
        let scores = ctx.feature_scores(&kept_this_round);
        let mut scored: Vec<(String, f64)> = kept_this_round.into_iter().zip(scores).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for (name, _) in scored.iter().skip(width) {
            ctx.prune_feature(name);
        }
        let survivors = scored.len().min(width);
        drop(round_span);
        ctx.state.rec.event(
            "search.beam.round",
            &[
                ("round", (round as u64).into()),
                ("pooled", (pooled as u64).into()),
                ("kept", (survivors as u64).into()),
            ],
        );
        if errors >= ctx.sf.config.error_threshold || !ctx.can_spend(ctx.sample_cost()) {
            break;
        }
    }
    Ok(())
}
