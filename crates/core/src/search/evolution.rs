//! Evolutionary search in the LLM-FE mold (see PAPERS.md): a seeded
//! population of sampled candidates evolves for `generations` rounds.
//! Each round ranks members by single-feature CV score, keeps the top
//! half as survivors, prunes the losers' columns from the frame, and
//! refills the population with FM-generated offspring — mutations of one
//! survivor or crossovers of two, parents drawn with a seeded rng from
//! survivors only. The population size is invariant across generations:
//! when the FM cannot produce enough viable offspring, the best
//! survivors are cloned to pad (clones share columns and cost no FM
//! calls).

use std::collections::BTreeSet;

use smartfeat_rng::{seed_jump, Rng, Stream};

use crate::error::Result;
use crate::operators::Candidate;
use crate::report::{SkipReason, SkippedFeature};
use crate::selector::Sample;

use super::{one_shot, SearchCtx, SearchStrategy};

/// One population member: the candidate and what its realization kept.
struct Member {
    cand: Candidate,
    kept: Vec<String>,
    score: f64,
}

/// Population-based mutate/crossover search.
pub(crate) struct Evolutionary;

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn search(&self, ctx: &mut SearchCtx<'_, '_>) -> Result<()> {
        if ctx.sf.config.operators.unary {
            let _span = ctx.state.rec.span("phase.unary");
            one_shot::unary_phase(ctx)?;
        }
        let families = ctx.sampled_families();
        if families.is_empty() {
            return Ok(());
        }
        let population = ctx.sf.config.search.population;
        let mut errors = 0usize;

        // Seed generation: families round-robin until the population is
        // full (or the FM runs dry).
        let seed_span = ctx.state.rec.span("search.seed_population");
        let mut members: Vec<Member> = Vec::with_capacity(population);
        let mut attempts = 0usize;
        while members.len() < population
            && attempts < 2 * population
            && errors < ctx.sf.config.error_threshold
            && ctx.can_spend(ctx.sample_cost())
        {
            let family = families[attempts % families.len()];
            attempts += 1;
            match ctx.draw_sample(family)? {
                Sample::Exhausted => continue,
                Sample::Invalid(_) => {
                    errors += 1;
                    ctx.state.skipped.push(SkippedFeature {
                        name: format!("<{} sample>", family.name()),
                        family,
                        reason: SkipReason::InvalidSample,
                    });
                }
                Sample::Candidate(cand) => {
                    if !ctx.state.seen_keys.insert(cand.dedup_key()) {
                        errors += 1;
                        ctx.state.skipped.push(SkippedFeature {
                            name: cand.name.clone(),
                            family,
                            reason: SkipReason::RepeatedSample,
                        });
                        continue;
                    }
                    members.push(realize_member(ctx, *cand)?);
                }
            }
        }
        drop(seed_span);
        if members.is_empty() {
            return Ok(());
        }

        for generation in 0..ctx.sf.config.search.generations {
            let gen_span = ctx.state.rec.span("search.generation");
            let mut rng = Rng::seed_from_u64(seed_jump(
                ctx.sf.config.seed,
                Stream::Generation(generation as u64),
            ));

            // Selection: rank by score (name-tie-broken), keep the top
            // half, prune every column only losers hold.
            rank(&mut members);
            let cut = members.len().div_ceil(2);
            let losers: Vec<Member> = members.split_off(cut);
            let survivor_cols: BTreeSet<&String> =
                members.iter().flat_map(|m| m.kept.iter()).collect();
            let pruned: Vec<String> = losers
                .iter()
                .flat_map(|m| m.kept.iter())
                .filter(|c| !survivor_cols.contains(c))
                .cloned()
                .collect();
            for col in &pruned {
                ctx.prune_feature(col);
            }
            for m in &members {
                ctx.state.rec.event(
                    "search.survivor",
                    &[
                        ("generation", (generation as u64).into()),
                        ("name", m.cand.name.as_str().into()),
                    ],
                );
            }

            // Offspring: mutate one survivor or cross over two, parents
            // drawn from survivors only.
            let survivors = members.len();
            let mut offspring = 0usize;
            let mut attempts = 0usize;
            while members.len() < population
                && attempts < 2 * population
                && errors < ctx.sf.config.error_threshold
                && ctx.can_spend(1)
            {
                attempts += 1;
                let crossover = survivors >= 2 && rng.gen_bool(0.5);
                let (sample, op, parent_family, parents) = if crossover {
                    let a = rng.gen_range(0..survivors);
                    let mut b = rng.gen_range(0..survivors - 1);
                    if b >= a {
                        b += 1;
                    }
                    (
                        ctx.selector.crossover(
                            &ctx.state.agenda,
                            &members[a].cand,
                            &members[b].cand,
                        )?,
                        "crossover",
                        members[a].cand.family,
                        format!("{}|{}", members[a].cand.name, members[b].cand.name),
                    )
                } else {
                    let p = rng.gen_range(0..survivors);
                    (
                        ctx.selector.mutate(&ctx.state.agenda, &members[p].cand)?,
                        "mutate",
                        members[p].cand.family,
                        members[p].cand.name.clone(),
                    )
                };
                match sample {
                    Sample::Exhausted => continue,
                    Sample::Invalid(_) => {
                        errors += 1;
                        ctx.state.skipped.push(SkippedFeature {
                            name: format!("<{op} offspring>"),
                            family: parent_family,
                            reason: SkipReason::InvalidSample,
                        });
                    }
                    Sample::Candidate(cand) => {
                        if !ctx.state.seen_keys.insert(cand.dedup_key()) {
                            errors += 1;
                            ctx.state.skipped.push(SkippedFeature {
                                name: cand.name.clone(),
                                family: cand.family,
                                reason: SkipReason::RepeatedSample,
                            });
                            continue;
                        }
                        ctx.state.rec.event(
                            "search.child",
                            &[
                                ("generation", (generation as u64).into()),
                                ("op", op.into()),
                                ("name", cand.name.as_str().into()),
                                ("parents", parents.as_str().into()),
                            ],
                        );
                        members.push(realize_member(ctx, *cand)?);
                        offspring += 1;
                    }
                }
            }

            // Pad with clones of the best survivors so the population
            // size stays invariant (clones share realized columns).
            let mut pad = 0usize;
            while members.len() < population && survivors > 0 {
                let src = &members[pad % survivors];
                members.push(Member {
                    cand: src.cand.clone(),
                    kept: src.kept.clone(),
                    score: src.score,
                });
                pad += 1;
            }
            drop(gen_span);
            ctx.state.rec.event(
                "search.generation",
                &[
                    ("generation", (generation as u64).into()),
                    ("survivors", (survivors as u64).into()),
                    ("offspring", (offspring as u64).into()),
                    ("population", (members.len() as u64).into()),
                ],
            );
        }
        Ok(())
    }
}

/// Realize one candidate (a batch of one) and score its best kept column.
fn realize_member(ctx: &mut SearchCtx<'_, '_>, cand: Candidate) -> Result<Member> {
    let kept = ctx
        .sf
        .realize_batch_kept(ctx.generator, ctx.state, std::slice::from_ref(&cand))?
        .swap_remove(0);
    if !kept.is_empty() {
        for col in &cand.columns {
            ctx.state.referenced.insert(col.clone());
        }
    }
    let score = ctx.best_feature_score(&kept);
    Ok(Member { cand, kept, score })
}

/// Sort members best-first: score descending, then name ascending so the
/// ranking is total and deterministic.
fn rank(members: &mut [Member]) {
    members.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cand.name.cmp(&b.cand.name))
    });
}
