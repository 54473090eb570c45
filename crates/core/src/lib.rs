//! # smartfeat
//!
//! SMARTFEAT: efficient feature construction through **feature-level**
//! foundation-model interactions (Lin, Jagadish, Ding, Zhou — CIDR 2024),
//! reproduced in Rust over a simulated FM.
//!
//! The tool takes a dataset (a [`smartfeat_frame::DataFrame`]), a *data
//! agenda* (feature descriptions + prediction target + downstream model),
//! and two FM handles (the paper uses GPT-4 for operator selection and
//! GPT-3.5-turbo for function generation), and iteratively grows the
//! feature set:
//!
//! 1. the **operator selector** ([`selector`]) prompts the FM with
//!    operator-guided templates — *proposal* strategy for unary operators,
//!    *sampling* strategy for binary / high-order / extractor operators —
//!    and parses candidate features out of the responses;
//! 2. the **function generator** ([`generator`]) turns each candidate into
//!    an executable [`transform::TransformFunction`], falls back to
//!    row-level FM completion when no closed form exists, or surfaces a
//!    suggested external data source;
//! 3. the **feature evaluation** step ([`evaluate`]) removes highly-null,
//!    single-valued and high-cardinality-dummy features, and the pipeline's
//!    drop heuristic retires superseded originals.
//!
//! Everything is orchestrated by [`pipeline::SmartFeat`], which returns a
//! [`report::SmartFeatReport`] with the augmented frame, per-feature
//! provenance, and exact FM usage accounting.
//!
//! ## Ownership
//!
//! FM handles and the observability recorder belong to the pipeline's
//! serial control path (DESIGN.md §8): their state sits in `RefCell`s, so
//! they are neither `Send` nor `Sync`, and the compiler rejects them in a
//! pool closure. An FM call from a pool worker does not compile:
//!
//! ```compile_fail,E0277
//! use smartfeat_fm::{FoundationModel, SimulatedFm};
//! let gpt = SimulatedFm::gpt35(0);
//! let fm: &dyn FoundationModel = &gpt;
//! smartfeat_par::par_map_indexed(2, 4, |_| fm.complete("Propose a feature.").is_ok());
//! ```
//!
//! and neither does a trace event:
//!
//! ```compile_fail,E0277
//! use smartfeat_obs::{ClockMode, Recorder};
//! let rec = Recorder::new(ClockMode::Logical);
//! smartfeat_par::par_map_indexed(2, 4, |i| rec.incr("task", i as u64));
//! ```
//!
//! The same bounds keep every other pool closure race-free. A counter in
//! a `Cell` shared across workers does not compile:
//!
//! ```compile_fail,E0277
//! let scanned = std::cell::Cell::new(0usize);
//! smartfeat_par::par_map_indexed(2, 4, |i| {
//!     scanned.set(scanned.get() + 1);
//!     i
//! });
//! ```
//!
//! nor does a push through a captured `&mut`, because the closure is
//! `Fn`:
//!
//! ```compile_fail,E0596
//! fn collect(acc: &mut Vec<usize>) {
//!     smartfeat_par::par_map_indexed(2, 4, |i| acc.push(i));
//! }
//! ```
//!
//! and `unsafe` code, the one way around both, is denied workspace-wide.

pub mod config;
pub mod error;
pub mod evaluate;
pub mod fmout;
pub mod generator;
pub mod operators;
pub mod pipeline;
pub mod prompts;
pub mod report;
pub mod routing;
pub mod schema;
pub mod search;
pub mod selector;
pub mod transform;

pub use config::{CascadeConfig, SearchConfig, SearchStrategyKind, SmartFeatConfig};
pub use error::{CoreError, Result};
pub use pipeline::SmartFeat;
pub use report::{GeneratedFeature, SkipReason, SmartFeatReport};
pub use routing::build_role_fms;
pub use schema::{DataAgenda, FeatureDescription};
pub use smartfeat_fm::BackendKind;

/// One FM response as an observability usage record.
pub(crate) fn fm_usage_of(r: &smartfeat_fm::FmResponse) -> smartfeat_obs::FmUsage {
    smartfeat_obs::FmUsage {
        calls: 1,
        prompt_tokens: r.prompt_tokens as u64,
        completion_tokens: r.completion_tokens as u64,
        cost_usd: r.cost_usd,
    }
}

/// A `UsageMeter` snapshot (or delta) as an observability usage record.
pub(crate) fn fm_usage_of_snapshot(s: &smartfeat_fm::UsageSnapshot) -> smartfeat_obs::FmUsage {
    smartfeat_obs::FmUsage {
        calls: s.calls as u64,
        prompt_tokens: s.prompt_tokens as u64,
        completion_tokens: s.completion_tokens as u64,
        cost_usd: s.cost_usd,
    }
}
