//! # smartfeat-baselines
//!
//! Re-implementations of the paper's three baselines, faithful to each
//! tool's *algorithmic skeleton*:
//!
//! - [`dsm`] — Featuretools / Deep Feature Synthesis: exhaustively apply
//!   the `add_numeric`, `multiply_numeric` and aggregation primitives, then
//!   select away highly-correlated / highly-null / single-value features.
//!   Context-agnostic: it cannot know which combinations are meaningful.
//! - [`autofeat`] — AutoFeat: build a very large pool of non-linear
//!   candidate features (two expansion steps), then run an iterative
//!   selection that keeps a handful. Deliberately compute-hungry — it is
//!   the baseline that times out on Bank and Adult in the paper.
//! - [`caafe`] — CAAFE: FM-driven iterative code generation *without* an
//!   operator selector, biased toward numeric combinations, with a
//!   validation-set accept/reject step per iteration (the step that makes
//!   it slow on large datasets) and *unguarded division* (the failure the
//!   paper reports on Diabetes).
//!
//! All three implement [`AfeMethod`] with a wall-clock deadline, so the
//! evaluation grid can reproduce the paper's one-hour-timeout behaviour
//! at scaled budgets.

pub mod autofeat;
pub mod caafe;
pub mod dsm;
pub mod method;

pub use autofeat::AutoFeat;
pub use caafe::Caafe;
pub use dsm::Featuretools;
pub use method::{AfeMethod, MethodOutput};
