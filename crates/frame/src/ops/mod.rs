//! Column-level operations: the execution vocabulary for generated
//! transformation functions.
//!
//! Each operation takes borrowed inputs and produces a fresh [`crate::Column`]
//! (or several, for dummies), never mutating the source frame — the pipeline
//! decides what to attach.

pub mod binary;
pub mod datetime;
pub mod encode;
pub mod groupby;
#[cfg(test)]
mod oracle;
pub mod unary;

pub use binary::{binary_op, BinaryOp};
pub use datetime::{date_part, DatePart};
pub use encode::{frequency_encode, get_dummies, one_hot_limit};
pub use groupby::{group_slots, groupby_transform, AggFunc};
pub use unary::{bucketize, clip, normalize, unary_map, NormKind, UnaryFn};
