//! # smartfeat-frame
//!
//! A small, typed, columnar in-memory DataFrame used as the execution
//! substrate for the SMARTFEAT reproduction. It plays the role pandas plays
//! in the original paper: the transformation functions emitted by the
//! function generator (bucketize, normalize, arithmetic, group-by-transform,
//! dummies, date splitting, …) all execute against [`DataFrame`].
//!
//! Design notes:
//! - Columns are typed (`Int`, `Float`, `Str`, `Bool`) with per-cell nulls,
//!   mirroring pandas' nullable semantics after `dropna`/`factorize`.
//! - Storage is columnar v2: dense value buffers + [`bitmap::NullBitmap`]
//!   validity, dictionary-encoded categoricals ([`dict::Dictionary`]), and
//!   zero-copy read-views ([`view::NumericView`] / [`view::KeysView`]), and
//!   dense per-row [`view::KeyCodes`] that grouping and counting read
//!   instead of rendered strings.
//! - Every operation is deterministic; anything stochastic (shuffles,
//!   splits) takes an explicit seed. Hash-based lookups use the fixed-seed
//!   first-occurrence-ordered [`index::StableMap`], never `std::HashMap`.
//! - The workspace builds hermetically: no registry dependencies. Seeded
//!   sampling comes from the in-repo `smartfeat-rng` crate, and schema
//!   serialization for data cards uses the hand-rolled [`json`] module.

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod dict;
pub mod dtype;
pub mod error;
pub mod frame;
pub mod index;
pub mod json;
pub mod ops;
pub mod sample;
pub mod stats;
pub mod value;
pub mod view;

pub use bitmap::NullBitmap;
pub use column::{Column, ColumnData};
pub use dict::Dictionary;
pub use dtype::DType;
pub use error::{FrameError, Result};
pub use frame::DataFrame;
pub use index::{StableHash, StableHasher, StableMap, StableSet};
pub use value::Value;
pub use view::{KeyCodes, KeysView, NumericView};
