//! # smartfeat-bench
//!
//! The drivers that regenerate **every table and figure** of the paper's
//! evaluation (Section 4):
//!
//! | Artifact | Driver |
//! |---|---|
//! | Figure 1 (row-level vs feature-level interaction cost) | [`fig1`] |
//! | Table 3 (dataset statistics) | [`tables::table3`] |
//! | Table 4 (average AUC grid) | [`grid`] → [`tables::render_table4`] |
//! | Table 5 (median AUC grid) | [`grid`] → [`tables::render_table5`] |
//! | §4.2 efficiency (wall-clock per method) | [`tables::efficiency`] |
//! | Table 6 (top-10 feature importance on Tennis) | [`tables::table6`] |
//! | Table 7 (operator ablation on Tennis) | [`tables::table7`] |
//! | §4.2 feature-description impact | [`tables::descriptions`] |
//!
//! The `repro` binary (`cargo run --release -p smartfeat-bench --bin repro`)
//! wires these to a CLI. Speed is measured end to end by the `perfbench/`
//! workspace (`BENCHMARK.json`), which drives [`prep`], [`methods`],
//! [`grid`] and [`evalml`] directly.

pub mod evalml;
pub mod fig1;
pub mod fmt;
pub mod grid;
pub mod methods;
pub mod prep;
pub mod tables;

pub use grid::{GridConfig, GridResult};
pub use methods::MethodName;
