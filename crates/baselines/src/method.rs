//! The common interface all AFE methods (baselines and SMARTFEAT's
//! adapter in `smartfeat-bench`) expose to the evaluation grid.

use std::time::Duration;

use smartfeat_frame::DataFrame;

/// What one AFE method produced on one dataset.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// The engineered frame (target column preserved).
    pub frame: DataFrame,
    /// Names of engineered features present in `frame`.
    pub new_features: Vec<String>,
    /// Candidates generated before selection (Table 6's "# generated").
    pub generated_count: usize,
    /// Features surviving selection (Table 6's "sel-N").
    pub selected_count: usize,
    /// The run hit its deadline and returned partial (or no) results.
    pub timed_out: bool,
    /// The run failed outright (e.g. poisoned the frame); message.
    pub failure: Option<String>,
}

impl MethodOutput {
    /// A pass-through output (no engineering happened).
    pub fn passthrough(df: &DataFrame) -> Self {
        MethodOutput {
            frame: df.clone(),
            new_features: Vec::new(),
            generated_count: 0,
            selected_count: 0,
            timed_out: false,
            failure: None,
        }
    }
}

/// An automated feature engineering method under benchmark.
pub trait AfeMethod {
    /// Display name used in the tables.
    fn name(&self) -> &'static str;

    /// Engineer features over `df` (already cleaned and factorized except
    /// for the string columns listed in `categorical`). Must respect
    /// `deadline` (wall clock) and set `timed_out` when exceeded.
    fn run(
        &self,
        df: &DataFrame,
        target: &str,
        categorical: &[String],
        deadline: Duration,
    ) -> MethodOutput;
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_frame::Column;

    #[test]
    fn passthrough_preserves_frame() {
        let df = DataFrame::from_columns(vec![Column::from_i64("a", vec![1, 2])]).unwrap();
        let out = MethodOutput::passthrough(&df);
        assert_eq!(out.frame.n_cols(), 1);
        assert!(out.new_features.is_empty());
        assert!(!out.timed_out);
        assert!(out.failure.is_none());
    }
}
