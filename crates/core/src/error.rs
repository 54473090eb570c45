//! Error type for the SMARTFEAT core.

use std::fmt;

/// Errors surfaced by the SMARTFEAT pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying frame operation failed.
    Frame(smartfeat_frame::FrameError),
    /// The FM transport failed (e.g. call budget exhausted).
    Fm(String),
    /// A transform referenced a column missing from the frame.
    MissingColumn(String),
    /// A transform was constructed with invalid parameters.
    InvalidTransform(String),
    /// The configuration is inconsistent.
    InvalidConfig(String),
    /// The frame has no data rows, so the target has no classes to score.
    NoRows {
        /// The agenda's target column.
        target: String,
    },
    /// The target column does not hold exactly two distinct non-null
    /// values. Counting stops at the third, so `distinct` is at most 3.
    NonBinaryTarget {
        /// The agenda's target column.
        target: String,
        /// Distinct non-null values seen, capped at 3.
        distinct: usize,
    },
    /// Row-level completion was required but disabled or over budget.
    RowCompletionUnavailable(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Frame(e) => write!(f, "frame error: {e}"),
            CoreError::Fm(msg) => write!(f, "foundation model error: {msg}"),
            CoreError::MissingColumn(c) => write!(f, "column {c:?} not found in frame"),
            CoreError::InvalidTransform(msg) => write!(f, "invalid transform: {msg}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::NoRows { target } => write!(
                f,
                "the frame has no data rows; target column {target:?} needs two classes"
            ),
            CoreError::NonBinaryTarget { target, distinct } => write!(
                f,
                "target column {target:?} has {}{distinct} distinct non-null value(s); \
                 a binary target needs exactly 2",
                if *distinct > 2 { "at least " } else { "" }
            ),
            CoreError::RowCompletionUnavailable(msg) => {
                write!(f, "row-level completion unavailable: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<smartfeat_frame::FrameError> for CoreError {
    fn from(e: smartfeat_frame::FrameError) -> Self {
        CoreError::Frame(e)
    }
}

impl From<smartfeat_fm::FmError> for CoreError {
    fn from(e: smartfeat_fm::FmError) -> Self {
        CoreError::Fm(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_error_converts() {
        let fe = smartfeat_frame::FrameError::ColumnNotFound("x".into());
        let ce: CoreError = fe.into();
        assert!(ce.to_string().contains("column not found"));
    }

    #[test]
    fn fm_error_converts() {
        let ce: CoreError = smartfeat_fm::FmError::BudgetExhausted { budget: 5 }.into();
        assert!(ce.to_string().contains("budget"));
    }
}
