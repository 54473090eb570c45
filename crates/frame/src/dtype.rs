//! Column data types.

use std::fmt;

/// The four storage types a [`crate::Column`] can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl DType {
    /// True for `Int`, `Float`, and `Bool` (bools participate in arithmetic
    /// as 0/1, matching pandas).
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float | DType::Bool)
    }

    /// Short lowercase name used in data cards and reports.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Bool => "bool",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(DType::Int.is_numeric());
        assert!(DType::Float.is_numeric());
        assert!(DType::Bool.is_numeric());
        assert!(!DType::Str.is_numeric());
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::Float.to_string(), "float");
        assert_eq!(DType::Str.to_string(), "str");
    }
}
