//! Binary arithmetic between two numeric columns: `+`, `-`, `×`, `÷`.

use crate::column::Column;
use crate::error::{FrameError, Result};

/// The four basic arithmetic operators the paper's binary family covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`. With `safe_division`, division by zero yields null; without
    /// it (CAAFE's observed failure mode on Diabetes) it yields `NaN`,
    /// which [`Column::from_floats`] also normalizes to null.
    Div,
}

impl BinaryOp {
    /// Evaluate safely: division by zero returns `None`.
    pub fn apply(self, a: f64, b: f64) -> Option<f64> {
        let v = match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return None;
                }
                a / b
            }
        };
        v.is_finite().then_some(v)
    }

    /// Symbol for naming generated features (`A_plus_B`, …).
    pub fn token(self) -> &'static str {
        match self {
            BinaryOp::Add => "plus",
            BinaryOp::Sub => "minus",
            BinaryOp::Mul => "times",
            BinaryOp::Div => "div",
        }
    }

    /// Mathematical symbol for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// All four operators, in the paper's listing order.
    pub fn all() -> [BinaryOp; 4] {
        [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div]
    }

    /// True for operators where argument order matters.
    pub fn is_ordered(self) -> bool {
        matches!(self, BinaryOp::Sub | BinaryOp::Div)
    }
}

/// Apply a binary operator elementwise across two numeric columns.
/// Any null operand yields a null result; division by zero yields null.
pub fn binary_op(a: &Column, b: &Column, op: BinaryOp, out_name: &str) -> Result<Column> {
    if a.len() != b.len() {
        return Err(FrameError::LengthMismatch {
            column: b.name().to_string(),
            expected: a.len(),
            actual: b.len(),
        });
    }
    let xs = a.numeric_view()?;
    let ys = b.numeric_view()?;
    Ok(Column::from_float_iter(
        out_name,
        xs.iter().zip(ys.iter()).map(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => op.apply(x, y),
            _ => None,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn cols() -> (Column, Column) {
        (
            Column::from_f64("a", vec![6.0, 8.0, 3.0]),
            Column::from_f64("b", vec![2.0, 0.0, -1.0]),
        )
    }

    #[test]
    fn add_sub_mul() {
        let (a, b) = cols();
        assert_eq!(
            binary_op(&a, &b, BinaryOp::Add, "s").unwrap().get(0),
            Value::Float(8.0)
        );
        assert_eq!(
            binary_op(&a, &b, BinaryOp::Sub, "s").unwrap().get(2),
            Value::Float(4.0)
        );
        assert_eq!(
            binary_op(&a, &b, BinaryOp::Mul, "s").unwrap().get(2),
            Value::Float(-3.0)
        );
    }

    #[test]
    fn safe_division_nulls_on_zero() {
        let (a, b) = cols();
        let d = binary_op(&a, &b, BinaryOp::Div, "d").unwrap();
        assert_eq!(d.get(0), Value::Float(3.0));
        assert!(d.is_null(1));
    }

    #[test]
    fn null_operand_propagates() {
        let a = Column::from_floats("a", vec![Some(1.0), None]);
        let b = Column::from_f64("b", vec![1.0, 1.0]);
        let s = binary_op(&a, &b, BinaryOp::Add, "s").unwrap();
        assert!(s.is_null(1));
    }

    #[test]
    fn length_mismatch_rejected() {
        let a = Column::from_f64("a", vec![1.0]);
        let b = Column::from_f64("b", vec![1.0, 2.0]);
        assert!(binary_op(&a, &b, BinaryOp::Add, "s").is_err());
    }

    #[test]
    fn ordered_flags() {
        assert!(BinaryOp::Sub.is_ordered());
        assert!(BinaryOp::Div.is_ordered());
        assert!(!BinaryOp::Add.is_ordered());
        assert!(!BinaryOp::Mul.is_ordered());
    }

    #[test]
    fn tokens_and_symbols() {
        assert_eq!(BinaryOp::Div.token(), "div");
        assert_eq!(BinaryOp::Mul.symbol(), "*");
        assert_eq!(BinaryOp::all().len(), 4);
    }
}
