//! Zero-copy column views.
//!
//! The v1 ops materialized every input as a fresh `Vec<Option<f64>>` (or
//! `Vec<Option<String>>`) before touching a single row. In
//! `SearchCtx::realize` that meant each transform cloned whole columns out
//! of the shared frame. The v2 views borrow the column's value
//! buffer and null bitmap directly: [`NumericView`] answers `get(i) →
//! Option<f64>` by reading the buffers in place, and [`KeysView`] exposes
//! categorical cells as `&str` borrowed from the interned dictionary.
//!
//! Only non-`Str` numeric renderings (`to_keys` on an `Int` column, say)
//! still allocate — those paths fall back to an owned buffer inside the
//! view, invisible to callers. Grouping and counting never render: they
//! read [`KeyCodes`], one dense `u32` per row taken from the packed value.

use std::borrow::Cow;
use std::slice;

use crate::bitmap::{BitIter, NullBitmap};
use crate::dict::Dictionary;

/// A borrowed numeric read-view over an `Int`, `Float`, or `Bool` column.
#[derive(Debug, Clone, Copy)]
pub enum NumericView<'a> {
    /// Borrowed int buffer + validity.
    Int {
        values: &'a [i64],
        validity: &'a NullBitmap,
    },
    /// Borrowed float buffer + validity (stored floats are never NaN).
    Float {
        values: &'a [f64],
        validity: &'a NullBitmap,
    },
    /// Borrowed bool buffer + validity.
    Bool {
        values: &'a [bool],
        validity: &'a NullBitmap,
    },
}

impl NumericView<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            NumericView::Int { values, .. } => values.len(),
            NumericView::Float { values, .. } => values.len(),
            NumericView::Bool { values, .. } => values.len(),
        }
    }

    /// True if the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as `f64`, or `None` for a null.
    pub fn get(&self, i: usize) -> Option<f64> {
        match self {
            NumericView::Int { values, validity } => validity.is_valid(i).then(|| values[i] as f64),
            NumericView::Float { values, validity } => validity.is_valid(i).then(|| values[i]),
            NumericView::Bool { values, validity } => {
                validity
                    .is_valid(i)
                    .then(|| if values[i] { 1.0 } else { 0.0 })
            }
        }
    }

    /// Iterate rows as `Option<f64>` without materializing a buffer.
    ///
    /// The variant is matched once here, not per element: each arm zips a
    /// slice iterator with the bitmap's word-caching [`BitIter`], so the
    /// hot loop runs at buffer-scan speed with no per-row indexing.
    pub fn iter(&self) -> NumericIter<'_> {
        match *self {
            NumericView::Int { values, validity } => {
                NumericIter::Int(values.iter(), validity.iter())
            }
            NumericView::Float { values, validity } => {
                NumericIter::Float(values.iter(), validity.iter())
            }
            NumericView::Bool { values, validity } => {
                NumericIter::Bool(values.iter(), validity.iter())
            }
        }
    }

    /// Materialize (the v1 `numeric()` shape) for callers that need a vec.
    pub fn to_vec(&self) -> Vec<Option<f64>> {
        self.iter().collect()
    }

    /// Count of present (non-null) rows — a popcount over the bitmap.
    pub fn present_count(&self) -> usize {
        match self {
            NumericView::Int { validity, .. }
            | NumericView::Float { validity, .. }
            | NumericView::Bool { validity, .. } => validity.count_valid(),
        }
    }

    /// Fold over present values only, in row order. When the bitmap is
    /// all-valid (the overwhelmingly common case for transform inputs)
    /// this runs straight over the raw value slice — a vectorizable loop
    /// with no per-row validity logic and bit-identical accumulation,
    /// since the element order is unchanged. Otherwise it streams through
    /// the packed fold, skipping nulls.
    pub fn fold_present<B>(&self, init: B, mut f: impl FnMut(B, f64) -> B) -> B {
        match *self {
            NumericView::Float { values, validity } if validity.all_are_valid() => {
                values.iter().fold(init, |acc, &v| f(acc, v))
            }
            NumericView::Int { values, validity } if validity.all_are_valid() => {
                values.iter().fold(init, |acc, &v| f(acc, v as f64))
            }
            NumericView::Bool { values, validity } if validity.all_are_valid() => values
                .iter()
                .fold(init, |acc, &v| f(acc, if v { 1.0 } else { 0.0 })),
            _ => self.iter().fold(init, |acc, x| match x {
                Some(v) => f(acc, v),
                None => acc,
            }),
        }
    }

    /// Map a function over the packed value buffer, cloning the validity
    /// bitmap. This is the null-preserving transform fast path: the hot
    /// loop is a pure slice map the compiler can vectorize — no per-row
    /// validity logic — and null slots are re-zeroed afterwards (the
    /// storage invariant) by walking only the null bits. Callers whose
    /// function can *introduce* nulls stream through [`NumericView::iter`]
    /// instead.
    pub(crate) fn map_packed_f64(&self, f: impl Fn(f64) -> f64) -> (Vec<f64>, NullBitmap) {
        let (mut out, validity): (Vec<f64>, NullBitmap) = match *self {
            NumericView::Int { values, validity } => (
                values.iter().map(|&v| f(v as f64)).collect(),
                validity.clone(),
            ),
            NumericView::Float { values, validity } => {
                (values.iter().map(|&v| f(v)).collect(), validity.clone())
            }
            NumericView::Bool { values, validity } => (
                values
                    .iter()
                    .map(|&v| f(if v { 1.0 } else { 0.0 }))
                    .collect(),
                validity.clone(),
            ),
        };
        validity.for_each_null(|i| out[i] = 0.0);
        (out, validity)
    }

    /// Integer-output variant of [`NumericView::map_packed_f64`].
    pub(crate) fn map_packed_i64(&self, f: impl Fn(f64) -> i64) -> (Vec<i64>, NullBitmap) {
        let (mut out, validity): (Vec<i64>, NullBitmap) = match *self {
            NumericView::Int { values, validity } => (
                values.iter().map(|&v| f(v as f64)).collect(),
                validity.clone(),
            ),
            NumericView::Float { values, validity } => {
                (values.iter().map(|&v| f(v)).collect(), validity.clone())
            }
            NumericView::Bool { values, validity } => (
                values
                    .iter()
                    .map(|&v| f(if v { 1.0 } else { 0.0 }))
                    .collect(),
                validity.clone(),
            ),
        };
        validity.for_each_null(|i| out[i] = 0);
        (out, validity)
    }
}

/// Fused iterator behind [`NumericView::iter`]: slice iteration plus
/// packed validity bits. Internal iteration (`collect`, `for_each`, any
/// `fold`-based adapter) runs one monomorphic indexed loop per variant —
/// the enum is matched once, not per element.
#[derive(Debug, Clone)]
pub enum NumericIter<'a> {
    /// Int buffer walk.
    Int(slice::Iter<'a, i64>, BitIter<'a>),
    /// Float buffer walk.
    Float(slice::Iter<'a, f64>, BitIter<'a>),
    /// Bool buffer walk.
    Bool(slice::Iter<'a, bool>, BitIter<'a>),
}

/// Raw-parts fold: the values slice and validity words advance under a
/// single index, so the hot loop is shift/mask/convert with no iterator
/// state to thread between elements.
#[inline]
fn fold_packed<T: Copy, B, F>(
    values: slice::Iter<'_, T>,
    bits: BitIter<'_>,
    conv: impl Fn(T) -> f64,
    init: B,
    mut f: F,
) -> B
where
    F: FnMut(B, Option<f64>) -> B,
{
    let (words, mut idx, _) = bits.raw_parts();
    let mut acc = init;
    for &v in values {
        let ok = words[idx >> 6] & (1u64 << (idx & 63)) != 0;
        idx += 1;
        acc = f(acc, ok.then(|| conv(v)));
    }
    acc
}

impl Iterator for NumericIter<'_> {
    type Item = Option<f64>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            NumericIter::Int(v, b) => match (v.next(), b.next()) {
                (Some(&x), Some(ok)) => Some(ok.then_some(x as f64)),
                _ => None,
            },
            NumericIter::Float(v, b) => match (v.next(), b.next()) {
                (Some(&x), Some(ok)) => Some(ok.then_some(x)),
                _ => None,
            },
            NumericIter::Bool(v, b) => match (v.next(), b.next()) {
                (Some(&x), Some(ok)) => Some(ok.then_some(if x { 1.0 } else { 0.0 })),
                _ => None,
            },
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NumericIter::Int(v, _) => v.size_hint(),
            NumericIter::Float(v, _) => v.size_hint(),
            NumericIter::Bool(v, _) => v.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F>(self, init: B, f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self {
            NumericIter::Int(v, b) => fold_packed(v, b, |x| x as f64, init, f),
            NumericIter::Float(v, b) => fold_packed(v, b, |x| x, init, f),
            NumericIter::Bool(v, b) => fold_packed(v, b, |x| if x { 1.0 } else { 0.0 }, init, f),
        }
    }
}

impl ExactSizeIterator for NumericIter<'_> {}

/// A categorical read-view: row → `Option<&str>`.
///
/// `Dict` columns borrow codes and book zero-copy; other dtypes render
/// into an owned buffer once at view construction.
#[derive(Debug)]
pub enum KeysView<'a> {
    /// Borrowed dictionary-encoded storage.
    Dict {
        codes: &'a [u32],
        validity: &'a NullBitmap,
        dict: &'a Dictionary,
    },
    /// Rendered fallback for numeric dtypes (allocates at construction).
    Owned(Vec<Option<String>>),
}

impl KeysView<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            KeysView::Dict { codes, .. } => codes.len(),
            KeysView::Owned(v) => v.len(),
        }
    }

    /// True if the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a borrowed key string, or `None` for a null.
    pub fn get(&self, i: usize) -> Option<&str> {
        match self {
            KeysView::Dict {
                codes,
                validity,
                dict,
            } => validity.is_valid(i).then(|| dict.get(codes[i])),
            KeysView::Owned(v) => v[i].as_deref(),
        }
    }

    /// Iterate rows as `Option<&str>`, matching the variant once.
    pub fn iter(&self) -> KeysIter<'_> {
        match self {
            KeysView::Dict {
                codes,
                validity,
                dict,
            } => KeysIter::Dict(codes.iter(), validity.iter(), dict),
            KeysView::Owned(v) => KeysIter::Owned(v.iter()),
        }
    }
}

/// Fused iterator behind [`KeysView::iter`].
#[derive(Debug, Clone)]
pub enum KeysIter<'a> {
    /// Dictionary codes + packed validity + the shared book.
    Dict(slice::Iter<'a, u32>, BitIter<'a>, &'a Dictionary),
    /// Owned rendered fallback walk.
    Owned(slice::Iter<'a, Option<String>>),
}

impl<'a> Iterator for KeysIter<'a> {
    type Item = Option<&'a str>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            KeysIter::Dict(codes, bits, dict) => match (codes.next(), bits.next()) {
                (Some(&c), Some(ok)) => Some(ok.then(|| dict.get(c))),
                _ => None,
            },
            KeysIter::Owned(it) => it.next().map(Option::as_deref),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            KeysIter::Dict(codes, _, _) => codes.size_hint(),
            KeysIter::Owned(it) => it.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self {
            KeysIter::Dict(codes, bits, dict) => {
                let (words, mut idx, _) = bits.raw_parts();
                let mut acc = init;
                for &c in codes {
                    let ok = words[idx >> 6] & (1u64 << (idx & 63)) != 0;
                    idx += 1;
                    acc = f(acc, ok.then(|| dict.get(c)));
                }
                acc
            }
            KeysIter::Owned(it) => it.fold(init, |acc, v| f(acc, v.as_deref())),
        }
    }
}

impl ExactSizeIterator for KeysIter<'_> {}

/// Dense per-row key codes over one column, built by
/// [`Column::key_codes`](crate::Column::key_codes).
///
/// Every present cell has a code in `0..n_codes()`, and two present cells
/// share a code exactly when their values (equivalently, their rendered
/// keys) are equal. Nulls have no code.
#[derive(Debug)]
pub struct KeyCodes<'a> {
    codes: Cow<'a, [u32]>,
    validity: &'a NullBitmap,
    n_codes: usize,
}

impl<'a> KeyCodes<'a> {
    /// Wrap per-row codes; `codes` must lie in `0..n_codes` at valid rows.
    pub(crate) fn new(codes: Cow<'a, [u32]>, validity: &'a NullBitmap, n_codes: usize) -> Self {
        KeyCodes {
            codes,
            validity,
            n_codes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Exclusive upper bound on the codes: size a code-indexed table with
    /// it. A `take`-derived `Str` column may leave some codes unused.
    pub fn n_codes(&self) -> usize {
        self.n_codes
    }

    /// Row `i`'s code, or `None` for a null.
    pub fn get(&self, i: usize) -> Option<u32> {
        self.validity.is_valid(i).then(|| self.codes[i])
    }

    /// Iterate rows as `Option<u32>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        self.codes
            .iter()
            .zip(self.validity.iter())
            .map(|(&c, ok)| ok.then_some(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn numeric_view_coerces_like_to_f64() {
        let c = Column::from_ints("a", vec![Some(4), None, Some(-2)]);
        let v = c.numeric_view().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), Some(4.0));
        assert_eq!(v.get(1), None);
        assert_eq!(v.to_vec(), c.to_f64());

        let b = Column::from_bools("b", vec![Some(true), Some(false), None]);
        let bv = b.numeric_view().unwrap();
        assert_eq!(bv.to_vec(), vec![Some(1.0), Some(0.0), None]);
    }

    #[test]
    fn numeric_view_rejects_strings() {
        let c = Column::from_str_slice("s", &["x"]);
        assert!(c.numeric_view().is_err());
    }

    #[test]
    fn keys_view_borrows_dict_strings() {
        let c = Column::from_strs(
            "s",
            vec![
                Some("red".into()),
                None,
                Some("blue".into()),
                Some("red".into()),
            ],
        );
        let v = c.keys_view();
        assert!(matches!(v, KeysView::Dict { .. }));
        assert_eq!(v.get(0), Some("red"));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(3), Some("red"));
    }

    #[test]
    fn keys_view_renders_numerics() {
        let c = Column::from_i64("x", vec![5, 7]);
        let v = c.keys_view();
        assert_eq!(v.get(0), Some("5"));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![Some("5"), Some("7")]);
    }
}
