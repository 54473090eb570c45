//! Validity bitmaps: one bit per row, 1 = present, 0 = null.
//!
//! The v2 columnar layout stores values and nullness separately — a dense
//! value buffer (`Vec<i64>` / `Vec<f64>` / …) plus a [`NullBitmap`] — the
//! way Arrow does, instead of the v1 `Vec<Option<T>>` layout. This halves
//! (or better) the memory footprint of numeric columns, makes
//! `null_count` a popcount instead of a scan, and lets the pure-transform
//! hot loops read values without branching on an `Option` discriminant.
//!
//! Invariant: bits at positions `>= len` in the last word are always zero,
//! so whole-word operations (popcount, equality) need no masking.

/// A bit-packed validity mask. Bit `i` set ⇔ row `i` holds a value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        NullBitmap::default()
    }

    /// Build from an iterator of validity flags.
    pub fn from_flags(flags: impl IntoIterator<Item = bool>) -> Self {
        let flags = flags.into_iter();
        let mut b = BitmapBuilder::with_capacity(flags.size_hint().0);
        flags.for_each(|f| b.push(f));
        b.finish()
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's validity.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// True if row `i` holds a value. Panics if `i >= len` (mirrors slice
    /// indexing, which the v1 layout used).
    pub fn is_valid(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Mark row `i` valid or null.
    pub fn set(&mut self, i: usize, valid: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if valid {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Count of valid rows — a popcount over the packed words.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of null rows.
    pub fn count_null(&self) -> usize {
        self.len - self.count_valid()
    }

    /// True if every row is valid.
    pub fn all_are_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Gather a subset of rows into a new bitmap (`Column::take`).
    pub fn take(&self, indices: &[usize]) -> NullBitmap {
        NullBitmap::from_flags(indices.iter().map(|&i| self.is_valid(i)))
    }

    /// Visit the index of every null row, in order. Walks the packed
    /// words and only materializes set bits of the inverse, so an
    /// all-valid bitmap costs one wordwise scan and no per-row work —
    /// this is what lets transforms re-zero null slots after a packed
    /// whole-buffer map.
    pub fn for_each_null(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut inv = !w;
            while inv != 0 {
                let i = wi * 64 + inv.trailing_zeros() as usize;
                if i >= self.len {
                    break;
                }
                f(i);
                inv &= inv - 1;
            }
        }
    }

    /// Iterate validity flags in row order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            idx: 0,
            len: self.len,
        }
    }
}

/// Word-buffered bitmap construction: bits accumulate in a register-held
/// word that flushes every 64 rows, so the per-row cost is a shift-or —
/// no per-row `Vec` branch or bounds-checked `|=` like repeated
/// [`NullBitmap::push`]. This is what the streaming column constructors
/// (`Column::from_float_iter` / `from_int_iter`) use on the transform
/// hot path.
#[derive(Debug, Default)]
pub struct BitmapBuilder {
    words: Vec<u64>,
    cur: u64,
    bit: u32,
}

impl BitmapBuilder {
    /// A builder pre-sized for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        BitmapBuilder {
            words: Vec::with_capacity(rows.div_ceil(64)),
            cur: 0,
            bit: 0,
        }
    }

    /// Append one row's validity.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        self.cur |= (valid as u64) << self.bit;
        self.bit += 1;
        if self.bit == 64 {
            self.words.push(self.cur);
            self.cur = 0;
            self.bit = 0;
        }
    }

    /// Finalize into a [`NullBitmap`]. The partial tail word carries only
    /// bits below `self.bit`, so the zeroed-tail invariant holds for free.
    pub fn finish(mut self) -> NullBitmap {
        let len = self.words.len() * 64 + self.bit as usize;
        if self.bit > 0 {
            self.words.push(self.cur);
        }
        NullBitmap {
            words: self.words,
            len,
        }
    }
}

/// Validity iterator over the packed words. `next` is a shift-and-mask
/// read with no per-row division; `BitIter::raw_parts` lets the view
/// iterators fold over the raw words for fully monomorphic hot loops.
#[derive(Debug, Clone)]
pub struct BitIter<'a> {
    words: &'a [u64],
    idx: usize,
    len: usize,
}

impl<'a> BitIter<'a> {
    /// The backing words, the next row index, and the total row count.
    pub(crate) fn raw_parts(&self) -> (&'a [u64], usize, usize) {
        (self.words, self.idx, self.len)
    }
}

impl Iterator for BitIter<'_> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        if self.idx >= self.len {
            return None;
        }
        let bit = self.words[self.idx >> 6] & (1u64 << (self.idx & 63)) != 0;
        self.idx += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.idx;
        (remaining, Some(remaining))
    }

    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, bool) -> B,
    {
        let mut acc = init;
        for idx in self.idx..self.len {
            acc = f(acc, self.words[idx >> 6] & (1u64 << (idx & 63)) != 0);
        }
        acc
    }
}

impl ExactSizeIterator for BitIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_set_roundtrip() {
        let mut bm = NullBitmap::new();
        for i in 0..130 {
            bm.push(i % 3 != 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.is_valid(i), i % 3 != 0, "row {i}");
        }
        bm.set(0, true);
        bm.set(1, false);
        assert!(bm.is_valid(0));
        assert!(!bm.is_valid(1));
    }

    #[test]
    fn counts_agree_with_iteration() {
        let bm = NullBitmap::from_flags((0..200).map(|i| i % 7 == 0));
        let by_iter = bm.iter().filter(|&v| v).count();
        assert_eq!(bm.count_valid(), by_iter);
        assert_eq!(bm.count_null(), 200 - by_iter);
    }

    #[test]
    fn take_gathers() {
        let bm = NullBitmap::from_flags([true, false, true, true]);
        let t = bm.take(&[3, 1, 0]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        NullBitmap::from_flags([true; 3]).is_valid(3);
    }
}
