//! The [`DataFrame`]: an ordered collection of equal-length named columns.

use std::collections::BTreeMap;

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::index::StableMap;
use crate::value::Value;

/// An ordered collection of equal-length, uniquely-named [`Column`]s.
///
/// This is the substrate every generated transformation executes against —
/// the reproduction's stand-in for a pandas `DataFrame`.
///
/// ```
/// use smartfeat_frame::{Column, DataFrame};
/// let df = DataFrame::from_columns(vec![
///     Column::from_i64("a", vec![1, 2, 3]),
///     Column::from_str_slice("g", &["x", "y", "x"]),
/// ])
/// .unwrap();
/// assert_eq!(df.n_rows(), 3);
/// assert_eq!(df.column("g").unwrap().cardinality(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataFrame {
    columns: Vec<Column>,
    index: StableMap<String, usize>,
}

impl DataFrame {
    /// An empty frame (zero columns, zero rows).
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Build a frame from columns, validating lengths and name uniqueness.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self> {
        let mut df = DataFrame::new();
        for c in columns {
            df.add_column(c)?;
        }
        Ok(df)
    }

    /// Number of rows (0 for an empty frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// True if a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))
    }

    /// Borrow all columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a column. Fails on duplicate name or length mismatch
    /// (unless the frame is still empty).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.index.contains_key(column.name()) {
            return Err(FrameError::DuplicateColumn(column.name().to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                column: column.name().to_string(),
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        self.index
            .insert(column.name().to_string(), self.columns.len());
        self.columns.push(column);
        Ok(())
    }

    /// Add a column, replacing any existing column of the same name.
    pub fn upsert_column(&mut self, column: Column) -> Result<()> {
        if let Some(&i) = self.index.get(column.name()) {
            if !self.columns.is_empty() && column.len() != self.n_rows() {
                return Err(FrameError::LengthMismatch {
                    column: column.name().to_string(),
                    expected: self.n_rows(),
                    actual: column.len(),
                });
            }
            self.columns[i] = column;
            Ok(())
        } else {
            self.add_column(column)
        }
    }

    /// Remove a column by name, returning it.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let i = *self
            .index
            .get(name)
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))?;
        let col = self.columns.remove(i);
        self.rebuild_index();
        Ok(col)
    }

    /// Rename a column.
    pub fn rename_column(&mut self, from: &str, to: &str) -> Result<()> {
        if self.index.contains_key(to) && from != to {
            return Err(FrameError::DuplicateColumn(to.to_string()));
        }
        let i = *self
            .index
            .get(from)
            .ok_or_else(|| FrameError::ColumnNotFound(from.to_string()))?;
        self.columns[i].set_name(to);
        self.rebuild_index();
        Ok(())
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name().to_string(), i))
            .collect();
    }

    /// A new frame with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for &n in names {
            out.add_column(self.column(n)?.clone())?;
        }
        Ok(out)
    }

    /// A new frame with the given rows gathered from this one.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        let n = self.n_rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(FrameError::RowOutOfBounds { index: bad, len: n });
        }
        let mut out = DataFrame::new();
        for c in &self.columns {
            out.add_column(c.take(indices))?;
        }
        Ok(out)
    }

    /// One row as dynamic values, in column order.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.n_rows() {
            return Err(FrameError::RowOutOfBounds {
                index: i,
                len: self.n_rows(),
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Drop every row containing at least one null (pandas `dropna`).
    /// Returns the kept row indices alongside the new frame.
    pub fn dropna(&self) -> (DataFrame, Vec<usize>) {
        let keep: Vec<usize> = (0..self.n_rows())
            .filter(|&i| self.columns.iter().all(|c| !c.is_null(i)))
            .collect();
        // sfcheck:allow(panic-hygiene) invariant: keep is filtered from 0..n_rows
        let df = self.take(&keep).expect("indices are in range");
        (df, keep)
    }

    /// Convert the named feature columns to a dense row-major matrix for ML.
    ///
    /// Nulls and non-numeric cells become `fill` (typically 0.0 after
    /// factorization, matching the paper's preprocessing).
    pub fn to_matrix(&self, feature_cols: &[&str], fill: f64) -> Result<Vec<Vec<f64>>> {
        let cols: Vec<Vec<Option<f64>>> = feature_cols
            .iter()
            .map(|&n| self.column(n).map(|c| c.to_f64()))
            .collect::<Result<_>>()?;
        let n = self.n_rows();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(cols.len());
            for col in &cols {
                let v = col[i].unwrap_or(fill);
                row.push(if v.is_finite() { v } else { fill });
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Extract a binary label column as 0/1. Non-zero numerics map to 1.
    pub fn to_labels(&self, label_col: &str) -> Result<Vec<u8>> {
        let col = self.column(label_col)?;
        let vals = col.numeric()?;
        Ok(vals
            .into_iter()
            .map(|v| match v {
                Some(x) if x != 0.0 => 1,
                _ => 0,
            })
            .collect())
    }

    /// Replace each string column with integer codes (pandas `factorize`),
    /// leaving numeric columns untouched. Codes are assigned in first-seen
    /// order; nulls stay null. Returns the per-column code books.
    ///
    /// `Str` columns are already dictionary-encoded, so this is a dense
    /// `O(n + k)` code remap (a `take`-derived column may share a larger
    /// parent book, and first-seen order is a property of *this* column's
    /// rows) — no per-row map lookups at all.
    pub fn factorize_strings(&mut self) -> BTreeMap<String, Vec<String>> {
        const UNSEEN: i64 = -1;
        let mut books = BTreeMap::new();
        for col in &mut self.columns {
            let Some((codes, validity, dict)) = col.dict_parts() else {
                continue;
            };
            let mut remap = vec![UNSEEN; dict.len()];
            let mut book: Vec<String> = Vec::new();
            let out: Vec<Option<i64>> = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    validity.is_valid(i).then(|| {
                        let slot = &mut remap[c as usize];
                        if *slot == UNSEEN {
                            *slot = book.len() as i64;
                            book.push(dict.get(c).to_string());
                        }
                        *slot
                    })
                })
                .collect();
            let name = col.name().to_string();
            *col = Column::from_ints(name.clone(), out);
            books.insert(name, book);
        }
        books
    }

    /// Pretty-print the first `n` rows as an aligned text table.
    pub fn head(&self, n: usize) -> String {
        let n = n.min(self.n_rows());
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name().len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(i).render()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("{:<width$}  ", c.name(), width = w));
        }
        out.push('\n');
        for row in cells {
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!("{:<width$}  ", cell, width = w));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_i64("a", vec![1, 2, 3]),
            Column::from_f64("b", vec![0.5, 1.5, 2.5]),
            Column::from_str_slice("c", &["x", "y", "x"]),
        ])
        .unwrap()
    }

    #[test]
    fn shape_and_names() {
        let df = sample();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.column_names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut df = sample();
        let err = df.add_column(Column::from_i64("a", vec![9, 9, 9]));
        assert!(matches!(err, Err(FrameError::DuplicateColumn(_))));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut df = sample();
        let err = df.add_column(Column::from_i64("d", vec![1]));
        assert!(matches!(err, Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn upsert_replaces() {
        let mut df = sample();
        df.upsert_column(Column::from_i64("a", vec![7, 8, 9]))
            .unwrap();
        assert_eq!(df.column("a").unwrap().get(0), Value::Int(7));
        assert_eq!(df.n_cols(), 3);
    }

    #[test]
    fn drop_and_rename_keep_index_consistent() {
        let mut df = sample();
        df.drop_column("b").unwrap();
        assert!(!df.has_column("b"));
        assert_eq!(df.column("c").unwrap().get(0), Value::Str("x".into()));
        df.rename_column("c", "cat").unwrap();
        assert!(df.has_column("cat"));
        assert!(df.column("c").is_err());
    }

    #[test]
    fn rename_to_existing_rejected() {
        let mut df = sample();
        assert!(matches!(
            df.rename_column("a", "b"),
            Err(FrameError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn select_subset_order() {
        let df = sample();
        let s = df.select(&["c", "a"]).unwrap();
        assert_eq!(s.column_names(), vec!["c", "a"]);
        assert_eq!(s.n_rows(), 3);
    }

    #[test]
    fn take_out_of_bounds() {
        let df = sample();
        assert!(matches!(
            df.take(&[0, 5]),
            Err(FrameError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn dropna_removes_rows_with_any_null() {
        let df = DataFrame::from_columns(vec![
            Column::from_ints("a", vec![Some(1), None, Some(3)]),
            Column::from_f64("b", vec![1.0, 2.0, 3.0]),
        ])
        .unwrap();
        let (clean, keep) = df.dropna();
        assert_eq!(clean.n_rows(), 2);
        assert_eq!(keep, vec![0, 2]);
    }

    #[test]
    fn to_matrix_fills_nulls_and_strings() {
        let df = DataFrame::from_columns(vec![
            Column::from_ints("a", vec![Some(1), None]),
            Column::from_str_slice("s", &["p", "q"]),
        ])
        .unwrap();
        let m = df.to_matrix(&["a", "s"], -1.0).unwrap();
        assert_eq!(m, vec![vec![1.0, -1.0], vec![-1.0, -1.0]]);
    }

    #[test]
    fn to_labels_binarizes() {
        let df = DataFrame::from_columns(vec![Column::from_i64("y", vec![0, 1, 2, 0])]).unwrap();
        assert_eq!(df.to_labels("y").unwrap(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn factorize_strings_assigns_first_seen_codes() {
        let mut df = sample();
        let books = df.factorize_strings();
        let c = df.column("c").unwrap();
        assert_eq!(c.get(0), Value::Int(0));
        assert_eq!(c.get(1), Value::Int(1));
        assert_eq!(c.get(2), Value::Int(0));
        assert_eq!(books["c"], vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn head_renders() {
        let df = sample();
        let text = df.head(2);
        assert!(text.contains('a'));
        assert!(text.lines().count() == 3);
    }

    #[test]
    fn row_access() {
        let df = sample();
        let r = df.row(1).unwrap();
        assert_eq!(r[0], Value::Int(2));
        assert!(df.row(10).is_err());
    }
}
