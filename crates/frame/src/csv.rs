//! Minimal CSV reader/writer with RFC-4180 quoting and type inference.
//!
//! Enough for the examples to load user datasets and for the harness to
//! dump generated feature matrices; not a general-purpose CSV library.

use crate::column::Column;
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::value::Value;

/// One lexed CSV field: its unescaped text plus whether any part of it was
/// quoted in the source. Quoting is the writer's dtype fidelity signal, so
/// the reader must carry it through to inference.
struct RawField {
    text: String,
    quoted: bool,
}

/// Parse CSV text (first row = header) into a frame, inferring column types.
///
/// Inference: a column becomes `Int` if every non-empty cell parses as i64,
/// else `Float` if every non-empty cell parses as f64, else `Bool` if every
/// cell is `true`/`false`, else `Str`. Empty cells are nulls. Quoted fields
/// are inference-exempt: a column containing any quoted cell is `Str`, so a
/// string column of numeric-looking values survives a round-trip. One
/// leading UTF-8 byte-order mark (as spreadsheet exports write) is not
/// part of the first header name.
pub fn read_csv_str(text: &str) -> Result<DataFrame> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut rows = parse_rows(text)?;
    if rows.is_empty() {
        return Err(FrameError::Csv("empty input".into()));
    }
    let header = rows.remove(0);
    let n_cols = header.len();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != n_cols {
            return Err(FrameError::Csv(format!(
                "row {} has {} fields, expected {n_cols}",
                i + 2,
                row.len()
            )));
        }
    }
    let mut df = DataFrame::new();
    for (c, name) in header.into_iter().enumerate() {
        let cells: Vec<&RawField> = rows.iter().map(|r| &r[c]).collect();
        df.add_column(infer_column(&name.text, &cells))?;
    }
    Ok(df)
}

fn infer_column(name: &str, cells: &[&RawField]) -> Column {
    // Any quoted cell pins the column to Str: the writer quotes string
    // cells precisely so numeric-looking text is not re-inferred. A quoted
    // empty field is an empty string, not a null.
    if cells.iter().any(|f| f.quoted) {
        return Column::from_strs(
            name,
            cells
                .iter()
                .map(|f| (f.quoted || !f.text.is_empty()).then(|| f.text.clone()))
                .collect(),
        );
    }
    let non_empty: Vec<&str> = cells
        .iter()
        .map(|f| f.text.as_str())
        .filter(|s| !s.is_empty())
        .collect();
    let all_int = !non_empty.is_empty() && non_empty.iter().all(|s| s.parse::<i64>().is_ok());
    if all_int {
        return Column::from_ints(
            name,
            cells.iter().map(|f| f.text.parse::<i64>().ok()).collect(),
        );
    }
    let all_float = !non_empty.is_empty() && non_empty.iter().all(|s| s.parse::<f64>().is_ok());
    if all_float {
        return Column::from_floats(
            name,
            cells.iter().map(|f| f.text.parse::<f64>().ok()).collect(),
        );
    }
    let all_bool = !non_empty.is_empty()
        && non_empty
            .iter()
            .all(|s| matches!(*s, "true" | "false" | "True" | "False"));
    if all_bool {
        return Column::from_bools(
            name,
            cells
                .iter()
                .map(|f| match f.text.as_str() {
                    "true" | "True" => Some(true),
                    "false" | "False" => Some(false),
                    _ => None,
                })
                .collect(),
        );
    }
    Column::from_strs(
        name,
        cells
            .iter()
            .map(|f| (!f.text.is_empty()).then(|| f.text.clone()))
            .collect(),
    )
}

/// Split CSV text into rows of unescaped fields, honoring RFC-4180 quotes
/// and remembering which fields were quoted.
fn parse_rows(text: &str) -> Result<Vec<Vec<RawField>>> {
    let mut rows = Vec::new();
    let mut row: Vec<RawField> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut any = false;
    let take_field = |field: &mut String, quoted: &mut bool| RawField {
        text: std::mem::take(field),
        quoted: std::mem::take(quoted),
    };
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => {
                    row.push(take_field(&mut field, &mut quoted));
                }
                '\r' => {} // tolerate CRLF
                '\n' => {
                    row.push(take_field(&mut field, &mut quoted));
                    rows.push(std::mem::take(&mut row));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(FrameError::Csv("unterminated quoted field".into()));
    }
    if any && (!field.is_empty() || quoted || !row.is_empty()) {
        row.push(take_field(&mut field, &mut quoted));
        rows.push(row);
    }
    Ok(rows)
}

/// Serialize a frame to CSV text (header + rows). Non-null cells of `Str`
/// columns are always quoted so the reader keeps them as strings even when
/// they look numeric; other cells are quoted only when RFC-4180 requires it.
/// Null cells are written as unquoted empties in every dtype, so they read
/// back as nulls.
pub fn write_csv_str(df: &DataFrame) -> String {
    let mut out = String::new();
    let names = df.column_names();
    out.push_str(&names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for i in 0..df.n_rows() {
        let cells: Vec<String> = df
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if c.dtype() == DType::Str && !matches!(v, Value::Null) {
                    force_quote(&v.render())
                } else {
                    quote(&v.render())
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        force_quote(s)
    } else {
        s.to_string()
    }
}

fn force_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Read a frame from a CSV file on disk.
pub fn read_csv_path(path: &std::path::Path) -> Result<DataFrame> {
    let text =
        std::fs::read_to_string(path).map_err(|e| FrameError::Csv(format!("{path:?}: {e}")))?;
    read_csv_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    /// Frame → CSV → frame gives back every column: names, dtypes and
    /// cells. The writer quotes string cells and the reader exempts
    /// quoted fields from inference, so no dtype may drift.
    fn assert_roundtrips(df: &DataFrame) {
        let back = read_csv_str(&write_csv_str(df)).unwrap();
        assert_eq!(back.columns(), df.columns());
    }

    #[test]
    fn read_infers_types() {
        let df = read_csv_str("a,b,c,d\n1,2.5,x,true\n3,,y,false\n").unwrap();
        assert_eq!(df.column("a").unwrap().dtype(), DType::Int);
        assert_eq!(df.column("b").unwrap().dtype(), DType::Float);
        assert_eq!(df.column("c").unwrap().dtype(), DType::Str);
        assert_eq!(df.column("d").unwrap().dtype(), DType::Bool);
        assert!(df.column("b").unwrap().is_null(1));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let df = read_csv_str("name,desc\nalice,\"hello, \"\"world\"\"\"\n").unwrap();
        assert_eq!(
            df.column("desc").unwrap().get(0),
            Value::Str("hello, \"world\"".into())
        );
    }

    #[test]
    fn crlf_tolerated() {
        let df = read_csv_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.n_cols(), 2);
        // So is a leading byte-order mark: the first header is `a`.
        let df = read_csv_str("\u{feff}a,b\r\n1,2\r\n").unwrap();
        assert_eq!(df.column_names(), ["a", "b"]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(read_csv_str("a,b\n1\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(read_csv_str("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv_str("").is_err());
    }

    #[test]
    fn write_then_read_roundtrips() {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("id", vec![1, 2]),
            Column::from_str_slice("txt", &["plain", "with,comma"]),
            Column::from_floats("v", vec![Some(1.5), None]),
        ])
        .unwrap();
        assert_roundtrips(&df);
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let df = read_csv_str("a\n1\n2").unwrap();
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn all_empty_column_is_str_nulls() {
        let df = read_csv_str("a,b\n1,\n2,\n").unwrap();
        // Column b has no non-empty cells ⇒ falls through to Str of nulls.
        assert_eq!(df.column("b").unwrap().null_count(), 2);
    }

    #[test]
    fn str_column_of_numeric_text_keeps_dtype() {
        // Zip-code shape: numeric-looking strings must survive a round
        // trip as Str, not come back as Int.
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("zip", &["02139", "94107"]),
            Column::from_i64("n", vec![1, 2]),
        ])
        .unwrap();
        let text = write_csv_str(&df);
        let back = read_csv_str(&text).unwrap();
        assert_eq!(back.column("zip").unwrap().dtype(), DType::Str);
        assert_eq!(
            back.column("zip").unwrap().get(0),
            Value::Str("02139".into())
        );
        assert_eq!(back.column("n").unwrap().dtype(), DType::Int);
        assert_roundtrips(&df);
    }

    #[test]
    fn quoted_numeric_field_is_inference_exempt() {
        let df = read_csv_str("a,b\n\"1\",1\n\"2\",2\n").unwrap();
        assert_eq!(df.column("a").unwrap().dtype(), DType::Str);
        assert_eq!(df.column("b").unwrap().dtype(), DType::Int);
    }

    #[test]
    fn str_nulls_and_empty_strings_roundtrip_distinctly() {
        // A null Str cell writes as an unquoted empty; an empty-string
        // cell writes as a quoted empty. Both must read back unchanged.
        let df = DataFrame::from_columns(vec![Column::from_strs(
            "s",
            vec![Some("x".into()), None, Some(String::new())],
        )])
        .unwrap();
        let text = write_csv_str(&df);
        let back = read_csv_str(&text).unwrap();
        let col = back.column("s").unwrap();
        assert_eq!(col.dtype(), DType::Str);
        assert!(col.is_null(1));
        assert_eq!(col.get(2), Value::Str(String::new()));
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn unquoted_numeric_text_drifts_but_written_text_does_not() {
        // Hand-built CSV without quotes collapses numeric-looking strings
        // to Int (and drops the leading zero), exactly the drift the
        // writer's quoting prevents.
        let df = DataFrame::from_columns(vec![Column::from_str_slice("zip", &["02139"])]).unwrap();
        let lossy = read_csv_str("zip\n02139\n").unwrap();
        assert_eq!(lossy.column("zip").unwrap().dtype(), DType::Int);
        assert_eq!(lossy.column("zip").unwrap().get(0), Value::Int(2139));
        assert_roundtrips(&df);
    }

    #[test]
    fn bool_and_float_dtypes_roundtrip() {
        let df = DataFrame::from_columns(vec![
            Column::from_bools("b", vec![Some(true), None, Some(false)]),
            Column::from_floats("f", vec![Some(1.0), Some(2.5), None]),
        ])
        .unwrap();
        assert_roundtrips(&df);
    }
}
