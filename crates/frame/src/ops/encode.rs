//! Categorical encodings: one-hot dummies and frequency encoding.

use crate::column::Column;
use crate::error::{FrameError, Result};

/// Default cap on dummy expansion; columns with more distinct values than
/// this are considered high-cardinality (the paper's feature-evaluation
/// step drops dummies derived from such columns).
pub fn one_hot_limit() -> usize {
    20
}

/// Pandas-style `get_dummies`: one 0/1 column per distinct non-null value,
/// named `{col}_{value}`, in sorted value order. Null rows are 0 in every
/// dummy (pandas default `dummy_na=False`).
///
/// `max_cardinality` guards against exploding a high-cardinality column;
/// pass [`one_hot_limit()`] for the paper's default behaviour.
pub fn get_dummies(col: &Column, max_cardinality: usize) -> Result<Vec<Column>> {
    let card = col.cardinality();
    if card == 0 {
        return Err(FrameError::InvalidArgument(format!(
            "get_dummies on all-null column {:?}",
            col.name()
        )));
    }
    if card > max_cardinality {
        return Err(FrameError::InvalidArgument(format!(
            "get_dummies on {:?} would create {card} columns (limit {max_cardinality})",
            col.name()
        )));
    }
    // Sorted value order is the naming contract (pandas `get_dummies`).
    let values: Vec<String> = col.value_counts().into_keys().collect();
    let mut out = Vec::with_capacity(values.len());
    if let Some((codes, validity, dict)) = col.dict_parts() {
        // Dictionary fast path: one code comparison per row, no strings.
        for v in values {
            let target = dict.code_of(&v);
            out.push(Column::from_int_iter(
                format!("{}_{}", col.name(), sanitize(&v)),
                codes
                    .iter()
                    .zip(validity.iter())
                    .map(|(&c, ok)| Some(i64::from(ok && Some(c) == target))),
            ));
        }
        return Ok(out);
    }
    let keys = col.keys_view();
    for v in values {
        out.push(Column::from_int_iter(
            format!("{}_{}", col.name(), sanitize(&v)),
            keys.iter().map(|k| Some(i64::from(k == Some(v.as_str())))),
        ));
    }
    Ok(out)
}

/// Frequency encoding: each value maps to its occurrence fraction among
/// non-null cells. A common alternative to dummies for high-cardinality
/// categoricals. Counts are kept per [`Column::key_codes`] code, so no cell
/// is rendered.
pub fn frequency_encode(col: &Column, out_name: &str) -> Result<Column> {
    let keys = col.key_codes();
    let mut per_code = vec![0usize; keys.n_codes()];
    let mut total = 0usize;
    for c in keys.iter().flatten() {
        per_code[c as usize] += 1;
        total += 1;
    }
    if total == 0 {
        return Err(FrameError::InvalidArgument(format!(
            "frequency_encode on all-null column {:?}",
            col.name()
        )));
    }
    Ok(Column::from_float_iter(
        out_name,
        keys.iter()
            .map(|k| k.map(|c| per_code[c as usize] as f64 / total as f64)),
    ))
}

/// Make a categorical value safe for use inside a column name.
fn sanitize(value: &str) -> String {
    value
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn dummies_basic() {
        let c = Column::from_str_slice("sex", &["M", "F", "M"]);
        let d = get_dummies(&c, 10).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name(), "sex_F");
        assert_eq!(d[1].name(), "sex_M");
        assert_eq!(d[1].get(0), Value::Int(1));
        assert_eq!(d[1].get(1), Value::Int(0));
    }

    #[test]
    fn dummies_null_rows_all_zero() {
        let c = Column::from_strs("g", vec![Some("a".into()), None]);
        let d = get_dummies(&c, 10).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].get(1), Value::Int(0));
    }

    #[test]
    fn dummies_cardinality_guard() {
        let vals: Vec<String> = (0..25).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
        let c = Column::from_str_slice("id", &refs);
        assert!(get_dummies(&c, one_hot_limit()).is_err());
    }

    #[test]
    fn dummies_all_null_rejected() {
        let c = Column::from_strs("g", vec![None, None]);
        assert!(get_dummies(&c, 10).is_err());
    }

    #[test]
    fn dummy_names_sanitized() {
        let c = Column::from_str_slice("city", &["San Francisco"]);
        let d = get_dummies(&c, 10).unwrap();
        assert_eq!(d[0].name(), "city_San_Francisco");
    }

    #[test]
    fn frequency_encoding_fractions() {
        let c = Column::from_str_slice("g", &["a", "a", "b", "a"]);
        let f = frequency_encode(&c, "g_freq").unwrap();
        assert_eq!(f.get(0), Value::Float(0.75));
        assert_eq!(f.get(2), Value::Float(0.25));
    }

    #[test]
    fn frequency_encoding_ignores_nulls_in_denominator() {
        let c = Column::from_strs("g", vec![Some("a".into()), None, Some("a".into())]);
        let f = frequency_encode(&c, "f").unwrap();
        assert_eq!(f.get(0), Value::Float(1.0));
        assert!(f.is_null(1));
    }

    #[test]
    fn dummies_work_on_integer_codes() {
        let c = Column::from_i64("code", vec![2, 7, 2]);
        let d = get_dummies(&c, 10).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name(), "code_2");
    }
}
