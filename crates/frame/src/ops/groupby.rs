//! The high-order *GroupbyThenAgg* operator:
//! `df.groupby(group_cols)[agg_col].transform(func)`.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::index::StableMap;
use crate::view::KeyCodes;

/// Aggregation functions the FM may choose for the high-order operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Arithmetic mean of non-null group members.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Count of non-null members.
    Count,
    /// Population standard deviation.
    Std,
    /// Median (lower median for even-sized groups, matching `statistics`).
    Median,
}

impl AggFunc {
    /// Name used in generated feature names and parsed from FM output.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Mean => "mean",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Std => "std",
            AggFunc::Median => "median",
        }
    }

    /// Parse from the FM's textual output (case-insensitive; accepts the
    /// aliases real models emit, e.g. "average" for mean).
    pub fn parse(text: &str) -> Option<AggFunc> {
        match text.trim().to_ascii_lowercase().as_str() {
            "mean" | "average" | "avg" => Some(AggFunc::Mean),
            "min" | "minimum" => Some(AggFunc::Min),
            "max" | "maximum" => Some(AggFunc::Max),
            "sum" | "total" => Some(AggFunc::Sum),
            "count" | "size" => Some(AggFunc::Count),
            "std" | "stddev" | "standard deviation" => Some(AggFunc::Std),
            "median" => Some(AggFunc::Median),
            _ => None,
        }
    }

    /// Evaluate over a group's non-null values.
    pub fn evaluate(self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return if self == AggFunc::Count {
                Some(0.0)
            } else {
                None
            };
        }
        let n = values.len() as f64;
        let v = match self {
            AggFunc::Mean => values.iter().sum::<f64>() / n,
            AggFunc::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Sum => values.iter().sum(),
            AggFunc::Count => n,
            AggFunc::Std => {
                let mean = values.iter().sum::<f64>() / n;
                (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
            }
            AggFunc::Median => {
                let mut sorted = values.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                sorted[(sorted.len() - 1) / 2]
            }
        };
        v.is_finite().then_some(v)
    }

    /// Every aggregation function, in a stable order.
    pub fn all() -> [AggFunc; 7] {
        [
            AggFunc::Mean,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Std,
            AggFunc::Median,
        ]
    }
}

/// Compute `df.groupby(group_cols)[agg_col].transform(func)` — a new column
/// aligned row-for-row with `df`, where each row carries its group's
/// aggregate. Rows with a null group key or (for non-count aggregates) an
/// all-null group get null.
///
/// Rows are grouped by [`group_slots`]. Output is a per-row lookup of its
/// own slot's aggregate, so slot numbering never leaks into results —
/// determinism holds by construction.
pub fn groupby_transform(
    df: &DataFrame,
    group_cols: &[&str],
    agg_col: &str,
    func: AggFunc,
    out_name: &str,
) -> Result<Column> {
    if group_cols.is_empty() {
        return Err(FrameError::InvalidArgument(
            "groupby requires at least one group column".into(),
        ));
    }
    let (row_slots, n_groups) = group_slots(df, group_cols)?;

    // One pass to bucket the aggregation values, one to aggregate.
    let values = df.column(agg_col)?.numeric_view()?;
    let mut group_values: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
    for (i, slot) in row_slots.iter().enumerate() {
        if let Some(s) = slot {
            if let Some(v) = values.get(i) {
                group_values[*s as usize].push(v);
            }
        }
    }
    let aggregates: Vec<Option<f64>> = group_values.iter().map(|vs| func.evaluate(vs)).collect();

    let data = row_slots
        .iter()
        .map(|slot| slot.and_then(|s| aggregates[s as usize]))
        .collect();
    Ok(Column::from_floats(out_name, data))
}

/// Give each row of `df` a dense group slot for its composite key over
/// `key_cols`, numbered in first-occurrence order; `None` where any key
/// cell is null. Returns the per-row slots and the number of groups.
///
/// Keys are tuples of [`Column::key_codes`], never rendered strings, so
/// two rows share a slot exactly when every key cell renders alike, and
/// no choice of cell text can make two distinct tuples meet. One key
/// column maps code → slot through a plain vector; several probe a
/// [`StableMap`] through one reused buffer, allocating only on first sight
/// of a group.
pub fn group_slots<S: AsRef<str>>(
    df: &DataFrame,
    key_cols: &[S],
) -> Result<(Vec<Option<u32>>, usize)> {
    let keys: Vec<KeyCodes<'_>> = key_cols
        .iter()
        .map(|c| df.column(c.as_ref()).map(Column::key_codes))
        .collect::<Result<_>>()?;
    if let [only] = keys.as_slice() {
        const UNSEEN: u32 = u32::MAX;
        let mut slot_for_code = vec![UNSEEN; only.n_codes()];
        let mut n_groups = 0u32;
        let slots = only
            .iter()
            .map(|code| {
                code.map(|c| {
                    let slot = &mut slot_for_code[c as usize];
                    if *slot == UNSEEN {
                        *slot = n_groups;
                        n_groups += 1;
                    }
                    *slot
                })
            })
            .collect();
        return Ok((slots, n_groups as usize));
    }
    let mut slot_of: StableMap<Vec<u32>, u32> = StableMap::new();
    let mut buf = Vec::with_capacity(keys.len());
    let slots = (0..df.n_rows())
        .map(|i| {
            buf.clear();
            for key in &keys {
                buf.push(key.get(i)?);
            }
            Some(match slot_of.get(buf.as_slice()) {
                Some(&s) => s,
                None => {
                    let s = slot_of.len() as u32;
                    slot_of.insert(buf.clone(), s);
                    s
                }
            })
        })
        .collect();
    Ok((slots, slot_of.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn claims_frame() -> DataFrame {
        // Mirrors the paper's F3: claim probability per car model.
        DataFrame::from_columns(vec![
            Column::from_str_slice("model", &["Civic", "Corolla", "Civic", "X5"]),
            Column::from_f64("claim", vec![1.0, 0.0, 0.0, 0.0]),
        ])
        .unwrap()
    }

    #[test]
    fn groupby_mean_matches_paper_example() {
        let df = claims_frame();
        let c = groupby_transform(&df, &["model"], "claim", AggFunc::Mean, "rate").unwrap();
        assert_eq!(c.get(0), Value::Float(0.5)); // Civic: (1+0)/2
        assert_eq!(c.get(1), Value::Float(0.0));
        assert_eq!(c.get(2), Value::Float(0.5));
        assert_eq!(c.get(3), Value::Float(0.0));
    }

    #[test]
    fn multi_column_groupby_key_is_unambiguous() {
        // ("ab","c") must not collide with ("a","bc"), and no separator
        // character may merge tuples either: joined with U+001F, both
        // ("x\u{1f}","y") and ("x","\u{1f}y") read "x\u{1f}\u{1f}y\u{1f}".
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("g1", &["ab", "a", "x\u{1f}", "x"]),
            Column::from_str_slice("g2", &["c", "bc", "y", "\u{1f}y"]),
            Column::from_f64("v", vec![1.0, 5.0, 1.0, 3.0]),
        ])
        .unwrap();
        let c = groupby_transform(&df, &["g1", "g2"], "v", AggFunc::Mean, "m").unwrap();
        assert_eq!(c.get(0), Value::Float(1.0));
        assert_eq!(c.get(1), Value::Float(5.0));
        assert_eq!(c.get(2), Value::Float(1.0));
        assert_eq!(c.get(3), Value::Float(3.0));
    }

    #[test]
    fn null_group_key_yields_null() {
        let df = DataFrame::from_columns(vec![
            Column::from_strs("g", vec![Some("a".into()), None]),
            Column::from_f64("v", vec![1.0, 2.0]),
        ])
        .unwrap();
        let c = groupby_transform(&df, &["g"], "v", AggFunc::Sum, "s").unwrap();
        assert_eq!(c.get(0), Value::Float(1.0));
        assert!(c.is_null(1));
    }

    #[test]
    fn count_handles_all_null_group() {
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("g", &["a", "a"]),
            Column::from_floats("v", vec![None, None]),
        ])
        .unwrap();
        let c = groupby_transform(&df, &["g"], "v", AggFunc::Count, "c").unwrap();
        assert_eq!(c.get(0), Value::Float(0.0));
        let m = groupby_transform(&df, &["g"], "v", AggFunc::Mean, "m").unwrap();
        assert!(m.is_null(0));
    }

    #[test]
    fn output_is_stable_across_runs_and_group_orderings() {
        // Regression for the HashMap->BTreeMap migration: group aggregation
        // state must not leak nondeterministic iteration order into output.
        // Many groups (beyond any small-map special case), every AggFunc,
        // repeated runs, and a permuted-row frame that contains the same
        // groups — per-row output must be a pure function of the row's key.
        let n = 64;
        let groups: Vec<String> = (0..n).map(|i| format!("g{:02}", i % 16)).collect();
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("g", &refs),
            Column::from_f64("v", values.clone()),
        ])
        .unwrap();
        for func in AggFunc::all() {
            let a = groupby_transform(&df, &["g"], "v", func, "out").unwrap();
            let b = groupby_transform(&df, &["g"], "v", func, "out").unwrap();
            for i in 0..n {
                assert_eq!(a.get(i), b.get(i), "{} row {i} differs", func.name());
            }
        }
        // Reversed row order: each row still gets its own group's aggregate.
        let rev_refs: Vec<&str> = refs.iter().rev().copied().collect();
        let rev_values: Vec<f64> = values.iter().rev().copied().collect();
        let rev = DataFrame::from_columns(vec![
            Column::from_str_slice("g", &rev_refs),
            Column::from_f64("v", rev_values),
        ])
        .unwrap();
        let fwd = groupby_transform(&df, &["g"], "v", AggFunc::Sum, "out").unwrap();
        let bwd = groupby_transform(&rev, &["g"], "v", AggFunc::Sum, "out").unwrap();
        for i in 0..n {
            assert_eq!(
                fwd.get(i),
                bwd.get(n - 1 - i),
                "group aggregate must not depend on row discovery order"
            );
        }
    }

    #[test]
    fn std_and_median() {
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("g", &["a", "a", "a", "a"]),
            Column::from_f64("v", vec![2.0, 4.0, 4.0, 6.0]),
        ])
        .unwrap();
        let s = groupby_transform(&df, &["g"], "v", AggFunc::Std, "s").unwrap();
        let got = s.to_f64()[0].unwrap();
        assert!((got - (2.0f64).sqrt()).abs() < 1e-12);
        let m = groupby_transform(&df, &["g"], "v", AggFunc::Median, "m").unwrap();
        assert_eq!(m.get(0), Value::Float(4.0));
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(AggFunc::parse("Average"), Some(AggFunc::Mean));
        assert_eq!(AggFunc::parse(" max "), Some(AggFunc::Max));
        assert_eq!(AggFunc::parse("standard deviation"), Some(AggFunc::Std));
        assert_eq!(AggFunc::parse("mode"), None);
    }

    #[test]
    fn empty_group_cols_rejected() {
        let df = claims_frame();
        assert!(groupby_transform(&df, &[], "claim", AggFunc::Mean, "x").is_err());
    }

    #[test]
    fn integer_group_keys_work() {
        let df = DataFrame::from_columns(vec![
            Column::from_i64("g", vec![1, 2, 1]),
            Column::from_f64("v", vec![10.0, 20.0, 30.0]),
        ])
        .unwrap();
        let c = groupby_transform(&df, &["g"], "v", AggFunc::Max, "m").unwrap();
        assert_eq!(c.get(0), Value::Float(30.0));
        assert_eq!(c.get(1), Value::Float(20.0));
    }
}
