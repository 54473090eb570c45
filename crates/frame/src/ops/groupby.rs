//! The high-order *GroupbyThenAgg* operator:
//! `df.groupby(group_cols)[agg_col].transform(func)`.

use crate::column::{dense_table_limit, Column};
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::index::StableMap;
use crate::stats::sum_zero;
use crate::view::{KeyCodes, NumericView};

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
/// Rows are grouped by [`group_slots`], and each group's values fold in
/// row order into one accumulator per group. Output is a per-row lookup
/// of its own slot's aggregate, so slot numbering never leaks into
/// results — determinism holds by construction.
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
    let values = df.column(agg_col)?.numeric_view()?;
    let aggregates = slot_aggregates(func, &row_slots, n_groups, &values);
    Ok(Column::from_float_iter(
        out_name,
        row_slots
            .iter()
            .map(|slot| slot.and_then(|s| aggregates[s as usize])),
    ))
}

/// Each slot's `func` over the present `values` of its rows: the bits
/// [`AggFunc::evaluate`] gives over the slot's values in row order.
///
/// Accumulators stream in row order, one per slot, from the neutral
/// elements `evaluate` folds from: sums from `-0.0` (as `f64::sum`), `Min`
/// and `Max` from `±∞`. `Std` takes a second pass for the squared
/// deviations from each slot's mean. `Median` places the values in one
/// flat buffer, slot by slot in row order, and evaluates each slot's run.
fn slot_aggregates(
    func: AggFunc,
    slots: &[Option<u32>],
    n_slots: usize,
    values: &NumericView<'_>,
) -> Vec<Option<f64>> {
    let count = fold_slots(slots, n_slots, values, 0usize, |n, _, _| n + 1);
    let folded = match func {
        AggFunc::Count => return count.iter().map(|&n| Some(n as f64)).collect(),
        AggFunc::Median => return medians(slots, &count, values),
        AggFunc::Min => fold_slots(slots, n_slots, values, f64::INFINITY, |acc, _, v| {
            acc.min(v)
        }),
        AggFunc::Max => fold_slots(slots, n_slots, values, f64::NEG_INFINITY, |acc, _, v| {
            acc.max(v)
        }),
        AggFunc::Sum => fold_slots(slots, n_slots, values, sum_zero(), |acc, _, v| acc + v),
        AggFunc::Mean | AggFunc::Std => {
            let sums = fold_slots(slots, n_slots, values, sum_zero(), |acc, _, v| acc + v);
            let means: Vec<f64> = sums
                .iter()
                .zip(&count)
                .map(|(s, &n)| s / n as f64)
                .collect();
            if func == AggFunc::Mean {
                means
            } else {
                let devs = fold_slots(slots, n_slots, values, sum_zero(), |acc, s, v| {
                    acc + (v - means[s]).powi(2)
                });
                devs.iter()
                    .zip(&count)
                    .map(|(dev, &n)| (dev / n as f64).sqrt())
                    .collect()
            }
        }
    };
    folded
        .into_iter()
        .zip(&count)
        .map(|(v, &n)| (n > 0 && v.is_finite()).then_some(v))
        .collect()
}

/// One accumulator per slot, starting at `init`, folded with
/// `op(acc, slot, value)` over every row that has a slot and a present
/// value, in row order.
fn fold_slots<A: Copy>(
    slots: &[Option<u32>],
    n_slots: usize,
    values: &NumericView<'_>,
    init: A,
    mut op: impl FnMut(A, usize, f64) -> A,
) -> Vec<A> {
    let mut acc = vec![init; n_slots];
    // `enumerate` keeps the view iterator's own `fold` loop.
    values.iter().enumerate().for_each(|(i, v)| {
        if let (Some(v), Some(s)) = (v, slots[i]) {
            let s = s as usize;
            acc[s] = op(acc[s], s, v);
        }
    });
    acc
}

/// Each slot's median: the slots' values laid out in one buffer, slot
/// after slot, each slot's run in row order, then [`AggFunc::evaluate`]
/// over each run.
fn medians(slots: &[Option<u32>], count: &[usize], values: &NumericView<'_>) -> Vec<Option<f64>> {
    let mut next: Vec<usize> = count
        .iter()
        .scan(0, |start, &n| {
            let here = *start;
            *start += n;
            Some(here)
        })
        .collect();
    let mut flat = vec![0.0; count.iter().sum()];
    values.iter().enumerate().for_each(|(i, v)| {
        if let (Some(v), Some(s)) = (v, slots[i]) {
            flat[next[s as usize]] = v;
            next[s as usize] += 1;
        }
    });
    // After the fill each slot's cursor sits at the end of its run.
    next.iter()
        .zip(count)
        .map(|(&end, &n)| AggFunc::Median.evaluate(&flat[end - n..end]))
        .collect()
}

/// Give each row of `df` a dense group slot for its composite key over
/// `key_cols`, numbered in first-occurrence order; `None` where any key
/// cell is null. Returns the per-row slots and the number of groups.
///
/// Keys are tuples of [`Column::key_codes`], never rendered strings, so
/// two rows share a slot exactly when every key cell renders alike, and
/// no choice of cell text can make two distinct tuples meet. Slots are
/// built one key column at a time: each step maps `(slot, code)` to a new
/// slot, numbered as rows first show the pair, so the final numbering is
/// the tuples' first-occurrence order.
pub fn group_slots<S: AsRef<str>>(
    df: &DataFrame,
    key_cols: &[S],
) -> Result<(Vec<Option<u32>>, usize)> {
    let rows = df.n_rows();
    let mut slots = vec![Some(0); rows];
    let mut n_slots = usize::from(rows > 0);
    for col in key_cols {
        let key = df.column(col.as_ref())?.key_codes();
        n_slots = refine_slots(&mut slots, n_slots, &key);
    }
    Ok((slots, n_slots))
}

/// Split `n_slots` slots by one more key column: `(slot, code)` pairs get
/// new slots in first-occurrence order, through a dense table when there
/// are at most [`dense_table_limit`] pairs and a [`StableMap`] otherwise.
/// A null code nulls the row's slot. Returns the new number of slots.
fn refine_slots(slots: &mut [Option<u32>], n_slots: usize, key: &KeyCodes<'_>) -> usize {
    const UNSEEN: u32 = u32::MAX;
    let n_codes = key.n_codes() as u64;
    let pairs = n_slots as u64 * n_codes;
    if pairs <= dense_table_limit(slots.len()) {
        let mut slot_of = vec![UNSEEN; pairs as usize];
        let mut n = 0;
        assign_slots(slots, key, |pair| {
            let slot = &mut slot_of[pair as usize];
            if *slot == UNSEEN {
                *slot = n;
                n += 1;
            }
            *slot
        });
        n as usize
    } else {
        let mut slot_of: StableMap<u64, u32> = StableMap::new();
        assign_slots(slots, key, |pair| {
            let next = slot_of.len() as u32;
            *slot_of.entry_or_insert_with(pair, || next)
        });
        slot_of.len()
    }
}

/// Replace each row's slot by `slot_of(slot · n_codes + code)`, in row
/// order, or by `None` where the slot or the code is null.
fn assign_slots(
    slots: &mut [Option<u32>],
    key: &KeyCodes<'_>,
    mut slot_of: impl FnMut(u64) -> u32,
) {
    let n_codes = key.n_codes() as u64;
    for (slot, code) in slots.iter_mut().zip(key.iter()) {
        *slot = match (*slot, code) {
            (Some(s), Some(c)) => Some(slot_of(u64::from(s) * n_codes + u64::from(c))),
            _ => None,
        };
    }
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
