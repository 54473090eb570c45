//! Executable transformation functions — what the function generator emits
//! instead of the Python lambdas of the original system.
//!
//! A [`TransformFunction`] is a closed description of a dataframe
//! transformation; [`apply`] executes it against a frame. The one
//! exception is [`TransformFunction::RowCompletion`], which has no closed
//! form and must consult the FM — with a distinct-value cache so the number
//! of FM calls is bounded by the key cardinality, not the row count
//! (the feature-level efficiency the paper's Figure 1 argues for).

use smartfeat_fm::FoundationModel;
use smartfeat_frame::ops::{
    binary_op, bucketize, date_part, frequency_encode, get_dummies, group_slots, groupby_transform,
    normalize, unary_map, AggFunc, BinaryOp, DatePart, NormKind, UnaryFn,
};
use smartfeat_frame::{Column, DataFrame};

use crate::error::{CoreError, Result};
use crate::prompts;

/// Bucket boundaries: explicit, or data-derived quartiles.
#[derive(Debug, Clone, PartialEq)]
pub enum Boundaries {
    /// Explicit ascending boundaries from domain knowledge.
    Given(Vec<f64>),
    /// Derive quartile boundaries from the column at execution time.
    Auto,
}

/// The transformation vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformFunction {
    /// Bucketize one numeric column.
    Bucketize {
        /// Input column.
        col: String,
        /// Boundaries.
        boundaries: Boundaries,
    },
    /// Normalize one numeric column.
    Normalize {
        /// Input column.
        col: String,
        /// Min-max or z-score.
        kind: NormKind,
    },
    /// Elementwise unary map.
    UnaryMap {
        /// Input column.
        col: String,
        /// Function.
        func: UnaryFn,
    },
    /// `scale * x + offset` (e.g. manufacturing year = 2024 − car age).
    Affine {
        /// Input column.
        col: String,
        /// Multiplier.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// One-hot dummies.
    Dummies {
        /// Input column.
        col: String,
        /// Cardinality guard.
        limit: usize,
    },
    /// Frequency encoding: each value maps to its occurrence fraction —
    /// the high-cardinality alternative to dummies.
    FrequencyEncode {
        /// Input column.
        col: String,
    },
    /// Date splitting into parts.
    DateSplit {
        /// Input column (string dates).
        col: String,
        /// Parts to extract.
        parts: Vec<DatePart>,
    },
    /// Binary arithmetic between two columns.
    Arithmetic {
        /// Left column.
        left: String,
        /// Right column.
        right: String,
        /// Operator.
        op: BinaryOp,
    },
    /// GroupbyThenAgg.
    GroupbyAgg {
        /// Group-key columns.
        group_cols: Vec<String>,
        /// Aggregated column.
        agg_col: String,
        /// Aggregation function.
        func: AggFunc,
    },
    /// Weighted combination of several columns, optionally standardized.
    WeightedIndex {
        /// Component columns.
        cols: Vec<String>,
        /// Weights aligned with `cols`.
        weights: Vec<f64>,
        /// Z-score components before combining.
        normalize: bool,
    },
    /// Row-level FM completion over the distinct values of the key columns.
    RowCompletion {
        /// Key columns serialized into each completion prompt.
        key_cols: Vec<String>,
        /// Knowledge table name (for the oracle's benefit; a real model
        /// ignores it).
        knowledge: String,
    },
}

impl TransformFunction {
    /// Columns this transform reads.
    pub fn input_columns(&self) -> Vec<&str> {
        match self {
            TransformFunction::Bucketize { col, .. }
            | TransformFunction::Normalize { col, .. }
            | TransformFunction::UnaryMap { col, .. }
            | TransformFunction::Affine { col, .. }
            | TransformFunction::Dummies { col, .. }
            | TransformFunction::FrequencyEncode { col }
            | TransformFunction::DateSplit { col, .. } => vec![col],
            TransformFunction::Arithmetic { left, right, .. } => vec![left, right],
            TransformFunction::GroupbyAgg {
                group_cols,
                agg_col,
                ..
            } => {
                let mut v: Vec<&str> = group_cols.iter().map(String::as_str).collect();
                v.push(agg_col);
                v
            }
            TransformFunction::WeightedIndex { cols, .. } => {
                cols.iter().map(String::as_str).collect()
            }
            TransformFunction::RowCompletion { key_cols, .. } => {
                key_cols.iter().map(String::as_str).collect()
            }
        }
    }

    /// True if execution requires an FM handle.
    pub fn needs_fm(&self) -> bool {
        matches!(self, TransformFunction::RowCompletion { .. })
    }
}

/// Execute a transform, producing the new column(s) named `out_name`
/// (dummies derive their own suffixed names).
///
/// `fm` is only consulted for [`TransformFunction::RowCompletion`];
/// `max_distinct` bounds its key cardinality (cost guard).
pub fn apply(
    t: &TransformFunction,
    df: &DataFrame,
    out_name: &str,
    fm: Option<&dyn FoundationModel>,
    max_distinct: usize,
) -> Result<Vec<Column>> {
    for c in t.input_columns() {
        if !df.has_column(c) {
            return Err(CoreError::MissingColumn(c.to_string()));
        }
    }
    match t {
        TransformFunction::Bucketize { col, boundaries } => {
            let column = df.column(col)?;
            let bounds = match boundaries {
                Boundaries::Given(b) => b.clone(),
                Boundaries::Auto => quartiles(column)?,
            };
            Ok(vec![bucketize(column, &bounds, out_name)?])
        }
        TransformFunction::Normalize { col, kind } => {
            Ok(vec![normalize(df.column(col)?, *kind, out_name)?])
        }
        TransformFunction::UnaryMap { col, func } => {
            Ok(vec![unary_map(df.column(col)?, *func, out_name)?])
        }
        TransformFunction::Affine { col, scale, offset } => {
            let xs = df.column(col)?.numeric_view()?;
            let data = xs.iter().map(|x| x.map(|v| scale * v + offset)).collect();
            Ok(vec![Column::from_floats(out_name, data)])
        }
        TransformFunction::Dummies { col, limit } => Ok(get_dummies(df.column(col)?, *limit)?),
        TransformFunction::FrequencyEncode { col } => {
            Ok(vec![frequency_encode(df.column(col)?, out_name)?])
        }
        TransformFunction::DateSplit { col, parts } => {
            let column = df.column(col)?;
            parts
                .iter()
                .map(|p| {
                    date_part(column, *p, &format!("{}_{}", out_name, p.name()))
                        .map_err(CoreError::from)
                })
                .collect()
        }
        TransformFunction::Arithmetic { left, right, op } => Ok(vec![binary_op(
            df.column(left)?,
            df.column(right)?,
            *op,
            out_name,
        )?]),
        TransformFunction::GroupbyAgg {
            group_cols,
            agg_col,
            func,
        } => {
            let groups: Vec<&str> = group_cols.iter().map(String::as_str).collect();
            Ok(vec![groupby_transform(
                df, &groups, agg_col, *func, out_name,
            )?])
        }
        TransformFunction::WeightedIndex {
            cols,
            weights,
            normalize: do_norm,
        } => {
            if cols.len() != weights.len() {
                return Err(CoreError::InvalidTransform(format!(
                    "weighted index has {} columns but {} weights",
                    cols.len(),
                    weights.len()
                )));
            }
            if cols.is_empty() {
                return Err(CoreError::InvalidTransform(
                    "weighted index needs at least one column".into(),
                ));
            }
            let mut component_values: Vec<Vec<Option<f64>>> = Vec::with_capacity(cols.len());
            for c in cols {
                let column = df.column(c)?;
                let values = if *do_norm {
                    normalize(column, NormKind::ZScore, "tmp")?.to_f64()
                } else {
                    column.numeric()?
                };
                component_values.push(values);
            }
            let n = df.n_rows();
            let data: Vec<Option<f64>> = (0..n)
                .map(|i| {
                    let mut acc = 0.0;
                    for (vals, w) in component_values.iter().zip(weights) {
                        match vals[i] {
                            Some(v) => acc += w * v,
                            None => return None,
                        }
                    }
                    Some(acc)
                })
                .collect();
            Ok(vec![Column::from_floats(out_name, data)])
        }
        TransformFunction::RowCompletion { key_cols, .. } => {
            let fm = fm.ok_or_else(|| {
                CoreError::RowCompletionUnavailable("no foundation model handle provided".into())
            })?;
            row_completion(df, key_cols, out_name, fm, max_distinct)
        }
    }
}

/// Quartile boundaries (25/50/75 %) over the non-null values.
fn quartiles(col: &Column) -> Result<Vec<f64>> {
    let mut vals: Vec<f64> = col.numeric()?.into_iter().flatten().collect();
    if vals.is_empty() {
        return Err(CoreError::InvalidTransform(format!(
            "cannot derive boundaries for all-null column {:?}",
            col.name()
        )));
    }
    vals.sort_by(|a, b| a.total_cmp(b));
    let q = |f: f64| vals[((vals.len() - 1) as f64 * f) as usize];
    // Sorted quartiles are ascending; dedup leaves a strictly-ascending,
    // possibly shorter, boundary list.
    let mut bounds = vec![q(0.25), q(0.5), q(0.75)];
    bounds.dedup();
    Ok(bounds)
}

/// Feature-level-efficient row completion: one FM call per *distinct* key
/// combination, values memoized, then broadcast to all rows.
///
/// Rows are grouped by key codes ([`group_slots`]); only the first row of
/// each distinct key is rendered, for its prompt.
fn row_completion(
    df: &DataFrame,
    key_cols: &[String],
    out_name: &str,
    fm: &dyn FoundationModel,
    max_distinct: usize,
) -> Result<Vec<Column>> {
    let (row_slots, n_distinct) = group_slots(df, key_cols)?;
    if n_distinct > max_distinct {
        return Err(CoreError::RowCompletionUnavailable(format!(
            "{n_distinct} distinct key combinations exceed the completion budget of {max_distinct}"
        )));
    }
    let cols: Vec<&Column> = key_cols
        .iter()
        .map(|c| df.column(c))
        .collect::<std::result::Result<_, _>>()?;
    // Slots are numbered in first-occurrence order, so walking rows and
    // keeping each slot's first sighting yields the keys in that order —
    // a pure function of row data, independent of thread count, which
    // keeps the FM-call sequence deterministic.
    let mut first_rows = Vec::with_capacity(n_distinct);
    for (i, slot) in row_slots.iter().enumerate() {
        if *slot == Some(first_rows.len() as u32) {
            first_rows.push(i);
        }
    }
    let mut values = Vec::with_capacity(n_distinct);
    for row in first_rows {
        let fields: Vec<(String, String)> = key_cols
            .iter()
            .zip(&cols)
            .map(|(k, col)| (k.clone(), col.get(row).render()))
            .collect();
        let prompt = prompts::row_completion(&fields, out_name);
        let response = fm.complete(&prompt).map_err(CoreError::from)?;
        values.push(response.text.trim().parse::<f64>().ok());
    }
    let data: Vec<Option<f64>> = row_slots
        .into_iter()
        .map(|slot| slot.and_then(|s| values[s as usize]))
        .collect();
    Ok(vec![Column::from_floats(out_name, data)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_fm::SimulatedFm;
    use smartfeat_frame::Value;

    fn frame() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_i64("Age", vec![18, 22, 40, 70]),
            Column::from_i64("Age_of_car", vec![6, 2, 8, 14]),
            Column::from_str_slice("City", &["SF", "LA", "SEA", "SF"]),
            Column::from_i64("Claim", vec![1, 0, 0, 1]),
        ])
        .unwrap()
    }

    #[test]
    fn bucketize_given() {
        let t = TransformFunction::Bucketize {
            col: "Age".into(),
            boundaries: Boundaries::Given(vec![21.0, 45.0, 65.0]),
        };
        let out = apply(&t, &frame(), "Bucketized_Age", None, 64).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), Value::Int(0));
        assert_eq!(out[0].get(3), Value::Int(3));
    }

    #[test]
    fn bucketize_auto_quartiles() {
        let t = TransformFunction::Bucketize {
            col: "Age".into(),
            boundaries: Boundaries::Auto,
        };
        let out = apply(&t, &frame(), "b", None, 64).unwrap();
        // Quartiles of a 4-value column give ≥ 3 distinct buckets.
        assert!(out[0].cardinality() >= 3, "{:?}", out[0]);
        assert_eq!(out[0].null_count(), 0);
    }

    #[test]
    fn affine_manufacturing_year() {
        // The paper's F2: manufacturing year = 2024 − age of car.
        let t = TransformFunction::Affine {
            col: "Age_of_car".into(),
            scale: -1.0,
            offset: 2024.0,
        };
        let out = apply(&t, &frame(), "Manufacturing_year", None, 64).unwrap();
        assert_eq!(out[0].get(0), Value::Float(2018.0));
        assert_eq!(out[0].get(3), Value::Float(2010.0));
    }

    #[test]
    fn groupby_claim_rate_per_city() {
        let t = TransformFunction::GroupbyAgg {
            group_cols: vec!["City".into()],
            agg_col: "Claim".into(),
            func: AggFunc::Mean,
        };
        let out = apply(&t, &frame(), "GroupBy_City_mean_Claim", None, 64).unwrap();
        assert_eq!(out[0].get(0), Value::Float(1.0)); // SF: both claims
        assert_eq!(out[0].get(1), Value::Float(0.0));
    }

    #[test]
    fn weighted_index_with_nulls_propagates() {
        let df = DataFrame::from_columns(vec![
            Column::from_floats("a", vec![Some(1.0), None]),
            Column::from_f64("b", vec![2.0, 3.0]),
        ])
        .unwrap();
        let t = TransformFunction::WeightedIndex {
            cols: vec!["a".into(), "b".into()],
            weights: vec![1.0, -1.0],
            normalize: false,
        };
        let out = apply(&t, &df, "idx", None, 64).unwrap();
        assert_eq!(out[0].get(0), Value::Float(-1.0));
        assert!(out[0].is_null(1));
    }

    #[test]
    fn weighted_index_shape_checks() {
        let t = TransformFunction::WeightedIndex {
            cols: vec!["Age".into()],
            weights: vec![1.0, 2.0],
            normalize: false,
        };
        assert!(matches!(
            apply(&t, &frame(), "x", None, 64),
            Err(CoreError::InvalidTransform(_))
        ));
    }

    #[test]
    fn missing_column_rejected() {
        let t = TransformFunction::Normalize {
            col: "Nope".into(),
            kind: NormKind::MinMax,
        };
        assert!(matches!(
            apply(&t, &frame(), "x", None, 64),
            Err(CoreError::MissingColumn(_))
        ));
    }

    #[test]
    fn row_completion_resolves_city_density_with_caching() {
        // The paper's F4. 4 rows but only 3 distinct cities ⇒ 3 FM calls.
        let fm = SimulatedFm::gpt35(0);
        let t = TransformFunction::RowCompletion {
            key_cols: vec!["City".into()],
            knowledge: "city_population_density".into(),
        };
        let out = apply(&t, &frame(), "City_population_density", Some(&fm), 64).unwrap();
        assert_eq!(out[0].get(0), Value::Float(7272.0)); // SF
        assert_eq!(out[0].get(1), Value::Float(3276.0)); // LA
        assert_eq!(out[0].get(2), Value::Float(3608.0)); // SEA
        assert_eq!(out[0].get(3), Value::Float(7272.0)); // SF again, cached
        assert_eq!(fm.meter().snapshot().calls, 3, "distinct-value caching");
    }

    #[test]
    fn row_completion_requires_fm() {
        let t = TransformFunction::RowCompletion {
            key_cols: vec!["City".into()],
            knowledge: "city_population_density".into(),
        };
        assert!(matches!(
            apply(&t, &frame(), "x", None, 64),
            Err(CoreError::RowCompletionUnavailable(_))
        ));
    }

    #[test]
    fn row_completion_distinct_budget_enforced() {
        let fm = SimulatedFm::gpt35(0);
        let t = TransformFunction::RowCompletion {
            key_cols: vec!["City".into()],
            knowledge: "city_population_density".into(),
        };
        assert!(matches!(
            apply(&t, &frame(), "x", Some(&fm), 2),
            Err(CoreError::RowCompletionUnavailable(_))
        ));
        assert_eq!(fm.meter().snapshot().calls, 0, "no calls spent over budget");
    }

    #[test]
    fn dummies_and_date_split() {
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("Sex", &["M", "F"]),
            Column::from_str_slice("D", &["2020-05-04", "2021-01-01"]),
        ])
        .unwrap();
        let d = apply(
            &TransformFunction::Dummies {
                col: "Sex".into(),
                limit: 10,
            },
            &df,
            "ignored",
            None,
            64,
        )
        .unwrap();
        assert_eq!(d.len(), 2);
        let parts = apply(
            &TransformFunction::DateSplit {
                col: "D".into(),
                parts: vec![DatePart::Year, DatePart::Month],
            },
            &df,
            "D",
            None,
            64,
        )
        .unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].name(), "D_year");
        assert_eq!(parts[0].get(0), Value::Int(2020));
    }

    #[test]
    fn input_columns_reported() {
        let t = TransformFunction::GroupbyAgg {
            group_cols: vec!["a".into(), "b".into()],
            agg_col: "v".into(),
            func: AggFunc::Max,
        };
        assert_eq!(t.input_columns(), vec!["a", "b", "v"]);
        assert!(!t.needs_fm());
        let rc = TransformFunction::RowCompletion {
            key_cols: vec!["c".into()],
            knowledge: "k".into(),
        };
        assert!(rc.needs_fm());
    }
}
