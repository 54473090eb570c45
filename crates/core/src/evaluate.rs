//! Feature evaluation (paper Section 3.3, "Evaluating generated features"):
//! a verification mechanism that rejects low-quality generated columns —
//! highly null, single-valued, or duplicating an existing column.
//! (High-cardinality dummy expansion is rejected earlier, at transform
//! execution, by the cardinality guard.)

use smartfeat_frame::stats::{PearsonProbe, ProbeVerdict, CROSS_LANES};
use smartfeat_frame::{Column, DataFrame};

use crate::report::SkipReason;

/// Fewest overlapping rows the affine-duplicate check accepts as evidence.
const MIN_PAIRS: usize = 3;

/// Pearson's `r` above which a column is a positive-affine duplicate.
const DUPLICATE_R: f64 = 0.9999;

/// Null fraction above which a generated column is rejected.
pub const MAX_NULL_FRACTION: f64 = 0.5;

/// Check one freshly-generated column against the frame it would join.
/// Returns the reason to skip it, or `None` if it passes.
///
/// The duplicate scan walks the existing columns left to right, on the
/// calling thread, and reports the **lowest-index** match. When the
/// candidate and an existing column are both numeric without nulls, the
/// verdict comes from [`PearsonProbe::exceeds`]: both columns' moments
/// are cached on the columns, so the pair costs one cross-term chain,
/// read [`CROSS_LANES`] existing columns per row pass, and the chain stops
/// once the rows left cannot make the pair a duplicate. Only the verdict
/// is kept, never `r`. Any other pair takes the general path, which
/// materializes the candidate's `f64` cells on first use.
pub fn check_new_column(col: &Column, df: &DataFrame) -> Option<SkipReason> {
    let null_fraction = col.null_fraction();
    if null_fraction > MAX_NULL_FRACTION {
        return Some(SkipReason::HighNull(null_fraction));
    }
    if col.is_constant() {
        return Some(SkipReason::SingleValued);
    }
    if df.has_column(col.name()) {
        return Some(SkipReason::Duplicate(col.name().to_string()));
    }
    // A column that is an exact or affine duplicate of an existing one
    // adds no information (identity transforms, min-max/z-score rescales
    // of a column that is still present) — it only double-counts evidence
    // for models like naive Bayes.
    let existing = df.columns();
    let complete = |e: &Column| e.len() == col.len() && e.complete_moments().is_some();
    let lanes: Vec<&Column> = existing.iter().filter(|e| complete(e)).collect();
    let probe = if lanes.is_empty() {
        None
    } else {
        PearsonProbe::of(col)
    };
    let mut numeric: Option<Vec<Option<f64>>> = None;
    let mut block: Vec<ProbeVerdict> = Vec::new();
    let mut lane = 0;
    existing.iter().find_map(|e| {
        let duplicate = match &probe {
            Some(probe) if complete(e) => {
                // The next block of lanes is probed when the scan reaches
                // its first column, so a match wastes at most one block.
                if lane % CROSS_LANES == 0 {
                    let end = (lane + CROSS_LANES).min(lanes.len());
                    block = probe.exceeds(&lanes[lane..end], MIN_PAIRS, DUPLICATE_R);
                }
                let exceeds = block.get(lane % CROSS_LANES).is_some_and(|v| v.exceeds);
                lane += 1;
                exceeds || numeric_identical(col, e)
            }
            _ => {
                let numeric = col
                    .is_numeric()
                    .then(|| numeric.get_or_insert_with(|| col.to_f64()).as_slice());
                duplicate_of(col, numeric, e)
            }
        };
        duplicate.then(|| SkipReason::Duplicate(e.name().to_string()))
    })
}

/// Is `col` an exact or positive-affine duplicate of `existing`?
/// `numeric` is `col`'s numeric form, present when `col` is numeric.
fn duplicate_of(col: &Column, numeric: Option<&[Option<f64>]>, existing: &Column) -> bool {
    match (numeric, existing.numeric_view()) {
        // Both numeric: equal as f64 with aligned nulls (Int-vs-Float
        // storage of the same values matches). Positive-affine rescales
        // of a surviving column (min-max / z-score copies) only
        // double-count evidence; r = +1 with ≥ 3 overlapping points
        // identifies them. Negative-affine derivations (e.g. the paper's
        // manufacturing year = 2024 − car age) re-express the quantity on
        // a meaningful scale and are kept, as the paper does.
        (Some(a), Ok(b)) => {
            // The pairs enumerate the view rather than zip it, so both
            // of pearson's folds run the view's own monomorphic loop.
            (a.len() == b.len() && a.iter().copied().eq(b.iter()))
                || smartfeat_frame::stats::pearson_pairs(
                    b.iter()
                        .enumerate()
                        .filter_map(|(i, y)| Some((a.get(i).copied().flatten()?, y?))),
                    MIN_PAIRS,
                )
                .is_some_and(|r| r > DUPLICATE_R)
        }
        _ => rendered_identical(col, existing),
    }
}

/// Equal as `f64`, row by row: two numeric columns without nulls of the
/// same length (Int-vs-Float storage of the same values matches).
fn numeric_identical(a: &Column, b: &Column) -> bool {
    match (a.numeric_view(), b.numeric_view()) {
        (Ok(a), Ok(b)) => a.iter().eq(b.iter()),
        _ => false,
    }
}

/// Row-wise equality of rendered cells with aligned nulls: the path for
/// a `Str` side, where Str `"1"` must still match Int `1`.
fn rendered_identical(a: &Column, b: &Column) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| match (a.is_null(i), b.is_null(i)) {
            (true, true) => true,
            (false, false) => a.get(i).render() == b.get(i).render(),
            _ => false,
        })
}

#[cfg(test)]
mod oracle {
    //! The duplicate scan as it was before it read packed views: both
    //! sides converted per existing column, the pairs collected for
    //! `pearson`, and identity checked cell by cell through `get`. Kept as
    //! the reference the view-based scan must agree with.

    use smartfeat_frame::{Column, DataFrame};

    use crate::report::SkipReason;

    /// `check_new_column` with the reference scan, serial.
    pub(super) fn check(col: &Column, df: &DataFrame) -> Option<SkipReason> {
        let null_fraction = col.null_fraction();
        if null_fraction > super::MAX_NULL_FRACTION {
            return Some(SkipReason::HighNull(null_fraction));
        }
        if col.is_constant() {
            return Some(SkipReason::SingleValued);
        }
        if df.has_column(col.name()) {
            return Some(SkipReason::Duplicate(col.name().to_string()));
        }
        df.columns().iter().find_map(|e| duplicate_of(col, e))
    }

    fn duplicate_of(col: &Column, existing: &Column) -> Option<SkipReason> {
        if columns_identical(col, existing) {
            return Some(SkipReason::Duplicate(existing.name().to_string()));
        }
        if existing.is_numeric() && col.is_numeric() {
            let a = col.to_f64();
            let b = existing.to_f64();
            let complete = a
                .iter()
                .zip(&b)
                .filter(|(x, y)| x.is_some() && y.is_some())
                .count();
            if complete >= 3 {
                if let Some(r) = smartfeat_frame::stats::pearson(&a, &b) {
                    if r > 0.9999 {
                        return Some(SkipReason::Duplicate(existing.name().to_string()));
                    }
                }
            }
        }
        None
    }

    fn columns_identical(a: &Column, b: &Column) -> bool {
        if a.len() != b.len() {
            return false;
        }
        for i in 0..a.len() {
            match (a.is_null(i), b.is_null(i)) {
                (true, true) => continue,
                (false, false) => {
                    let av = a.get(i);
                    let bv = b.get(i);
                    let equal = match (av.as_f64(), bv.as_f64()) {
                        (Some(x), Some(y)) => x == y,
                        _ => av.render() == bv.render(),
                    };
                    if !equal {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_frame::DataFrame;
    use smartfeat_rng::{check, Rng};

    fn base() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_i64("a", vec![1, 2, 3, 4]),
            Column::from_f64("b", vec![0.5, 1.0, 1.5, 2.0]),
        ])
        .unwrap()
    }

    #[test]
    fn passes_a_good_column() {
        let c = Column::from_f64("new", vec![9.0, 1.0, 7.0, 3.0]);
        assert_eq!(check_new_column(&c, &base()), None);
    }

    #[test]
    fn rejects_positive_affine_duplicate_keeps_negated() {
        // 2x + 1 of column "a": same information, rescaled.
        let c = Column::from_f64("a_scaled", vec![3.0, 5.0, 7.0, 9.0]);
        assert!(matches!(
            check_new_column(&c, &base()),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
        // 2024 − a (the paper's F2 shape): kept.
        let f2 = Column::from_f64("year", vec![2023.0, 2022.0, 2021.0, 2020.0]);
        assert_eq!(check_new_column(&f2, &base()), None);
    }

    #[test]
    fn rejects_high_null() {
        let c = Column::from_floats("new", vec![Some(1.0), None, None, None]);
        assert!(matches!(
            check_new_column(&c, &base()),
            Some(SkipReason::HighNull(f)) if f == 0.75
        ));
    }

    #[test]
    fn rejects_constant() {
        let c = Column::from_i64("new", vec![7, 7, 7, 7]);
        assert_eq!(
            check_new_column(&c, &base()),
            Some(SkipReason::SingleValued)
        );
    }

    #[test]
    fn rejects_name_clash() {
        let c = Column::from_f64("a", vec![9.0, 8.0, 7.0, 6.0]);
        assert!(matches!(
            check_new_column(&c, &base()),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
    }

    #[test]
    fn rejects_value_duplicate_across_storage_types() {
        // Same values as integer column "a" but stored as floats.
        let c = Column::from_f64("a_copy", vec![1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            check_new_column(&c, &base()),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
    }

    #[test]
    fn null_alignment_matters_for_duplicates() {
        let df = DataFrame::from_columns(vec![Column::from_floats(
            "x",
            vec![Some(1.0), None, Some(3.0)],
        )])
        .unwrap();
        let same = Column::from_floats("y", vec![Some(1.0), None, Some(3.0)]);
        assert!(matches!(
            check_new_column(&same, &df),
            Some(SkipReason::Duplicate(_))
        ));
        // Only two overlapping pairs with "x": too little evidence for the
        // affine-duplicate check, so the column passes.
        let different = Column::from_floats("z", vec![Some(1.0), Some(9.0), Some(2.0)]);
        assert_eq!(check_new_column(&different, &df), None);
    }

    #[test]
    fn scan_reports_lowest_index_duplicate() {
        // Two existing columns both duplicate the candidate; the verdict
        // names the leftmost one at every thread count.
        let df = DataFrame::from_columns(vec![
            Column::from_i64("first", vec![1, 2, 3, 4]),
            Column::from_i64("second", vec![1, 2, 3, 4]),
        ])
        .unwrap();
        let c = Column::from_i64("copy", vec![1, 2, 3, 4]);
        for threads in [1usize, 2, 4, 8] {
            assert!(matches!(
                smartfeat_par::within(threads, || check_new_column(&c, &df)),
                Some(SkipReason::Duplicate(n)) if n == "first"
            ));
        }
    }

    /// The view-based scan's verdict equals the reference scan's at 1, 2
    /// and 4 threads.
    fn assert_matches_oracle(col: &Column, df: &DataFrame) -> Option<SkipReason> {
        let expected = oracle::check(col, df);
        for threads in [1usize, 2, 4] {
            assert_eq!(
                smartfeat_par::within(threads, || check_new_column(col, df)),
                expected,
                "candidate {col:?} at {threads} threads against {df:?}"
            );
        }
        expected
    }

    fn frame(columns: Vec<Column>) -> DataFrame {
        DataFrame::from_columns(columns).unwrap()
    }

    #[test]
    fn scan_agrees_with_oracle_on_named_shapes() {
        let ints = || Column::from_ints("i", vec![Some(1), Some(0), Some(1), Some(1)]);
        let dup = |c: &Column, df: &DataFrame| {
            matches!(assert_matches_oracle(c, df), Some(SkipReason::Duplicate(_)))
        };
        // Int vs Float storage of the same values.
        let floats = Column::from_floats("f", vec![Some(1.0), Some(0.0), Some(1.0), Some(1.0)]);
        assert!(dup(&floats, &frame(vec![ints()])));
        // Bool vs Int.
        let bools = Column::from_bools("b", vec![Some(true), Some(false), Some(true), Some(true)]);
        assert!(dup(&bools, &frame(vec![ints()])));
        // Str "1" vs Int 1 matches; Str "1.0" vs Int 1 does not, and a
        // Str side never reaches the correlation check.
        let text = |s: [&str; 4]| Column::from_str_slice("s", &s);
        assert!(dup(&text(["1", "0", "1", "1"]), &frame(vec![ints()])));
        assert!(!dup(
            &text(["1.0", "0.0", "1.0", "1.0"]),
            &frame(vec![ints()])
        ));
        // Misaligned nulls fail the identity check; three overlapping
        // pairs on the line y = x still make an affine duplicate, two do
        // not.
        let x = Column::from_floats("x", vec![Some(1.0), None, Some(3.0), Some(5.0), Some(2.0)]);
        let y = Column::from_floats("y", vec![Some(1.0), Some(3.0), None, Some(5.0), Some(2.0)]);
        assert!(dup(&y, &frame(vec![x.clone()])));
        let y1 = Column::from_floats("y1", vec![Some(1.0), Some(3.0), None, Some(5.0), None]);
        assert!(!dup(&y1, &frame(vec![x.clone()])));
        // Fewer than three overlapping pairs: no correlation verdict.
        let sparse = Column::from_floats("z", vec![Some(2.0), None, None, Some(10.0), Some(9.0)]);
        let short = Column::from_floats("w", vec![None, Some(7.0), Some(1.0), Some(5.0), None]);
        assert!(!dup(&short, &frame(vec![sparse])));
        // Positive vs negative affine copies.
        let up = Column::from_floats(
            "up",
            vec![Some(3.0), None, Some(7.0), Some(11.0), Some(5.0)],
        );
        let down = Column::from_floats(
            "down",
            vec![Some(-1.0), None, Some(-5.0), Some(-9.0), Some(-3.0)],
        );
        assert!(dup(&up, &frame(vec![x.clone()])));
        assert!(!dup(&down, &frame(vec![x.clone()])));
        // Two matching existing columns: the lowest index is named.
        let twins = frame(vec![
            Column::from_i64("p", vec![4, 1, 3]),
            Column::from_f64("q", vec![4.0, 1.0, 3.0]),
            Column::from_f64("r", vec![8.0, 2.0, 6.0]),
        ]);
        let copy = Column::from_f64("copy", vec![8.0, 2.0, 6.0]);
        assert_eq!(
            assert_matches_oracle(&copy, &twins),
            Some(SkipReason::Duplicate("p".into()))
        );
    }

    /// One column holding `base` in a randomly chosen representation.
    fn random_copy(rng: &mut Rng, name: &str, base: &[Option<i64>]) -> Column {
        let drop_nulls = |rng: &mut Rng| -> Vec<Option<i64>> {
            base.iter()
                .map(|v| v.filter(|_| rng.gen_bool(0.85)))
                .collect()
        };
        match rng.gen_range(0..8usize) {
            0 => Column::from_ints(name, base.to_vec()),
            1 => Column::from_floats(name, base.iter().map(|v| v.map(|x| x as f64)).collect()),
            2 => Column::from_bools(name, base.iter().map(|v| v.map(|x| x != 0)).collect()),
            3 => Column::from_strs(
                name,
                base.iter().map(|v| v.map(|x| x.to_string())).collect(),
            ),
            4 => {
                let (a, b) = (rng.gen_range(0.5..4.0), rng.gen_range(-10.0..10.0));
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let affine = base.iter().map(|v| v.map(|x| sign * a * x as f64 + b));
                Column::from_floats(name, affine.collect())
            }
            5 => Column::from_ints(name, drop_nulls(rng)),
            6 => Column::from_floats(
                name,
                drop_nulls(rng)
                    .iter()
                    .map(|v| v.map(|x| x as f64))
                    .collect(),
            ),
            _ => {
                let noise = base
                    .iter()
                    .map(|_| rng.gen_bool(0.9).then(|| rng.gen_range(-3..4i64) as f64));
                Column::from_floats(name, noise.collect())
            }
        }
    }

    #[test]
    fn scan_agrees_with_oracle_on_random_frames() {
        let (mut duplicates, mut passes) = (0, 0);
        check::cases(400, |rng| {
            let rows = rng.gen_range(2..12usize);
            let bases: Vec<Vec<Option<i64>>> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let hi: i64 = if rng.gen_bool(0.5) { 2 } else { 6 };
                    (0..rows)
                        .map(|_| rng.gen_bool(0.85).then(|| rng.gen_range(-1..hi)))
                        .collect()
                })
                .collect();
            let existing = (0..rng.gen_range(1..6usize))
                .map(|i| {
                    let base = &bases[rng.gen_range(0..bases.len())];
                    random_copy(rng, &format!("c{i}"), base)
                })
                .collect();
            let df = frame(existing);
            let base = &bases[rng.gen_range(0..bases.len())];
            let cand = random_copy(rng, "cand", base);
            match assert_matches_oracle(&cand, &df) {
                Some(SkipReason::Duplicate(_)) => duplicates += 1,
                None => passes += 1,
                Some(_) => {}
            }
        });
        // Both verdicts occur often enough for the agreement to mean
        // something.
        assert!(duplicates >= 50 && passes >= 50, "{duplicates} / {passes}");
    }

    /// One column holding `base` in a randomly chosen representation,
    /// mostly without nulls: Int, Float and Bool storage, affine copies,
    /// unrelated noise, a constant, and (for the general path) a copy
    /// with nulls or as `Str`.
    fn random_complete_copy(rng: &mut Rng, name: &str, base: &[i64]) -> Column {
        let rows = base.len();
        match rng.gen_range(0..9usize) {
            0 => Column::from_i64(name, base.to_vec()),
            1 => Column::from_f64(name, base.iter().map(|&x| x as f64).collect()),
            2 => Column::from_bools(name, base.iter().map(|&x| Some(x > 0)).collect()),
            3 | 4 => {
                let (a, b) = (rng.gen_range(0.5..4.0), rng.gen_range(-10.0..10.0));
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                Column::from_f64(
                    name,
                    base.iter().map(|&x| sign * a * x as f64 + b).collect(),
                )
            }
            5 => Column::from_f64(name, (0..rows).map(|_| rng.gen_range(-3.0..3.0)).collect()),
            6 => Column::from_i64(name, vec![rng.gen_range(-2..3i64); rows]),
            7 => Column::from_floats(
                name,
                base.iter()
                    .map(|&x| rng.gen_bool(0.95).then_some(x as f64))
                    .collect(),
            ),
            _ => Column::from_strs(name, base.iter().map(|x| Some(x.to_string())).collect()),
        }
    }

    #[test]
    fn scan_agrees_with_oracle_on_complete_frames() {
        let (mut duplicates, mut passes) = (0, 0);
        let (mut fast, mut general) = (0, 0);
        check::cases(160, |rng| {
            let rows = if rng.gen_bool(0.3) {
                rng.gen_range(3..8usize)
            } else {
                rng.gen_range(3..601usize)
            };
            let bases: Vec<Vec<i64>> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let hi: i64 = if rng.gen_bool(0.5) { 2 } else { 50 };
                    (0..rows).map(|_| rng.gen_range(-1..hi)).collect()
                })
                .collect();
            let existing: Vec<Column> = (0..rng.gen_range(1..21usize))
                .map(|i| {
                    let base = &bases[rng.gen_range(0..bases.len())];
                    random_complete_copy(rng, &format!("c{i}"), base)
                })
                .collect();
            let base = &bases[rng.gen_range(0..bases.len())];
            let cand = random_complete_copy(rng, "cand", base);
            // Which path each pair takes, from the inputs alone.
            let complete = |c: &Column| c.complete_moments().is_some();
            for e in &existing {
                if complete(&cand) && complete(e) {
                    fast += 1;
                } else {
                    general += 1;
                }
            }
            match assert_matches_oracle(&cand, &frame(existing)) {
                Some(SkipReason::Duplicate(_)) => duplicates += 1,
                None => passes += 1,
                Some(_) => {}
            }
        });
        assert!(duplicates >= 30 && passes >= 30, "{duplicates} / {passes}");
        assert!(fast >= 500 && general >= 300, "{fast} / {general}");
    }

    #[test]
    fn re_added_column_gets_its_own_verdict() {
        let x = Column::from_f64("x", vec![1.0, 4.0, 2.0, 8.0]);
        let mut df = frame(vec![Column::from_i64("k", vec![3, 1, 4, 1]), x]);
        let cand = Column::from_f64("cand", vec![3.0, 9.0, 5.0, 17.0]);
        assert_eq!(
            assert_matches_oracle(&cand, &df),
            Some(SkipReason::Duplicate("x".into()))
        );
        df.drop_column("x").unwrap();
        df.add_column(Column::from_f64("x", vec![8.0, 1.0, 6.0, 2.0]))
            .unwrap();
        assert_eq!(assert_matches_oracle(&cand, &df), None);
    }

    #[test]
    fn all_null_column_rejected_as_high_null() {
        let c = Column::from_floats("new", vec![None, None, None, None]);
        assert!(matches!(
            check_new_column(&c, &base()),
            Some(SkipReason::HighNull(_))
        ));
    }
}
