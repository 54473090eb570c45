//! Column statistics: moments, correlation, entropy, mutual information.
//!
//! Used by the feature-evaluation step (correlation pruning), the baselines
//! (Featuretools-style selection), and Table 6's information-gain metric.

use crate::column::Column;
use crate::view::NumericView;

/// Summary statistics over the non-null cells of a numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Count of non-null cells.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarize the non-null cells of a numeric slice. Returns `None` if no
/// values are present.
pub fn summarize(values: &[Option<f64>]) -> Option<Summary> {
    let xs: Vec<f64> = values.iter().flatten().copied().collect();
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Some(Summary {
        count: xs.len(),
        mean,
        std: var.sqrt(),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// Pearson correlation over rows where both columns are non-null.
/// Returns `None` when fewer than two complete pairs exist, either side
/// has zero variance, or `r` is not finite (an infinite input).
pub fn pearson(a: &[Option<f64>], b: &[Option<f64>]) -> Option<f64> {
    pearson_pairs(a.iter().zip(b).filter_map(|(x, y)| Some(((*x)?, (*y)?))), 2)
}

/// Pearson correlation over complete `(x, y)` pairs, in iteration order,
/// without collecting them: one pass takes the count and the means, a
/// second the centred sums. Each sum runs in the same order as summing a
/// collected pair list, so `r` is bit-identical to that. Both passes are
/// folds, so an iterator with a specialised `fold` (the view iterators)
/// runs its own loop. Returns `None` when fewer than `min_pairs` pairs
/// (and never fewer than two) exist, either side has zero variance, or
/// `r` is not finite.
pub fn pearson_pairs<I>(pairs: I, min_pairs: usize) -> Option<f64>
where
    I: Iterator<Item = (f64, f64)> + Clone,
{
    let (count, sum_x, sum_y) = pairs
        .clone()
        .fold((0usize, sum_zero(), sum_zero()), |(c, sx, sy), (x, y)| {
            (c + 1, sx + x, sy + y)
        });
    if !enough_pairs(count, min_pairs) {
        return None;
    }
    let n = count as f64;
    let mx = sum_x / n;
    let my = sum_y / n;
    let (sxy, sxx, syy) = pairs.fold((0.0, 0.0, 0.0), |(sxy, sxx, syy), (x, y)| {
        (
            sxy + (x - mx) * (y - my),
            sxx + (x - mx).powi(2),
            syy + (y - my).powi(2),
        )
    });
    finish_pearson(count, min_pairs, sxy, sxx, syy)
}

/// `f64::sum` folds from its own neutral element (`-0.0`); starting a
/// sum from the same one keeps a mean bit-identical to `.sum()`.
pub(crate) fn sum_zero() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Are `count` pairs enough evidence? Never fewer than two.
fn enough_pairs(count: usize, min_pairs: usize) -> bool {
    count >= min_pairs.max(2)
}

/// The finishing step every Pearson path shares: `r` from the centred
/// sums, or `None` for too few pairs, a zero-variance side, or a
/// non-finite `r` (an infinite input).
fn finish_pearson(count: usize, min_pairs: usize, sxy: f64, sxx: f64, syy: f64) -> Option<f64> {
    if !enough_pairs(count, min_pairs) || sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let r = sxy / (sxx * syy).sqrt();
    r.is_finite().then_some(r)
}

/// The per-column half of Pearson's `r` for a column with no nulls:
/// its mean and its centred sum of squares, each summed in row order from
/// the neutral elements `pearson_pairs` uses, so both are bit-identical
/// to the ones `pearson_pairs` computes for the column on either side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Mean of the column's cells.
    pub mean: f64,
    /// `Σ (v − mean)²` over the column's cells.
    pub sum_sq: f64,
}

impl Moments {
    /// Fold the moments of a view's present cells, in row order.
    pub(crate) fn of(view: &NumericView<'_>) -> Moments {
        let n = view.present_count() as f64;
        let mean = view.fold_present(sum_zero(), |s, v| s + v) / n;
        let sum_sq = view.fold_present(0.0, |s, v| s + (v - mean).powi(2));
        Moments { mean, sum_sq }
    }
}

/// Existing columns the cross-term kernel reads side by side: one `sxy`
/// chain per lane, so the adds of different columns overlap instead of
/// waiting on each other.
pub const CROSS_LANES: usize = 8;

/// Rows of each lane the kernel centres into its scratch block at a time.
pub const CROSS_CHUNK_ROWS: usize = 256;

/// Relative slack the early-stopping rule of [`PearsonProbe::exceeds`]
/// leaves below the threshold for rounding (see DESIGN §12).
const STOP_MARGIN: f64 = 1e-6;

/// What [`PearsonProbe::exceeds`] decided for one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeVerdict {
    /// Pearson's `r` exceeds the threshold: the answer
    /// `pearson_pairs(…).is_some_and(|r| r > threshold)` gives.
    pub exceeds: bool,
    /// Rows summed before the verdict: fewer than the column's length when
    /// the rest could no longer lift `r` above the threshold, 0 for a
    /// column the probe cannot read.
    pub rows_read: usize,
}

/// A complete numeric column to test against many complete columns for a
/// correlation above a threshold: the duplicate scan's kernel.
///
/// It sums what [`Centred::pearson`] sums, chunk by chunk, but keeps only
/// the verdict, so it can stop summing a column as soon as the verdict is
/// settled. The candidate is centred one chunk at a time, never copied
/// whole.
#[derive(Debug)]
pub struct PearsonProbe<'a> {
    view: NumericView<'a>,
    moments: Moments,
}

impl<'a> PearsonProbe<'a> {
    /// Probe `col`; `None` unless it is numeric with no nulls.
    pub fn of(col: &'a Column) -> Option<PearsonProbe<'a>> {
        let moments = col.complete_moments()?;
        Some(PearsonProbe {
            view: col.numeric_view().ok()?,
            moments,
        })
    }

    /// Whether Pearson's `r` of this column (as `x`) against each of
    /// `others` (as `y`) exceeds `threshold`, with `pearson_pairs`'
    /// `min_pairs` rule. A column that has nulls, is not numeric, or
    /// differs in length never exceeds it.
    ///
    /// Lanes are read as in [`Centred::pearson`], and a lane that runs to
    /// the end sums the same `sxy` in the same order, so its verdict is
    /// that of the bit-identical `r`. After each chunk but the last, a
    /// lane stops, not exceeding, once Cauchy–Schwarz bounds the rest:
    /// `sxy_k + √(rest_x · rest_y) < (threshold − 1e-6) · √(Sxx · Syy)`,
    /// where `rest` is the total centred sum of squares minus its prefix,
    /// plus `rows · ε` of the total for rounding. A non-finite bound or
    /// limit never stops a lane. A block stops once all its lanes have.
    pub fn exceeds(
        &self,
        others: &[&Column],
        min_pairs: usize,
        threshold: f64,
    ) -> Vec<ProbeVerdict> {
        let rows = self.view.len();
        let Moments { mean, sum_sq: sxx } = self.moments;
        let slack = rows as f64 * f64::EPSILON;
        let rest = |total: f64, prefix: f64| (total - prefix).max(0.0) + slack * total;
        let lanes = complete_lanes(others, rows);
        let mut out = Vec::with_capacity(others.len());
        let mut xs = vec![0.0f64; CROSS_CHUNK_ROWS];
        let mut block = vec![[0.0f64; CROSS_LANES]; CROSS_CHUNK_ROWS];
        for group in lanes.chunks(CROSS_LANES) {
            let mut limit = [f64::NAN; CROSS_LANES];
            let mut read = [0usize; CROSS_LANES];
            let mut live = [false; CROSS_LANES];
            for (lane, slot) in group.iter().enumerate() {
                if let Some((_, m)) = slot {
                    let l = (threshold - STOP_MARGIN) * (sxx * m.sum_sq).sqrt();
                    limit[lane] = if l.is_finite() { l } else { f64::NAN };
                    read[lane] = rows;
                    live[lane] = true;
                }
            }
            let (mut sxy, mut syy, mut sxx_k) = ([0.0f64; CROSS_LANES], [0.0f64; CROSS_LANES], 0.0);
            for start in (0..rows).step_by(CROSS_CHUNK_ROWS) {
                if !live.contains(&true) {
                    break;
                }
                let end = (start + CROSS_CHUNK_ROWS).min(rows);
                let (xs, block) = (&mut xs[..end - start], &mut block[..end - start]);
                centre_rows(&self.view, mean, start, xs.iter_mut());
                for (lane, slot) in group.iter().enumerate() {
                    if let (true, Some((view, m))) = (live[lane], slot) {
                        centre_into(view, m.mean, start, block, lane);
                    }
                }
                for (x, ys) in xs.iter().zip(block.iter()) {
                    for (acc, y) in sxy.iter_mut().zip(ys) {
                        *acc += x * y;
                    }
                }
                if end == rows {
                    break;
                }
                sxx_k = xs.iter().fold(sxx_k, |s, x| s + x.powi(2));
                for (lane, slot) in group.iter().enumerate() {
                    let (true, Some((_, m))) = (live[lane], slot) else {
                        continue;
                    };
                    syy[lane] = block.iter().fold(syy[lane], |s, ys| s + ys[lane].powi(2));
                    let bound = sxy[lane] + (rest(sxx, sxx_k) * rest(m.sum_sq, syy[lane])).sqrt();
                    // `NaN < x` is false: a NaN bound or limit never stops.
                    if bound < limit[lane] {
                        live[lane] = false;
                        read[lane] = end;
                    }
                }
            }
            out.extend(group.iter().enumerate().map(|(lane, slot)| {
                let exceeds = match slot {
                    Some((_, m)) if live[lane] => {
                        finish_pearson(rows, min_pairs, sxy[lane], sxx, m.sum_sq)
                            .is_some_and(|r| r > threshold)
                    }
                    _ => false,
                };
                ProbeVerdict {
                    exceeds,
                    rows_read: read[lane],
                }
            }));
        }
        out
    }
}

/// The columns of `others` the cross-term kernels can read: numeric,
/// without nulls, `rows` long, each with its view and cached moments.
fn complete_lanes<'c>(
    others: &[&'c Column],
    rows: usize,
) -> Vec<Option<(NumericView<'c>, Moments)>> {
    others
        .iter()
        .map(|c| {
            let moments = c.complete_moments().filter(|_| c.len() == rows)?;
            Some((c.numeric_view().ok()?, moments))
        })
        .collect()
}

/// A complete numeric column, centred once, to correlate against many
/// complete columns: [`Centred::pearson`] computes only the cross term
/// `Σ (x − mx)(y − my)` per column and takes both sums of squares from
/// the columns' cached [`Moments`]. The duplicate scan runs
/// [`PearsonProbe`]; this is the reference its verdicts are tested
/// against.
#[derive(Debug)]
pub struct Centred {
    centred: Vec<f64>,
    sum_sq: f64,
}

impl Centred {
    /// Centre `col`; `None` unless it is numeric with no nulls.
    pub fn of(col: &Column) -> Option<Centred> {
        let Moments { mean, sum_sq } = col.complete_moments()?;
        let (centred, _) = col.numeric_view().ok()?.map_packed_f64(|v| v - mean);
        Some(Centred { centred, sum_sq })
    }

    /// Pearson's `r` of this column (as `x`) against each of `others`
    /// (as `y`), over all rows: bit-identical to `pearson_pairs` over the
    /// two columns' pairs in row order, with the same `min_pairs` rule.
    /// A column that has nulls, is not numeric, or differs in length
    /// gets `None`.
    ///
    /// Columns are read [`CROSS_LANES`] at a time, one row chunk at a
    /// time: each lane's chunk is centred into a row-major scratch block,
    /// then one loop adds every lane's product for a row. Each lane's
    /// `sxy` still accumulates in row order from `0.0`. A short last
    /// block is padded with zero lanes, so it runs the same loop.
    pub fn pearson(&self, others: &[&Column], min_pairs: usize) -> Vec<Option<f64>> {
        let rows = self.centred.len();
        let lanes = complete_lanes(others, rows);
        let mut out = Vec::with_capacity(others.len());
        let mut block = vec![[0.0f64; CROSS_LANES]; CROSS_CHUNK_ROWS];
        for group in lanes.chunks(CROSS_LANES) {
            // Lanes nothing is centred into read zeros, not a stale chunk.
            for lane in 0..CROSS_LANES {
                if !matches!(group.get(lane), Some(Some(_))) {
                    block.iter_mut().for_each(|row| row[lane] = 0.0);
                }
            }
            let mut sxy = [0.0f64; CROSS_LANES];
            for start in (0..rows).step_by(CROSS_CHUNK_ROWS) {
                let end = (start + CROSS_CHUNK_ROWS).min(rows);
                let block = &mut block[..end - start];
                for (lane, slot) in group.iter().enumerate() {
                    if let Some((view, m)) = slot {
                        centre_into(view, m.mean, start, block, lane);
                    }
                }
                for (x, ys) in self.centred[start..end].iter().zip(block.iter()) {
                    for (acc, y) in sxy.iter_mut().zip(ys) {
                        *acc += x * y;
                    }
                }
            }
            out.extend(group.iter().zip(sxy).map(|(slot, sxy)| {
                let (_, m) = slot.as_ref()?;
                finish_pearson(rows, min_pairs, sxy, self.sum_sq, m.sum_sq)
            }));
        }
        out
    }
}

/// Write rows `start..start + block.len()` of `view`, minus `mean`, into
/// column `lane` of the row-major `block`.
fn centre_into(
    view: &NumericView<'_>,
    mean: f64,
    start: usize,
    block: &mut [[f64; CROSS_LANES]],
    lane: usize,
) {
    centre_rows(
        view,
        mean,
        start,
        block.iter_mut().map(|row| &mut row[lane]),
    );
}

/// Write `view`'s rows from `start` on, minus `mean`, into `targets`, one
/// row per target.
fn centre_rows<'t>(
    view: &NumericView<'_>,
    mean: f64,
    start: usize,
    targets: impl Iterator<Item = &'t mut f64>,
) {
    match *view {
        NumericView::Int { values, .. } => {
            for (t, &v) in targets.zip(&values[start..]) {
                *t = v as f64 - mean;
            }
        }
        NumericView::Float { values, .. } => {
            for (t, &v) in targets.zip(&values[start..]) {
                *t = v - mean;
            }
        }
        NumericView::Bool { values, .. } => {
            for (t, &v) in targets.zip(&values[start..]) {
                *t = f64::from(u8::from(v)) - mean;
            }
        }
    }
}

/// Pearson correlation between two columns' numeric views.
pub fn column_pearson(a: &Column, b: &Column) -> Option<f64> {
    pearson(&a.to_f64(), &b.to_f64())
}

/// Shannon entropy (nats) of a discrete distribution given by counts.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Equal-width discretization of a numeric slice into `bins` buckets over
/// the observed range. Nulls map to `None`; constant columns map to bin 0.
pub fn discretize(values: &[Option<f64>], bins: usize) -> Vec<Option<usize>> {
    let bins = bins.max(1);
    let summary = match summarize(values) {
        Some(s) => s,
        None => return vec![None; values.len()],
    };
    let range = summary.max - summary.min;
    values
        .iter()
        .map(|v| {
            v.map(|x| {
                if range == 0.0 {
                    0
                } else {
                    (((x - summary.min) / range * bins as f64) as usize).min(bins - 1)
                }
            })
        })
        .collect()
}

/// Mutual information (nats) between a discretized feature and binary
/// labels, computed over rows where the feature is non-null.
///
/// This is the reproduction of sklearn's `mutual_info_classif` as used for
/// Table 6's IG metric (a histogram estimator rather than k-NN: monotone in
/// the same orderings for the planted workloads, and deterministic).
pub fn mutual_information(values: &[Option<f64>], labels: &[u8], bins: usize) -> f64 {
    debug_assert_eq!(values.len(), labels.len());
    let discrete = discretize(values, bins);
    let bins = bins.max(1);
    let mut joint = vec![[0usize; 2]; bins];
    let mut total = 0usize;
    for (d, &y) in discrete.iter().zip(labels) {
        if let Some(b) = d {
            joint[*b][(y != 0) as usize] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut mi = 0.0;
    let class_counts = [
        joint.iter().map(|j| j[0]).sum::<usize>(),
        joint.iter().map(|j| j[1]).sum::<usize>(),
    ];
    for row in &joint {
        let row_total = row[0] + row[1];
        if row_total == 0 {
            continue;
        }
        for (cls, &cnt) in row.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let pxy = cnt as f64 / total_f;
            let px = row_total as f64 / total_f;
            let py = class_counts[cls] as f64 / total_f;
            mi += pxy * (pxy / (px * py)).ln();
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basic() {
        let s = summarize(&[Some(1.0), Some(2.0), Some(3.0), None]).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(&[None, None]).is_none());
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = vec![Some(1.0), Some(2.0), Some(3.0)];
        let b = vec![Some(2.0), Some(4.0), Some(6.0)];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = vec![Some(3.0), Some(2.0), Some(1.0)];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_none() {
        let a = vec![Some(1.0), Some(1.0), Some(1.0)];
        let b = vec![Some(1.0), Some(2.0), Some(3.0)];
        assert!(pearson(&a, &b).is_none());
    }

    #[test]
    fn pearson_skips_null_pairs() {
        let a = vec![Some(1.0), None, Some(3.0), Some(5.0)];
        let b = vec![Some(1.0), Some(99.0), Some(3.0), Some(5.0)];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_infinite_input_is_none() {
        // An original column keeps `inf` (a CSV cell `inf` or `1e400`);
        // its mean is infinite and `r` would be NaN.
        let a = vec![Some(1.0), Some(f64::INFINITY), Some(3.0)];
        let b = vec![Some(1.0), Some(2.0), Some(3.0)];
        assert_eq!(pearson(&a, &b), None);
        assert_eq!(pearson(&b, &a), None);
    }

    #[test]
    fn pearson_pairs_honours_min_pairs() {
        let pairs = [(1.0, 2.0), (2.0, 4.0)];
        assert!(pearson_pairs(pairs.iter().copied(), 2).is_some());
        assert_eq!(pearson_pairs(pairs.iter().copied(), 3), None);
        // Two pairs is the floor whatever is asked for.
        assert_eq!(pearson_pairs(pairs[..1].iter().copied(), 0), None);
    }

    #[test]
    fn entropy_uniform_vs_point() {
        assert!(entropy(&[5, 5]) > entropy(&[9, 1]));
        assert_eq!(entropy(&[10, 0]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert!((entropy(&[1, 1]) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn discretize_covers_range() {
        let vals = vec![Some(0.0), Some(5.0), Some(10.0), None];
        let d = discretize(&vals, 2);
        assert_eq!(d, vec![Some(0), Some(1), Some(1), None]);
    }

    #[test]
    fn discretize_constant() {
        let vals = vec![Some(7.0), Some(7.0)];
        assert_eq!(discretize(&vals, 4), vec![Some(0), Some(0)]);
    }

    #[test]
    fn mutual_information_detects_perfect_predictor() {
        // Feature perfectly separates classes ⇒ MI = H(Y) = ln 2.
        let values: Vec<Option<f64>> = (0..100)
            .map(|i| Some(if i < 50 { 0.0 } else { 1.0 }))
            .collect();
        let labels: Vec<u8> = (0..100).map(|i| u8::from(i >= 50)).collect();
        let mi = mutual_information(&values, &labels, 2);
        assert!((mi - (2.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mutual_information_independent_is_zero() {
        let values: Vec<Option<f64>> = (0..100).map(|i| Some((i % 2) as f64)).collect();
        let labels: Vec<u8> = (0..100).map(|i| u8::from((i / 2) % 2 == 0)).collect();
        let mi = mutual_information(&values, &labels, 2);
        assert!(mi.abs() < 1e-9);
    }

    #[test]
    fn mutual_information_all_null_is_zero() {
        let values = vec![None, None];
        assert_eq!(mutual_information(&values, &[0, 1], 4), 0.0);
    }
}
