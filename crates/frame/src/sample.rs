//! Seeded sampling: shuffles, train/test splits, k-fold indices.

use smartfeat_rng::{Rng, SliceRandom};

use crate::error::{FrameError, Result};
use crate::frame::DataFrame;

/// A deterministic permutation of `0..n` from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx
}

/// Split a frame into (train, test) with `train_fraction` of rows in train,
/// after a seeded shuffle. Mirrors the paper's 75/25 random partition.
pub fn train_test_split(
    df: &DataFrame,
    train_fraction: f64,
    seed: u64,
) -> Result<(DataFrame, DataFrame)> {
    if !(0.0..=1.0).contains(&train_fraction) {
        return Err(FrameError::InvalidArgument(format!(
            "train_fraction {train_fraction} must be in [0, 1]"
        )));
    }
    let idx = permutation(df.n_rows(), seed);
    let cut = (df.n_rows() as f64 * train_fraction).round() as usize;
    let (train_idx, test_idx) = idx.split_at(cut.min(idx.len()));
    Ok((df.take(train_idx)?, df.take(test_idx)?))
}

/// K-fold cross-validation indices: `k` (train, validation) index pairs
/// over a seeded permutation of `0..n`. Folds differ in size by at most 1.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    if k < 2 {
        return Err(FrameError::InvalidArgument(format!(
            "k-fold requires k ≥ 2, got {k}"
        )));
    }
    if n < k {
        return Err(FrameError::InvalidArgument(format!(
            "cannot split {n} rows into {k} folds"
        )));
    }
    let idx = permutation(n, seed);
    let base = n / k;
    let extra = n % k;
    let mut folds = Vec::with_capacity(k);
    let mut start = 0usize;
    for f in 0..k {
        let size = base + usize::from(f < extra);
        folds.push(idx[start..start + size].to_vec());
        start += size;
    }
    let mut out = Vec::with_capacity(k);
    for f in 0..k {
        let valid = folds[f].clone();
        let train: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(g, _)| *g != f)
            .flat_map(|(_, fold)| fold.iter().copied())
            .collect();
        out.push((train, valid));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn frame(n: usize) -> DataFrame {
        DataFrame::from_columns(vec![Column::from_i64("id", (0..n as i64).collect())]).unwrap()
    }

    #[test]
    fn permutation_is_a_permutation_and_deterministic() {
        let p1 = permutation(100, 7);
        let p2 = permutation(100, 7);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(permutation(100, 8), p1);
    }

    #[test]
    fn split_sizes() {
        let df = frame(100);
        let (train, test) = train_test_split(&df, 0.75, 42).unwrap();
        assert_eq!(train.n_rows(), 75);
        assert_eq!(test.n_rows(), 25);
    }

    #[test]
    fn split_partition_is_disjoint_and_complete() {
        let df = frame(40);
        let (train, test) = train_test_split(&df, 0.6, 1).unwrap();
        let mut ids: Vec<i64> = train
            .column("id")
            .unwrap()
            .to_f64()
            .into_iter()
            .flatten()
            .map(|v| v as i64)
            .chain(
                test.column("id")
                    .unwrap()
                    .to_f64()
                    .into_iter()
                    .flatten()
                    .map(|v| v as i64),
            )
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let df = frame(10);
        assert!(train_test_split(&df, 1.5, 0).is_err());
        assert!(train_test_split(&df, -0.1, 0).is_err());
    }

    #[test]
    fn kfold_covers_all_rows_once_as_validation() {
        let folds = kfold_indices(23, 5, 3).unwrap();
        assert_eq!(folds.len(), 5);
        let mut all_valid: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all_valid.sort_unstable();
        assert_eq!(all_valid, (0..23).collect::<Vec<_>>());
        for (train, valid) in &folds {
            assert_eq!(train.len() + valid.len(), 23);
            assert!(valid.len() == 4 || valid.len() == 5);
            assert!(train.iter().all(|i| !valid.contains(i)));
        }
    }

    #[test]
    fn kfold_rejects_degenerate() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(3, 5, 0).is_err());
    }
}
