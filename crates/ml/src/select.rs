//! Feature-selection metrics for Table 6: information gain (IG), recursive
//! feature elimination (RFE), and tree-based Gini feature importance (FI).

use crate::error::Result;
use crate::forest::RandomForest;
use crate::logistic::LogisticRegression;
use crate::matrix::Matrix;
use crate::model::Classifier;
use crate::preprocess::Standardizer;
use smartfeat_frame::stats::mutual_information;

/// The three selection metrics the paper evaluates in Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMetric {
    /// Information gain (mutual information with the label).
    InformationGain,
    /// Recursive feature elimination driven by |logistic weight|.
    Rfe,
    /// Gini feature importance from a random forest.
    FeatureImportance,
}

impl SelectionMetric {
    /// Display name matching the paper's table rows (`IG@10`, …).
    pub fn name(self) -> &'static str {
        match self {
            SelectionMetric::InformationGain => "IG",
            SelectionMetric::Rfe => "RFE",
            SelectionMetric::FeatureImportance => "FI",
        }
    }

    /// All three metrics in the paper's order.
    pub fn all() -> [SelectionMetric; 3] {
        [
            SelectionMetric::InformationGain,
            SelectionMetric::Rfe,
            SelectionMetric::FeatureImportance,
        ]
    }
}

/// Rank features (indices into `x`'s columns) from most to least important
/// under the chosen metric. Deterministic given `seed`.
pub fn rank_features(
    metric: SelectionMetric,
    x: &Matrix,
    y: &[u8],
    seed: u64,
) -> Result<Vec<usize>> {
    match metric {
        SelectionMetric::InformationGain => Ok(rank_by_scores(&information_gain_scores(x, y))),
        SelectionMetric::Rfe => rfe_rank(x, y),
        SelectionMetric::FeatureImportance => {
            let mut rf = RandomForest::default_params(seed);
            rf.fit(x, y)?;
            Ok(rank_by_scores(&rf.feature_importances()?))
        }
    }
}

/// Mutual information of every feature with the binary label (10 bins).
pub fn information_gain_scores(x: &Matrix, y: &[u8]) -> Vec<f64> {
    (0..x.cols())
        .map(|j| {
            let col: Vec<Option<f64>> = x.col(j).into_iter().map(Some).collect();
            mutual_information(&col, y, 10)
        })
        .collect()
}

/// Recursive feature elimination: repeatedly fit logistic regression on the
/// surviving features (standardized), drop the feature with the smallest
/// |weight|, and record elimination order. The *last* survivor ranks first.
pub fn rfe_rank(x: &Matrix, y: &[u8]) -> Result<Vec<usize>> {
    let d = x.cols();
    let mut alive: Vec<usize> = (0..d).collect();
    let mut eliminated: Vec<usize> = Vec::with_capacity(d);
    while alive.len() > 1 {
        let sub = x.take_cols(&alive);
        let weights = fit_lr_weights(&sub, y).unwrap_or_default();
        let Some((drop_pos, _)) = weights
            .iter()
            .map(|w| w.abs())
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            // Degenerate training set (no weights): eliminate the rest
            // arbitrarily (stable order) rather than failing the whole
            // ranking.
            eliminated.extend(alive.iter().rev());
            alive.clear();
            break;
        };
        eliminated.push(alive.remove(drop_pos));
    }
    eliminated.extend(alive);
    eliminated.reverse();
    Ok(eliminated)
}

fn fit_lr_weights(x: &Matrix, y: &[u8]) -> Option<Vec<f64>> {
    let s = Standardizer::fit(x).ok()?;
    let xs = s.transform(x).ok()?;
    let mut lr = LogisticRegression::default_params();
    lr.max_iter = 100;
    lr.fit(&xs, y).ok()?;
    Some(lr.weights().to_vec())
}

/// Sort feature indices descending by score (stable on ties).
pub fn rank_by_scores(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

/// Table 6's headline number: among the top-`k` ranked features, what
/// fraction satisfies `is_new` (i.e. was generated rather than original)?
pub fn top_k_new_fraction(ranked: &[usize], k: usize, is_new: &[bool]) -> f64 {
    let k = k.min(ranked.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked[..k].iter().filter(|&&i| is_new[i]).count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x0 = label (perfect), x1 = half-informative, x2 = noise.
    fn layered_signal() -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200usize {
            let label = u8::from(i % 2 == 0);
            // Agrees with the label 75 % of the time.
            let half = if i % 8 < 6 {
                f64::from(label)
            } else {
                f64::from(1 - label)
            };
            // Constant across each (even, odd) index pair ⇒ independent of
            // the parity-defined label.
            let noise = (((i / 2) * 2654435761) % 97) as f64 / 97.0;
            rows.push(vec![f64::from(label), half, noise]);
            y.push(label);
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn information_gain_orders_by_signal() {
        let (x, y) = layered_signal();
        let ranked = rank_features(SelectionMetric::InformationGain, &x, &y, 0).unwrap();
        assert_eq!(ranked[0], 0);
        assert_eq!(ranked[2], 2);
    }

    #[test]
    fn rfe_keeps_perfect_feature_longest() {
        let (x, y) = layered_signal();
        let ranked = rank_features(SelectionMetric::Rfe, &x, &y, 0).unwrap();
        assert_eq!(ranked[0], 0);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn rfe_on_a_degenerate_target_keeps_column_order() {
        let (x, _) = layered_signal();
        let single_class = vec![1u8; x.rows()];
        assert_eq!(rfe_rank(&x, &single_class).unwrap(), vec![0, 1, 2]);
        let one_column = x.take_cols(&[2]);
        assert_eq!(rfe_rank(&one_column, &single_class).unwrap(), vec![0]);
    }

    #[test]
    fn forest_importance_finds_signal() {
        let (x, y) = layered_signal();
        let ranked = rank_features(SelectionMetric::FeatureImportance, &x, &y, 9).unwrap();
        assert_eq!(ranked[0], 0);
    }

    #[test]
    fn rank_by_scores_stable_on_ties() {
        assert_eq!(rank_by_scores(&[0.5, 0.9, 0.5]), vec![1, 0, 2]);
    }

    #[test]
    fn top_k_fraction() {
        let ranked = vec![3, 1, 0, 2];
        let is_new = vec![false, true, false, true];
        assert_eq!(top_k_new_fraction(&ranked, 2, &is_new), 1.0);
        assert_eq!(top_k_new_fraction(&ranked, 4, &is_new), 0.5);
        assert_eq!(top_k_new_fraction(&ranked, 0, &is_new), 0.0);
        // k larger than available features clamps.
        assert_eq!(top_k_new_fraction(&ranked, 10, &is_new), 0.5);
    }

    #[test]
    fn metric_names() {
        let names: Vec<&str> = SelectionMetric::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["IG", "RFE", "FI"]);
    }
}
