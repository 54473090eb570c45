//! Property-based tests over the frame substrate's invariants, driven by
//! the in-repo `smartfeat_rng::check` harness.

mod common;

use smartfeat_repro::frame::ops::{
    binary_op, bucketize, groupby_transform, normalize, AggFunc, BinaryOp, NormKind,
};
use smartfeat_repro::frame::sample::{kfold_indices, permutation, train_test_split};
use smartfeat_repro::frame::stats::{mutual_information, pearson};
use smartfeat_repro::prelude::*;
use smartfeat_repro::rng::check;
use smartfeat_repro::rng::Rng;

fn float_vec(rng: &mut Rng) -> Vec<f64> {
    check::vec_f64(rng, 2..60, -1e6..1e6)
}

#[test]
fn minmax_normalization_lands_in_unit_interval() {
    check::cases(64, |rng| {
        let values = float_vec(rng);
        let col = Column::from_f64("x", values);
        let normalized = normalize(&col, NormKind::MinMax, "n").unwrap();
        for v in normalized.to_f64().into_iter().flatten() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v), "out of range: {v}");
        }
    });
}

#[test]
fn zscore_normalization_centers() {
    check::cases(64, |rng| {
        let values = float_vec(rng);
        let col = Column::from_f64("x", values);
        let normalized = normalize(&col, NormKind::ZScore, "n").unwrap();
        let vals: Vec<f64> = normalized.to_f64().into_iter().flatten().collect();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 1e-6, "mean {mean}");
    });
}

#[test]
fn bucketize_is_monotone() {
    check::cases(64, |rng| {
        let values = float_vec(rng);
        let b1 = rng.gen_range(-100.0..0.0);
        let width = rng.gen_range(1.0..50.0);
        let bounds = vec![b1, b1 + width, b1 + 2.0 * width];
        let col = Column::from_f64("x", values.clone());
        let buckets = bucketize(&col, &bounds, "b").unwrap();
        let codes: Vec<f64> = buckets.to_f64().into_iter().flatten().collect();
        // Pairwise monotone: larger value ⇒ bucket index not smaller.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] <= values[j] {
                    assert!(codes[i] <= codes[j]);
                }
            }
        }
    });
}

#[test]
fn binary_sub_is_antisymmetric() {
    check::cases(64, |rng| {
        let a = float_vec(rng);
        let b: Vec<f64> = a.iter().map(|v| v * 0.5 + 3.0).collect();
        let ca = Column::from_f64("a", a);
        let cb = Column::from_f64("b", b);
        let ab = binary_op(&ca, &cb, BinaryOp::Sub, "ab").unwrap();
        let ba = binary_op(&cb, &ca, BinaryOp::Sub, "ba").unwrap();
        for (x, y) in ab.to_f64().into_iter().zip(ba.to_f64()) {
            match (x, y) {
                (Some(x), Some(y)) => assert!((x + y).abs() <= 1e-6 * x.abs().max(1.0)),
                (None, None) => {}
                other => panic!("null asymmetry: {other:?}"),
            }
        }
    });
}

#[test]
fn groupby_mean_is_constant_within_groups() {
    check::cases(64, |rng| {
        let n = rng.gen_range(5..80usize);
        let groups: Vec<String> = (0..n)
            .map(|_| format!("g{}", rng.gen_range(0..5u8)))
            .collect();
        let nums: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let group_refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        let df = DataFrame::from_columns(vec![
            Column::from_str_slice("g", &group_refs),
            Column::from_f64("v", nums),
        ])
        .unwrap();
        let agg = groupby_transform(&df, &["g"], "v", AggFunc::Mean, "m").unwrap();
        let agg_vals = agg.to_f64();
        // Same group ⇒ same aggregate.
        for i in 0..groups.len() {
            for j in 0..groups.len() {
                if groups[i] == groups[j] {
                    assert_eq!(agg_vals[i], agg_vals[j]);
                }
            }
        }
    });
}

#[test]
fn csv_roundtrip_preserves_rendered_cells() {
    check::cases(64, |rng| {
        let n = rng.gen_range(1..30usize);
        let ints: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let words: Vec<String> = (0..n)
            .map(|_| check::string_of(rng, "abcdefghijklmnopqrstuvwxyz,\" ", 12))
            .collect();
        let df = DataFrame::from_columns(vec![
            Column::from_i64("i", ints),
            Column::from_strs("s", words.iter().map(|w| Some(w.clone())).collect()),
        ])
        .unwrap();
        // Quoted string cells make the round trip lossless even for empty
        // strings and numeric-looking text, and dtypes must survive too.
        assert!(common::roundtrip_equal(&df));
    });
}

#[test]
fn permutation_is_bijective() {
    check::cases(64, |rng| {
        let n = rng.gen_range(1..500usize);
        let seed = rng.gen_range(0..1000u64);
        let mut p = permutation(n, seed);
        p.sort_unstable();
        assert_eq!(p, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn split_partitions_rows() {
    check::cases(64, |rng| {
        let n = rng.gen_range(4..200usize);
        let seed = rng.gen_range(0..100u64);
        let frac = rng.gen_range(0.1..0.9);
        let df =
            DataFrame::from_columns(vec![Column::from_i64("id", (0..n as i64).collect())]).unwrap();
        let (train, test) = train_test_split(&df, frac, seed).unwrap();
        assert_eq!(train.n_rows() + test.n_rows(), n);
    });
}

#[test]
fn kfold_each_row_validates_exactly_once() {
    check::cases(64, |rng| {
        let n = rng.gen_range(10..150usize);
        let k = rng.gen_range(2..6usize);
        let seed = rng.gen_range(0..50u64);
        let folds = kfold_indices(n, k, seed).unwrap();
        let mut seen = vec![0usize; n];
        for (_, valid) in &folds {
            for &i in valid {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    });
}

#[test]
fn pearson_is_symmetric_and_bounded() {
    check::cases(64, |rng| {
        let n = rng.gen_range(3..60usize);
        let a: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen_range(-100.0..100.0))).collect();
        let b: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen_range(-100.0..100.0))).collect();
        if let Some(r) = pearson(&a, &b) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&b, &a).unwrap();
            assert!((r - r2).abs() < 1e-12);
        }
    });
}

#[test]
fn mutual_information_nonnegative() {
    check::cases(64, |rng| {
        let n = rng.gen_range(4..100usize);
        let v: Vec<Option<f64>> = (0..n).map(|_| Some(rng.gen_range(-50.0..50.0))).collect();
        let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        let mi = mutual_information(&v, &labels, 8);
        assert!(mi >= 0.0);
    });
}
