//! Rendered-key reference implementations of the key-code transforms.
//!
//! `groupby_transform` and `frequency_encode` group cells by
//! [`Column::key_codes`]. These copies group by the rendered strings
//! instead (composite keys as `Vec<String>` tuples), and the differential
//! tests below hold the two to bit-identical output over random frames of
//! every key dtype.

use std::collections::BTreeMap;

use smartfeat_rng::{check, Rng};

use super::encode::frequency_encode;
use super::groupby::{groupby_transform, AggFunc};
use crate::column::Column;
use crate::frame::DataFrame;

/// `groupby_transform` over rendered keys.
fn groupby_rendered(group: &[&Column], agg: &Column, func: AggFunc) -> Vec<Option<f64>> {
    let keys: Vec<Vec<Option<String>>> = group.iter().map(|g| g.to_keys()).collect();
    let row_key = |i: usize| {
        keys.iter()
            .map(|k| k[i].clone())
            .collect::<Option<Vec<String>>>()
    };
    let values = agg.to_f64();
    let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
    for (i, v) in values.iter().enumerate() {
        if let Some(key) = row_key(i) {
            groups.entry(key).or_default().extend(*v);
        }
    }
    (0..agg.len())
        .map(|i| row_key(i).and_then(|key| func.evaluate(&groups[&key])))
        .collect()
}

/// `frequency_encode` over rendered keys; `None` for an all-null column.
fn frequency_rendered(col: &Column) -> Option<Vec<Option<f64>>> {
    let counts = col.value_counts();
    let total: usize = counts.values().sum();
    (total > 0).then(|| {
        col.to_keys()
            .iter()
            .map(|k| k.as_ref().map(|k| counts[k] as f64 / total as f64))
            .collect()
    })
}

/// Floats whose renders are easy to confuse: signed zeros, infinities and
/// integral values on both sides of the `{v:.1}` / shortest-roundtrip
/// switch at 1e15.
const PLANTED: [f64; 8] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    1e15,
    -1e15,
    1e15 + 2.0,
];

/// A random key column of any dtype, with nulls and many repeats. `Str`
/// cells may contain U+001F, the old composite-key separator; half the
/// time the column is `take`-derived, so a `Str` book holds unused codes.
fn random_key_column(rng: &mut Rng, name: &str, n: usize) -> Column {
    let null = |rng: &mut Rng| rng.gen_range(0.0..1.0) < 0.15;
    let col = match rng.gen_range(0..4u32) {
        0 => Column::from_ints(
            name,
            (0..n)
                .map(|_| (!null(rng)).then(|| rng.gen_range(-3..3i64)))
                .collect(),
        ),
        1 => Column::from_floats(
            name,
            (0..n)
                .map(|_| (!null(rng)).then(|| PLANTED[rng.gen_range(0..PLANTED.len())]))
                .collect(),
        ),
        2 => Column::from_bools(
            name,
            (0..n)
                .map(|_| (!null(rng)).then(|| rng.gen_range(0.0..1.0) < 0.5))
                .collect(),
        ),
        _ => Column::from_strs(
            name,
            (0..n)
                .map(|_| (!null(rng)).then(|| check::string_of(rng, "ab\u{1f}", 2)))
                .collect(),
        ),
    };
    if rng.gen_range(0.0..1.0) < 0.5 {
        col
    } else {
        let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        col.take(&rows)
    }
}

fn assert_bits_eq(got: &Column, expected: &[Option<f64>], what: &str) {
    let got = got.to_f64();
    assert_eq!(got.len(), expected.len(), "{what}: length");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(g.map(f64::to_bits), e.map(f64::to_bits), "{what}: row {i}");
    }
}

#[test]
fn groupby_matches_rendered_oracle() {
    check::cases(96, |rng| {
        let n = rng.gen_range(1..60usize);
        let n_keys = rng.gen_range(1..4usize);
        let names = ["g0", "g1", "g2"];
        let mut columns: Vec<Column> = names[..n_keys]
            .iter()
            .map(|name| random_key_column(rng, name, n))
            .collect();
        columns.push(Column::from_floats(
            "v",
            (0..n)
                .map(|_| (rng.gen_range(0.0..1.0) < 0.85).then(|| rng.gen_range(-100.0..100.0)))
                .collect(),
        ));
        let df = DataFrame::from_columns(columns).unwrap();
        let group: Vec<&Column> = names[..n_keys]
            .iter()
            .map(|g| df.column(g).unwrap())
            .collect();
        for func in AggFunc::all() {
            let got = groupby_transform(&df, &names[..n_keys], "v", func, "out").unwrap();
            let expected = groupby_rendered(&group, df.column("v").unwrap(), func);
            assert_bits_eq(&got, &expected, &format!("{} over {df:?}", func.name()));
        }
    });
}

#[test]
fn frequency_encode_matches_rendered_oracle() {
    check::cases(96, |rng| {
        let n = rng.gen_range(1..60usize);
        let col = random_key_column(rng, "k", n);
        match (frequency_encode(&col, "f"), frequency_rendered(&col)) {
            (Ok(got), Some(expected)) => assert_bits_eq(&got, &expected, &format!("{col:?}")),
            (Err(_), None) => {}
            (got, expected) => panic!("{col:?}: {got:?} vs {expected:?}"),
        }
    });
}
