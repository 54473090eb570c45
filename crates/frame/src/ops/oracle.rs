//! Rendered-key reference implementations of the key-code transforms.
//!
//! `groupby_transform` and `frequency_encode` group cells by
//! [`Column::key_codes`]. These copies group by the rendered strings
//! instead (composite keys as `Vec<String>` tuples), and the differential
//! tests below hold the two to bit-identical output over random frames of
//! every key dtype.

use std::collections::{BTreeMap, BTreeSet};

use smartfeat_rng::{check, Rng};

use super::encode::frequency_encode;
use super::groupby::{groupby_transform, AggFunc};
use crate::column::{dense_table_limit, Column, ColumnData};
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
/// `Int` keys come from `-3..3` or, for the hash-indexed codes, from a
/// pool of values that spans more than [`dense_table_limit`], with
/// `i64::MIN` and `i64::MAX` in it.
fn random_key_column(rng: &mut Rng, name: &str, n: usize) -> Column {
    let null = |rng: &mut Rng| rng.gen_range(0.0..1.0) < 0.15;
    let col = match rng.gen_range(0..5u32) {
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
        3 => wide_int_column(rng, name, n),
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

/// An `Int` key column, with nulls, drawn from a pool of `n + 4` values
/// that holds `i64::MIN` and `i64::MAX`: a span wider than any dense
/// table, and about `0.6·n` distinct values.
fn wide_int_column(rng: &mut Rng, name: &str, n: usize) -> Column {
    let mut pool = vec![i64::MIN, i64::MAX, -1, 0];
    pool.extend((0..n).map(|_| rng.next_u64() as i64));
    Column::from_ints(
        name,
        (0..n)
            .map(|_| {
                rng.gen_bool(0.85)
                    .then(|| pool[rng.gen_range(0..pool.len())])
            })
            .collect(),
    )
}

/// Whether `key_codes` numbers an `Int` column's values through the hash
/// index: their span exceeds the dense table's limit.
fn int_codes_hashed(col: &Column) -> Option<bool> {
    let ColumnData::Int { values, validity } = col.data() else {
        return None;
    };
    let present = || {
        values
            .iter()
            .enumerate()
            .filter(|&(i, _)| validity.is_valid(i))
            .map(|(_, &v)| v)
    };
    let (lo, hi) = (present().min()?, present().max()?);
    Some(hi.abs_diff(lo) >= dense_table_limit(col.len()))
}

/// For each key column after the first, whether `group_slots` splits the
/// slots of the keys before it through the hash index: the distinct
/// present tuples so far, times the column's code count, exceed the dense
/// table's limit.
fn slot_steps_hashed(keys: &[&Column]) -> Vec<bool> {
    let rows = keys.first().map_or(0, |k| k.len());
    let rendered: Vec<Vec<Option<String>>> = keys.iter().map(|k| k.to_keys()).collect();
    (1..keys.len())
        .map(|j| {
            let tuples: BTreeSet<Vec<&String>> = (0..rows)
                .filter_map(|i| rendered[..j].iter().map(|k| k[i].as_ref()).collect())
                .collect();
            let pairs = tuples.len() as u64 * keys[j].key_codes().n_codes() as u64;
            pairs > dense_table_limit(rows)
        })
        .collect()
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
    let (mut int_dense, mut int_hashed) = (0, 0);
    let (mut slots_dense, mut slots_hashed) = (0, 0);
    check::cases(160, |rng| {
        // A large frame leads with two wide `Int` keys, so their slots
        // compose through the hash index.
        let large = rng.gen_bool(0.2);
        let (n, n_keys) = if large {
            (rng.gen_range(100..300usize), rng.gen_range(2..4usize))
        } else {
            (rng.gen_range(1..60usize), rng.gen_range(1..4usize))
        };
        let names = ["g0", "g1", "g2"];
        let mut columns: Vec<Column> = names[..n_keys]
            .iter()
            .enumerate()
            .map(|(j, name)| {
                if large && j < 2 {
                    wide_int_column(rng, name, n)
                } else {
                    random_key_column(rng, name, n)
                }
            })
            .collect();
        columns.push(Column::from_floats(
            "v",
            (0..n)
                .map(|_| {
                    // Planted cells: a group of `-0.0` alone sums to
                    // `-0.0` only from `f64::sum`'s neutral element, and
                    // infinities make non-finite aggregates.
                    (rng.gen_range(0.0..1.0) < 0.85).then(|| match rng.gen_range(0..5u32) {
                        0 => PLANTED[rng.gen_range(0..PLANTED.len())],
                        _ => rng.gen_range(-100.0..100.0),
                    })
                })
                .collect(),
        ));
        let df = DataFrame::from_columns(columns).unwrap();
        let group: Vec<&Column> = names[..n_keys]
            .iter()
            .map(|g| df.column(g).unwrap())
            .collect();
        for hashed in group.iter().filter_map(|g| int_codes_hashed(g)) {
            *(if hashed {
                &mut int_hashed
            } else {
                &mut int_dense
            }) += 1;
        }
        for hashed in slot_steps_hashed(&group) {
            *(if hashed {
                &mut slots_hashed
            } else {
                &mut slots_dense
            }) += 1;
        }
        for func in AggFunc::all() {
            let got = groupby_transform(&df, &names[..n_keys], "v", func, "out").unwrap();
            let expected = groupby_rendered(&group, df.column("v").unwrap(), func);
            assert_bits_eq(&got, &expected, &format!("{} over {df:?}", func.name()));
        }
    });
    // Both the dense and the hashed path of `Int` key codes and of the
    // slot composition run often enough for the agreement to mean
    // something.
    assert!(
        int_dense >= 25 && int_hashed >= 50,
        "{int_dense} / {int_hashed}"
    );
    assert!(
        slots_dense >= 60 && slots_hashed >= 15,
        "{slots_dense} / {slots_hashed}"
    );
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
