//! Property-based tests over the v2 columnar engine: dictionary
//! encoding, null bitmaps, the deterministic hash index, and CSV dtype
//! fidelity. Driven by the in-repo `smartfeat_rng::check` harness, so
//! every case is seeded and replayable.

mod common;

use std::collections::BTreeMap;

use smartfeat_repro::frame::bitmap::{BitmapBuilder, NullBitmap};
use smartfeat_repro::frame::csv;
use smartfeat_repro::frame::ops::{
    bucketize, clip, groupby_transform, normalize, AggFunc, NormKind,
};
use smartfeat_repro::frame::stats::{
    pearson_pairs, Centred, PearsonProbe, CROSS_CHUNK_ROWS, CROSS_LANES,
};
use smartfeat_repro::frame::{DType, StableMap};
use smartfeat_repro::prelude::*;
use smartfeat_repro::rng::check;
use smartfeat_repro::rng::Rng;

/// Random nullable string cells over a small alphabet (forces repeats,
/// so dictionary interning actually deduplicates).
fn string_cells(rng: &mut Rng) -> Vec<Option<String>> {
    check::vec_with(rng, 1..80, |rng| {
        if rng.gen_range(0.0..1.0) < 0.15 {
            None
        } else {
            Some(check::string_of(rng, "abcxyz", 3))
        }
    })
}

/// Random nullable float cells.
fn float_cells(rng: &mut Rng) -> Vec<Option<f64>> {
    check::vec_with(rng, 1..80, |rng| {
        if rng.gen_range(0.0..1.0) < 0.2 {
            None
        } else {
            Some(rng.gen_range(-1e4..1e4))
        }
    })
}

#[test]
fn dict_encoding_roundtrips_every_cell() {
    check::cases(64, |rng| {
        let cells = string_cells(rng);
        let col = Column::from_strs("s", cells.clone());
        let view = col.keys_view();
        assert_eq!(view.len(), cells.len());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(view.get(i), cell.as_deref(), "row {i}");
        }
        // The fused iterator agrees with indexed access.
        let iterated: Vec<Option<&str>> = view.iter().collect();
        let indexed: Vec<Option<&str>> = (0..cells.len()).map(|i| view.get(i)).collect();
        assert_eq!(iterated, indexed);
    });
}

#[test]
fn null_bitmap_agrees_with_option_cells() {
    check::cases(64, |rng| {
        let cells = float_cells(rng);
        let col = Column::from_floats("x", cells.clone());
        let nulls = cells.iter().filter(|c| c.is_none()).count();
        assert_eq!(col.null_count(), nulls);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(col.is_null(i), cell.is_none(), "row {i}");
        }
        // The packed view round-trips to the v1 materialized shape.
        assert_eq!(col.to_f64(), cells);
    });
}

#[test]
fn bitmap_builder_matches_push_loop() {
    check::cases(64, |rng| {
        let flags = check::vec_with(rng, 0..200, |rng| rng.gen_range(0.0..1.0) < 0.5);
        // Word-buffered construction (from_flags uses BitmapBuilder) must
        // equal bit-at-a-time push — including zeroed tail bits, so plain
        // equality is wordwise.
        let built = NullBitmap::from_flags(flags.iter().copied());
        let mut pushed = NullBitmap::new();
        for &f in &flags {
            pushed.push(f);
        }
        assert_eq!(built, pushed);
        let mut b = BitmapBuilder::with_capacity(flags.len());
        for &f in &flags {
            b.push(f);
        }
        assert_eq!(b.finish(), pushed);
        // for_each_null visits exactly the false flags, in order.
        let mut nulls = Vec::new();
        built.for_each_null(|i| nulls.push(i));
        let expected: Vec<usize> = flags
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| (!f).then_some(i))
            .collect();
        assert_eq!(nulls, expected);
    });
}

#[test]
fn stable_map_agrees_with_btreemap_oracle() {
    check::cases(64, |rng| {
        let keys = check::vec_with(rng, 0..120, |rng| check::string_of(rng, "abcd", 3));
        let mut stable: StableMap<String, usize> = StableMap::new();
        let mut oracle: BTreeMap<String, usize> = BTreeMap::new();
        let mut first_seen: Vec<String> = Vec::new();
        for k in &keys {
            *stable.entry_or_insert_with(k.clone(), || 0) += 1;
            *oracle.entry(k.clone()).or_insert(0) += 1;
            if !first_seen.contains(k) {
                first_seen.push(k.clone());
            }
        }
        assert_eq!(stable.len(), oracle.len());
        for (k, v) in &oracle {
            assert_eq!(stable.get(k.as_str()), Some(v), "key {k:?}");
        }
        // Iteration is first-occurrence order, not hash or sorted order.
        let order: Vec<&String> = stable.keys().collect();
        assert_eq!(order, first_seen.iter().collect::<Vec<_>>());
    });
}

#[test]
fn groupby_and_factorize_agree_with_btreemap_oracle() {
    check::cases(48, |rng| {
        let groups = string_cells(rng);
        let n = groups.len();
        let values: Vec<Option<f64>> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0) < 0.85).then(|| rng.gen_range(-100.0..100.0)))
            .collect();
        let mut df = DataFrame::from_columns(vec![
            Column::from_strs("g", groups.clone()),
            Column::from_floats("v", values.clone()),
        ])
        .expect("consistent lengths");

        // groupby mean through the StableMap index vs a BTreeMap oracle.
        let got = groupby_transform(&df, &["g"], "v", AggFunc::Mean, "m").expect("runs");
        let mut agg: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for (g, v) in groups.iter().zip(&values) {
            if let (Some(g), Some(v)) = (g, v) {
                let slot = agg.entry(g.as_str()).or_insert((0.0, 0));
                slot.0 += v;
                slot.1 += 1;
            }
        }
        for (i, g) in groups.iter().enumerate() {
            let expected = g
                .as_deref()
                .and_then(|g| agg.get(g))
                .map(|&(s, c)| s / c as f64);
            assert_eq!(got.to_f64()[i], expected, "row {i}");
        }

        // factorize codes: first-seen order, same per-row assignment as a
        // BTreeMap-probed first-seen walk.
        let books = df.factorize_strings();
        let mut oracle_codes: BTreeMap<String, i64> = BTreeMap::new();
        let mut oracle_book: Vec<String> = Vec::new();
        let expected_rows: Vec<Option<i64>> = groups
            .iter()
            .map(|g| {
                g.as_ref().map(|g| match oracle_codes.get(g) {
                    Some(&c) => c,
                    None => {
                        let c = oracle_book.len() as i64;
                        oracle_codes.insert(g.clone(), c);
                        oracle_book.push(g.clone());
                        c
                    }
                })
            })
            .collect();
        assert_eq!(books.get("g").map(|b| b.as_slice()), Some(&oracle_book[..]));
        let coded = df.column("g").expect("exists");
        for (i, expected) in expected_rows.iter().enumerate() {
            match expected {
                None => assert!(coded.is_null(i), "row {i} should stay null"),
                Some(c) => assert_eq!(coded.get(i).as_f64(), Some(*c as f64), "row {i}"),
            }
        }
    });
}

#[test]
fn csv_roundtrip_preserves_dtypes() {
    check::cases(48, |rng| {
        // A Str column of numeric-looking text is the adversarial case:
        // without writer quoting it would re-infer as Int/Float.
        let numeric_text = check::vec_with(rng, 1..40, |rng| {
            if rng.gen_range(0.0..1.0) < 0.1 {
                None
            } else {
                Some(format!("{:04}", rng.gen_range(0..10_000i64)))
            }
        });
        let n = numeric_text.len();
        let ints: Vec<Option<i64>> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0) < 0.85).then(|| rng.gen_range(-999..999i64)))
            .collect();
        let floats: Vec<Option<f64>> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0) < 0.85).then(|| rng.gen_range(-1e3..1e3)))
            .collect();
        let df = DataFrame::from_columns(vec![
            Column::from_strs("code", numeric_text),
            Column::from_ints("i", ints),
            Column::from_floats("f", floats),
        ])
        .expect("consistent lengths");
        assert!(common::roundtrip_equal(&df), "dtype drift through CSV");
        let back = csv::read_csv_str(&csv::write_csv_str(&df)).expect("parses");
        assert_eq!(back.column("code").expect("exists").dtype(), DType::Str);
    });
}

#[test]
fn packed_transforms_preserve_null_positions() {
    check::cases(64, |rng| {
        let cells = float_cells(rng);
        let col = Column::from_floats("x", cells.clone());
        let kind = if rng.gen_range(0.0..1.0) < 0.5 {
            NormKind::MinMax
        } else {
            NormKind::ZScore
        };
        let normalized = normalize(&col, kind, "n").expect("numeric");
        let bucketed = bucketize(&col, &[-100.0, 0.0, 100.0], "b").expect("numeric");
        let clipped = clip(&col, -50.0, 50.0, "c").expect("numeric");
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(normalized.is_null(i), cell.is_none(), "normalize row {i}");
            assert_eq!(bucketed.is_null(i), cell.is_none(), "bucketize row {i}");
            assert_eq!(clipped.is_null(i), cell.is_none(), "clip row {i}");
        }
        // The packed fast path agrees with a per-cell recompute.
        for (i, cell) in cells.iter().enumerate() {
            if let Some(v) = cell {
                let expected = v.clamp(-50.0, 50.0);
                assert_eq!(clipped.to_f64()[i], Some(expected), "clip value row {i}");
            }
        }
    });
}

#[test]
fn value_counts_agrees_with_scan_oracle() {
    check::cases(64, |rng| {
        let cells = string_cells(rng);
        let col = Column::from_strs("s", cells.clone());
        let mut oracle: BTreeMap<String, usize> = BTreeMap::new();
        for cell in cells.iter().flatten() {
            *oracle.entry(cell.clone()).or_insert(0) += 1;
        }
        assert_eq!(col.value_counts(), oracle);
        assert_eq!(col.cardinality(), oracle.len());
        assert_eq!(col.is_constant(), oracle.len() <= 1);
    });
}

/// One column of each dtype plus an all-null one, each alongside a
/// `take`-derived copy (whose `Str` book holds codes no row uses). Floats
/// plant values whose renders are hard to tell apart: signed zeros, the
/// infinities, and integral values on both sides of the 1e15 switch
/// between `{v:.1}` and shortest-roundtrip rendering.
fn mixed_dtype_columns(rng: &mut Rng) -> Vec<Column> {
    const PLANTED: [f64; 9] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e15,
        -1e15,
        1e15 + 2.0,
        999_999_999_999_999.0,
        1.234_567_890_123_456_8e17,
    ];
    let mut floats = float_cells(rng);
    for cell in floats.iter_mut() {
        if rng.gen_range(0.0..1.0) < 0.3 {
            *cell = Some(PLANTED[rng.gen_range(0..PLANTED.len())]);
        }
    }
    let n = floats.len();
    let ints = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0) < 0.8).then(|| rng.gen_range(-5..5i64)))
        .collect();
    let bools = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0) < 0.8).then(|| rng.gen_range(0.0..1.0) < 0.5))
        .collect();
    let columns = [
        Column::from_floats("f", floats),
        Column::from_ints("i", ints),
        Column::from_bools("b", bools),
        Column::from_strs("s", string_cells(rng)),
        Column::from_floats("null", vec![None; n]),
    ];
    let mut out = Vec::with_capacity(2 * columns.len());
    for col in columns {
        let rows = check::vec_with(rng, 0..2 * col.len(), |rng| rng.gen_range(0..col.len()));
        let taken = col.take(&rows);
        out.push(col);
        out.push(taken);
    }
    out
}

#[test]
fn cardinality_agrees_with_value_counts() {
    check::cases(96, |rng| {
        for c in mixed_dtype_columns(rng) {
            assert_eq!(c.cardinality(), c.value_counts().len(), "{c:?}");
        }
    });
}

#[test]
fn key_codes_agree_with_rendered_keys() {
    check::cases(96, |rng| {
        for c in mixed_dtype_columns(rng) {
            let codes = c.key_codes();
            let keys = c.to_keys();
            assert_eq!(codes.len(), keys.len(), "{c:?}");
            assert_eq!(
                codes.iter().collect::<Vec<_>>(),
                (0..c.len()).map(|i| codes.get(i)).collect::<Vec<_>>()
            );
            for (i, key) in keys.iter().enumerate() {
                let code = codes.get(i);
                assert_eq!(
                    code.is_some(),
                    key.is_some(),
                    "null mismatch at row {i} of {c:?}"
                );
                assert!(code.is_none_or(|k| (k as usize) < codes.n_codes()), "{c:?}");
                for (j, other) in keys.iter().enumerate() {
                    if let (Some(a), Some(b)) = (key, other) {
                        assert_eq!(code == codes.get(j), a == b, "rows {i}, {j} of {c:?}");
                    }
                }
            }
        }
    });
}

/// One complete numeric column of `rows` cells in a random storage type
/// and shape: spread values, a constant, an affine copy of `base`, or
/// floats with planted `±inf` cells.
fn complete_numeric(rng: &mut Rng, name: &str, rows: usize, base: &[f64]) -> Column {
    match rng.gen_range(0..6usize) {
        0 => Column::from_i64(name, (0..rows).map(|_| rng.gen_range(-5..6i64)).collect()),
        1 => Column::from_bools(name, (0..rows).map(|_| Some(rng.gen_bool(0.5))).collect()),
        2 => {
            let v = rng.gen_range(-3.0..3.0);
            Column::from_f64(name, vec![v; rows])
        }
        3 => {
            let (a, b) = (rng.gen_range(0.1..50.0), rng.gen_range(-1e3..1e3));
            Column::from_f64(name, base.iter().map(|x| a * x + b).collect())
        }
        4 => {
            let planted = [f64::INFINITY, f64::NEG_INFINITY];
            let cells = (0..rows).map(|_| match rng.gen_range(0..20usize) {
                0 => planted[rng.gen_range(0..2usize)],
                _ => rng.gen_range(-1e4..1e4),
            });
            Column::from_f64(name, cells.collect())
        }
        _ => Column::from_f64(name, (0..rows).map(|_| rng.gen_range(-1e4..1e4)).collect()),
    }
}

/// `Centred::pearson` against 1–17 complete columns (every remainder of
/// the lane block) gives each column the bits of `pearson_pairs` over
/// the same pairs in row order, at the `min_pairs` edge (n = 3) and on
/// row counts that cross the chunk boundary. A column with a null gets
/// `None`.
#[test]
fn cross_term_kernel_is_bit_identical_to_pearson_pairs() {
    let sizes = [
        3,
        4,
        CROSS_CHUNK_ROWS - 1,
        CROSS_CHUNK_ROWS,
        CROSS_CHUNK_ROWS + 1,
        2 * CROSS_CHUNK_ROWS + 5,
    ];
    let (mut some, mut none) = (0, 0);
    check::cases(48, |rng| {
        let rows = match rng.gen_range(0..3usize) {
            0 => rng.gen_range(3..40usize),
            _ => sizes[rng.gen_range(0..sizes.len())],
        };
        let base: Vec<f64> = (0..rows).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let cand = match rng.gen_range(0..4usize) {
            0 => Column::from_f64("cand", base.clone()),
            _ => complete_numeric(rng, "cand", rows, &base),
        };
        let Some(centred) = Centred::of(&cand) else {
            panic!("complete candidate {cand:?} has no moments");
        };
        for count in 1..=2 * CROSS_LANES + 1 {
            let mut others: Vec<Column> = (0..count)
                .map(|i| complete_numeric(rng, &format!("e{i}"), rows, &base))
                .collect();
            let nulls = (0..rows)
                .map(|_| rng.gen_bool(0.9).then(|| rng.gen_range(-5.0..5.0)))
                .collect();
            let with_null = rng.gen_range(0..count + 1);
            if with_null < count {
                others[with_null] = Column::from_floats("nulls", nulls);
            }
            let refs: Vec<&Column> = others.iter().collect();
            let got = centred.pearson(&refs, 3);
            assert_eq!(got.len(), count);
            for (e, r) in others.iter().zip(&got) {
                let (Ok(x), Ok(y)) = (cand.numeric_view(), e.numeric_view()) else {
                    panic!("numeric columns");
                };
                let expected = if e.null_count() > 0 {
                    None
                } else {
                    let pairs = x.iter().zip(y.iter()).filter_map(|(a, b)| Some((a?, b?)));
                    pearson_pairs(pairs, 3)
                };
                assert_eq!(
                    r.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "{rows} rows, {count} columns: {:?} candidate vs {:?} {}",
                    cand.dtype(),
                    e.dtype(),
                    e.name()
                );
                if r.is_some() {
                    some += 1;
                } else {
                    none += 1;
                }
            }
        }
    });
    // Both a defined r and each `None` cause occur often enough for the
    // bit comparison to mean something.
    assert!(some >= 500 && none >= 100, "{some} / {none}");
}

/// The duplicate scan's threshold.
const DUPLICATE_R: f64 = 0.9999;

/// One complete column for the early-stopping probe: any shape of
/// [`complete_numeric`], a near-duplicate of `base` whose noise puts `r`
/// on either side of [`DUPLICATE_R`], or a column that is constant until
/// its last chunk. The flag says which is a near-duplicate.
fn probe_column(rng: &mut Rng, name: &str, rows: usize, base: &[f64]) -> (Column, bool) {
    match rng.gen_range(0..4usize) {
        0 => {
            // r ≈ 1/√(1 + h²/(3·a²·var(base))) for uniform noise in ±h;
            // var(base) ≈ 3333, so h ≈ 1.4·a puts r at the threshold.
            let (a, b) = (rng.gen_range(0.5..20.0), rng.gen_range(-50.0..50.0));
            let h = a * rng.gen_range(0.5..3.0);
            let cells = base.iter().map(|x| a * x + b + rng.gen_range(-h..h));
            (Column::from_f64(name, cells.collect()), true)
        }
        1 => {
            let last = rows - 1 - (rows - 1) % CROSS_CHUNK_ROWS;
            let cells = (0..rows).map(|i| {
                if i < last {
                    7
                } else {
                    rng.gen_range(-9..10i64)
                }
            });
            (Column::from_i64(name, cells.collect()), false)
        }
        _ => (complete_numeric(rng, name, rows, base), false),
    }
}

/// `PearsonProbe::exceeds` gives every lane the verdict
/// `pearson_pairs(…).is_some_and(|r| r > 0.9999)` gives, whether the lane
/// stopped early or ran to the end: 1–17 lanes, Int/Float/Bool storage,
/// n = 3 and row counts that cross several chunks, `±inf` cells, zero
/// variance, near-duplicates on both sides of the threshold, and
/// columns whose variance sits in the last chunk. A column with a null
/// never exceeds.
#[test]
fn early_stopping_probe_agrees_with_pearson_pairs() {
    let sizes = [
        3,
        CROSS_CHUNK_ROWS + 1,
        2 * CROSS_CHUNK_ROWS + 45,
        3 * CROSS_CHUNK_ROWS + 77,
        5 * CROSS_CHUNK_ROWS + 13,
    ];
    let (mut stopped, mut ran) = (0, 0);
    let (mut near_above, mut near_below) = (0, 0);
    check::cases(40, |rng| {
        let rows = match rng.gen_range(0..4usize) {
            0 => rng.gen_range(3..40usize),
            _ => sizes[rng.gen_range(0..sizes.len())],
        };
        let base: Vec<f64> = (0..rows).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let shape = rng.gen_range(0..5usize);
        let cand = match shape {
            0 | 1 => Column::from_f64("cand", base.clone()),
            2 => Column::from_i64("cand", base.iter().map(|x| x.round() as i64).collect()),
            3 => Column::from_bools("cand", base.iter().map(|x| Some(*x > 0.0)).collect()),
            _ => probe_column(rng, "cand", rows, &base).0,
        };
        let probe = PearsonProbe::of(&cand).expect("complete candidate");
        for count in 1..=2 * CROSS_LANES + 1 {
            let (mut others, near): (Vec<Column>, Vec<bool>) = (0..count)
                .map(|i| probe_column(rng, &format!("e{i}"), rows, &base))
                .unzip();
            let with_null = rng.gen_range(0..2 * count);
            if with_null < count {
                let cells = (0..rows).map(|i| (i % 5 != 1).then_some(i as f64));
                others[with_null] = Column::from_floats("nulls", cells.collect());
            }
            let refs: Vec<&Column> = others.iter().collect();
            let got = probe.exceeds(&refs, 3, DUPLICATE_R);
            assert_eq!(got.len(), count);
            let x = cand.numeric_view().expect("numeric candidate");
            for ((e, verdict), near) in others.iter().zip(&got).zip(near) {
                let y = e.numeric_view().expect("numeric column");
                let expected = e.null_count() == 0 && {
                    let pairs = x.iter().zip(y.iter()).filter_map(|(a, b)| Some((a?, b?)));
                    pearson_pairs(pairs, 3).is_some_and(|r| r > DUPLICATE_R)
                };
                assert_eq!(
                    verdict.exceeds,
                    expected,
                    "{rows} rows, {count} columns: {:?} candidate vs {:?} {} after {} rows",
                    cand.dtype(),
                    e.dtype(),
                    e.name(),
                    verdict.rows_read
                );
                if e.null_count() > 0 {
                    continue;
                }
                if verdict.rows_read < rows {
                    stopped += 1;
                } else {
                    ran += 1;
                }
                if near && shape <= 2 && rows > 3 {
                    if expected {
                        near_above += 1;
                    } else {
                        near_below += 1;
                    }
                }
            }
        }
    });
    // Both ways a verdict is reached, and both sides of the threshold
    // among near-duplicates, occur often enough to mean something.
    assert!(
        stopped >= 1000 && ran >= 1000,
        "{stopped} stopped / {ran} ran"
    );
    assert!(
        near_above >= 100 && near_below >= 100,
        "{near_above} above / {near_below} below"
    );
}
