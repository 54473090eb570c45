//! CSV boundary policy for non-finite cells, end to end: what the reader
//! stores for `1e400`, `inf`, `-inf` and `nan`, and that every strategy
//! runs over such a file to the same frame at 1 and 4 threads without
//! storing a `NaN`.

use smartfeat::{build_role_fms, DataAgenda, SearchStrategyKind, SmartFeat, SmartFeatConfig};
use smartfeat_frame::{csv, ColumnData, DataFrame, Value};

/// Ten rows; `a` and `b` carry every non-finite spelling besides
/// ordinary values, row 5 is infinite in both (so `a + b` and `a / b`
/// are NaN there), and `g` gives the groupby family a key.
const NON_FINITE_CSV: &str = "\
a,b,g,label
1.5,2.0,x,1
1e400,3.0,y,0
2.5,inf,x,1
3.0,-inf,y,0
4.5,nan,x,1
inf,-inf,y,0
-inf,2.5,x,1
nan,4.0,y,0
6.0,5.5,x,1
7.5,-1.0,y,0
";

/// A run of `kind` over [`NON_FINITE_CSV`] with the `smartfeat` binary's
/// defaults, inside a run context of `threads` threads: its frame, and
/// its summary followed by the frame as CSV text.
fn run(df: &DataFrame, kind: SearchStrategyKind, threads: usize) -> (DataFrame, String) {
    let mut config = SmartFeatConfig::default();
    config.search.strategy = kind;
    let agenda = DataAgenda::from_frame(df, &[], "label", "RF");
    let (selector, generator) = build_role_fms(&config);
    let report = smartfeat_par::within(threads, || {
        SmartFeat::new(selector.as_ref(), generator.as_ref(), config)
            .run(df, &agenda)
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", kind.name()))
    });
    let text = format!("{}{}", report.summary(), csv::write_csv_str(&report.frame));
    (report.frame, text)
}

#[test]
fn reader_stores_overflow_as_infinity_and_nan_as_null() {
    let df = csv::read_csv_str(NON_FINITE_CSV).expect("parses");
    let a = df.column("a").expect("a");
    assert_eq!(a.get(1), Value::Float(f64::INFINITY), "1e400");
    assert_eq!(a.get(5), Value::Float(f64::INFINITY), "inf");
    assert_eq!(a.get(6), Value::Float(f64::NEG_INFINITY), "-inf");
    assert!(a.is_null(7), "nan is read as null");
    let b = df.column("b").expect("b");
    assert_eq!(b.get(2), Value::Float(f64::INFINITY), "inf");
    assert_eq!(b.get(3), Value::Float(f64::NEG_INFINITY), "-inf");
    assert_eq!(b.get(5), Value::Float(f64::NEG_INFINITY), "-inf");
    assert!(b.is_null(4), "nan is read as null");
    assert_eq!(a.null_count() + b.null_count(), 2);
}

#[test]
fn every_strategy_runs_over_non_finite_cells_without_storing_nan() {
    let df = csv::read_csv_str(NON_FINITE_CSV).expect("parses");
    let mut generated = 0;
    for kind in SearchStrategyKind::all() {
        let (frame, serial) = run(&df, kind, 1);
        let (_, pooled) = run(&df, kind, 4);
        assert_eq!(serial, pooled, "{}: 1 and 4 threads differ", kind.name());
        for name in frame.column_names() {
            generated += usize::from(!df.has_column(name));
            let column = frame.column(name).expect("listed column");
            if let ColumnData::Float { values, .. } = column.data() {
                assert!(
                    !values.iter().any(|v| v.is_nan()),
                    "{}: column {name} stores a NaN",
                    kind.name()
                );
            }
        }
    }
    assert!(generated > 0, "no strategy built a feature over the file");
}
