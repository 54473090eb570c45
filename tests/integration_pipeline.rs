//! End-to-end integration tests: the full SMARTFEAT pipeline over the
//! synthetic datasets, exercising every crate together.

use smartfeat_repro::core::config::{OperatorFamily, OperatorMask};
use smartfeat_repro::prelude::*;

fn run(ds: &Dataset, seed: u64) -> SmartFeatReport {
    let selector = SimulatedFm::gpt4(seed);
    let generator = SimulatedFm::gpt35(seed + 1);
    let tool = SmartFeat::new(&selector, &generator, SmartFeatConfig::default());
    tool.run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs")
}

#[test]
fn pipeline_runs_on_every_dataset() {
    for ds in smartfeat_repro::datasets::all_scaled(0.05, 3) {
        let report = run(&ds, 7);
        assert!(
            !report.generated.is_empty(),
            "{}: no features generated",
            ds.name
        );
        // Frame stays rectangular and keeps the target.
        assert!(report.frame.has_column(ds.target), "{}", ds.name);
        assert_eq!(report.frame.n_rows(), ds.frame.n_rows(), "{}", ds.name);
        // Every generated feature exists, has both classes of provenance
        // recorded, and appears in the final agenda.
        for g in &report.generated {
            assert!(report.frame.has_column(&g.name), "{}: {}", ds.name, g.name);
            assert!(report.agenda.has(&g.name), "{}: {}", ds.name, g.name);
            assert!(!g.columns.is_empty(), "{}: {}", ds.name, g.name);
        }
    }
}

#[test]
fn generated_features_pass_their_own_filter() {
    // Everything the filter admitted must itself be non-constant and
    // not overly null — the filter's postcondition.
    let ds = smartfeat_repro::datasets::by_name("Adult", 400, 5).expect("adult");
    let report = run(&ds, 11);
    for g in &report.generated {
        let col = report.frame.column(&g.name).expect("exists");
        assert!(!col.is_constant(), "{} is constant", g.name);
        assert!(
            col.null_fraction() <= 0.5,
            "{} is {:.0}% null",
            g.name,
            col.null_fraction() * 100.0
        );
    }
}

#[test]
fn insurance_example_reproduces_paper_features() {
    let ds = smartfeat_repro::datasets::insurance::generate(300, 7);
    let report = run(&ds, 42);
    let names = report.new_feature_names().join(",");
    assert!(names.contains("Bucketized_Age"), "F1 missing: {names}");
    assert!(
        names.contains("YearsSince_Age_of_car"),
        "F2 missing: {names}"
    );
    assert!(names.contains("GroupBy_"), "F3-style missing: {names}");
    assert!(names.contains("population_density"), "F4 missing: {names}");
}

#[test]
fn union_of_single_family_runs_is_consistent_with_families() {
    let ds = smartfeat_repro::datasets::by_name("Tennis", 250, 2).expect("tennis");
    for family in OperatorFamily::all() {
        let selector = SimulatedFm::gpt4(3);
        let generator = SimulatedFm::gpt35(4);
        let config = SmartFeatConfig {
            operators: OperatorMask::only(family),
            ..SmartFeatConfig::default()
        };
        let report = SmartFeat::new(&selector, &generator, config)
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("runs");
        for g in &report.generated {
            assert_eq!(g.family, family, "family leak: {:?}", g);
        }
    }
}

#[test]
fn usage_accounting_is_exact_across_runs() {
    let ds = smartfeat_repro::datasets::by_name("Diabetes", 250, 1).expect("diabetes");
    let selector = SimulatedFm::gpt4(5);
    let generator = SimulatedFm::gpt35(6);
    let tool = SmartFeat::new(&selector, &generator, SmartFeatConfig::default());
    let r1 = tool.run(&ds.frame, &ds.agenda("RF")).expect("runs");
    let r2 = tool.run(&ds.frame, &ds.agenda("RF")).expect("runs");
    // Per-run deltas must match the meters' totals.
    use smartfeat_repro::fm::FoundationModel;
    assert_eq!(
        selector.meter().snapshot().calls,
        r1.selector_usage.calls + r2.selector_usage.calls
    );
    assert_eq!(
        generator.meter().snapshot().calls,
        r1.generator_usage.calls + r2.generator_usage.calls
    );
}

#[test]
fn names_only_generates_no_more_than_full_descriptions() {
    let ds = smartfeat_repro::datasets::by_name("Tennis", 300, 9).expect("tennis");
    let full = run(&ds, 13);
    let selector = SimulatedFm::gpt4(13);
    let generator = SimulatedFm::gpt35(14);
    let bare = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
        .run(&ds.frame, &ds.agenda_names_only("RF"))
        .expect("runs");
    assert!(bare.generated.len() <= full.generated.len());
    // Sport-specific extraction needs the descriptions: the bare run must
    // not contain the weighted performance index.
    assert!(
        !bare
            .new_feature_names()
            .join(",")
            .contains("Performance_index")
            || full
                .new_feature_names()
                .join(",")
                .contains("Performance_index")
    );
}

#[test]
fn budget_exhaustion_surfaces_as_error() {
    let ds = smartfeat_repro::datasets::by_name("Heart", 250, 4).expect("heart");
    let selector = SimulatedFm::new(
        smartfeat_repro::fm::ModelSpec::gpt4(),
        smartfeat_repro::fm::FmConfig {
            seed: 0,
            call_budget: Some(3),
            ..smartfeat_repro::fm::FmConfig::default()
        },
    );
    let generator = SimulatedFm::gpt35(1);
    let result = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
        .run(&ds.frame, &ds.agenda("RF"));
    assert!(result.is_err(), "3-call budget cannot finish a full run");
}

/// 300 rows of `age,income,city,label` data under the given header line.
fn census_csv(header: &str) -> String {
    let mut text = format!("{header}\n");
    for i in 0..300u32 {
        let age = 18 + (i * 7) % 60;
        let income = 15_000 + (i * 3_517) % 90_000;
        let city = ["SF", "LA", "NY", "Seattle", "Chicago"][(i % 5) as usize];
        let label = u8::from(age > 40 && income > 50_000 || (i % 7 == 0));
        text.push_str(&format!("{age},{income},{city},{label}\n"));
    }
    text
}

/// Per family, the kept count and the kinds of the kept transforms of a
/// one-shot run over `csv`, with no column descriptions.
fn family_kinds(csv: &str) -> std::collections::BTreeMap<&'static str, Vec<String>> {
    let df = smartfeat_repro::frame::csv::read_csv_str(csv).expect("csv parses");
    let agenda = DataAgenda::from_frame(&df, &[], "Label", "RF");
    let selector = SimulatedFm::gpt4(42);
    let generator = SimulatedFm::gpt35(43);
    let report = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
        .run(&df, &agenda)
        .expect("pipeline runs");
    let mut out: std::collections::BTreeMap<&'static str, Vec<String>> = Default::default();
    for g in &report.generated {
        let kind = g
            .transform
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .next()
            .unwrap_or_default();
        out.entry(g.family.name())
            .or_default()
            .push(kind.to_string());
    }
    for kinds in out.values_mut() {
        kinds.sort();
    }
    out
}

#[test]
fn column_names_with_parentheses_and_colons_are_read_whole() {
    // The data card annotates each name as `Name (dtype, distinct=N)`, so
    // a name holding `(` or `:` must not be cut at it: the FM would then
    // propose features on columns that do not exist.
    let plain = family_kinds(&census_csv("Age,Income,City,Label"));
    let marked = family_kinds(&census_csv("Age (years),Income: USD,City,Label"));
    let kept: usize = plain.values().map(Vec::len).sum();
    assert!(kept > 4, "{plain:?}");
    assert_eq!(marked, plain);
}
