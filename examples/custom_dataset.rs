//! Bring-your-own-data walkthrough: load a CSV, describe its columns, run
//! SMARTFEAT, inspect what was generated and why features were skipped.
//!
//! (The CSV is written to a temp file first so the example is
//! self-contained; point `read_csv_path` at your own file instead.)
//!
//! Run with: `cargo run --release --example custom_dataset`

use smartfeat_repro::frame::csv;
use smartfeat_repro::prelude::*;

fn main() {
    // A small clinic-visits table. Note the date column and the city —
    // both trigger context-specific operators.
    let mut csv_text =
        String::from("patient_age,visit_date,city,bmi,glucose_level,monthly_income,readmitted\n");
    let cities = ["SF", "LA", "SEA", "NYC"];
    for i in 0..240u32 {
        let age = 20 + (i * 7) % 60;
        let date = format!("2023-{:02}-{:02}", 1 + (i % 12), 1 + (i % 28));
        let city = cities[(i as usize) % 4];
        let bmi = 19.0 + ((i * 13) % 210) as f64 / 10.0;
        let glucose = 80 + (i * 11) % 110;
        let income = 2500 + (i * 37) % 7000;
        let readmitted = u8::from(glucose > 125 || bmi > 31.0) ^ u8::from(i % 7 == 0);
        csv_text.push_str(&format!(
            "{age},{date},{city},{bmi:.1},{glucose},{income},{readmitted}\n"
        ));
    }
    let path = std::env::temp_dir().join("smartfeat_custom_example.csv");
    std::fs::write(&path, &csv_text).expect("temp file writable");

    // 1. Load.
    let df = csv::read_csv_path(&path).expect("csv parses");
    println!("Loaded {} rows × {} columns", df.n_rows(), df.n_cols());

    // 2. Describe — this is the \"data card\" a Kaggle dataset would carry.
    let agenda = DataAgenda::from_frame(
        &df,
        &[
            ("patient_age", "Age of the patient in years"),
            ("visit_date", "Date of the clinic visit"),
            ("city", "City where the patient lives"),
            ("bmi", "Body mass index of the patient"),
            ("glucose_level", "Fasting plasma glucose (mg/dL)"),
            ("monthly_income", "Self-reported monthly income in dollars"),
        ],
        "readmitted",
        "RF",
    );

    // 3. Run SMARTFEAT.
    let selector_fm = SimulatedFm::gpt4(3);
    let generator_fm = SimulatedFm::gpt35(4);
    let tool = SmartFeat::new(&selector_fm, &generator_fm, SmartFeatConfig::default());
    let report = tool.run(&df, &agenda).expect("pipeline runs");

    // 4. Inspect.
    println!("\n{}", report.summary());
    println!("Generated features and their transforms:");
    for g in &report.generated {
        println!("  {:<34} {}", g.name, g.transform);
    }
    println!("\nSkipped candidates (and why):");
    for s in report.skipped.iter().take(10) {
        println!("  {:<34} {:?}", s.name, s.reason);
    }
    if !report.source_suggestions.is_empty() {
        println!("\nSuggested external sources:");
        for (feature, source) in &report.source_suggestions {
            println!("  {feature}: {source}");
        }
    }

    // 5. The augmented frame is a regular DataFrame — save it back out.
    let out_path = std::env::temp_dir().join("smartfeat_custom_example_out.csv");
    std::fs::write(&out_path, csv::write_csv_str(&report.frame)).expect("csv writes");
    println!(
        "\nAugmented dataset ({} columns) written to {}",
        report.frame.n_cols(),
        out_path.display()
    );
}
