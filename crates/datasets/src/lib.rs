//! # smartfeat-datasets
//!
//! Seeded synthetic generators reproducing the paper's eight evaluation
//! datasets (Table 3): Diabetes, Heart, Bank, Adult, Housing, Lawschool,
//! West Nile Virus, and Tennis.
//!
//! The real datasets are Kaggle downloads we cannot ship; these generators
//! match their **shape** (row counts, categorical/numeric column splits,
//! field) and — more importantly — their **signal structure**: each label
//! is generated from *derived* quantities (clinically bucketized
//! measurements, per-group historical rates, ratios, weighted indices,
//! world-knowledge lookups) plus noise. A feature-engineering tool that
//! reconstructs those derivations gains AUC; context-free expansion mostly
//! adds noise. Two datasets (Bank, Lawschool) are deliberately
//! "well-constructed" — their labels depend almost linearly on the raw
//! features — reproducing the paper's observation that feature engineering
//! barely moves them.
//!
//! Every dataset ships a data card (per-column descriptions) used to build
//! the [`smartfeat::DataAgenda`]; Tennis uses the paper's abbreviated
//! column names (`FSP.1`, …), powering the feature-description ablation.

pub mod adult;
pub mod bank;
pub mod common;
pub mod diabetes;
pub mod heart;
pub mod housing;
pub mod insurance;
pub mod lawschool;
pub mod tennis;
pub mod wnv;

pub use common::Dataset;

/// Paper row counts (Table 3).
pub const PAPER_ROWS: &[(&str, usize)] = &[
    ("Diabetes", 769),
    ("Heart", 3657),
    ("Bank", 41189),
    ("Adult", 30163),
    ("Housing", 20641),
    ("Lawschool", 4591),
    ("West Nile Virus", 10507),
    ("Tennis", 944),
];

/// Generate one dataset by paper name with an explicit row count.
pub fn by_name(name: &str, rows: usize, seed: u64) -> Option<Dataset> {
    match name {
        "Diabetes" => Some(diabetes::generate(rows, seed)),
        "Heart" => Some(heart::generate(rows, seed)),
        "Bank" => Some(bank::generate(rows, seed)),
        "Adult" => Some(adult::generate(rows, seed)),
        "Housing" => Some(housing::generate(rows, seed)),
        "Lawschool" => Some(lawschool::generate(rows, seed)),
        "West Nile Virus" => Some(wnv::generate(rows, seed)),
        "Tennis" => Some(tennis::generate(rows, seed)),
        _ => None,
    }
}

/// All eight datasets scaled to `fraction` of their paper sizes (minimum
/// 200 rows) — for fast benchmark/smoke runs.
pub fn all_scaled(fraction: f64, seed: u64) -> Vec<Dataset> {
    PAPER_ROWS
        .iter()
        .map(|(name, rows)| {
            let n = ((*rows as f64 * fraction) as usize).max(200);
            by_name(name, n, seed).expect("known dataset")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_exist_with_paper_shapes() {
        let sets = all_scaled(0.05, 1);
        assert_eq!(sets.len(), 8);
        // Shape assertions per Table 3 (categorical / numeric counts
        // exclude the prediction class, matching the paper's table).
        let expected: &[(&str, usize, usize)] = &[
            ("Diabetes", 0, 9),
            ("Heart", 7, 7),
            ("Bank", 8, 10),
            ("Adult", 8, 6),
            ("Housing", 1, 8),
            ("Lawschool", 5, 7),
            ("West Nile Virus", 3, 8),
            ("Tennis", 0, 12),
        ];
        for ((name, n_cat, n_num), ds) in expected.iter().zip(&sets) {
            assert_eq!(ds.name, *name);
            let (cat, num) = ds.shape_counts();
            assert_eq!(cat, *n_cat, "{name} categorical count");
            assert_eq!(num, *n_num, "{name} numeric count");
        }
    }

    #[test]
    fn paper_sizes_match_table3() {
        for (name, rows) in PAPER_ROWS {
            let ds = by_name(name, 250, 7).unwrap();
            assert_eq!(ds.frame.n_rows(), 250);
            assert!(*rows >= 700, "paper sizes all ≥ 700");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("Titanic", 100, 0).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = by_name("Adult", 300, 9).unwrap();
        let b = by_name("Adult", 300, 9).unwrap();
        assert_eq!(a.frame.head(20), b.frame.head(20));
        let c = by_name("Adult", 300, 10).unwrap();
        assert_ne!(a.frame.head(20), c.frame.head(20));
    }

    #[test]
    fn labels_are_binary_and_balancedish() {
        for ds in all_scaled(0.05, 3) {
            let y = ds.frame.to_labels(ds.target).unwrap();
            let pos: usize = y.iter().map(|&v| v as usize).sum();
            let frac = pos as f64 / y.len() as f64;
            assert!(
                (0.08..=0.92).contains(&frac),
                "{}: positive fraction {frac}",
                ds.name
            );
        }
    }

    #[test]
    fn descriptions_cover_every_feature() {
        for ds in all_scaled(0.05, 3) {
            for col in ds.frame.column_names() {
                if col == ds.target {
                    continue;
                }
                assert!(
                    ds.descriptions
                        .iter()
                        .any(|(n, d)| n == col && !d.is_empty()),
                    "{}: column {col} lacks a description",
                    ds.name
                );
            }
        }
    }
}
