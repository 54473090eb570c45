//! Method registry: SMARTFEAT (adapter over the core pipeline) plus the
//! three baselines, behind one enum the grid driver iterates.

use std::time::Duration;

use smartfeat::{SmartFeat, SmartFeatConfig};
use smartfeat_baselines::{AfeMethod, AutoFeat, Caafe, Featuretools, MethodOutput};
use smartfeat_datasets::Dataset;
use smartfeat_fm::SimulatedFm;
use smartfeat_frame::DataFrame;
use smartfeat_ml::ModelKind;

/// The methods compared in Tables 4–6, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodName {
    /// SMARTFEAT (this paper).
    SmartFeat,
    /// CAAFE.
    Caafe,
    /// Featuretools / DSM.
    Featuretools,
    /// AutoFeat.
    AutoFeat,
}

impl MethodName {
    /// All methods in table order.
    pub fn all() -> [MethodName; 4] {
        [
            MethodName::SmartFeat,
            MethodName::Caafe,
            MethodName::Featuretools,
            MethodName::AutoFeat,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodName::SmartFeat => "SMARTFEAT",
            MethodName::Caafe => "CAAFE",
            MethodName::Featuretools => "Featuretools",
            MethodName::AutoFeat => "AutoFeat",
        }
    }
}

/// Run SMARTFEAT over a prepared frame, with a configurable operator mask
/// (Table 7) and an optional names-only agenda (the description ablation).
pub fn run_smartfeat(
    df: &DataFrame,
    ds: &Dataset,
    config: SmartFeatConfig,
    names_only: bool,
    seed: u64,
) -> MethodOutput {
    let selector_fm = SimulatedFm::gpt4(seed);
    let generator_fm = SimulatedFm::gpt35(seed.wrapping_add(0x9e3779b9));
    let agenda = if names_only {
        ds.agenda_names_only("RF")
    } else {
        ds.agenda("RF")
    };
    let tool = SmartFeat::new(&selector_fm, &generator_fm, config);
    match tool.run(df, &agenda) {
        Ok(report) => MethodOutput {
            selected_count: report.generated.len(),
            generated_count: report.generated.len() + report.skipped.len(),
            new_features: report.generated.iter().map(|g| g.name.clone()).collect(),
            frame: report.frame,
            timed_out: false,
            failure: None,
        },
        Err(e) => {
            let mut out = MethodOutput::passthrough(df);
            out.failure = Some(e.to_string());
            out
        }
    }
}

/// Run one baseline (or SMARTFEAT with defaults) over a prepared frame.
/// CAAFE validates with `caafe_validation_model` (the paper validates with
/// the downstream model, which is why its DNN runs time out on large data).
pub fn run_method(
    method: MethodName,
    df: &DataFrame,
    ds: &Dataset,
    categorical: &[String],
    caafe_validation_model: ModelKind,
    deadline: Duration,
    seed: u64,
) -> MethodOutput {
    match method {
        MethodName::SmartFeat => run_smartfeat(df, ds, SmartFeatConfig::default(), false, seed),
        MethodName::Caafe => {
            let fm = SimulatedFm::gpt4(seed.wrapping_add(17));
            let caafe = Caafe::new(&fm, ds.agenda("RF"), caafe_validation_model, seed);
            caafe.run(df, ds.target, categorical, deadline)
        }
        MethodName::Featuretools => {
            Featuretools::default().run(df, ds.target, categorical, deadline)
        }
        MethodName::AutoFeat => AutoFeat::default().run(df, ds.target, categorical, deadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare;

    #[test]
    fn all_methods_run_on_small_tennis() {
        let ds = smartfeat_datasets::by_name("Tennis", 250, 3).unwrap();
        let prep = prepare(&ds);
        for method in MethodName::all() {
            let out = run_method(
                method,
                &prep.frame,
                &ds,
                &prep.categorical,
                ModelKind::LR,
                Duration::from_secs(60),
                11,
            );
            assert!(
                out.failure.is_none(),
                "{} failed: {:?}",
                method.name(),
                out.failure
            );
            assert!(out.frame.has_column(ds.target));
        }
    }

    #[test]
    fn smartfeat_generates_on_adult() {
        let ds = smartfeat_datasets::by_name("Adult", 400, 5).unwrap();
        let prep = prepare(&ds);
        let out = run_smartfeat(&prep.frame, &ds, SmartFeatConfig::default(), false, 3);
        assert!(out.selected_count > 0, "no features generated");
        assert!(out
            .new_features
            .iter()
            .any(|f| f.starts_with("GroupBy_") || f.contains("Log")));
    }

    /// The operator selector's claim against exhaustive enumeration: on
    /// the same Adult frame SMARTFEAT touches at least an order of
    /// magnitude fewer candidates than Featuretools or AutoFeat.
    #[test]
    fn smartfeat_touches_ten_times_fewer_candidates_than_exhaustive_afe() {
        let ds = smartfeat_datasets::by_name("Adult", 400, 3).unwrap();
        let prep = prepare(&ds);
        let smartfeat = run_smartfeat(&prep.frame, &ds, SmartFeatConfig::default(), false, 5);
        assert!(smartfeat.generated_count > 0, "SMARTFEAT touched nothing");
        let deadline = Duration::from_secs(3600);
        let featuretools =
            Featuretools::default().run(&prep.frame, &prep.target, &prep.categorical, deadline);
        let autofeat =
            AutoFeat::default().run(&prep.frame, &prep.target, &prep.categorical, deadline);
        for (name, out) in [("Featuretools", &featuretools), ("AutoFeat", &autofeat)] {
            assert!(!out.timed_out, "{name} timed out");
            assert!(
                10 * smartfeat.generated_count <= out.generated_count,
                "SMARTFEAT generated {} candidates, {name} {}",
                smartfeat.generated_count,
                out.generated_count
            );
        }
    }
}
