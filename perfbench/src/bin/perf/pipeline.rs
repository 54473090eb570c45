//! The `construct` and `search` workloads: `SmartFeat::run` over every
//! dataset, with the paper's model pairing or with score-guided search
//! strategies behind the cascade.

use smartfeat::{
    build_role_fms, CascadeConfig, DataAgenda, SearchConfig, SearchStrategyKind, SmartFeat,
    SmartFeatConfig, SmartFeatReport,
};
use smartfeat_bench::prep::{prepare, Prepared};
use smartfeat_datasets::Dataset;
use smartfeat_fm::FoundationModel;
use smartfeat_frame::DataFrame;

use crate::measure::OpTimer;
use crate::trace::{span, RoleFm, Tracer};
use crate::{PassOut, Workload};

/// One dataset, generated and cleaned.
pub struct Input {
    /// The generated dataset (name, target, data card).
    pub ds: Dataset,
    /// The cleaned frame the methods run on.
    pub prep: Prepared,
    /// Descriptions + target + downstream model, as the grid builds it.
    pub agenda: DataAgenda,
}

/// Generate all eight datasets at `scale` and clean each one.
pub fn build_inputs(scale: f64, seed: u64, tracer: Option<&Tracer>) -> Vec<Input> {
    let datasets = span(tracer, "datasets.generate", "", || {
        smartfeat_datasets::all_scaled(scale, seed)
    });
    datasets
        .into_iter()
        .map(|ds| {
            let prep = span(tracer, "frame.prepare", ds.name, || prepare(&ds));
            let agenda = span(tracer, "core.agenda", ds.name, || ds.agenda("RF"));
            Input { ds, prep, agenda }
        })
        .collect()
}

/// One `SmartFeat::run` through role-wrapped FMs. Records its checks,
/// digest and per-layer counts in `out`; returns the report when the run
/// succeeded.
pub fn run_checked(
    label: &str,
    fms: (Box<dyn FoundationModel>, Box<dyn FoundationModel>),
    config: SmartFeatConfig,
    frame: &DataFrame,
    agenda: &DataAgenda,
    tracer: Option<&Tracer>,
    out: &mut PassOut,
) -> Option<SmartFeatReport> {
    let selector = RoleFm::new(fms.0, "fm.selector", tracer);
    let generator = RoleFm::new(fms.1, "fm.generator", tracer);
    let result = span(tracer, "core.run", label, || {
        SmartFeat::new(&selector, &generator, config).run(frame, agenda)
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.digest.add(&format!("{label}: error {e}"));
            return None;
        }
    };

    for g in &report.generated {
        if !report.frame.has_column(&g.name) {
            out.problems.push(format!(
                "{label}: kept feature {} is not a column of the output frame",
                g.name
            ));
        }
    }
    for (role, fm, usage) in [
        ("selector", &selector, &report.selector_usage),
        ("generator", &generator, &report.generator_usage),
    ] {
        let answered = usage.calls.checked_sub(fm.escalations());
        if answered != Some(fm.calls()) {
            out.problems.push(format!(
                "{label}: {role} saw {} calls but its meter billed {} with {} escalations",
                fm.calls(),
                usage.calls,
                fm.escalations()
            ));
        }
    }

    out.digest.add(label);
    for g in &report.generated {
        out.digest.add(&g.name);
    }
    out.digest.add(&format!(
        "{}x{}",
        report.frame.n_rows(),
        report.frame.n_cols()
    ));
    for u in [&report.selector_usage, &report.generator_usage] {
        out.digest.add(&format!(
            "{} {} {}",
            u.calls, u.prompt_tokens, u.completion_tokens
        ));
        out.digest.add_f64(u.cost_usd);
    }

    out.add("core.kept", report.generated.len() as f64);
    out.add("core.skipped", report.skipped.len() as f64);
    out.add("fm.selector_calls", selector.calls() as f64);
    out.add("fm.generator_calls", generator.calls() as f64);
    out.add("fm.usd", report.total_usage().cost_usd);
    out.add("fm.errors", (selector.errors() + generator.errors()) as f64);
    Some(report)
}

/// `kept ÷ (kept + skipped)` over a pass, once its counts are in.
pub fn finish_keep_ratio(out: &mut PassOut) {
    let kept = out.get("core.kept");
    let tried = kept + out.get("core.skipped");
    if tried > 0.0 {
        out.add("core.keep_ratio", kept / tried);
    }
}

/// The score-guided strategies of the `search` workload.
const SEARCH_STRATEGIES: [SearchStrategyKind; 3] = [
    SearchStrategyKind::Beam,
    SearchStrategyKind::Evolutionary,
    SearchStrategyKind::React,
];

/// `SmartFeat::run` on every dataset under each of a list of
/// configurations: the `construct` and `search` workloads.
pub struct Pipeline {
    inputs: Vec<Input>,
    configs: Vec<SmartFeatConfig>,
}

impl Pipeline {
    /// The paper's headline path: one-shot construction with the GPT-4
    /// selector / GPT-3.5 generator pairing. Builds the inputs (the timed
    /// set-up).
    pub fn construct(scale: f64, seed: u64, tracer: Option<&Tracer>) -> Pipeline {
        Pipeline {
            inputs: build_inputs(scale, seed, tracer),
            configs: vec![SmartFeatConfig::default()],
        }
    }

    /// Beam, evolutionary and ReAct search (default knobs), the default
    /// cascade ladder serving both FM roles. Builds the inputs (the timed
    /// set-up).
    pub fn search(scale: f64, seed: u64, tracer: Option<&Tracer>) -> Pipeline {
        let configs = SEARCH_STRATEGIES
            .into_iter()
            .map(|strategy| SmartFeatConfig {
                search: SearchConfig {
                    strategy,
                    ..SearchConfig::default()
                },
                cascade: CascadeConfig {
                    enabled: true,
                    ..CascadeConfig::default()
                },
                ..SmartFeatConfig::default()
            })
            .collect();
        Pipeline {
            inputs: build_inputs(scale, seed, tracer),
            configs,
        }
    }
}

impl Workload for Pipeline {
    fn pass(&mut self, tracer: Option<&Tracer>, timer: &mut OpTimer) -> PassOut {
        let mut out = PassOut::default();
        for config in &self.configs {
            for input in &self.inputs {
                let label = format!("{}/{}", config.search.strategy.name(), input.ds.name);
                let report = timer.op(|| {
                    run_checked(
                        &label,
                        build_role_fms(config),
                        config.clone(),
                        &input.prep.frame,
                        &input.agenda,
                        tracer,
                        &mut out,
                    )
                });
                out.attempted += 1;
                out.failed += usize::from(report.is_none());
            }
        }
        finish_keep_ratio(&mut out);
        out
    }
}
