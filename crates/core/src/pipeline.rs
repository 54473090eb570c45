//! The SMARTFEAT pipeline: operator-guided feature generation
//! (paper Section 3.2, "Generating the candidate feature set").
//!
//! Order of exploration, as in the paper: unary operators over each
//! original feature with the *proposal* strategy; then binary and
//! high-order operators with the *sampling* strategy over the enriched
//! agenda; then extractors; finally the drop heuristic retires original
//! features that were unary-transformed and never referenced again.

use std::collections::BTreeSet;

use smartfeat_fm::{FmError, FmResponse, FoundationModel, UsageMeter};
use smartfeat_frame::{Column, ColumnData, DataFrame, NullBitmap};
use smartfeat_obs::Recorder;

use crate::config::SmartFeatConfig;
use crate::error::{CoreError, Result};
use crate::generator::FunctionGenerator;
use crate::report::{GeneratedFeature, SkippedFeature, SmartFeatReport};
use crate::schema::DataAgenda;
use crate::selector::OperatorSelector;

/// The SMARTFEAT tool: two FM handles (selector / generator roles) plus a
/// configuration.
///
/// ```
/// use smartfeat::{DataAgenda, SmartFeat, SmartFeatConfig};
/// use smartfeat_fm::SimulatedFm;
/// use smartfeat_frame::{Column, DataFrame};
///
/// let df = DataFrame::from_columns(vec![
///     Column::from_i64("Age", (0..40).map(|i| 18 + (i * 7) % 50).collect()),
///     Column::from_i64("Safe", (0..40).map(|i| i % 2).collect()),
/// ])
/// .unwrap();
/// let agenda = DataAgenda::from_frame(
///     &df,
///     &[("Age", "Age of the policyholder in years")],
///     "Safe",
///     "RF",
/// );
/// let selector = SimulatedFm::gpt4(1);
/// let generator = SimulatedFm::gpt35(2);
/// let report = SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
///     .run(&df, &agenda)
///     .unwrap();
/// assert!(report.frame.has_column("Bucketized_Age"));
/// ```
pub struct SmartFeat<'a> {
    pub(crate) selector_fm: &'a dyn FoundationModel,
    pub(crate) generator_fm: &'a dyn FoundationModel,
    pub(crate) config: SmartFeatConfig,
}

/// Internal mutable state of one run, threaded through the active
/// search strategy ([`crate::search::search`]).
pub(crate) struct RunState {
    pub(crate) frame: DataFrame,
    pub(crate) agenda: DataAgenda,
    pub(crate) generated: Vec<GeneratedFeature>,
    pub(crate) skipped: Vec<SkippedFeature>,
    pub(crate) source_suggestions: Vec<(String, String)>,
    pub(crate) seen_keys: BTreeSet<String>,
    /// Original features that received a unary-derived feature.
    pub(crate) unary_transformed: BTreeSet<String>,
    /// Original features referenced by accepted non-unary candidates.
    pub(crate) referenced: BTreeSet<String>,
    /// Run-scoped telemetry recorder.
    pub(crate) rec: Recorder,
}

/// An FM role whose answered calls land in the run's work tally under
/// `work`: the count is deterministic, the time volatile.
struct TalliedFm<'a> {
    inner: &'a dyn FoundationModel,
    work: &'static str,
}

impl FoundationModel for TalliedFm<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, prompt: &str) -> std::result::Result<FmResponse, FmError> {
        let watch = smartfeat_obs::global::stopwatch(self.work);
        let response = self.inner.complete(prompt);
        if response.is_err() {
            // A refused call is not an answer: drop it unrecorded.
            std::mem::forget(watch);
        }
        response
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }

    fn routing(&self) -> Option<smartfeat_fm::RoutingSnapshot> {
        self.inner.routing()
    }
}

/// Refuse a frame SMARTFEAT cannot score: no rows, or a target without
/// exactly two distinct non-null values.
fn check_target(df: &DataFrame, target: &str) -> Result<()> {
    if df.n_rows() == 0 {
        return Err(CoreError::NoRows {
            target: target.to_string(),
        });
    }
    let distinct = distinct_up_to(df.column(target)?, 3);
    if distinct != 2 {
        return Err(CoreError::NonBinaryTarget {
            target: target.to_string(),
            distinct,
        });
    }
    Ok(())
}

/// Distinct non-null values of `col`, counting no further than `cap`.
/// Reads the packed buffers like `Column::cardinality`: floats compare
/// by bits and strings by dictionary code. Unlike it, the scan stops at
/// `cap`.
fn distinct_up_to(col: &Column, cap: usize) -> usize {
    fn count<T: PartialEq>(
        values: impl Iterator<Item = T>,
        validity: &NullBitmap,
        cap: usize,
    ) -> usize {
        let mut seen = Vec::with_capacity(cap);
        for (v, valid) in values.zip(validity.iter()) {
            if valid && !seen.contains(&v) {
                seen.push(v);
                if seen.len() == cap {
                    break;
                }
            }
        }
        seen.len()
    }
    match col.data() {
        ColumnData::Int { values, validity } => count(values.iter(), validity, cap),
        ColumnData::Float { values, validity } => {
            count(values.iter().map(|v| v.to_bits()), validity, cap)
        }
        ColumnData::Bool { values, validity } => count(values.iter(), validity, cap),
        ColumnData::Dict {
            codes, validity, ..
        } => count(codes.iter(), validity, cap),
    }
}

impl<'a> SmartFeat<'a> {
    /// Create the tool. The paper uses GPT-4 as `selector_fm` and
    /// GPT-3.5-turbo as `generator_fm`.
    pub fn new(
        selector_fm: &'a dyn FoundationModel,
        generator_fm: &'a dyn FoundationModel,
        config: SmartFeatConfig,
    ) -> Self {
        SmartFeat {
            selector_fm,
            generator_fm,
            config,
        }
    }

    /// Run feature construction over `df` with the given agenda
    /// (descriptions + target + downstream model).
    ///
    /// SMARTFEAT scores features against a binary target, so a frame with
    /// no rows ([`CoreError::NoRows`]) or a target without exactly two
    /// distinct non-null values ([`CoreError::NonBinaryTarget`]) is
    /// refused before the first FM call is billed.
    ///
    /// The run executes inside its own `smartfeat_par` run context, so its
    /// pool and work counters count only its own work, even when other
    /// runs share the process. Each FM call the run has answered counts
    /// there too, as `fm.selector` or `fm.generator`.
    pub fn run(&self, df: &DataFrame, agenda: &DataAgenda) -> Result<SmartFeatReport> {
        self.config.validate()?;
        check_target(df, &agenda.target)?;
        let selector = TalliedFm {
            inner: self.selector_fm,
            work: "fm.selector",
        };
        let generator = TalliedFm {
            inner: self.generator_fm,
            work: "fm.generator",
        };
        let tallied = SmartFeat::new(&selector, &generator, self.config.clone());
        let threads = smartfeat_par::resolve_threads(0);
        smartfeat_par::within(threads, || tallied.run_in_context(df, agenda))
    }

    fn run_in_context(&self, df: &DataFrame, agenda: &DataAgenda) -> Result<SmartFeatReport> {
        let rec = Recorder::from_env();
        let selector_before = self.selector_fm.meter().snapshot();
        let generator_before = self.generator_fm.meter().snapshot();
        let selector_routing_before = self.selector_fm.routing();
        let generator_routing_before = self.generator_fm.routing();
        let run_span = rec.span("run");

        let mut state = RunState {
            frame: df.clone(),
            agenda: agenda.clone(),
            generated: Vec::new(),
            skipped: Vec::new(),
            source_suggestions: Vec::new(),
            seen_keys: BTreeSet::new(),
            unary_transformed: BTreeSet::new(),
            referenced: BTreeSet::new(),
            rec: rec.clone(),
        };
        let selector = OperatorSelector::new(self.selector_fm, &self.config, rec.clone());
        let generator = FunctionGenerator::new(self.generator_fm, rec.clone());

        let strategy = self.config.search.strategy;
        {
            let _span = rec.span(&format!("stage.search.{}", strategy.name()));
            let mut ctx = crate::search::SearchCtx {
                sf: self,
                selector: &selector,
                generator: &generator,
                state: &mut state,
                selector_calls_start: selector_before.calls,
            };
            crate::search::search(strategy, &mut ctx)?;
        }

        let dropped_originals = if self.config.drop_heuristic {
            let _span = rec.span("stage.drop_heuristic");
            self.apply_drop_heuristic(&mut state)
        } else {
            Vec::new()
        };
        let fm_removed = if self.config.fm_feature_removal {
            let _span = rec.span("stage.fm_removal");
            self.fm_removal_pass(&mut state)?
        } else {
            Vec::new()
        };
        drop(run_span);

        let selector_after = self.selector_fm.meter().snapshot();
        let generator_after = self.generator_fm.meter().snapshot();
        let selector_usage = snapshot_delta(selector_before, selector_after);
        let generator_usage = snapshot_delta(generator_before, generator_after);
        // Cascade runs expose per-backend routing stats; merge the two
        // roles' deltas into one map (empty for single-model runs).
        let routing = crate::routing::merge_routing(
            crate::routing::routing_delta(&selector_routing_before, &self.selector_fm.routing()),
            crate::routing::routing_delta(&generator_routing_before, &self.generator_fm.routing()),
        );

        Self::finish_observability(
            &rec,
            &state,
            &dropped_originals,
            &fm_removed,
            &selector_usage,
            &generator_usage,
            &routing,
        );

        Ok(SmartFeatReport {
            frame: state.frame,
            generated: state.generated,
            skipped: state.skipped,
            dropped_originals,
            fm_removed,
            source_suggestions: state.source_suggestions,
            agenda: state.agenda,
            selector_usage,
            generator_usage,
            metrics: rec.report(),
            trace: rec.trace_jsonl(),
        })
    }

    /// Close out telemetry for the run: bridge the exact FM-meter deltas
    /// and the run context's pool/work counters into the recorder, and
    /// derive per-family outcome stats from the report state.
    fn finish_observability(
        rec: &Recorder,
        state: &RunState,
        dropped_originals: &[String],
        fm_removed: &[String],
        selector_usage: &smartfeat_fm::UsageSnapshot,
        generator_usage: &smartfeat_fm::UsageSnapshot,
        routing: &smartfeat_fm::RoutingSnapshot,
    ) {
        // Role-level FM usage is bridged from the meters so the report's
        // `fm.total` equals the `crates/fm` accounting exactly. Per-family
        // attribution accumulates separately under `families.<name>.fm`.
        rec.set_fm_usage("selector", crate::fm_usage_of_snapshot(selector_usage));
        rec.set_fm_usage("generator", crate::fm_usage_of_snapshot(generator_usage));
        if !routing.is_empty() {
            rec.set_routing(
                routing
                    .iter()
                    .map(|(name, s)| {
                        (
                            name.clone(),
                            smartfeat_obs::RouteUsage {
                                calls: s.calls as u64,
                                escalations: s.escalations as u64,
                                prompt_tokens: s.prompt_tokens as u64,
                                completion_tokens: s.completion_tokens as u64,
                                cost_usd: s.cost_usd,
                            },
                        )
                    })
                    .collect(),
            );
        }

        smartfeat_par::with_current(|ctx| {
            rec.set_pool(ctx.pool());
            rec.set_work(ctx.work());
        });

        for s in &state.skipped {
            rec.family(s.family.name(), |f| {
                f.skipped += 1;
                if s.reason.is_generation_error() {
                    f.generation_errors += 1;
                }
            });
        }
        rec.incr("features.generated", state.generated.len() as u64);
        rec.incr("features.skipped", state.skipped.len() as u64);
        rec.incr("features.dropped_originals", dropped_originals.len() as u64);
        rec.incr("features.fm_removed", fm_removed.len() as u64);
        rec.incr(
            "features.source_suggestions",
            state.source_suggestions.len() as u64,
        );
    }

    /// EXTENSION (paper §5 future work): ask the FM which features are
    /// unlikely to help, and remove the ones it names. The target column
    /// and anything the FM hallucinates are ignored.
    fn fm_removal_pass(&self, state: &mut RunState) -> Result<Vec<String>> {
        let prompt = crate::prompts::feature_removal(&state.agenda);
        let response = self
            .selector_fm
            .complete(&prompt)
            .map_err(crate::error::CoreError::from)?;
        let text = response.text.trim();
        if text.eq_ignore_ascii_case("none") {
            return Ok(Vec::new());
        }
        let mut removed = Vec::new();
        for name in text.split(',').map(str::trim) {
            if name.is_empty() || name == state.agenda.target {
                continue;
            }
            if state.agenda.has(name) && state.frame.drop_column(name).is_ok() {
                state.agenda.remove(name);
                // Keep the report consistent: a removed column must not be
                // listed as a kept generated feature.
                state.generated.retain(|g| g.name != name);
                removed.push(name.to_string());
            }
        }
        Ok(removed)
    }

    /// Drop heuristic (paper §3.2): an original feature that was unary
    /// transformed and is used by no other operator is removed.
    fn apply_drop_heuristic(&self, state: &mut RunState) -> Vec<String> {
        let mut dropped = Vec::new();
        let originals = state.agenda.original_names();
        for name in originals {
            if state.unary_transformed.contains(&name)
                && !state.referenced.contains(&name)
                && state.frame.drop_column(&name).is_ok()
            {
                state.agenda.remove(&name);
                dropped.push(name);
            }
        }
        dropped
    }
}

fn snapshot_delta(
    before: smartfeat_fm::UsageSnapshot,
    after: smartfeat_fm::UsageSnapshot,
) -> smartfeat_fm::UsageSnapshot {
    smartfeat_fm::UsageSnapshot {
        calls: after.calls - before.calls,
        prompt_tokens: after.prompt_tokens - before.prompt_tokens,
        completion_tokens: after.completion_tokens - before.completion_tokens,
        cost_usd: after.cost_usd - before.cost_usd,
        latency: after.latency.saturating_sub(before.latency),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OperatorFamily, OperatorMask};
    use smartfeat_fm::{FmConfig, ModelSpec, SimulatedFm};
    use smartfeat_frame::Column;

    /// The paper's Table 1 insurance example, expanded to enough rows for
    /// meaningful group-bys.
    fn insurance() -> (DataFrame, DataAgenda) {
        let n = 40usize;
        let cities = ["SF", "LA", "SEA"];
        let models = ["Civic", "Corolla", "Mustang", "Cruze", "X5", "Golf"];
        let mut age = Vec::new();
        let mut car_age = Vec::new();
        let mut city = Vec::new();
        let mut model = Vec::new();
        let mut claim = Vec::new();
        let mut safe = Vec::new();
        for i in 0..n {
            age.push(18 + ((i * 7) % 50) as i64);
            car_age.push(1 + ((i * 3) % 15) as i64);
            city.push(cities[i % 3]);
            model.push(models[i % 6]);
            let c = i64::from(i % 4 == 0);
            claim.push(c);
            safe.push(1 - c);
        }
        let df = DataFrame::from_columns(vec![
            Column::from_i64("Age", age),
            Column::from_i64("Age_of_car", car_age),
            Column::from_str_slice("Make_Model", &model),
            Column::from_i64("Claim", claim),
            Column::from_str_slice("City", &city),
            Column::from_i64("Safe", safe),
        ])
        .unwrap();
        let agenda = DataAgenda::from_frame(
            &df,
            &[
                ("Age", "Age of the policyholder in years"),
                ("Age_of_car", "Age of the insured car in years"),
                ("Make_Model", "Make and model of the car"),
                ("Claim", "Whether a claim was filed in the last 6 months"),
                ("City", "City where the policyholder lives"),
            ],
            "Safe",
            "RF",
        );
        (df, agenda)
    }

    fn run_default(seed: u64) -> SmartFeatReport {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::gpt4(seed);
        let gen = SimulatedFm::gpt35(seed.wrapping_add(1));
        let sf = SmartFeat::new(&sel, &gen, SmartFeatConfig::default());
        sf.run(&df, &agenda).unwrap()
    }

    /// Run on `df` and return the refusal, asserting no FM call was made.
    fn refused(df: &DataFrame, agenda: &DataAgenda) -> CoreError {
        let sel = SimulatedFm::gpt4(1);
        let gen = SimulatedFm::gpt35(2);
        let err = SmartFeat::new(&sel, &gen, SmartFeatConfig::default())
            .run(df, agenda)
            .expect_err("an unscorable target is refused");
        assert_eq!(sel.meter().snapshot().calls, 0, "{err}");
        assert_eq!(gen.meter().snapshot().calls, 0, "{err}");
        err
    }

    #[test]
    fn frame_without_rows_is_refused_before_any_fm_call() {
        let (df, agenda) = insurance();
        let err = refused(&df.take(&[]).unwrap(), &agenda);
        assert_eq!(
            err,
            CoreError::NoRows {
                target: "Safe".into()
            }
        );
    }

    #[test]
    fn single_class_target_is_refused_before_any_fm_call() {
        let (df, agenda) = insurance();
        // Rows 1..=3 all have Safe = 1.
        let err = refused(&df.take(&[1, 2, 3]).unwrap(), &agenda);
        assert_eq!(
            err,
            CoreError::NonBinaryTarget {
                target: "Safe".into(),
                distinct: 1
            }
        );
    }

    #[test]
    fn multiclass_target_is_refused_before_any_fm_call() {
        let (df, agenda) = insurance();
        let pets = ["cat", "dog", "bird", "fish"];
        let labels: Vec<&str> = (0..df.n_rows()).map(|i| pets[i % 4]).collect();
        let columns = df
            .columns()
            .iter()
            .map(|c| match c.name() {
                "Safe" => Column::from_str_slice("Safe", &labels),
                _ => c.clone(),
            })
            .collect();
        let err = refused(&DataFrame::from_columns(columns).unwrap(), &agenda);
        // Counting stops at the third distinct value.
        assert_eq!(
            err,
            CoreError::NonBinaryTarget {
                target: "Safe".into(),
                distinct: 3
            }
        );
        assert!(err.to_string().contains("at least 3 distinct"), "{err}");
    }

    #[test]
    fn generates_the_papers_motivating_features() {
        let r = run_default(42);
        let names = r.new_feature_names().join(",");
        // F1: bucketized age.
        assert!(names.contains("Bucketized_Age"), "{names}");
        // F2: manufacturing year (years_since on car age).
        assert!(names.contains("YearsSince_Age_of_car"), "{names}");
        // F4: city population density via row completion.
        assert!(names.contains("population_density"), "{names}");
        // F3-style: at least one group-by feature.
        assert!(names.contains("GroupBy_"), "{names}");
    }

    #[test]
    fn report_is_consistent_with_frame() {
        let r = run_default(1);
        for g in &r.generated {
            assert!(
                r.frame.has_column(&g.name),
                "generated {} missing from frame",
                g.name
            );
            assert!(
                r.agenda.has(&g.name),
                "generated {} missing from agenda",
                g.name
            );
        }
        assert_eq!(r.frame.n_rows(), 40);
        // No duplicate names.
        let mut names: Vec<&str> = r.frame.column_names();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run_default(9);
        let b = run_default(9);
        assert_eq!(a.new_feature_names(), b.new_feature_names());
        assert_eq!(a.selector_usage.calls, b.selector_usage.calls);
    }

    #[test]
    fn operator_mask_restricts_families() {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::gpt4(5);
        let gen = SimulatedFm::gpt35(6);
        let cfg = SmartFeatConfig {
            operators: OperatorMask::only(crate::config::OperatorFamily::HighOrder),
            ..SmartFeatConfig::default()
        };
        let r = SmartFeat::new(&sel, &gen, cfg).run(&df, &agenda).unwrap();
        assert!(!r.generated.is_empty());
        for g in &r.generated {
            assert_eq!(g.family, OperatorFamily::HighOrder);
        }
        assert_eq!(
            r.generator_usage.calls, 0,
            "high-order functions are built without FM round-trips"
        );
    }

    #[test]
    fn initial_mask_generates_nothing() {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::gpt4(5);
        let gen = SimulatedFm::gpt35(6);
        let cfg = SmartFeatConfig {
            operators: OperatorMask::none(),
            ..SmartFeatConfig::default()
        };
        let r = SmartFeat::new(&sel, &gen, cfg).run(&df, &agenda).unwrap();
        assert!(r.generated.is_empty());
        assert_eq!(r.selector_usage.calls, 0);
        assert_eq!(r.frame.n_cols(), df.n_cols());
    }

    #[test]
    fn error_threshold_stops_sampling_under_degraded_fm() {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 2,
                error_rate: 1.0,
                ..FmConfig::default()
            },
        );
        let gen = SimulatedFm::gpt35(3);
        let cfg = SmartFeatConfig {
            operators: OperatorMask::only(crate::config::OperatorFamily::Binary),
            error_threshold: 3,
            sampling_budget: 50,
            ..SmartFeatConfig::default()
        };
        let r = SmartFeat::new(&sel, &gen, cfg).run(&df, &agenda).unwrap();
        // Sampling must have stopped well before the budget: with every
        // output degraded, errors accumulate fast.
        assert!(
            r.selector_usage.calls < 50,
            "made {} calls",
            r.selector_usage.calls
        );
        assert!(r.generation_errors() >= 3 || r.generated.is_empty());
    }

    #[test]
    fn drop_heuristic_removes_superseded_originals() {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::gpt4(7);
        let gen = SimulatedFm::gpt35(8);
        let cfg = SmartFeatConfig {
            // Unary only: nothing can reference the originals afterwards,
            // so every unary-transformed original should be dropped.
            operators: OperatorMask::only(crate::config::OperatorFamily::Unary),
            ..SmartFeatConfig::default()
        };
        let r = SmartFeat::new(&sel, &gen, cfg).run(&df, &agenda).unwrap();
        assert!(!r.dropped_originals.is_empty());
        for d in &r.dropped_originals {
            assert!(!r.frame.has_column(d));
            assert!(!r.agenda.has(d));
        }
        // Target column is never dropped.
        assert!(r.frame.has_column("Safe"));
    }

    #[test]
    fn drop_heuristic_can_be_disabled() {
        let (df, agenda) = insurance();
        let sel = SimulatedFm::gpt4(7);
        let gen = SimulatedFm::gpt35(8);
        let cfg = SmartFeatConfig {
            drop_heuristic: false,
            ..SmartFeatConfig::default()
        };
        let r = SmartFeat::new(&sel, &gen, cfg).run(&df, &agenda).unwrap();
        assert!(r.dropped_originals.is_empty());
        for name in df.column_names() {
            assert!(r.frame.has_column(name));
        }
    }

    #[test]
    fn usage_is_attributed_to_roles() {
        let r = run_default(11);
        assert!(r.selector_usage.calls > 0, "selector made FM calls");
        assert!(
            r.generator_usage.calls > 0,
            "generator made FM calls (incl. row completion)"
        );
        assert!(r.total_usage().cost_usd > 0.0);
    }

    #[test]
    fn names_only_agenda_still_runs_but_finds_less() {
        let (df, agenda) = insurance();
        let sel_full = SimulatedFm::gpt4(13);
        let gen_full = SimulatedFm::gpt35(14);
        let full = SmartFeat::new(&sel_full, &gen_full, SmartFeatConfig::default())
            .run(&df, &agenda)
            .unwrap();
        let sel_bare = SimulatedFm::gpt4(13);
        let gen_bare = SimulatedFm::gpt35(14);
        let bare = SmartFeat::new(&sel_bare, &gen_bare, SmartFeatConfig::default())
            .run(&df, &agenda.without_descriptions())
            .unwrap();
        // Names in this dataset are fairly descriptive, so both run; the
        // stripped agenda must not generate *more* features.
        assert!(bare.generated.len() <= full.generated.len());
    }
}
