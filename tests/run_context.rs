//! Run-context guards: every run counts only its own pool and ml work,
//! wherever that work executes and whatever else shares the process.
//!
//! 1. The `smartfeat_par` layer: contexts nest, survive panics, reach
//!    pool workers, and resolve thread counts explicit-first (a positive
//!    argument > context > `SMARTFEAT_THREADS` > core count).
//! 2. The `smartfeat_obs::global` tally writes into the current context
//!    and drops work recorded outside one.
//! 3. The ml layer records one work entry per fit, fold and evaluated
//!    model, identically at any thread count.
//! 4. `SmartFeat::run` opens its own context: overlapping runs report the
//!    same `pool`/`work` sections as the same runs one after another.
//! 5. A run counts each FM call it was answered under its role,
//!    `fm.selector` or `fm.generator`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use smartfeat::{build_role_fms, SearchStrategyKind, SmartFeat, SmartFeatConfig, SmartFeatReport};
use smartfeat_fm::{FoundationModel, SimulatedFm};
use smartfeat_frame::json::JsonValue;
use smartfeat_ml::{
    evaluate_all_models, kfold_cv_auc, kfold_cv_auc_many, Classifier, ExtraTrees, Matrix,
    ModelKind, RandomForest,
};
use smartfeat_par::{PoolStats, RunContext, WorkStat};
use smartfeat_rng::Rng;

/// Pool counters and work tally of `f`, run inside a fresh context with
/// `threads` threads.
fn counted(threads: usize, f: impl FnOnce()) -> (PoolStats, BTreeMap<&'static str, WorkStat>) {
    smartfeat_par::within(threads, || {
        f();
        smartfeat_par::with_current(|ctx| (ctx.pool(), ctx.work())).expect("context installed")
    })
}

/// Work counts only: the deterministic half of a tally.
fn counts(work: &BTreeMap<&'static str, WorkStat>) -> BTreeMap<&'static str, u64> {
    work.iter().map(|(k, v)| (*k, v.count)).collect()
}

/// The work counts of a run's metrics report.
fn work_counts(report: &SmartFeatReport) -> BTreeMap<String, u64> {
    match report.metrics.get("work") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .map(|(name, count)| (name.clone(), count.as_u64().unwrap_or(0)))
            .collect(),
        other => panic!("no work section: {other:?}"),
    }
}

/// A small separable classification problem.
fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..4).map(|_| rng.gen_f64() * 6.0).collect())
        .collect();
    let y: Vec<u8> = rows.iter().map(|r| u8::from(r[0] + r[3] > 6.0)).collect();
    (Matrix::from_rows(rows).expect("rectangular"), y)
}

#[test]
fn par_map_outside_a_context_counts_nothing() {
    assert!(smartfeat_par::with_current(|_| ()).is_none());
    let out = smartfeat_par::par_map_indexed(4, 20, |i| i * 2);
    assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    let (pool, work) = counted(4, || ());
    assert_eq!(pool, PoolStats::default(), "a fresh context starts at zero");
    assert!(work.is_empty());
}

#[test]
fn workers_record_into_the_run_that_spawned_them() {
    for threads in [1usize, 4, 8] {
        let (pool, work) = counted(threads, || {
            smartfeat_par::par_map_indexed(smartfeat_par::resolve_threads(0), 50, |i| {
                smartfeat_obs::global::record("test.unit", Duration::from_nanos(1));
                i
            });
        });
        let spawned = if threads > 1 { threads as u64 } else { 0 };
        assert_eq!(
            pool,
            PoolStats {
                batches: 1,
                tasks: 50,
                workers_spawned: spawned
            },
            "{threads} threads"
        );
        assert_eq!(
            work["test.unit"],
            WorkStat { count: 50, ns: 50 },
            "{threads} threads"
        );
    }
}

#[test]
fn small_batches_take_the_serial_path_and_spawn_no_workers() {
    let (pool, _) = counted(8, || {
        assert!(smartfeat_par::par_map_indexed(8, 0, |i| i).is_empty());
        assert_eq!(smartfeat_par::par_map_indexed(8, 1, |i| i + 1), vec![1]);
        assert_eq!(smartfeat_par::par_map_indexed(8, 3, |i| i), vec![0, 1, 2]);
    });
    assert_eq!(
        pool,
        PoolStats {
            batches: 3,
            tasks: 4,
            workers_spawned: 3
        },
        "empty and single-item batches count but spawn nothing; three items cap workers at 3"
    );
}

#[test]
fn nested_batches_on_workers_count_into_the_same_run() {
    let (pool, work) = counted(4, || {
        smartfeat_par::par_map_indexed(4, 6, |_| {
            smartfeat_par::par_map_indexed(smartfeat_par::resolve_threads(0), 5, |_| {
                smartfeat_obs::global::record("test.leaf", Duration::ZERO)
            })
        });
    });
    assert_eq!((pool.batches, pool.tasks), (1 + 6, 6 + 6 * 5));
    assert_eq!(
        work["test.leaf"].count, 30,
        "leaves on nested workers counted"
    );
}

#[test]
fn nested_context_shadows_and_restores_the_outer() {
    let (outer_pool, outer_work) = counted(6, || {
        assert_eq!(smartfeat_par::resolve_threads(0), 6);
        let (inner_pool, inner_work) = counted(2, || {
            assert_eq!(smartfeat_par::resolve_threads(0), 2);
            smartfeat_par::par_map_indexed(2, 10, |i| i);
            smartfeat_obs::global::record("test.inner", Duration::ZERO);
        });
        assert_eq!((inner_pool.batches, inner_pool.tasks), (1, 10));
        assert_eq!(inner_work["test.inner"].count, 1);
        assert_eq!(smartfeat_par::resolve_threads(0), 6, "outer restored");
        smartfeat_par::par_map_indexed(1, 3, |i| i);
    });
    assert_eq!((outer_pool.batches, outer_pool.tasks), (1, 3));
    assert!(
        !outer_work.contains_key("test.inner"),
        "the inner context's work is not the outer's: {outer_work:?}"
    );
}

#[test]
fn context_is_restored_after_a_panic() {
    smartfeat_par::within(3, || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            smartfeat_par::within(5, || {
                smartfeat_par::par_map_indexed(4, 8, |i| {
                    assert_ne!(i, 6, "poisoned task");
                    i
                })
            })
        }));
        assert!(result.is_err(), "the worker panic propagates");
        assert_eq!(smartfeat_par::resolve_threads(0), 3, "outer context back");
        let pool = smartfeat_par::with_current(RunContext::pool).expect("outer context");
        assert_eq!(
            pool.batches, 0,
            "the failed inner batch was not counted here"
        );
    });
    assert!(smartfeat_par::with_current(|_| ()).is_none());
}

#[test]
fn configured_threads_beat_the_context() {
    smartfeat_par::within(8, || {
        assert_eq!(smartfeat_par::resolve_threads(3), 3);
        assert_eq!(smartfeat_par::resolve_threads(1), 1);
    });
}

#[test]
fn context_threads_beat_the_environment() {
    // Whatever SMARTFEAT_THREADS says, a context's count wins for auto
    // (0) settings; this is what lets one process pin 1, 4 and 8.
    for threads in [1usize, 4, 8] {
        let resolved = smartfeat_par::within(threads, || smartfeat_par::resolve_threads(0));
        assert_eq!(resolved, threads);
    }
}

#[test]
fn concurrent_contexts_keep_separate_tallies() {
    let results: Vec<(usize, PoolStats, BTreeMap<&'static str, WorkStat>)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4usize)
                .map(|k| {
                    s.spawn(move || {
                        let (pool, work) = counted(k, || {
                            for _ in 0..k {
                                smartfeat_par::par_map_indexed(k, 10 * k, |_| {
                                    smartfeat_obs::global::record("test.task", Duration::ZERO)
                                });
                            }
                        });
                        (k, pool, work)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("leg finished"))
                .collect()
        });
    for (k, pool, work) in results {
        let k64 = k as u64;
        assert_eq!(
            (pool.batches, pool.tasks),
            (k64, 10 * k64 * k64),
            "leg {k} counted another leg's batches"
        );
        assert_eq!(work["test.task"].count, 10 * k64 * k64, "leg {k}");
    }
}

#[test]
fn try_par_map_counts_one_batch_per_call() {
    let (pool, _) = counted(4, || {
        let ok: Result<Vec<usize>, ()> = smartfeat_par::try_par_map_indexed(4, 12, Ok);
        assert_eq!(ok.expect("all ok").len(), 12);
        let err: Result<Vec<usize>, usize> =
            smartfeat_par::try_par_map_indexed(4, 9, |i| if i == 2 { Err(i) } else { Ok(i) });
        assert_eq!(err, Err(2));
    });
    assert_eq!((pool.batches, pool.tasks), (2, 21));
}

#[test]
fn obs_work_outside_a_context_is_dropped() {
    smartfeat_obs::global::record("test.orphan", Duration::from_nanos(7));
    let watch = smartfeat_obs::global::stopwatch("test.orphan_watch");
    drop(watch);
    let (_, work) = counted(1, || ());
    assert!(work.is_empty(), "orphan work leaked into a run: {work:?}");
}

#[test]
fn obs_time_and_stopwatch_record_into_the_context() {
    let (_, work) = counted(2, || {
        assert_eq!(smartfeat_obs::global::time("test.timed", || 6 * 7), 42);
        let watch = smartfeat_obs::global::stopwatch("test.watch");
        assert!(!watch.exceeded(Duration::from_secs(3600)));
    });
    assert_eq!(work["test.timed"].count, 1);
    assert_eq!(work["test.watch"].count, 1, "stopwatch records on drop");
}

#[test]
fn ml_work_counts_are_identical_at_any_thread_count() {
    let (x, y) = toy_data(120, 8);
    let tally = |threads: usize| {
        let (pool, work) = counted(threads, || {
            let mut forest = RandomForest::default_params(2);
            forest.fit(&x, &y).expect("forest fits");
            let mut trees = ExtraTrees::default_params(3);
            trees.fit(&x, &y).expect("extra trees fit");
            kfold_cv_auc(ModelKind::LR, &x, &y, 4, 5).expect("cv scores");
            evaluate_all_models(&x, &y, &x, &y, 6).expect("models score");
        });
        (pool.batches, pool.tasks, counts(&work))
    };
    let serial = tally(1);
    assert_eq!(
        serial.2["ml.forest.fit"], 2,
        "one direct fit plus one in evaluation"
    );
    assert_eq!(serial.2["ml.extra_trees.fit"], 2);
    assert_eq!(serial.2["ml.cv.fold"], 4);
    assert_eq!(
        serial.2["ml.lr.fit"], 5,
        "four folds plus one in evaluation"
    );
    assert_eq!(serial.2["ml.eval.model"], 4 + 5);
    for threads in [4usize, 8] {
        assert_eq!(tally(threads), serial, "{threads} threads");
    }
}

#[test]
fn evaluate_all_models_records_one_fit_per_model_kind() {
    let (x, y) = toy_data(100, 12);
    let (_, work) = counted(4, || {
        evaluate_all_models(&x, &y, &x, &y, 3).expect("models score");
    });
    for name in [
        "ml.lr.fit",
        "ml.nb.fit",
        "ml.forest.fit",
        "ml.extra_trees.fit",
        "ml.dnn.fit",
    ] {
        assert_eq!(work.get(name).map(|w| w.count), Some(1), "{name}: {work:?}");
    }
    assert_eq!(work["ml.eval.model"].count, ModelKind::all().len() as u64);
}

#[test]
fn cv_batch_is_one_pool_batch_of_inputs_times_folds() {
    let (x, y) = toy_data(90, 4);
    let inputs: Vec<Matrix> = (0..3)
        .map(|j| Matrix::new(x.col(j), x.rows(), 1).expect("n×1"))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let (pool, work) = counted(threads, || {
            kfold_cv_auc_many(ModelKind::LR, &inputs, &y, 4, 2).expect("folds");
        });
        let spawned = if threads == 1 { 0 } else { threads as u64 };
        assert_eq!(
            pool,
            PoolStats {
                batches: 1,
                tasks: 12,
                workers_spawned: spawned
            },
            "{threads} threads: no fold opens a pool of its own"
        );
        for name in ["ml.cv.fold", "ml.eval.model", "ml.lr.fit"] {
            assert_eq!(work[name].count, 12, "{name}, {threads} threads");
        }
    }
}

/// A run of `kind` on 40 rows of insurance data under `tweak`, with the
/// FM seeds of the strategy trace goldens: the names of the features it
/// generated and the work counts of its metrics report.
fn run_work(
    kind: SearchStrategyKind,
    tweak: impl FnOnce(&mut SmartFeatConfig),
) -> (Vec<String>, BTreeMap<String, u64>) {
    let ds = smartfeat_datasets::insurance::generate(40, 5);
    let selector = SimulatedFm::gpt4(13);
    let generator = SimulatedFm::gpt35(14);
    let mut config = SmartFeatConfig::default();
    config.search.strategy = kind;
    tweak(&mut config);
    let report = SmartFeat::new(&selector, &generator, config)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    let work = work_counts(&report);
    let features = report
        .new_feature_names()
        .into_iter()
        .map(String::from)
        .collect();
    (features, work)
}

#[test]
fn evolution_scores_only_members_it_ranks() {
    // One generation ranks the seed population once: six seeds with one
    // column each, three folds per column. Its three offspring keep a
    // column each but are never ranked, so they are never scored.
    let (features, work) = run_work(SearchStrategyKind::Evolutionary, |c| {
        c.search.population = 6;
        c.search.generations = 1;
    });
    assert!(
        features.iter().any(|f| f == "Age_of_car_minus_Age"),
        "an offspring column was kept: {features:?}"
    );
    assert_eq!(work.get("ml.lr.fit"), Some(&(6 * 3)), "{work:?}");
    let (_, work) = run_work(SearchStrategyKind::Evolutionary, |c| {
        c.search.population = 6;
        c.search.generations = 2;
    });
    assert_eq!(
        work.get("ml.lr.fit"),
        Some(&((6 + 3) * 3)),
        "the second ranking scores the first generation's offspring: {work:?}"
    );
}

#[test]
fn react_scores_a_turn_only_for_the_next_observation() {
    // Turn 0 keeps nothing and turn 1 keeps one column, which only a
    // third turn's observation reads.
    let (features, work) = run_work(SearchStrategyKind::React, |c| c.search.react_turns = 2);
    assert_eq!(features.len(), 1, "turn 1 kept one column: {features:?}");
    assert!(
        !work.contains_key("ml.lr.fit"),
        "the last turn was scored: {work:?}"
    );
    let (features, work) = run_work(SearchStrategyKind::React, |c| c.search.react_turns = 3);
    assert_eq!(features.len(), 2, "{features:?}");
    assert_eq!(
        work.get("ml.lr.fit"),
        Some(&3),
        "one column, three folds: {work:?}"
    );
}

/// The `pool` and `work` sections of one observed run's metrics report.
fn run_counters(kind: SearchStrategyKind) -> (JsonValue, JsonValue) {
    let ds = smartfeat_datasets::insurance::generate(80, 5);
    let selector = SimulatedFm::gpt4(5);
    let generator = SimulatedFm::gpt35(6);
    let mut config = SmartFeatConfig::default();
    config.search.strategy = kind;
    let report = SmartFeat::new(&selector, &generator, config)
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    let section = |key: &str| report.metrics.get(key).cloned().expect("section present");
    (section("pool"), section("work"))
}

#[test]
fn overlapping_runs_report_only_their_own_pool_and_work() {
    let kinds = SearchStrategyKind::all();
    let serial: Vec<_> = kinds.iter().map(|&k| run_counters(k)).collect();
    let overlapped: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = kinds
            .iter()
            .map(|&k| s.spawn(move || run_counters(k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run finished"))
            .collect()
    });
    for ((kind, alone), together) in kinds.iter().zip(&serial).zip(&overlapped) {
        let (pool, work) = alone;
        assert!(
            matches!(work, JsonValue::Object(fields) if !fields.is_empty()),
            "{}: the run counted no work: {}",
            kind.name(),
            work.emit()
        );
        let batches = pool.get("batches").and_then(JsonValue::as_u64);
        if *kind == SearchStrategyKind::OneShot {
            // Realizing candidates is serial, and one-shot scores nothing.
            assert_eq!(batches, Some(0), "one-shot opened a pool: {}", pool.emit());
        } else {
            // The CV scorer's batches.
            assert!(
                batches.is_some_and(|b| b > 0),
                "{}: the run counted no batches: {}",
                kind.name(),
                pool.emit()
            );
        }
        assert_eq!(
            alone,
            together,
            "{} counted another run's work while overlapping",
            kind.name()
        );
    }
}

#[test]
fn run_opens_its_own_context_inside_an_outer_one() {
    let alone = run_counters(SearchStrategyKind::Beam);
    let (outer_pool, outer_work) = counted(4, || {
        assert_eq!(run_counters(SearchStrategyKind::Beam), alone);
    });
    assert_eq!(
        outer_pool,
        PoolStats::default(),
        "the run's batches belong to the run's own context"
    );
    assert!(outer_work.is_empty(), "{outer_work:?}");
}

/// A one-shot run on 200 rows of insurance data at `threads` threads: the
/// counts of its work tally, and how many times its trace names each
/// event kind and each `transform` of a `generate.candidate` event.
fn run_tally(threads: usize) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let ds = smartfeat_datasets::insurance::generate(200, 9);
    let selector = SimulatedFm::gpt4(21);
    let generator = SimulatedFm::gpt35(22);
    let report = smartfeat_par::within(threads, || {
        SmartFeat::new(&selector, &generator, SmartFeatConfig::default())
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("pipeline runs")
    });
    let work = work_counts(&report);
    let mut trace: BTreeMap<String, u64> = BTreeMap::new();
    for line in report.trace.lines() {
        let event = JsonValue::parse(line).expect("trace line parses");
        let field = |key: &str| event.get(key).and_then(JsonValue::as_str).map(String::from);
        let kind = field("kind").expect("every event has a kind");
        if let Some(transform) = field("transform") {
            *trace.entry(transform).or_default() += 1;
        }
        *trace.entry(kind).or_default() += 1;
    }
    (work, trace)
}

#[test]
fn transform_and_evaluation_work_is_counted_per_application() {
    let (work, trace) = run_tally(1);
    let transforms: BTreeMap<&String, &u64> = work
        .iter()
        .filter(|(name, _)| name.starts_with("transform."))
        .collect();
    let generated: BTreeMap<&String, &u64> = trace
        .iter()
        .filter(|(name, _)| name.starts_with("transform."))
        .collect();
    // Every function the generator hands out is applied once, on the FM
    // walk, and counted under its kind.
    assert_eq!(transforms, generated, "work {work:?}");
    for kind in [
        "transform.groupby_agg",
        "transform.arithmetic",
        "transform.row_completion",
    ] {
        assert!(
            transforms.contains_key(&kind.to_string()),
            "{kind}: {work:?}"
        );
    }
    let kept = trace["candidate.kept"];
    assert_eq!(
        work["evaluate.check"],
        kept + trace["candidate.skipped"],
        "one check per committed column"
    );
    assert_eq!(work["agenda.cardinality"], kept, "one per kept column");
    for threads in [4usize, 8] {
        assert_eq!(run_tally(threads).0, work, "{threads} threads");
    }
}

/// Per role (selector, then generator) of a run of `config` at `threads`
/// threads: its `fm.*` work count, its meter calls and its escalations.
fn fm_tally(config: &SmartFeatConfig, threads: usize) -> [(u64, usize, usize); 2] {
    let ds = smartfeat_datasets::insurance::generate(80, 5);
    let (selector, generator) = build_role_fms(config);
    let report = smartfeat_par::within(threads, || {
        SmartFeat::new(&selector, &generator, config.clone())
            .run(&ds.frame, &ds.agenda("RF"))
            .expect("pipeline runs")
    });
    let work = work_counts(&report);
    let escalations = |fm: &dyn FoundationModel| -> usize {
        fm.routing()
            .unwrap_or_default()
            .values()
            .map(|s| s.escalations)
            .sum()
    };
    [
        (
            work["fm.selector"],
            report.selector_usage.calls,
            escalations(&*selector),
        ),
        (
            work["fm.generator"],
            report.generator_usage.calls,
            escalations(&*generator),
        ),
    ]
}

#[test]
fn fm_work_counts_each_answered_call_per_role() {
    let single = SmartFeatConfig::default();
    let mut cascade = SmartFeatConfig::default();
    cascade.cascade.enabled = true;
    for (label, config) in [("single", single), ("cascade", cascade)] {
        let tally = fm_tally(&config, 1);
        for (count, calls, escalations) in tally {
            assert!(count > 0, "{label}: {tally:?}");
            // The meter bills every rung a cascade call climbs; the run
            // counts the one answer it got back.
            assert_eq!(count as usize, calls - escalations, "{label}: {tally:?}");
        }
        let escalated: usize = tally.iter().map(|t| t.2).sum();
        assert_eq!(escalated > 0, label == "cascade", "{tally:?}");
        for threads in [4usize, 8] {
            assert_eq!(
                fm_tally(&config, threads),
                tally,
                "{label}, {threads} threads"
            );
        }
    }
}
