//! # smartfeat-obs
//!
//! Structured observability for the SMARTFEAT reproduction: span timers,
//! typed counters for FM interactions, a JSONL event sink, and an
//! end-of-run metrics report serialized with the in-repo JSON writer
//! (`smartfeat_frame::json`).
//!
//! ## Determinism contract
//!
//! The paper's headline claim is *efficiency* of feature-level FM
//! interaction, so the numbers this crate reports (FM calls, tokens,
//! simulated cost, generation errors, stage structure) must be exact and
//! reproducible. Two rules make the default metrics report **byte-stable
//! across thread counts**:
//!
//! 1. Timestamps come from a [`ClockMode::Logical`] clock by default — a
//!    monotonic event counter, not wall time. Wall-clock timing is opt-in
//!    via the `SMARTFEAT_OBS_WALLCLOCK` environment variable, and every
//!    wall-derived quantity is segregated under a `volatile` report key so
//!    differential tests can hold the rest byte-identical.
//! 2. Trace events may only be emitted from *serial* code. Parallel work
//!    (tree fits, CV folds, pool tasks) is aggregated through
//!    order-independent counters — the [`global`] work tally and the pool
//!    counters of the run's `smartfeat_par` context — never through the
//!    event stream. A violation shows up as a tick-count difference
//!    between thread counts, which the differential suite rejects.
//!
//! Hermetic-build policy: this crate depends on `std`, `smartfeat-frame`
//! (for the JSON writer) and `smartfeat-par` (for the pool counters) only.

pub mod global;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use smartfeat_frame::json::JsonValue;

/// Pool counters of one run, copied from its `smartfeat_par` context.
/// `workers_spawned` depends on the thread count, so the report carries
/// it only under the `volatile` key in wall mode.
pub use smartfeat_par::PoolStats;

/// Environment variable that opts span/event timestamps into wall-clock
/// nanoseconds (`1`/`true`). Unset or anything else keeps the
/// deterministic logical clock.
pub const WALLCLOCK_ENV: &str = "SMARTFEAT_OBS_WALLCLOCK";

/// Timestamp source for spans and trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Monotonic event counter: timestamp = number of prior timestamped
    /// points. Deterministic for a fixed workload; the default.
    Logical,
    /// Nanoseconds since recorder creation. Opt-in profiling mode; every
    /// derived value lands in the report's `volatile` section.
    Wall,
}

impl ClockMode {
    /// Resolve the mode from [`WALLCLOCK_ENV`] (read on every call).
    pub fn from_env() -> ClockMode {
        match std::env::var(WALLCLOCK_ENV) {
            Ok(v) if v.trim() == "1" || v.trim().eq_ignore_ascii_case("true") => ClockMode::Wall,
            _ => ClockMode::Logical,
        }
    }

    /// Report tag: `"logical"` or `"wall"`.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Logical => "logical",
            ClockMode::Wall => "wall",
        }
    }
}

/// Aggregate FM usage attributed to one key (a role such as `"selector"`,
/// or an operator family such as `"Binary"`).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FmUsage {
    /// FM calls.
    pub calls: u64,
    /// Prompt tokens billed.
    pub prompt_tokens: u64,
    /// Completion tokens billed.
    pub completion_tokens: u64,
    /// Simulated USD billed.
    pub cost_usd: f64,
}

impl FmUsage {
    /// Accumulate another usage record into this one.
    pub fn add(&mut self, other: FmUsage) {
        self.calls += other.calls;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.cost_usd += other.cost_usd;
    }

    fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("calls", self.calls.into()),
            ("prompt_tokens", self.prompt_tokens.into()),
            ("completion_tokens", self.completion_tokens.into()),
            ("cost_usd", self.cost_usd.into()),
        ])
    }
}

/// Per-operator-family pipeline counters (the paper's generation-error
/// accounting plus candidate outcomes).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FamilyStats {
    /// Candidates proposed or sampled for this family.
    pub candidates: u64,
    /// Candidates that contributed at least one kept column.
    pub accepted: u64,
    /// Skip-list entries recorded for this family.
    pub skipped: u64,
    /// Skips that count against the paper's generation-error threshold.
    pub generation_errors: u64,
    /// FM usage attributed to this family's selector + generator calls.
    pub fm: FmUsage,
}

impl FamilyStats {
    fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("candidates", self.candidates.into()),
            ("accepted", self.accepted.into()),
            ("skipped", self.skipped.into()),
            ("generation_errors", self.generation_errors.into()),
            ("fm", self.fm.to_json()),
        ])
    }
}

/// Per-backend routing usage bridged from a cascade FM's
/// `RoutingSnapshot` delta (defined here natively — this crate depends
/// only on `smartfeat-frame`; the pipeline converts).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RouteUsage {
    /// Attempts served by this backend family.
    pub calls: u64,
    /// Attempts rejected by the cascade's acceptance policy.
    pub escalations: u64,
    /// Prompt tokens billed by this family.
    pub prompt_tokens: u64,
    /// Completion tokens billed by this family.
    pub completion_tokens: u64,
    /// Simulated USD billed by this family.
    pub cost_usd: f64,
}

impl RouteUsage {
    fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("calls", self.calls.into()),
            ("escalations", self.escalations.into()),
            ("prompt_tokens", self.prompt_tokens.into()),
            ("completion_tokens", self.completion_tokens.into()),
            ("cost_usd", self.cost_usd.into()),
        ])
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    /// Logical ticks or wall nanoseconds, depending on the clock mode.
    total: u64,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    fm: BTreeMap<String, FmUsage>,
    families: BTreeMap<String, FamilyStats>,
    spans: BTreeMap<String, SpanAgg>,
    work: BTreeMap<&'static str, global::WorkStat>,
    pool: PoolStats,
    routing: BTreeMap<String, RouteUsage>,
    trace: String,
    events: u64,
}

#[derive(Debug)]
struct Inner {
    mode: ClockMode,
    seq: Cell<u64>,
    origin: Instant,
    state: RefCell<State>,
}

/// The per-run observability recorder.
///
/// Cheap to clone (an `Rc` underneath) and owned by the run's serial
/// control path: it is neither `Send` nor `Sync`, so the compiler rejects
/// it in pool closures.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Rc<Inner>,
}

impl Recorder {
    /// A recorder with an explicit clock mode.
    pub fn new(mode: ClockMode) -> Recorder {
        Recorder {
            inner: Rc::new(Inner {
                mode,
                seq: Cell::new(0),
                origin: Instant::now(),
                state: RefCell::new(State::default()),
            }),
        }
    }

    /// A recorder whose clock mode comes from [`ClockMode::from_env`].
    pub fn from_env() -> Recorder {
        Recorder::new(ClockMode::from_env())
    }

    /// Current timestamp: the next logical tick, or nanoseconds since
    /// recorder creation in wall mode.
    pub fn now(&self) -> u64 {
        let inner = &self.inner;
        match inner.mode {
            ClockMode::Logical => inner.seq.replace(inner.seq.get() + 1),
            ClockMode::Wall => inner.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Increment the named counter.
    pub fn incr(&self, name: &str, by: u64) {
        let mut state = self.inner.state.borrow_mut();
        *state.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Replace the usage attributed to `key` with an exact total (used to
    /// bridge `smartfeat_fm::UsageMeter` deltas at end of run).
    pub fn set_fm_usage(&self, key: &str, usage: FmUsage) {
        self.inner
            .state
            .borrow_mut()
            .fm
            .insert(key.to_string(), usage);
    }

    /// Mutate one family's stats through `f`.
    pub fn family(&self, family: &str, f: impl FnOnce(&mut FamilyStats)) {
        let mut state = self.inner.state.borrow_mut();
        f(state.families.entry(family.to_string()).or_default());
    }

    /// Record the pool counters of this run.
    pub fn set_pool(&self, pool: PoolStats) {
        self.inner.state.borrow_mut().pool = pool;
    }

    /// Record per-backend cascade routing stats for this run. Single-model
    /// runs never call this, so the report omits its `routing` key and
    /// stays byte-identical to pre-cascade reports.
    pub fn set_routing(&self, routing: BTreeMap<String, RouteUsage>) {
        self.inner.state.borrow_mut().routing = routing;
    }

    /// Record the [`global`] work tally of this run (counts are
    /// deterministic; nanoseconds surface only in wall mode).
    pub fn set_work(&self, work: BTreeMap<&'static str, global::WorkStat>) {
        self.inner.state.borrow_mut().work = work;
    }

    /// Emit one trace event: a JSONL line `{"kind": .., "t": .., ..fields}`.
    ///
    /// Must only be called from serial code — see the crate-level
    /// determinism contract.
    pub fn event(&self, kind: &str, fields: &[(&str, JsonValue)]) {
        let t = self.now();
        self.emit(t, kind, fields);
    }

    fn emit(&self, t: u64, kind: &str, fields: &[(&str, JsonValue)]) {
        let mut map = BTreeMap::new();
        map.insert("t".to_string(), JsonValue::from(t));
        map.insert("kind".to_string(), JsonValue::from(kind));
        for (k, v) in fields {
            map.insert((*k).to_string(), v.clone());
        }
        let line = JsonValue::Object(map).emit();
        let mut state = self.inner.state.borrow_mut();
        state.trace.push_str(&line);
        state.trace.push('\n');
        state.events += 1;
    }

    /// Open a span: emits a `span_start` event now and a `span_end` event
    /// when the returned guard drops, aggregating count + elapsed
    /// (logical ticks or wall nanoseconds) under `name`.
    pub fn span(&self, name: &str) -> Span {
        let start = self.now();
        self.emit(start, "span_start", &[("name", name.into())]);
        Span {
            rec: self.clone(),
            name: name.to_string(),
            start,
        }
    }

    fn close_span(&self, name: &str, start: u64) {
        let end = self.now();
        self.emit(end, "span_end", &[("name", name.into())]);
        let mut state = self.inner.state.borrow_mut();
        let agg = state.spans.entry(name.to_string()).or_default();
        agg.count += 1;
        agg.total += end.saturating_sub(start);
    }

    /// The accumulated JSONL trace.
    pub fn trace_jsonl(&self) -> String {
        self.inner.state.borrow().trace.clone()
    }

    /// Number of trace events emitted so far.
    pub fn events(&self) -> u64 {
        self.inner.state.borrow().events
    }

    /// The end-of-run metrics report.
    ///
    /// Under the default logical clock every field is a pure function of
    /// the workload: counters, FM usage, family stats, span counts and
    /// tick totals, pool batch/task counts, work-tally counts. Wall mode
    /// drops the span ticks and adds a `volatile` section (span/work
    /// nanoseconds, worker occupancy); without `clock`, `volatile` and
    /// the ticks, the two modes' reports are byte-identical.
    pub fn report(&self) -> JsonValue {
        let inner = &self.inner;
        let state = inner.state.borrow();
        let wall = inner.mode == ClockMode::Wall;

        let counters = JsonValue::Object(
            state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
                .collect(),
        );

        let mut fm_map: BTreeMap<String, JsonValue> = state
            .fm
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        let mut total = FmUsage::default();
        for usage in state.fm.values() {
            total.add(*usage);
        }
        fm_map.insert("total".to_string(), total.to_json());

        let families = JsonValue::Object(
            state
                .families
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );

        let spans = JsonValue::Object(
            state
                .spans
                .iter()
                .map(|(k, v)| {
                    let mut span = vec![("count", JsonValue::from(v.count))];
                    if !wall {
                        span.push(("ticks", v.total.into()));
                    }
                    (k.clone(), JsonValue::object(span))
                })
                .collect(),
        );

        let work = JsonValue::Object(
            state
                .work
                .iter()
                .map(|(k, v)| ((*k).to_string(), JsonValue::from(v.count)))
                .collect(),
        );

        let mut report = vec![
            ("clock", JsonValue::from(inner.mode.name())),
            ("counters", counters),
            ("events", state.events.into()),
            ("families", families),
            ("fm", JsonValue::Object(fm_map)),
            (
                "pool",
                JsonValue::object([
                    ("batches", state.pool.batches.into()),
                    ("tasks", state.pool.tasks.into()),
                ]),
            ),
            ("spans", spans),
            ("work", work),
        ];
        if !state.routing.is_empty() {
            // Only cascade runs carry routing stats; omitting the key
            // otherwise keeps single-model reports byte-identical to
            // pre-cascade ones.
            report.push((
                "routing",
                JsonValue::Object(
                    state
                        .routing
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        if wall {
            let span_ns = JsonValue::Object(
                state
                    .spans
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::from(v.total)))
                    .collect(),
            );
            let work_ns = JsonValue::Object(
                state
                    .work
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), JsonValue::from(v.ns)))
                    .collect(),
            );
            report.push((
                "volatile",
                JsonValue::object([
                    ("pool_workers_spawned", state.pool.workers_spawned.into()),
                    ("span_ns", span_ns),
                    ("work_ns", work_ns),
                ]),
            ));
        }
        JsonValue::object(report)
    }
}

/// RAII span guard returned by [`Recorder::span`]. Records a `span_end`
/// event and aggregates elapsed time on drop.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    name: String,
    start: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.rec.close_span(&self.name, self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_ticks_monotonically() {
        let rec = Recorder::new(ClockMode::Logical);
        let a = rec.now();
        let b = rec.now();
        let c = rec.now();
        assert_eq!((a, b, c), (0, 1, 2));
    }

    #[test]
    fn spans_aggregate_count_and_ticks() {
        let rec = Recorder::new(ClockMode::Logical);
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        {
            let _outer = rec.span("outer");
        }
        let report = rec.report();
        let spans = report.get("spans").unwrap();
        let outer = spans.get("outer").unwrap();
        assert_eq!(outer.get("count").unwrap().as_u64(), Some(2));
        // First outer span: start t=0, inner start t=1, inner end t=2,
        // outer end t=3 (3 ticks); second outer: start t=4, end t=5.
        assert_eq!(outer.get("ticks").unwrap().as_u64(), Some(4));
        assert_eq!(
            spans.get("inner").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn events_produce_parseable_jsonl() {
        let rec = Recorder::new(ClockMode::Logical);
        rec.event("candidate.accepted", &[("name", "Bucketized_Age".into())]);
        rec.event("candidate.skipped", &[("reason", "high_null".into())]);
        let trace = rec.trace_jsonl();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = JsonValue::parse(line).expect("JSONL line parses");
            assert_eq!(v.get("t").unwrap().as_u64(), Some(i as u64));
        }
        assert_eq!(
            JsonValue::parse(lines[0])
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("candidate.accepted")
        );
        assert_eq!(rec.events(), 2);
    }

    #[test]
    fn fm_usage_totals_sum_roles() {
        let rec = Recorder::new(ClockMode::Logical);
        rec.set_fm_usage(
            "selector",
            FmUsage {
                calls: 2,
                prompt_tokens: 100,
                completion_tokens: 40,
                cost_usd: 0.01,
            },
        );
        rec.set_fm_usage(
            "generator",
            FmUsage {
                calls: 1,
                prompt_tokens: 50,
                completion_tokens: 10,
                cost_usd: 0.002,
            },
        );
        let fm = rec.report();
        let total = fm.get("fm").unwrap().get("total").unwrap();
        assert_eq!(total.get("calls").unwrap().as_u64(), Some(3));
        assert_eq!(total.get("prompt_tokens").unwrap().as_u64(), Some(150));
        assert_eq!(total.get("completion_tokens").unwrap().as_u64(), Some(50));
        assert!((total.get("cost_usd").unwrap().as_f64().unwrap() - 0.012).abs() < 1e-12);
    }

    #[test]
    fn family_stats_accumulate() {
        let rec = Recorder::new(ClockMode::Logical);
        rec.family("Binary", |f| {
            f.candidates += 1;
            f.generation_errors += 1;
        });
        rec.family("Binary", |f| f.accepted += 1);
        let report = rec.report();
        let binary = report.get("families").unwrap().get("Binary").unwrap();
        assert_eq!(binary.get("candidates").unwrap().as_u64(), Some(1));
        assert_eq!(binary.get("accepted").unwrap().as_u64(), Some(1));
        assert_eq!(binary.get("generation_errors").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn logical_report_has_no_volatile_section() {
        let rec = Recorder::new(ClockMode::Logical);
        rec.set_pool(PoolStats {
            batches: 3,
            tasks: 12,
            workers_spawned: 6,
        });
        let report = rec.report();
        assert_eq!(report.get("clock").unwrap().as_str(), Some("logical"));
        assert!(report.get("volatile").is_none());
        let pool = report.get("pool").unwrap();
        assert_eq!(pool.get("batches").unwrap().as_u64(), Some(3));
        assert_eq!(pool.get("tasks").unwrap().as_u64(), Some(12));
        assert!(pool.get("workers_spawned").is_none());
    }

    #[test]
    fn wall_report_segregates_volatile_fields() {
        let rec = Recorder::new(ClockMode::Wall);
        rec.set_pool(PoolStats {
            batches: 1,
            tasks: 2,
            workers_spawned: 4,
        });
        let mut work = BTreeMap::new();
        work.insert("ml.forest.fit", global::WorkStat { count: 5, ns: 123 });
        rec.set_work(work);
        drop(rec.span("stage"));
        let report = rec.report();
        let stage = report.get("spans").unwrap().get("stage").unwrap();
        assert_eq!(stage.get("count").unwrap().as_u64(), Some(1));
        assert!(stage.get("ns").is_none() && stage.get("ticks").is_none());
        assert_eq!(report.get("clock").unwrap().as_str(), Some("wall"));
        let volatile = report.get("volatile").expect("wall mode has volatile");
        assert_eq!(
            volatile.get("pool_workers_spawned").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            volatile
                .get("work_ns")
                .unwrap()
                .get("ml.forest.fit")
                .unwrap()
                .as_u64(),
            Some(123)
        );
        assert!(volatile.get("span_ns").unwrap().get("stage").is_some());
        // The deterministic side still carries the count.
        assert_eq!(
            report
                .get("work")
                .unwrap()
                .get("ml.forest.fit")
                .unwrap()
                .as_u64(),
            Some(5)
        );
    }

    #[test]
    fn routing_key_appears_only_when_stats_were_set() {
        let rec = Recorder::new(ClockMode::Logical);
        assert!(rec.report().get("routing").is_none());
        // An explicitly empty map still omits the key.
        rec.set_routing(BTreeMap::new());
        assert!(rec.report().get("routing").is_none());
        let mut routing = BTreeMap::new();
        routing.insert(
            "babbage-002".to_string(),
            RouteUsage {
                calls: 10,
                escalations: 3,
                prompt_tokens: 1000,
                completion_tokens: 200,
                cost_usd: 0.0005,
            },
        );
        rec.set_routing(routing);
        let report = rec.report();
        let entry = report
            .get("routing")
            .expect("routing key present")
            .get("babbage-002")
            .expect("family entry");
        assert_eq!(entry.get("calls").unwrap().as_u64(), Some(10));
        assert_eq!(entry.get("escalations").unwrap().as_u64(), Some(3));
        // Keys are emitted sorted: routing sits between pool and spans.
        let text = rec.report().emit();
        let pool = text.find("\"pool\"").unwrap();
        let routing_pos = text.find("\"routing\"").unwrap();
        let spans = text.find("\"spans\"").unwrap();
        assert!(pool < routing_pos && routing_pos < spans, "{text}");
    }

    #[test]
    fn report_emission_is_deterministic() {
        let build = || {
            let rec = Recorder::new(ClockMode::Logical);
            rec.incr("a", 1);
            rec.incr("b", 2);
            let _s = rec.span("stage");
            drop(_s);
            rec.report().emit()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn clock_mode_from_env_strings() {
        assert_eq!(ClockMode::Logical.name(), "logical");
        assert_eq!(ClockMode::Wall.name(), "wall");
        // from_env reads the process environment; both outcomes are valid
        // here — just ensure it does not panic and returns a mode.
        let _ = ClockMode::from_env();
    }
}
