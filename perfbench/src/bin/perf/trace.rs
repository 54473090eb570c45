//! Spans recorded around the benchmark's own calls into each layer, and
//! the foundation-model wrapper that counts (and, when tracing, times)
//! every `complete` per role.
//!
//! Spans stay in memory and are written as JSONL when the run ends. A
//! span's self time is its duration minus the time its direct children
//! cover; children never overlap, because every traced call is made from
//! the benchmark's single calling thread (the pipeline issues FM calls on
//! its serial control path).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use smartfeat_fm::{FmError, FmResponse, FoundationModel, RoutingSnapshot, UsageMeter};
use smartfeat_frame::json::JsonValue;
use smartfeat_par::lock_or_poison;

use crate::measure::{now, timed};

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation (repeated; `pass` numbers the repetition).
    Setup,
    /// Passes run before measuring.
    Warmup,
    /// Measured passes, numbered from 1.
    Pass,
    /// Traced-only probes run after each measured pass, outside its time.
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Pass => "pass",
            Phase::Probe => "probe",
        }
    }
}

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run` or `fm.selector`.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time (equal to `start` while the span is open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run phase at the time the span opened.
    pub phase: Phase,
    /// Pass (or setup repetition) number within the phase.
    pub pass: usize,
    /// Dataset (or other input) the call worked on; empty when none.
    pub dataset: String,
}

impl Span {
    /// Wall time covered.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: Option<(Phase, usize)>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            state: Mutex::new(State::default()),
        }
    }

    fn clock(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Set the phase and pass number that new spans are tagged with.
    pub fn enter(&self, phase: Phase, pass: usize) {
        lock_or_poison(&self.state).phase = Some((phase, pass));
    }

    /// Open a span nested under the innermost open one; returns its id.
    pub fn open(&self, name: &str, dataset: &str) -> usize {
        let start = self.clock();
        let mut st = lock_or_poison(&self.state);
        let (phase, pass) = st.phase.unwrap_or((Phase::Setup, 0));
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            phase,
            pass,
            dataset: dataset.to_string(),
        });
        st.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn close(&self, id: usize) {
        let end = self.clock();
        let mut st = lock_or_poison(&self.state);
        while let Some(top) = st.open.pop() {
            st.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        lock_or_poison(&self.state).spans.clone()
    }

    /// The spans as JSON Lines, one object per span, in opening order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let line = JsonValue::object([
                ("name", s.name.as_str().into()),
                ("start_s", s.start.into()),
                ("end_s", s.end.into()),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                ("phase", s.phase.name().into()),
                ("pass", s.pass.into()),
                ("dataset", s.dataset.as_str().into()),
            ]);
            out.push_str(&line.emit());
            out.push('\n');
        }
        out
    }
}

/// Run `f` inside a span named `name` when tracing, or bare otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &str, dataset: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let id = t.open(name, dataset);
            let out = f();
            t.close(id);
            out
        }
        None => f(),
    }
}

/// [`span`] on a live tracer, also returning the call's wall time.
pub fn span_timed<T>(
    tracer: &Tracer,
    name: &str,
    dataset: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    timed(|| span(Some(tracer), name, dataset, f))
}

/// Each span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Per-name totals of self time over the spans of `phase`, and per name
/// the number of such spans.
pub fn self_time_by_name(spans: &[Span], phase: Phase) -> BTreeMap<String, (f64, usize)> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        if s.phase == phase {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += t;
            e.1 += 1;
        }
    }
    out
}

/// A foundation model in one SMARTFEAT role, wrapped so the benchmark
/// sees every `complete`: it counts calls and errors always, and records
/// an `fm.<role>` span per call when tracing.
pub struct RoleFm<'t> {
    inner: Box<dyn FoundationModel>,
    span_name: &'static str,
    tracer: Option<&'t Tracer>,
    calls: AtomicUsize,
    errors: AtomicUsize,
}

impl<'t> RoleFm<'t> {
    /// Wrap `inner`, naming its spans `span_name` (`fm.selector` or
    /// `fm.generator`).
    pub fn new(
        inner: Box<dyn FoundationModel>,
        span_name: &'static str,
        tracer: Option<&'t Tracer>,
    ) -> Self {
        RoleFm {
            inner,
            span_name,
            tracer,
            calls: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
        }
    }

    /// `complete` calls seen so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// `complete` calls that returned an error.
    pub fn errors(&self) -> usize {
        self.errors.load(Ordering::SeqCst)
    }

    /// Attempts the meter billed that the caller never saw as an answer:
    /// a cascade bills every rung it tries, and each escalation is one.
    pub fn escalations(&self) -> usize {
        self.inner
            .routing()
            .map_or(0, |r| r.values().map(|s| s.escalations).sum())
    }
}

impl FoundationModel for RoleFm<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let out = span(self.tracer, self.span_name, "", || {
            self.inner.complete(prompt)
        });
        if out.is_err() {
            self.errors.fetch_add(1, Ordering::SeqCst);
        }
        out
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }

    fn routing(&self) -> Option<RoutingSnapshot> {
        self.inner.routing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let t = Tracer::new();
        t.enter(Phase::Pass, 1);
        let outer = t.open("pass", "");
        let inner = t.open("core.run", "Adult");
        let leaf = t.open("fm.selector", "");
        t.close(leaf);
        t.close(inner);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.phase == Phase::Pass && s.pass == 1));
        let own = self_times(&spans);
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-9);
        let by = self_time_by_name(&spans, Phase::Pass);
        assert_eq!(by["core.run"].1, 1);
        assert!(self_time_by_name(&spans, Phase::Setup).is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let t = Tracer::new();
        span(Some(&t), "a", "x\"y", || span(Some(&t), "b", "", || ()));
        let text = t.jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = JsonValue::parse(line).expect("valid JSON");
            assert!(v.get("start_s").is_some() && v.get("parent").is_some());
        }
    }

    #[test]
    fn role_fm_counts_calls() {
        let fm = RoleFm::new(
            Box::new(smartfeat_fm::SimulatedFm::gpt4(1)),
            "fm.selector",
            None,
        );
        fm.complete("hello").expect("simulated FM answers");
        assert_eq!(fm.calls(), 1);
        assert_eq!(fm.errors(), 0);
        assert_eq!(fm.meter().snapshot().calls, 1);
        assert_eq!(fm.escalations(), 0);
    }
}
