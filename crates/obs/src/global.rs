//! Run-scoped work tally: order-independent aggregation for code that
//! runs on pool workers (tree fits, CV folds), where per-event tracing
//! would break the determinism contract.
//!
//! Callers record named work units with [`time`] or [`record`]; both
//! write into the current `smartfeat_par` run context, which the pool
//! hands to its workers, and the pipeline copies the tally into its
//! report at the end of the run. Work recorded outside any context is
//! dropped. Counts are a pure function of the workload (deterministic
//! for any thread count); nanosecond totals are wall-clock and surface
//! only in the report's `volatile` section.

use std::time::{Duration, Instant};

pub use smartfeat_par::WorkStat;

/// Record one completed unit of `name` that took `elapsed` in the
/// current run context (a no-op outside one).
pub fn record(name: &'static str, elapsed: Duration) {
    smartfeat_par::with_current(|ctx| ctx.record(name, elapsed));
}

/// Run `f`, recording its wall-clock duration under `name`. Safe to call
/// from pool workers: aggregation is a mutex-guarded counter update in
/// the run's context, with no event emission.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    record(name, start.elapsed());
    out
}

/// A running wall-clock measurement that records into the run's work
/// tally when dropped. This is the sanctioned way for code outside
/// `crates/obs` to consume wall time (deadline enforcement, grid cell
/// timing): the read stays behind the obs gate, the count lands
/// deterministically in the tally, and the nanosecond total only surfaces
/// under the report's `volatile` key (sfcheck lint `wall-clock` enforces
/// the routing).
#[derive(Debug)]
pub struct Stopwatch {
    name: &'static str,
    start: Instant,
}

/// Start a stopwatch recording under `name` on drop.
pub fn stopwatch(name: &'static str) -> Stopwatch {
    Stopwatch {
        name,
        start: Instant::now(),
    }
}

impl Stopwatch {
    /// Wall time since the stopwatch started.
    ///
    /// The value is volatile by nature; callers must only compare it
    /// against other durations (deadlines, budgets), never serialize it
    /// outside the `volatile` report section.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the stopwatch has run past `deadline`.
    pub fn exceeded(&self, deadline: Duration) -> bool {
        self.elapsed() > deadline
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        record(self.name, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work tally of `f`, run inside a fresh context.
    fn tally(f: impl FnOnce()) -> std::collections::BTreeMap<&'static str, WorkStat> {
        smartfeat_par::within(1, || {
            f();
            smartfeat_par::with_current(smartfeat_par::RunContext::work).expect("context")
        })
    }

    #[test]
    fn time_records_count_and_duration() {
        let work = tally(|| {
            assert_eq!(time("obs.test.unit", || 41 + 1), 42);
            record("obs.test.unit", Duration::from_nanos(5));
        });
        let stat = work["obs.test.unit"];
        assert_eq!(stat.count, 2);
        assert!(stat.ns >= 5);
    }

    #[test]
    fn stopwatch_records_on_drop_and_checks_deadlines() {
        let work = tally(|| {
            let watch = stopwatch("obs.test.stopwatch");
            assert!(
                watch.exceeded(Duration::ZERO) || watch.elapsed() == Duration::ZERO,
                "a zero deadline trips as soon as any time passes"
            );
            assert!(!watch.exceeded(Duration::from_secs(3600)));
        });
        assert_eq!(work["obs.test.stopwatch"].count, 1);
    }

    #[test]
    fn work_outside_a_context_is_dropped() {
        record("obs.test.orphan", Duration::ZERO);
        assert!(tally(|| ()).is_empty());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let work = tally(|| {
            smartfeat_par::par_map_indexed(4, 200, |_| {
                record("obs.test.concurrent", Duration::from_nanos(1))
            });
        });
        assert_eq!(work["obs.test.concurrent"].count, 200);
    }
}
