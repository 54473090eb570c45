//! # smartfeat-par
//!
//! Std-only deterministic parallel execution for the SMARTFEAT
//! reproduction: an ordered [`par_map`] with panic propagation whose
//! output is **bit-identical to the serial loop** for any thread count.
//!
//! ## Determinism contract
//!
//! Every parallel entry point here takes a closure that must be a pure
//! function of its input index/item (callers seed any randomness per
//! item — see `smartfeat_rng::SplitMix64` seed derivation in `ml::forest`).
//! [`par_map`] assigns results by input index, so the returned `Vec` is
//! independent of scheduling order; with `threads <= 1` the exact serial
//! code path runs (no worker threads, no channels). Differential tests in
//! `tests/par_determinism.rs` hold the workspace to this contract.
//!
//! ## Run context
//!
//! [`within`] installs a [`RunContext`] on the calling thread for the
//! length of a closure: the run's thread count, its pool counters and
//! its work tally. [`par_map_indexed`] counts into the current context
//! and installs the same context in every worker it spawns, so work done
//! on the pool is attributed to the run that asked for it, even when
//! several runs share one process. Outside any context nothing is
//! counted.
//!
//! ## Thread-count resolution
//!
//! The run context is where a thread count lives: library code calls
//! `resolve_threads(0)`, which returns the current context's count, else
//! the `SMARTFEAT_THREADS` environment variable (read once per process),
//! else `std::thread::available_parallelism`. [`within`] is how a caller
//! pins a count. `1` selects the exact serial path.
//!
//! Hermetic-build policy: this crate depends on `std` only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Name of the environment variable consulted by [`resolve_threads`].
pub const THREADS_ENV: &str = "SMARTFEAT_THREADS";

/// Pool counters of one run; see [`RunContext::pool`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `par_map`/`par_map_indexed` invocations (including serial-path runs).
    pub batches: u64,
    /// Total items mapped across all batches.
    pub tasks: u64,
    /// Worker threads spawned (0 for serial-path batches). Depends on the
    /// resolved thread count, so observability reports treat it as volatile.
    pub workers_spawned: u64,
}

/// Aggregate for one named unit of work in a run's tally.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkStat {
    /// Times the unit ran.
    pub count: u64,
    /// Total wall-clock nanoseconds (saturating).
    pub ns: u64,
}

/// What one run owns while it executes: its resolved thread count, its
/// pool counters and its work tally. Created and installed by [`within`].
#[derive(Debug, Default)]
pub struct RunContext {
    /// Read only through [`resolve_threads`], which static analysis
    /// tracks as the one source of thread counts.
    threads: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    workers_spawned: AtomicU64,
    work: Mutex<BTreeMap<&'static str, WorkStat>>,
}

impl RunContext {
    /// The pool counters so far. `batches` and `tasks` are pure functions
    /// of the workload; `workers_spawned` varies with the thread count.
    pub fn pool(&self) -> PoolStats {
        PoolStats {
            batches: self.batches.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
        }
    }

    /// The work tally so far: name → {count, ns}. Counts are a pure
    /// function of the workload; nanoseconds are wall-clock.
    pub fn work(&self) -> BTreeMap<&'static str, WorkStat> {
        lock_or_poison(&self.work).clone()
    }

    /// Record one completed unit of `name` that took `elapsed`.
    pub fn record(&self, name: &'static str, elapsed: Duration) {
        let mut work = lock_or_poison(&self.work);
        let stat = work.entry(name).or_default();
        stat.count += 1;
        stat.ns = stat
            .ns
            .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<RunContext>>> = const { RefCell::new(None) };
}

/// Run `f` with `ctx` as this thread's current context, restoring the
/// previous one afterwards (on unwind too).
fn enter<R>(ctx: Option<Arc<RunContext>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RunContext>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(ctx)));
    f()
}

/// Run `f` inside a fresh [`RunContext`] whose thread count is `threads`.
/// Contexts nest: the inner one shadows the outer until `f` returns, and
/// the outer one counts none of the inner one's work.
pub fn within<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let ctx = RunContext {
        threads,
        ..RunContext::default()
    };
    enter(Some(Arc::new(ctx)), f)
}

/// Call `f` on the current context, if one is installed.
pub fn with_current<R>(f: impl FnOnce(&RunContext) -> R) -> Option<R> {
    current().as_deref().map(f)
}

/// The current context, if one is installed. Cloned out of the
/// thread-local so `f` in [`with_current`] may itself enter a context.
fn current() -> Option<Arc<RunContext>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Number of hardware threads, with a floor of 1.
pub fn available_threads() -> usize {
    thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Effective thread count: `configured` when positive, else the current
/// context's count, else the `SMARTFEAT_THREADS` environment variable
/// when set to a positive integer, else [`available_threads`]. `1` means
/// "run the exact serial path". Library code passes 0; [`within`] pins
/// a count.
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    with_current(|ctx| ctx.threads)
        .or_else(env_threads)
        .unwrap_or_else(available_threads)
}

/// `SMARTFEAT_THREADS`, read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()?
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
    })
}

/// Acquire a mutex, treating poisoning as the panic it already is.
///
/// A poisoned `std::sync::Mutex` means another thread panicked while
/// holding the guard; with this workspace's fail-fast pools (spawn
/// panics re-raise at join) the only sound continuation is to re-raise
/// here too. Keeping the `expect` in one audited place gives every
/// caller a panic-free call site.
///
/// The run context's work map is the only lock in library code; sfcheck's
/// `lock-confinement` lint keeps FM and recorder state lock-free.
pub fn lock_or_poison<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // sfcheck:allow(panic-reachability) poisoned lock only re-raises a panic from another thread
    m.lock().expect("lock poisoned")
}

/// Map `f` over `items` on up to `threads` worker threads, returning
/// results **in input order**. With `threads <= 1` (or fewer than two
/// items) the serial loop runs on the calling thread. A panic in `f`
/// propagates to the caller after the remaining workers drain.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(threads, items.len(), |i| f(&items[i]))
}

/// [`par_map`] over the index range `0..n`: `f(i)` for each index, results
/// in index order. This is the primitive the seeded-work callers use
/// (index → derived seed → independent computation).
pub fn par_map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(n);
    let ctx = current();
    if let Some(ctx) = &ctx {
        ctx.batches.fetch_add(1, Ordering::Relaxed);
        ctx.tasks.fetch_add(n as u64, Ordering::Relaxed);
        if workers > 1 {
            ctx.workers_spawned
                .fetch_add(workers as u64, Ordering::Relaxed);
        }
    }
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let f = &f;
    let next = &next;
    let slots = thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let ctx = ctx.clone();
            s.spawn(move || {
                enter(ctx, || loop {
                    // Dynamic work claiming: scheduling order varies run
                    // to run, but results land by index, so output does
                    // not.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                })
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
        // thread::scope joins every worker here; a panicked worker's
        // payload is resumed, which unwinds past the return below.
    });
    slots
        .into_iter()
        // sfcheck:allow(panic-reachability) invariant: scope join proves every index was sent
        .map(|slot| slot.expect("par_map worker delivered every index"))
        .collect()
}

/// Fallible ordered map: like [`par_map_indexed`] but `f` returns a
/// `Result`, and the **lowest-index** error is returned — matching what
/// the serial loop would report — even if a later item failed first in
/// wall-clock time.
pub fn try_par_map_indexed<R, E, F>(threads: usize, n: usize, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(n);
    for r in par_map_indexed(threads, n, f) {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_length() {
        for threads in [1, 2, 3, 8, 64] {
            for n in [0usize, 1, 2, 7, 100] {
                let items: Vec<usize> = (0..n).collect();
                let got = par_map(threads, &items, |&i| i * 3 + 1);
                let want: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        assert_eq!(par_map(1, &items, f), par_map(8, &items, f));
    }

    #[test]
    fn panicking_task_propagates_not_deadlocks() {
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(4, 50, |i| {
                if i == 23 {
                    panic!("task 23 failed");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must propagate out of par_map");
    }

    #[test]
    fn try_par_map_reports_lowest_index_error() {
        let r: Result<Vec<usize>, usize> =
            try_par_map_indexed(4, 100, |i| if i == 7 || i == 70 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 7);
        let ok: Result<Vec<usize>, usize> = try_par_map_indexed(4, 10, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn context_counts_its_own_batches_and_work() {
        let (stats, work) = within(4, || {
            par_map_indexed(1, 5, |i| i); // serial path: no workers spawned
            par_map_indexed(4, 8, |i| {
                with_current(|ctx| ctx.record("par.test.unit", Duration::from_nanos(1)));
                i
            });
            with_current(|ctx| (ctx.pool(), ctx.work())).expect("context installed")
        });
        assert_eq!(
            stats,
            PoolStats {
                batches: 2,
                tasks: 13,
                workers_spawned: 4
            }
        );
        assert_eq!(work["par.test.unit"], WorkStat { count: 8, ns: 8 });
        assert!(with_current(|_| ()).is_none(), "context closes with within");
    }

    #[test]
    fn resolve_threads_prefers_config_then_context_then_ambient() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(
            resolve_threads(0),
            env_threads().unwrap_or_else(available_threads)
        );
        within(7, || {
            assert_eq!((resolve_threads(3), resolve_threads(0)), (3, 7));
            within(5, || {
                assert_eq!(resolve_threads(0), 5);
                par_map_indexed(1, 2, |i| i);
            });
            assert_eq!(resolve_threads(0), 7, "the outer context is restored");
            let pool = with_current(RunContext::pool).expect("outer context");
            assert_eq!(pool.batches, 0, "the inner run's batch is not the outer's");
        });
    }
}
