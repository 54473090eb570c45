//! Usage accounting: calls, tokens, dollars, simulated latency.
//!
//! The meter is shared (`Rc` inside callers) and single-threaded: it
//! lives in a `RefCell` owned by the serial control path, which issues
//! every FM call (DESIGN.md §8).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

/// One API call's accounting record.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Prompt tokens billed.
    pub prompt_tokens: usize,
    /// Completion tokens billed.
    pub completion_tokens: usize,
    /// USD billed.
    pub cost_usd: f64,
    /// Simulated latency.
    pub latency: Duration,
}

/// Aggregate snapshot of a meter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageSnapshot {
    /// Total calls.
    pub calls: usize,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
    /// Total completion tokens.
    pub completion_tokens: usize,
    /// Total USD.
    pub cost_usd: f64,
    /// Sum of simulated latencies (sequential wall-clock equivalent).
    pub latency: Duration,
}

impl UsageSnapshot {
    /// Total tokens in both directions.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.completion_tokens
    }
}

/// Per-backend routing accounting for a cascade router: how many
/// attempts each model family served, how many of those were rejected
/// and escalated past, and what they cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteStat {
    /// Attempts served by this family (accepted or not).
    pub calls: usize,
    /// Attempts whose output was rejected, escalating to the next rung.
    pub escalations: usize,
    /// Prompt tokens billed by this family.
    pub prompt_tokens: usize,
    /// Completion tokens billed by this family.
    pub completion_tokens: usize,
    /// USD billed by this family.
    pub cost_usd: f64,
}

impl RouteStat {
    /// Accumulate another stat into this one.
    pub fn add(&mut self, other: &RouteStat) {
        self.calls += other.calls;
        self.escalations += other.escalations;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.cost_usd += other.cost_usd;
    }

    /// `self - earlier`, for snapshot-delta bookkeeping.
    pub fn delta(&self, earlier: &RouteStat) -> RouteStat {
        RouteStat {
            calls: self.calls.saturating_sub(earlier.calls),
            escalations: self.escalations.saturating_sub(earlier.escalations),
            prompt_tokens: self.prompt_tokens.saturating_sub(earlier.prompt_tokens),
            completion_tokens: self
                .completion_tokens
                .saturating_sub(earlier.completion_tokens),
            cost_usd: self.cost_usd - earlier.cost_usd,
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.calls == 0 && self.escalations == 0
    }
}

/// Routing stats keyed by backend name, in sorted (deterministic) order.
pub type RoutingSnapshot = BTreeMap<String, RouteStat>;

/// Accumulating usage meter: exact aggregates over every recorded call.
#[derive(Debug, Default)]
pub struct UsageMeter {
    snapshot: RefCell<UsageSnapshot>,
}

impl UsageMeter {
    /// A meter at zero.
    pub fn new() -> Self {
        UsageMeter::default()
    }

    /// Record one call.
    pub fn record(&self, rec: CallRecord) {
        let mut s = self.snapshot.borrow_mut();
        s.calls += 1;
        s.prompt_tokens += rec.prompt_tokens;
        s.completion_tokens += rec.completion_tokens;
        s.cost_usd += rec.cost_usd;
        s.latency += rec.latency;
    }

    /// Current aggregate totals.
    pub fn snapshot(&self) -> UsageSnapshot {
        *self.snapshot.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tokens: usize) -> CallRecord {
        CallRecord {
            prompt_tokens: tokens,
            completion_tokens: tokens / 2,
            cost_usd: 0.01,
            latency: Duration::from_millis(100),
        }
    }

    #[test]
    fn aggregates_accumulate() {
        let m = UsageMeter::new();
        m.record(rec(100));
        m.record(rec(200));
        let s = m.snapshot();
        assert_eq!(s.calls, 2);
        assert_eq!(s.prompt_tokens, 300);
        assert_eq!(s.completion_tokens, 150);
        assert_eq!(s.total_tokens(), 450);
        assert!((s.cost_usd - 0.02).abs() < 1e-12);
        assert_eq!(s.latency, Duration::from_millis(200));
    }
}
