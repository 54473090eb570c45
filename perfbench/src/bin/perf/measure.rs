//! The benchmark's clock and speed calibration, order statistics, peak
//! memory and output digest.

use std::hint::black_box;
use std::time::Instant;

/// The one wall-clock read in the benchmark. Every timing — pass, setup,
/// span — is a difference of two `now()` values.
pub fn now() -> Instant {
    // sfcheck:allow(wall-clock) the benchmark measures wall time by definition; no timing reaches program output
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Run `f`, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// The calibration kernel's wall time on the reference machine (a
/// two-vCPU x86-64 VM, uncontended). Scaled times are seconds at that
/// machine's speed.
pub const REFERENCE_KERNEL_S: f64 = 0.0027;

/// Fixed integer work — fill, sort and a dependent random walk over
/// 640 KB, about 3 ms — whose wall time samples how fast the machine runs
/// right now. It is the benchmark's own code, so no change to the program
/// under test moves it.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..80_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let n = v.len();
    let (mut i, mut h) = (0usize, 0u64);
    for _ in 0..160_000 {
        i = i.wrapping_mul(31).wrapping_add(v[i] as usize) % n;
        h = h.wrapping_add(v[i]);
    }
    h
}

/// Median wall time of three kernel runs.
fn sample_speed() -> f64 {
    let mut t: Vec<f64> = (0..3).map(|_| timed(|| black_box(kernel())).1).collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Times a sequence of operations on a machine whose speed drifts.
///
/// Shared machines slow down and speed up by tens of percent over
/// seconds to minutes. Each operation's wall time is therefore also
/// scaled by [`REFERENCE_KERNEL_S`] ÷ the mean of the kernel times sampled
/// right before and right after it, which turns it into seconds at the
/// reference speed. The samples fall between operations and are not part
/// of any operation's time.
pub struct OpTimer {
    kernel_before: f64,
    raw: f64,
    scaled: f64,
    last_raw: f64,
    last_scaled: f64,
}

impl OpTimer {
    /// A timer with no operations yet; samples the speed once.
    pub fn new() -> OpTimer {
        OpTimer {
            kernel_before: sample_speed(),
            raw: 0.0,
            scaled: 0.0,
            last_raw: 0.0,
            last_scaled: 0.0,
        }
    }

    /// Run and time one operation.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        let kernel_after = sample_speed();
        self.last_raw = secs;
        self.last_scaled = secs * REFERENCE_KERNEL_S * 2.0 / (self.kernel_before + kernel_after);
        self.raw += secs;
        self.scaled += self.last_scaled;
        self.kernel_before = kernel_after;
        out
    }

    /// Wall time of all operations so far.
    pub fn raw(&self) -> f64 {
        self.raw
    }

    /// Scaled time of all operations so far.
    pub fn scaled(&self) -> f64 {
        self.scaled
    }

    /// Wall time of the latest operation.
    pub fn last_raw(&self) -> f64 {
        self.last_raw
    }

    /// Scaled time of the latest operation.
    pub fn last_scaled(&self) -> f64 {
        self.last_scaled
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this binary prints match the ones recorded beside it.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's loop body for cut point i of 4, over m = n + 1 slots; the
    // clamp happens before `delta`, so the extreme cuts extrapolate.
    let at = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over a canonical text rendering of a pass's outputs. Two passes
/// over the same inputs must produce the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `text` (and a separator, so `"ab","c"` differs from `"a","bc"`).
    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold an `f64` by its exact bits.
    pub fn add_f64(&mut self, x: f64) {
        self.add(&format!("{:016x}", x.to_bits()));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 7.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.add("ab");
        a.add("c");
        a.add_f64(0.5);
        let mut b = Digest::default();
        b.add("ab");
        b.add("c");
        b.add_f64(0.5);
        assert_eq!(a, b);
        // Pinned: a change to the digest function must be deliberate.
        assert_eq!(a.value(), 0x3dd8_fdba_edfd_9226);
        let mut c = Digest::default();
        c.add("a");
        c.add("bc");
        c.add_f64(0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn op_timer_sums_its_operations() {
        let mut t = OpTimer::new();
        assert_eq!(t.op(|| 7), 7);
        t.op(|| black_box(kernel()));
        assert!(t.raw() >= t.last_raw() && t.last_raw() > 0.0);
        assert!(t.scaled() >= t.last_scaled() && t.last_scaled() > 0.0);
        // The scale is a speed ratio: the same order as the wall time.
        let ratio = t.last_scaled() / t.last_raw();
        assert!(ratio > 0.01 && ratio < 100.0, "{ratio}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
