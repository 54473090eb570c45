//! # smartfeat-rng
//!
//! Seeded, std-only pseudo-random number generation for the SMARTFEAT
//! reproduction, plus a minimal property-test harness ([`check`]).
//!
//! The repository builds hermetically — no registry dependencies — so this
//! crate replaces `rand` everywhere randomness is needed: ML substrate
//! (bootstrap sampling, feature subsampling, random split thresholds,
//! weight init), frame sampling (shuffles, train/test splits), the
//! simulated FM's sampling strategies, the synthetic dataset generators,
//! and the CAAFE baseline.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded from a
//! single `u64` through **SplitMix64** — the standard recipe for expanding
//! a small seed into a full 256-bit state. Both algorithms are public
//! domain. The exact output stream is part of this crate's contract:
//! the simulated-FM transcripts, synthetic datasets, and every seeded
//! pipeline run are downstream of it, so regression tests pin the first
//! values of the seed-1 and seed-2 streams. Do not change the algorithm
//! or the derived helpers (`gen_range`, `shuffle`, …) without accepting
//! that every seeded artifact in the repository shifts.

pub mod check;

/// SplitMix64: a tiny, fast, well-distributed 64-bit generator. Used here
/// to expand a `u64` seed into xoshiro state, and usable on its own for
/// hashing-style seed derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A named stream of [`seed_jump`]: every seeded consumer that derives
/// from a shared base seed names its purpose here, so this enum is the
/// whole allocation of the base seed's SplitMix64 index space.
///
/// | Variant | Index | Reserved | Consumer |
/// |---|---|---|---|
/// | `Tree(i)` | `i` | `0..100` | per-tree seeds of `ml`'s forest and extra-trees |
/// | `Score` | `101` | `101..102` | the search's single-feature CV scorer |
/// | `Generation(g)` | `g` under index `211` | `211..212` | the evolutionary search, one stream per generation |
/// | `CascadeRung(r)` | `311 + r` | `311..327` | the cascade's per-rung oracle seeds |
///
/// The reservations are disjoint, and a build-time assertion keeps them
/// so. An index past its reservation (a 101st tree, a 17th rung) is not
/// checked: it would silently share another purpose's stream, so keep
/// the ranges wide enough for every configuration the code accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Tree `i` of a tree ensemble (`i < 100`).
    Tree(u64),
    /// The search's single-feature CV scorer.
    Score,
    /// Generation `g` of the evolutionary search: a derived namespace,
    /// jumped once to index 211 and again by `g`.
    Generation(u64),
    /// Rung `r` of a cascade ladder (`r < 16`).
    CascadeRung(u64),
}

// Each family's reserved index range, in ascending order.
const TREE: std::ops::Range<u64> = 0..100;
const SCORE: std::ops::Range<u64> = 101..102;
const GENERATION: std::ops::Range<u64> = 211..212;
const CASCADE_RUNG: std::ops::Range<u64> = 311..327;

const _: () = assert!(
    TREE.end <= SCORE.start
        && SCORE.end <= GENERATION.start
        && GENERATION.end <= CASCADE_RUNG.start,
    "seed stream reservations must be disjoint and in ascending order"
);

/// The seed of `stream` under `base`: one SplitMix64 jump to the
/// stream's index (two for [`Stream::Generation`]).
///
/// This is the sanctioned way to give each item of a parallel region its
/// own RNG stream: derive `Rng::seed_from_u64(seed_jump(base,
/// Stream::Tree(i)))` from the item index `i`, never share or re-use one
/// stream across items (the forest and extra-trees unit tests
/// `every_tree_draws_its_own_stream` pin this at the two pool sites).
pub fn seed_jump(base: u64, stream: Stream) -> u64 {
    match stream {
        Stream::Tree(i) => jump(base, TREE.start.wrapping_add(i)),
        Stream::Score => jump(base, SCORE.start),
        Stream::Generation(g) => jump(jump(base, GENERATION.start), g),
        Stream::CascadeRung(r) => jump(base, CASCADE_RUNG.start.wrapping_add(r)),
    }
}

/// O(1) per-index derivation: the `index`-th output of the SplitMix64
/// stream seeded at `base`, computed without stepping through the
/// `index - 1` earlier outputs.
///
/// `jump(base, i) == { let mut sm = SplitMix64::new(base);
/// (0..=i).map(|_| sm.next_u64()).last() }` — bit-identical to the
/// sequential derivation the parallel ML substrates used before this
/// helper existed, so adopting it shifted no seeded artifact.
fn jump(base: u64, index: u64) -> u64 {
    // SplitMix64's state after k calls is `base + k·γ`; output k is the
    // mix of that state. Jumping is therefore one add and one mix.
    let state = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The repository's seeded PRNG: xoshiro256++ with SplitMix64 seeding.
///
/// ```
/// use smartfeat_rng::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(0..10usize);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expand `seed` into a full 256-bit state via SplitMix64 (the seeding
    /// procedure the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 uniformly distributed bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in a half-open (`lo..hi`) or inclusive (`lo..=hi`)
    /// range. Panics on an empty range, like `rand`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Unbiased uniform integer in `[0, n)` via bitmask rejection.
    fn uniform_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        let mask = u64::MAX >> (n - 1).leading_zeros();
        loop {
            let v = self.next_u64() & mask;
            if v < n {
                return v;
            }
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.uniform_below(items.len() as u64) as usize])
        }
    }

    /// Index drawn proportionally to (unnormalized, non-negative) weights.
    /// `None` when `weights` is empty or sums to a non-positive/non-finite
    /// total.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut draw = self.gen_f64() * total;
        let mut last_positive = None;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                last_positive = Some(i);
                draw -= w;
                if draw <= 0.0 {
                    return Some(i);
                }
            }
        }
        last_positive // floating-point slack lands on the final candidate
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draw one uniform value.
    fn sample_from(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.uniform_below(span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.uniform_below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range on empty range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

/// Extension trait so `slice.shuffle(&mut rng)` reads like `rand`'s
/// `SliceRandom`, which it replaces.
pub trait SliceRandom {
    /// Shuffle in place.
    fn shuffle(&mut self, rng: &mut Rng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the public-domain reference
        // implementation.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    /// The exact output streams for seeds 1 and 2 are pinned: the
    /// simulated-FM transcripts (`SimulatedFm::gpt4(1)` etc.), the
    /// synthetic datasets, and every seeded pipeline artifact derive from
    /// them. If this test fails, every seeded output in the repository has
    /// silently shifted — fix the generator, don't re-pin the constants.
    #[test]
    fn seed_1_and_2_streams_are_pinned() {
        let mut r = Rng::seed_from_u64(1);
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()],
            [
                14971601782005023387,
                13781649495232077965,
                1847458086238483744,
                13765271635752736470,
            ]
        );
        let mut r = Rng::seed_from_u64(2);
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()],
            [
                14116099294885116970,
                9908902983784002248,
                12014208703938729165,
                5418364696612899442,
            ]
        );
        // Derived helpers are pinned too: they define the sampling
        // behaviour of everything downstream.
        let mut r = Rng::seed_from_u64(1);
        assert!((r.gen_f64() - 0.8116121588818848).abs() < 1e-15);
        assert!((r.gen_f64() - 0.7471047161582187).abs() < 1e-15);
        let mut r = Rng::seed_from_u64(1);
        let draws: Vec<usize> = (0..6).map(|_| r.gen_range(0..100usize)).collect();
        assert_eq!(draws, [27, 13, 32, 86, 36, 69]);
        let mut r = Rng::seed_from_u64(2);
        let mut v: Vec<u8> = (0..8).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [1, 4, 6, 3, 7, 5, 0, 2]);
    }

    /// `jump` must stay bit-identical to walking the SplitMix64 stream
    /// sequentially — the parallel seed derivations in `ml` rely on this
    /// equivalence to keep pinned seeded artifacts unchanged.
    #[test]
    fn seed_jump_equals_sequential_splitmix() {
        for base in [0u64, 1, 2, 42, 1234567, u64::MAX] {
            let mut sm = SplitMix64::new(base);
            for index in 0..64u64 {
                let sequential = sm.next_u64();
                assert_eq!(jump(base, index), sequential, "base={base} index={index}");
            }
        }
    }

    /// Every stream's seed is pinned absolutely: an off-by-one in a
    /// variant's index would shift every artifact downstream of it, and
    /// the thread-count matrices, which compare runs with each other,
    /// would not notice.
    #[test]
    fn stream_seeds_are_pinned() {
        let pinned = [
            (Stream::Tree(0), 13679457532755275413),
            (Stream::Tree(29), 12805316055209107011),
            (Stream::Score, 2983285000724944447),
            (Stream::Generation(0), 9963184534702902763),
            (Stream::Generation(3), 17189090317648630711),
            (Stream::CascadeRung(0), 3464985309144721987),
            (Stream::CascadeRung(2), 13502545835171775766),
        ];
        for (stream, seed) in pinned {
            assert_eq!(seed_jump(42, stream), seed, "{stream:?}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_is_unit_interval_and_covers_it() {
        let mut rng = Rng::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
            lo_seen |= v < 0.01;
            hi_seen |= v > 0.99;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_range_int_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let b = rng.gen_range(0..3u8);
            assert!(b < 3);
        }
        // Every value of a small range appears.
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_f64_bounds() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&v), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let shuffled = v.clone();
        let mut sorted = v;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Same seed reproduces the same permutation.
        let mut rng2 = Rng::seed_from_u64(11);
        let mut v2: Vec<usize> = (0..100).collect();
        rng2.shuffle(&mut v2);
        assert_eq!(v2, shuffled);
        assert_ne!(shuffled, (0..100).collect::<Vec<_>>(), "identity shuffle");
    }

    #[test]
    fn choose_and_empty() {
        let mut rng = Rng::seed_from_u64(2);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut rng = Rng::seed_from_u64(6);
        let weights = [1.0, 0.0, 19.0];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight drawn");
        assert!(counts[2] > counts[0] * 5, "{counts:?}");
        assert!(rng.weighted_index(&[]).is_none());
        assert!(rng.weighted_index(&[0.0, -1.0]).is_none());
    }

    #[test]
    fn slice_random_extension_matches_inherent() {
        use super::SliceRandom as _;
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        a.shuffle(&mut Rng::seed_from_u64(8));
        Rng::seed_from_u64(8).shuffle(&mut b);
        assert_eq!(a, b);
    }
}
