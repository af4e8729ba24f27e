//! Deterministic random number generation.
//!
//! The simulator must be bit-reproducible: identical configurations produce
//! identical cycle counts, which integration and property tests assert. All
//! stochastic choices (synthetic address streams, hit/miss draws in workload
//! models) therefore come from this small xoshiro256** implementation seeded
//! explicitly, never from ambient entropy.
//!
//! The same generator drives the workspace's property tests: [`cases`] runs
//! a test body on `n` seeded cases and names the failing one.

use crate::hash::stable_hash_str;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A seeded xoshiro256** pseudo-random number generator.
///
/// # Example
///
/// ```
/// use gmh_types::Xoshiro256;
///
/// let mut a = Xoshiro256::seeded(7);
/// let mut b = Xoshiro256::seeded(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed, expanded with splitmix64.
    pub fn seeded(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Xoshiro256 { s }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiplicative range reduction; bias is negligible for simulator use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform value in the half-open range `r`, for any integer type
    /// whose bounds are non-negative (`rng.range(1..16)`,
    /// `rng.range(0usize..4)`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or a bound is negative.
    pub fn range<T>(&mut self, r: Range<T>) -> T
    where
        T: TryFrom<u64> + TryInto<u64>,
    {
        let (Ok(lo), Ok(hi)) = (r.start.try_into(), r.end.try_into()) else {
            panic!("range bounds must be non-negative")
        };
        assert!(lo < hi, "range must be non-empty");
        match T::try_from(lo + self.below(hi - lo)) {
            Ok(v) => v,
            Err(_) => unreachable!("a draw below `end` fits the type of `end`"),
        }
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

/// Runs the property test `name` on `n` cases: case `i` gets a fresh
/// generator seeded with `stable_hash_str(name) ^ i`, so every case is a
/// pure function of `(name, i)` and rerunning the test reruns a failure.
///
/// # Panics
///
/// Re-panics when `body` panics, with a message naming the test, the case
/// index and its seed (the body's own message follows).
///
/// # Example
///
/// ```
/// use gmh_types::rng::cases;
///
/// cases("below_is_below", 16, |rng| {
///     let bound = rng.range(1..100u64);
///     assert!(rng.below(bound) < bound);
/// });
/// ```
pub fn cases(name: &str, n: u32, mut body: impl FnMut(&mut Xoshiro256)) {
    for i in 0..n {
        let seed = stable_hash_str(name) ^ u64::from(i);
        let mut rng = Xoshiro256::seeded(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!("{name}: case {i} of {n} failed (seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seeded(1);
        let mut b = Xoshiro256::seeded(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xoshiro256::seeded(9);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = Xoshiro256::seeded(10);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            #[allow(clippy::cast_possible_truncation)]
            let bucket = r.below(8) as usize;
            seen[bucket] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_panics() {
        Xoshiro256::seeded(0).below(0);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = Xoshiro256::seeded(3);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn unit_f64_mean_is_near_half() {
        let mut r = Xoshiro256::seeded(4);
        let mean: f64 = (0..100_000).map(|_| r.unit_f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_probability_roughly_respected() {
        let mut r = Xoshiro256::seeded(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn range_stays_in_bounds_for_every_width() {
        let mut r = Xoshiro256::seeded(11);
        for _ in 0..1000 {
            assert!((3..17).contains(&r.range(3u32..17)));
            assert!(r.range(0usize..4) < 4);
            assert!(r.range(250u8..255) >= 250);
        }
        assert_eq!(r.range(7u64..8), 7);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        Xoshiro256::seeded(0).range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_range_bound_panics() {
        Xoshiro256::seeded(0).range(-3i32..3);
    }

    /// The first `k` draws of every case of `name`.
    fn draws(name: &str, n: u32, k: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        cases(name, n, |rng| {
            out.push((0..k).map(|_| rng.next_u64()).collect())
        });
        out
    }

    #[test]
    fn equal_name_and_case_give_equal_streams() {
        assert_eq!(draws("t", 4, 32), draws("t", 4, 32));
    }

    #[test]
    fn different_cases_and_names_diverge() {
        let t = draws("t", 8, 1);
        let mut distinct = t.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "cases of one test share a stream");
        assert_ne!(t, draws("u", 8, 1), "two tests share their streams");
    }

    #[test]
    fn the_body_runs_exactly_n_times() {
        assert_eq!(draws("t", 0, 1).len(), 0);
        assert_eq!(draws("t", 37, 1).len(), 37);
    }

    #[test]
    #[should_panic(
        expected = "a_failing_case_names_itself: case 5 of 8 failed (seed 0xdc6132decc3e9b26): boom"
    )]
    fn a_failing_case_names_test_case_and_seed() {
        let mut i = 0;
        cases("a_failing_case_names_itself", 8, |_| {
            assert!(i != 5, "boom");
            i += 1;
        });
    }
}
