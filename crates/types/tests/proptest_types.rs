//! Property-based tests of the foundation types.

use gmh_types::{Address, BoundedQueue, ClockDomains, LineAddr, OccupancyHistogram, Xoshiro256};
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    /// Address → line → base round trip never gains or loses bytes.
    #[test]
    fn address_line_round_trip(raw in any::<u64>()) {
        let a = Address::new(raw);
        let line = a.line();
        prop_assert!(line.base().raw() <= raw);
        prop_assert!(raw - line.base().raw() < 128);
        prop_assert_eq!(line.base().line(), line);
        prop_assert_eq!(a.line_offset() as u64, raw - line.base().raw());
    }

    /// Interleaving always lands in range and is stable.
    #[test]
    fn interleave_in_range(idx in any::<u64>(), n in 1usize..64) {
        let t = LineAddr::new(idx).interleave(n);
        prop_assert!(t < n);
        prop_assert_eq!(t, LineAddr::new(idx).interleave(n));
    }

    /// BoundedQueue behaves exactly like a capacity-checked VecDeque.
    #[test]
    fn queue_matches_model(cap in 1usize..16, ops in prop::collection::vec(0u8..4, 0..200)) {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                0 | 1 => {
                    let r = q.push(next);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(next);
                    } else {
                        prop_assert_eq!(r, Err(next));
                    }
                    next += 1;
                }
                _ => {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.front(), model.front());
            prop_assert_eq!(q.is_full(), model.len() == cap);
        }
    }

    /// The occupancy histogram's lifetime equals the number of non-empty
    /// samples, and bucket totals never exceed it.
    #[test]
    fn occupancy_lifetime_counts_nonempty(samples in prop::collection::vec(0usize..10, 0..100)) {
        let cap = 8;
        let mut h = OccupancyHistogram::default();
        let mut expected = 0;
        for s in &samples {
            h.record(*s, cap);
            if *s > 0 {
                expected += 1;
            }
        }
        prop_assert_eq!(h.lifetime(), expected);
        let fr: f64 = h.fractions().iter().sum();
        if expected > 0 {
            prop_assert!((fr - 1.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(fr, 0.0);
        }
    }

    /// The RNG's bounded draw is always below its bound, for any seed.
    #[test]
    fn rng_below_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Clock domains: cycle counts stay within one tick of the exact
    /// frequency ratio, for arbitrary frequency pairs.
    #[test]
    fn clock_ratio_tracks_frequencies(f1 in 100u32..4000, f2 in 100u32..4000) {
        let mut c = ClockDomains::new(f1, f2, f2);
        for _ in 0..10_000 {
            c.advance();
        }
        let n1 = c.domain(gmh_types::DomainId::Core).cycles() as f64;
        let n2 = c.domain(gmh_types::DomainId::Icnt).cycles() as f64;
        let expect = f1 as f64 / f2 as f64;
        // Integer-picosecond rounding bounds the drift.
        prop_assert!((n1 / n2 - expect).abs() / expect < 0.02,
            "ratio {} vs expected {}", n1 / n2, expect);
    }
}
