//! One count per cause of a fixed taxonomy — the stall causes behind the
//! paper's Figs. 7, 8 and 9, where every stalled cycle of a level is
//! charged to exactly one cause. A [`Kind`] lists its `N` causes in report
//! order; a [`Tally`] keeps their counts private and writes them only
//! through [`Tally::record`], [`Tally::add`] and [`Tally::merge`].
//!
//! ```
//! use gmh_types::tally::{Kind, Tally};
//!
//! #[derive(Clone, Copy)]
//! enum Hazard { Data, Structural }
//!
//! impl Kind<2> for Hazard {
//!     const ALL: [Hazard; 2] = [Hazard::Data, Hazard::Structural];
//!     fn index(self) -> usize { self as usize }
//! }
//!
//! let mut t = Tally::<Hazard, 2>::default();
//! t.record(Hazard::Data);
//! t.add(Hazard::Structural, 3);
//! assert_eq!((t.get(Hazard::Data), t.total()), (1, 4));
//! assert_eq!(t.fractions(), [0.25, 0.75]);
//! ```

use std::marker::PhantomData;

/// A taxonomy of `N` causes with dense indices `0..N`.
pub trait Kind<const N: usize>: Copy {
    /// Every cause, in index (and report) order: `ALL[k.index()]` is `k`.
    const ALL: [Self; N];

    /// Position in [`Kind::ALL`]: `self as usize` for a field-less enum
    /// declared in that order.
    fn index(self) -> usize;
}

/// One count per cause of `K`.
#[derive(Clone, Debug)]
pub struct Tally<K, const N: usize> {
    counts: [u64; N],
    kind: PhantomData<K>,
}

impl<K, const N: usize> Default for Tally<K, N> {
    fn default() -> Self {
        Tally {
            counts: [0; N],
            kind: PhantomData,
        }
    }
}

impl<K: Kind<N>, const N: usize> Tally<K, N> {
    /// Charges one cycle to `kind`.
    pub fn record(&mut self, kind: K) {
        self.add(kind, 1);
    }

    /// Charges `n` cycles to `kind`.
    pub fn add(&mut self, kind: K, n: u64) {
        self.counts[kind.index()] += n;
    }

    /// Cycles charged to `kind`.
    pub fn get(&self, kind: K) -> u64 {
        self.counts[kind.index()]
    }

    /// Every cause's count, in [`Kind::ALL`] order.
    pub fn counts(&self) -> [u64; N] {
        self.counts
    }

    /// Cycles charged to any cause.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Every cause's share of [`Tally::total`], in [`Kind::ALL`] order;
    /// zeros when nothing was charged.
    pub fn fractions(&self) -> [f64; N] {
        let t = self.total();
        if t == 0 {
            return [0.0; N];
        }
        let t = t as f64;
        self.counts.map(|c| c as f64 / t)
    }

    /// Adds `other`'s counts into this one (aggregation across cores or
    /// banks).
    pub fn merge(&mut self, other: &Self) {
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::cases;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Four {
        A,
        B,
        C,
        D,
    }

    impl Kind<4> for Four {
        const ALL: [Four; 4] = [Four::A, Four::B, Four::C, Four::D];
        fn index(self) -> usize {
            self as usize
        }
    }

    /// Shares as the model computes them: each count over the sum, zeros
    /// when the sum is zero.
    fn model_shares(counts: [u64; 4]) -> [f64; 4] {
        let t: u64 = counts.iter().sum();
        counts.map(|c| if t == 0 { 0.0 } else { c as f64 / t as f64 })
    }

    /// `tally` against the plain array `model`: every read, with shares
    /// compared bit for bit.
    fn check(tally: &Tally<Four, 4>, model: [u64; 4]) {
        assert_eq!(tally.counts(), model);
        assert_eq!(tally.total(), model.iter().sum::<u64>());
        for k in Four::ALL {
            assert_eq!(tally.get(k), model[k.index()], "{k:?}");
        }
        let (got, want) = (tally.fractions(), model_shares(model));
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{got:?}");
    }

    #[test]
    fn every_operation_agrees_with_a_plain_array() {
        for (i, k) in Four::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(Tally::<Four, 4>::default().fractions(), [0.0; 4]);
        cases("every_operation_agrees_with_a_plain_array", 512, |rng| {
            let (mut a, mut b) = (Tally::<Four, 4>::default(), Tally::default());
            let (mut ma, mut mb) = ([0u64; 4], [0u64; 4]);
            check(&a, ma);
            for _ in 0..rng.range(0..24u32) {
                let k = Four::ALL[rng.range(0..4)];
                let (t, m) = if rng.chance(0.5) {
                    (&mut a, &mut ma)
                } else {
                    (&mut b, &mut mb)
                };
                if rng.chance(0.5) {
                    t.record(k);
                    m[k.index()] += 1;
                } else {
                    let n = rng.below(1 << 40);
                    t.add(k, n);
                    m[k.index()] += n;
                }
                check(t, *m);
            }
            a.merge(&b);
            for (m, o) in ma.iter_mut().zip(mb) {
                *m += o;
            }
            check(&a, ma);
            check(&b, mb);
        });
    }
}
