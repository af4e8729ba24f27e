//! Bit sets over at most [`CAP`] indices — the warps of a core, the ports
//! of a crossbar side, the components of a scheduler class — one word each,
//! bit `i` for index `i`. [`CAP`] is the one width all of them share.
//!
//! ```
//! use gmh_types::bits;
//!
//! let mut set = bits::below(3);
//! bits::put(&mut set, 1, false);
//! bits::put(&mut set, 7, true);
//! assert_eq!(bits::iter(set).collect::<Vec<_>>(), [0, 2, 7]);
//! assert_eq!(bits::first_from(set, 8), Some(0), "wraps to the lowest");
//! ```

/// A set of indices below [`CAP`], bit `i` for index `i`.
pub type Bits = u64;

/// Most indices a [`Bits`] holds.
pub const CAP: usize = 64;

/// The set `0..n` (every index for `n >= CAP`).
#[inline]
pub fn below(n: usize) -> Bits {
    if n >= CAP {
        Bits::MAX
    } else {
        (1 << n) - 1
    }
}

/// Whether `i` (below [`CAP`]) is in `set`.
#[inline]
pub fn contains(set: Bits, i: usize) -> bool {
    set >> i & 1 != 0
}

/// Adds `i` (below [`CAP`]) to `set` when `on`, removes it otherwise.
#[inline]
pub fn put(set: &mut Bits, i: usize, on: bool) {
    *set = *set & !(1 << i) | Bits::from(on) << i;
}

/// The lowest member at or after `r`, wrapping to the lowest member when
/// none is (any `r >= CAP` wraps): the pick of a round-robin pointer at
/// `r`. `None` when `set` is empty.
#[inline]
pub fn first_from(set: Bits, r: usize) -> Option<usize> {
    let ahead = if r < CAP { set & Bits::MAX << r } else { 0 };
    let from = if ahead != 0 { ahead } else { set };
    (from != 0).then(|| from.trailing_zeros() as usize)
}

/// The members of `set`, lowest first.
#[inline]
pub fn iter(mut set: Bits) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::cases;
    use std::collections::BTreeSet;

    /// `set` as the model holds it.
    fn members(set: Bits) -> BTreeSet<usize> {
        (0..CAP).filter(|&i| set >> i & 1 != 0).collect()
    }

    /// Every read of `set` against the model's answer.
    fn check_reads(set: Bits, model: &BTreeSet<usize>) {
        for i in 0..CAP {
            assert_eq!(
                contains(set, i),
                model.contains(&i),
                "contains({set:#x}, {i})"
            );
        }
        for r in 0..=CAP + 6 {
            let want = model.range(r..).next().or(model.first()).copied();
            assert_eq!(first_from(set, r), want, "first_from({set:#x}, {r})");
        }
        assert!(iter(set).eq(model.iter().copied()), "iter({set:#x})");
    }

    #[test]
    fn every_operation_agrees_with_a_btreeset() {
        for n in 0..=CAP {
            assert_eq!(members(below(n)), (0..n).collect(), "below({n})");
        }
        assert_eq!(below(CAP + 1), Bits::MAX);
        cases("every_operation_agrees_with_a_btreeset", 512, |rng| {
            // Empty, full, sparse and dense sets.
            let mut set = match rng.below(4) {
                0 => 0,
                1 => Bits::MAX,
                2 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                _ => rng.next_u64(),
            };
            let mut model = members(set);
            check_reads(set, &model);
            for _ in 0..8 {
                let (i, on) = (rng.range(0..CAP), rng.chance(0.5));
                put(&mut set, i, on);
                if on {
                    model.insert(i);
                } else {
                    model.remove(&i);
                }
                assert_eq!(members(set), model, "put({i}, {on})");
            }
            check_reads(set, &model);
        });
    }
}
