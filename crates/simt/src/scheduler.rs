//! Warp scheduling over a per-warp ready word (Table I).
//!
//! Greedy-then-oldest (GTO) keeps issuing from the warp that issued most
//! recently (*greedy*); when that warp cannot issue, it falls back to the
//! *oldest* ready warp (lowest id, as warps are assigned in age order). GTO
//! preserves intra-warp locality and is GPGPU-Sim's default for the GTX 480
//! model. The core hands the scheduler a [`gmh_types::bits`] set of the
//! warps that could issue this cycle, so a pick is a few bit operations and
//! a core has at most [`bits::CAP`] warps.

use gmh_types::bits::{self, Bits};

/// Warp-scheduling policy.
///
/// GTO is the baseline (Table I); loose round-robin is provided for
/// ablation — the paper cites cache-conscious scheduling work
/// (Rogers et al.) motivated exactly by GTO-vs-LRR locality differences.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WarpSchedPolicy {
    /// Greedy-then-oldest (baseline).
    #[default]
    Gto,
    /// Loose round-robin: start from the warp after the last issuer.
    Lrr,
}

/// A policy-selectable warp scheduler over at most [`bits::CAP`] warps.
///
/// # Example
///
/// ```
/// use gmh_simt::scheduler::{WarpSchedPolicy, WarpScheduler};
///
/// let mut s = WarpScheduler::new(WarpSchedPolicy::Lrr, 4);
/// s.issued(1);
/// // Warps 0 and 3 are ready: round-robin resumes after warp 1.
/// assert_eq!(s.pick(0b1001), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct WarpScheduler {
    policy: WarpSchedPolicy,
    n_warps: usize,
    greedy: Option<usize>,
    rr: usize,
}

impl WarpScheduler {
    /// Creates a scheduler over `n_warps` warps.
    ///
    /// # Panics
    ///
    /// Panics if `n_warps` is zero or above [`bits::CAP`].
    pub fn new(policy: WarpSchedPolicy, n_warps: usize) -> Self {
        assert!(n_warps > 0, "need at least one warp");
        assert!(
            n_warps <= bits::CAP,
            "{n_warps} warps exceed the {}-bit ready word",
            bits::CAP
        );
        WarpScheduler {
            policy,
            n_warps,
            greedy: None,
            rr: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> WarpSchedPolicy {
        self.policy
    }

    /// The warp this cycle's priority order tries first: GTO's greedy warp
    /// (the oldest before any issue), LRR's round-robin position.
    #[inline]
    pub(crate) fn first(&self) -> usize {
        match self.policy {
            WarpSchedPolicy::Gto => self.greedy.unwrap_or(0),
            WarpSchedPolicy::Lrr => self.rr,
        }
    }

    /// The highest-priority warp among the set bits of `ready` (bit `w` is
    /// warp `w`): for GTO the greedy warp if ready, else the lowest set
    /// bit; for LRR the first set bit at or after the round-robin position,
    /// wrapping. `None` when `ready` is zero.
    #[inline]
    pub fn pick(&self, ready: Bits) -> Option<usize> {
        match self.policy {
            WarpSchedPolicy::Gto => match self.greedy {
                Some(g) if bits::contains(ready, g) => Some(g),
                _ => bits::first_from(ready, 0),
            },
            WarpSchedPolicy::Lrr => bits::first_from(ready, self.rr),
        }
    }

    /// Records that `warp` issued this cycle.
    pub fn issued(&mut self, warp: usize) {
        debug_assert!(warp < self.n_warps);
        self.greedy = Some(warp);
        self.rr = (warp + 1) % self.n_warps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::rng::cases;

    /// The policy's priority order written out warp by warp: the first
    /// ready warp in it is what `pick` must return.
    fn brute_force_pick(
        policy: WarpSchedPolicy,
        n: usize,
        last: Option<usize>,
        ready: u64,
    ) -> Option<usize> {
        let order: Vec<usize> = match (policy, last) {
            (WarpSchedPolicy::Gto, Some(g)) => std::iter::once(g)
                .chain((0..n).filter(|&w| w != g))
                .collect(),
            (WarpSchedPolicy::Gto, None) => (0..n).collect(),
            (WarpSchedPolicy::Lrr, last) => {
                let rr = last.map_or(0, |w| (w + 1) % n);
                (rr..n).chain(0..rr).collect()
            }
        };
        order.into_iter().find(|&w| bits::contains(ready, w))
    }

    fn check(policy: WarpSchedPolicy, n: usize, last: Option<usize>, ready: u64) {
        let mut s = WarpScheduler::new(policy, n);
        if let Some(w) = last {
            s.issued(w);
        }
        assert_eq!(
            s.pick(ready),
            brute_force_pick(policy, n, last, ready),
            "{policy:?}, {n} warps, last issuer {last:?}, ready {ready:#b}"
        );
    }

    #[test]
    fn pick_is_the_first_ready_warp_of_the_priority_order() {
        for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
            // Exhaustive: every ready set of 1-7 warps after every issuer.
            for n in 1..=7 {
                for last in std::iter::once(None).chain((0..n).map(Some)) {
                    for ready in 0..1u64 << n {
                        check(policy, n, last, ready);
                    }
                }
            }
        }
        cases(
            "pick_is_the_first_ready_warp_of_the_priority_order",
            256,
            |rng| {
                let n = if rng.chance(0.5) { 48 } else { 64 };
                let policy = [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr][rng.range(0..2usize)];
                let last = rng.chance(0.9).then(|| rng.range(0..n));
                let live = bits::below(n);
                // Sparse and dense words both occur.
                let ready = match rng.below(3) {
                    0 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                    1 => rng.next_u64(),
                    _ => 1 << rng.range(0..n),
                } & live;
                check(policy, n, last, ready);
            },
        );
    }

    #[test]
    fn policies_differ_after_issue() {
        let mut gto = WarpScheduler::new(WarpSchedPolicy::Gto, 3);
        let mut lrr = WarpScheduler::new(WarpSchedPolicy::Lrr, 3);
        gto.issued(1);
        lrr.issued(1);
        assert_eq!(gto.pick(0b111), Some(1), "GTO stays greedy on warp 1");
        assert_eq!(lrr.pick(0b111), Some(2), "LRR moves on to warp 2");
        assert_eq!(gto.pick(0b101), Some(0), "then the oldest");
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_panics() {
        let _ = WarpScheduler::new(WarpSchedPolicy::Gto, 0);
    }

    #[test]
    #[should_panic(expected = "65 warps exceed")]
    fn more_warps_than_the_word_panics() {
        let _ = WarpScheduler::new(WarpSchedPolicy::Gto, 65);
    }
}
