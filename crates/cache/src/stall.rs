//! Stall taxonomies for L1 and L2 caches (the paper's Figs. 8 and 9).
//!
//! A cache pipeline "stalls" in a cycle when it has work pending but cannot
//! make progress. Each stalled cycle is attributed to exactly one cause,
//! following §IV-B of the paper, and counted in a [`Tally`] whose
//! `fractions()` list the figure's bars.

use gmh_types::tally::{Kind, Tally};
use gmh_types::trace::StallCause;

/// Why an L1 cache pipeline stalled in a cycle, in Fig. 9's bar order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum L1StallKind {
    /// No replaceable cache line in the target set (all ways reserved).
    Cache,
    /// No free MSHR entry / merge slot.
    Mshr,
    /// Back-pressure from L2: the L1 miss queue cannot drain into the
    /// interconnect, so it is full and cannot accept a new miss.
    BpL2,
}

impl Kind<3> for L1StallKind {
    const ALL: [L1StallKind; 3] = [L1StallKind::Cache, L1StallKind::Mshr, L1StallKind::BpL2];
    fn index(self) -> usize {
        self as usize
    }
}

/// Stalled cycles of an L1 cache (or, merged, of all of them) by cause.
pub type L1StallCounters = Tally<L1StallKind, 3>;

/// The trace-event cause for an L1 stall (same taxonomy, unified across
/// levels for `gmh_types::trace`). Lives here, next to the enum it maps,
/// so stall attribution stays single-sited.
impl From<L1StallKind> for StallCause {
    fn from(kind: L1StallKind) -> StallCause {
        match kind {
            L1StallKind::Cache => StallCause::Cache,
            L1StallKind::Mshr => StallCause::Mshr,
            L1StallKind::BpL2 => StallCause::BpL2,
        }
    }
}

/// Why an L2 bank pipeline stalled in a cycle, in Fig. 8's bar order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum L2StallKind {
    /// Back-pressure from the interconnect: the L2 response queue is full
    /// because replies inject into the crossbar too slowly.
    BpIcnt,
    /// The L2 data port is busy with an ongoing line read or fill.
    Port,
    /// No replaceable cache line in the target set.
    Cache,
    /// No free MSHR entry / merge slot.
    Mshr,
    /// Back-pressure from DRAM: the L2 miss queue cannot drain into the
    /// DRAM scheduler queue, so it is full.
    BpDram,
}

impl Kind<5> for L2StallKind {
    const ALL: [L2StallKind; 5] = [
        L2StallKind::BpIcnt,
        L2StallKind::Port,
        L2StallKind::Cache,
        L2StallKind::Mshr,
        L2StallKind::BpDram,
    ];
    fn index(self) -> usize {
        self as usize
    }
}

/// Stalled cycles of an L2 bank (or, merged, of all of them) by cause.
pub type L2StallCounters = Tally<L2StallKind, 5>;

/// The trace-event cause for an L2 stall (see the L1 conversion above).
impl From<L2StallKind> for StallCause {
    fn from(kind: L2StallKind) -> StallCause {
        match kind {
            L2StallKind::BpIcnt => StallCause::BpIcnt,
            L2StallKind::Port => StallCause::Port,
            L2StallKind::Cache => StallCause::Cache,
            L2StallKind::Mshr => StallCause::Mshr,
            L2StallKind::BpDram => StallCause::BpDram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_fractions_sum_to_one() {
        let mut c = L1StallCounters::default();
        c.record(L1StallKind::Cache);
        c.record(L1StallKind::Mshr);
        c.record(L1StallKind::Mshr);
        c.record(L1StallKind::BpL2);
        let [a, b, d] = c.fractions();
        assert!((a + b + d - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 4);
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l1_empty_fractions_zero() {
        assert_eq!(L1StallCounters::default().fractions(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn l2_fractions_sum_to_one() {
        let mut c = L2StallCounters::default();
        for k in [
            L2StallKind::BpIcnt,
            L2StallKind::Port,
            L2StallKind::Cache,
            L2StallKind::Mshr,
            L2StallKind::BpDram,
        ] {
            c.record(k);
        }
        let sum: f64 = c.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = L1StallCounters::default();
        let mut b = L1StallCounters::default();
        a.record(L1StallKind::Mshr);
        b.record(L1StallKind::Mshr);
        b.record(L1StallKind::Cache);
        a.merge(&b);
        assert_eq!(a.get(L1StallKind::Mshr), 2);
        assert_eq!(a.get(L1StallKind::Cache), 1);
    }

    #[test]
    fn kinds_list_their_figure_bars_in_order() {
        use L2StallKind::{BpDram, BpIcnt, Port};
        // Fig. 9's bars.
        let l1 = [L1StallKind::Cache, L1StallKind::Mshr, L1StallKind::BpL2];
        assert_eq!(L1StallKind::ALL, l1);
        // Fig. 8's bars. Outside readers index `fractions()`: `[0]` is
        // bp-ICNT and `[4]` is bp-DRAM.
        let l2 = [BpIcnt, Port, L2StallKind::Cache, L2StallKind::Mshr, BpDram];
        assert_eq!(L2StallKind::ALL, l2);
        for (i, k) in l1.into_iter().enumerate() {
            let mut c = L1StallCounters::default();
            c.record(k);
            assert_eq!(c.fractions()[i], 1.0, "{k:?} is bar {i}");
        }
        for (i, k) in l2.into_iter().enumerate() {
            let mut c = L2StallCounters::default();
            c.record(k);
            assert_eq!(c.fractions()[i], 1.0, "{k:?} is bar {i}");
        }
    }

    #[test]
    fn stall_causes_map_onto_the_unified_taxonomy() {
        assert_eq!(StallCause::from(L1StallKind::Cache), StallCause::Cache);
        assert_eq!(StallCause::from(L1StallKind::Mshr), StallCause::Mshr);
        assert_eq!(StallCause::from(L1StallKind::BpL2), StallCause::BpL2);
        assert_eq!(StallCause::from(L2StallKind::BpIcnt), StallCause::BpIcnt);
        assert_eq!(StallCause::from(L2StallKind::Port), StallCause::Port);
        assert_eq!(StallCause::from(L2StallKind::BpDram), StallCause::BpDram);
    }

    #[test]
    fn l2_merge_accumulates() {
        let mut a = L2StallCounters::default();
        let mut b = L2StallCounters::default();
        b.record(L2StallKind::BpDram);
        b.record(L2StallKind::BpIcnt);
        a.merge(&b);
        assert_eq!(a.get(L2StallKind::BpDram), 1);
        assert_eq!(a.get(L2StallKind::BpIcnt), 1);
    }
}
