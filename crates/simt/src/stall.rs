//! Issue-stall classification (Figs. 1 and 7 of the paper).

use gmh_types::tally::{Kind, Tally};
use gmh_types::Counter;

/// The cause a core could not issue any instruction in a cycle, following
/// the precedence rules of §IV-A.5. Declared in Fig. 7's bar order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IssueStallKind {
    /// Every otherwise-issuable warp waits on a pending load.
    DataMem,
    /// Every otherwise-issuable warp waits on a pending ALU result.
    DataAlu,
    /// A dependence-free memory instruction was blocked by memory-unit
    /// resource contention (LSU full / L1 blocked).
    StrMem,
    /// A dependence-free ALU instruction was blocked by busy ALUs.
    ///
    /// Never charged: no ALU structural hazard is modeled (ALU issue
    /// bandwidth is infinite, `InstKind::Alu` always issues). The variant
    /// is kept for Fig. 7 report parity with the paper's category set.
    StrAlu,
    /// Warps starve on empty instruction buffers (I-cache misses).
    Fetch,
}

impl Kind<5> for IssueStallKind {
    const ALL: [IssueStallKind; 5] = [
        IssueStallKind::DataMem,
        IssueStallKind::DataAlu,
        IssueStallKind::StrMem,
        IssueStallKind::StrAlu,
        IssueStallKind::Fetch,
    ];
    fn index(self) -> usize {
        self as usize
    }
}

/// Stall-cycle counts by kind, plus issued/total cycle accounting. The
/// cause tally is private: a cycle is charged only through
/// [`IssueStallCounters::record`] or [`IssueStallCounters::record_n`], one
/// cause per cycle.
#[derive(Clone, Debug, Default)]
pub struct IssueStallCounters {
    /// Stalled cycles by cause.
    stalls: Tally<IssueStallKind, 5>,
    /// Cycles in which an instruction issued.
    pub issued_cycles: Counter,
    /// Cycles with live (unfinished) warps but no classified stall and no
    /// issue — e.g. the tail drain while stores retire.
    pub idle: Counter,
}

impl IssueStallCounters {
    /// Records one stalled cycle.
    pub fn record(&mut self, kind: IssueStallKind) {
        self.stalls.record(kind);
    }

    /// Records `n` identical cycles: `Some(kind)` stalled cycles or `None`
    /// idle ones. The issue stage charges its verdict with `n = 1`; the
    /// fast-forward scheduler replays a quiescent window, whose
    /// classification is constant by construction, in one call.
    pub fn record_n(&mut self, kind: Option<IssueStallKind>, n: u64) {
        match kind {
            Some(kind) => self.stalls.add(kind, n),
            None => self.idle.add(n),
        }
    }

    /// Stalled cycles charged to `kind`.
    pub fn get(&self, kind: IssueStallKind) -> u64 {
        self.stalls.get(kind)
    }

    /// Total classified stall cycles.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.total()
    }

    /// Fraction of runtime spent stalled (the paper's Fig. 1 "Stall"):
    /// stalls / (stalls + issued + idle).
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_stalls() + self.issued_cycles.get() + self.idle.get();
        if total == 0 {
            0.0
        } else {
            self.total_stalls() as f64 / total as f64
        }
    }

    /// `[data_mem, data_alu, str_mem, str_alu, fetch]` fractions of total
    /// stalls (Fig. 7's bars, [`Kind::ALL`] order); zeros when no stalls
    /// occurred.
    pub fn distribution(&self) -> [f64; 5] {
        self.stalls.fractions()
    }

    /// Merges another counter set (aggregation across cores).
    pub fn merge(&mut self, other: &IssueStallCounters) {
        self.stalls.merge(&other.stalls);
        self.issued_cycles.add(other.issued_cycles.get());
        self.idle.add(other.idle.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        let mut c = IssueStallCounters::default();
        for k in [
            IssueStallKind::StrMem,
            IssueStallKind::StrAlu,
            IssueStallKind::DataMem,
            IssueStallKind::DataAlu,
            IssueStallKind::Fetch,
        ] {
            c.record(k);
        }
        let s: f64 = c.distribution().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(c.total_stalls(), 5);
    }

    #[test]
    fn kinds_list_fig7_bars_in_order() {
        use IssueStallKind::{DataAlu, DataMem, Fetch, StrAlu, StrMem};
        let bars = [DataMem, DataAlu, StrMem, StrAlu, Fetch];
        assert_eq!(IssueStallKind::ALL, bars);
        for (i, k) in bars.into_iter().enumerate() {
            let mut c = IssueStallCounters::default();
            c.record(k);
            assert_eq!(c.distribution()[i], 1.0, "{k:?} is bar {i}");
        }
    }

    #[test]
    fn stall_fraction_accounts_issued_and_idle() {
        let mut c = IssueStallCounters::default();
        c.record(IssueStallKind::DataMem);
        c.issued_cycles.add(2);
        c.idle.inc();
        assert!((c.stall_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_are_zero() {
        let c = IssueStallCounters::default();
        assert_eq!(c.stall_fraction(), 0.0);
        assert_eq!(c.distribution(), [0.0; 5]);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = IssueStallCounters::default();
        let mut b = IssueStallCounters::default();
        a.record(IssueStallKind::StrMem);
        b.record(IssueStallKind::StrMem);
        b.issued_cycles.inc();
        a.merge(&b);
        assert_eq!(a.get(IssueStallKind::StrMem), 2);
        assert_eq!(a.issued_cycles.get(), 1);
    }
}
