//! Stall taxonomies for L1 and L2 caches (the paper's Figs. 8 and 9).
//!
//! A cache pipeline "stalls" in a cycle when it has work pending but cannot
//! make progress. Each stalled cycle is attributed to exactly one cause,
//! following §IV-B of the paper.

use gmh_types::trace::StallCause;
use gmh_types::Counter;

/// Why an L1 cache pipeline stalled in a cycle (Fig. 9).
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

/// Per-kind stall cycle counters for an L1 cache. The counters are private:
/// a cycle is charged only through [`L1StallCounters::record`], one cause
/// per call.
#[derive(Clone, Debug, Default)]
pub struct L1StallCounters {
    /// Stalls due to line contention.
    cache: Counter,
    /// Stalls due to MSHR contention.
    mshr: Counter,
    /// Stalls due to back-pressure from L2.
    bp_l2: Counter,
}

impl L1StallCounters {
    /// Records one stalled cycle of the given kind.
    pub fn record(&mut self, kind: L1StallKind) {
        match kind {
            L1StallKind::Cache => self.cache.inc(),
            L1StallKind::Mshr => self.mshr.inc(),
            L1StallKind::BpL2 => self.bp_l2.inc(),
        }
    }

    /// Stalled cycles charged to `kind`.
    pub fn get(&self, kind: L1StallKind) -> u64 {
        match kind {
            L1StallKind::Cache => self.cache.get(),
            L1StallKind::Mshr => self.mshr.get(),
            L1StallKind::BpL2 => self.bp_l2.get(),
        }
    }

    /// Total stalled cycles.
    pub fn total(&self) -> u64 {
        self.cache.get() + self.mshr.get() + self.bp_l2.get()
    }

    /// `(cache, mshr, bp_l2)` fractions of total stalls; zeros if no stalls.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.cache.get() as f64 / t,
            self.mshr.get() as f64 / t,
            self.bp_l2.get() as f64 / t,
        )
    }

    /// Adds another counter set into this one (aggregation across cores).
    pub fn merge(&mut self, other: &L1StallCounters) {
        self.cache.add(other.cache.get());
        self.mshr.add(other.mshr.get());
        self.bp_l2.add(other.bp_l2.get());
    }
}

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

/// Why an L2 bank pipeline stalled in a cycle (Fig. 8).
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

/// Per-kind stall cycle counters for an L2 bank. The counters are private:
/// a cycle is charged only through [`L2StallCounters::record`], one cause
/// per call.
#[derive(Clone, Debug, Default)]
pub struct L2StallCounters {
    /// Stalls due to interconnect back-pressure.
    bp_icnt: Counter,
    /// Stalls due to data-port contention.
    port: Counter,
    /// Stalls due to line contention.
    cache: Counter,
    /// Stalls due to MSHR contention.
    mshr: Counter,
    /// Stalls due to DRAM back-pressure.
    bp_dram: Counter,
}

impl L2StallCounters {
    /// Records one stalled cycle of the given kind.
    pub fn record(&mut self, kind: L2StallKind) {
        match kind {
            L2StallKind::BpIcnt => self.bp_icnt.inc(),
            L2StallKind::Port => self.port.inc(),
            L2StallKind::Cache => self.cache.inc(),
            L2StallKind::Mshr => self.mshr.inc(),
            L2StallKind::BpDram => self.bp_dram.inc(),
        }
    }

    /// Stalled cycles charged to `kind`.
    pub fn get(&self, kind: L2StallKind) -> u64 {
        match kind {
            L2StallKind::BpIcnt => self.bp_icnt.get(),
            L2StallKind::Port => self.port.get(),
            L2StallKind::Cache => self.cache.get(),
            L2StallKind::Mshr => self.mshr.get(),
            L2StallKind::BpDram => self.bp_dram.get(),
        }
    }

    /// Total stalled cycles.
    pub fn total(&self) -> u64 {
        self.bp_icnt.get()
            + self.port.get()
            + self.cache.get()
            + self.mshr.get()
            + self.bp_dram.get()
    }

    /// `[bp_icnt, port, cache, mshr, bp_dram]` fractions of total stalls.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total();
        if t == 0 {
            return [0.0; 5];
        }
        let t = t as f64;
        [
            self.bp_icnt.get() as f64 / t,
            self.port.get() as f64 / t,
            self.cache.get() as f64 / t,
            self.mshr.get() as f64 / t,
            self.bp_dram.get() as f64 / t,
        ]
    }

    /// Adds another counter set into this one (aggregation across banks).
    pub fn merge(&mut self, other: &L2StallCounters) {
        self.bp_icnt.add(other.bp_icnt.get());
        self.port.add(other.port.get());
        self.cache.add(other.cache.get());
        self.mshr.add(other.mshr.get());
        self.bp_dram.add(other.bp_dram.get());
    }
}

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
        let (a, b, d) = c.fractions();
        assert!((a + b + d - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 4);
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l1_empty_fractions_zero() {
        assert_eq!(L1StallCounters::default().fractions(), (0.0, 0.0, 0.0));
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
