//! Per-bank row-buffer state machine.

use crate::timing::DramTiming;
use gmh_types::Cycle;

/// State of one DRAM bank: the open row (if any) and the earliest cycles at
/// which each command class may next be issued to it.
#[derive(Clone, Debug, Default)]
pub struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle an ACT may issue (after tRP from PRE, tRC from the
    /// previous ACT).
    act_ready: Cycle,
    /// Earliest cycle a CAS may issue (after tRCD from ACT).
    cas_ready: Cycle,
    /// Earliest cycle a PRE may issue (after tRAS from ACT, tWR after the
    /// last write data beat).
    pre_ready: Cycle,
    /// Cycle of the last ACT (for tRC).
    last_act: Cycle,
}

impl BankState {
    /// The currently open row, if the bank is active.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether an ACT for `row` may issue at `now` (bank must be idle).
    pub fn can_activate(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.act_ready
    }

    /// Whether a CAS to the open row may issue at `now` (row match is the
    /// caller's responsibility).
    pub fn can_cas(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.cas_ready
    }

    /// Whether a PRE may issue at `now`.
    pub fn can_precharge(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.pre_ready
    }

    /// Earliest cycle an ACT may issue once the bank is closed.
    pub fn act_ready_at(&self) -> Cycle {
        self.act_ready
    }

    /// Earliest cycle a CAS to the open row may issue.
    pub fn cas_ready_at(&self) -> Cycle {
        self.cas_ready
    }

    /// Earliest cycle a PRE of the open row may issue.
    pub fn pre_ready_at(&self) -> Cycle {
        self.pre_ready
    }

    /// Issues an ACT for `row` at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank cannot accept an ACT.
    pub fn activate(&mut self, row: u64, now: Cycle, t: &DramTiming) {
        debug_assert!(self.can_activate(now));
        self.open_row = Some(row);
        self.last_act = now;
        self.cas_ready = now + t.rcd;
        self.pre_ready = now + t.ras;
        // The next ACT on this bank is bounded by tRC regardless of when the
        // precharge happens.
        self.act_ready = now + t.rc;
    }

    /// Issues a CAS at `now`. For writes, extends the precharge constraint
    /// by tWR past the final data beat at `data_end`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank cannot accept a CAS.
    pub fn cas(&mut self, now: Cycle, is_write: bool, data_end: Cycle, t: &DramTiming) {
        debug_assert!(self.can_cas(now));
        if is_write {
            self.pre_ready = self.pre_ready.max(data_end + t.wr);
        } else {
            // Reads must finish their burst before the row closes.
            self.pre_ready = self.pre_ready.max(data_end);
        }
    }

    /// Issues a PRE at `now`, closing the row.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank cannot accept a PRE.
    pub fn precharge(&mut self, now: Cycle, t: &DramTiming) {
        debug_assert!(self.can_precharge(now));
        self.open_row = None;
        self.act_ready = self.act_ready.max(now + t.rp);
    }

    /// Applies the channel-level tRRD constraint (ACT-to-ACT across banks):
    /// delays this bank's next ACT to at least `earliest`.
    pub fn delay_activate_until(&mut self, earliest: Cycle) {
        self.act_ready = self.act_ready.max(earliest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: DramTiming = DramTiming::gtx480();

    #[test]
    fn fresh_bank_activates_immediately() {
        let b = BankState::default();
        assert!(b.can_activate(0));
        assert!(!b.can_cas(0));
        assert!(!b.can_precharge(0));
    }

    #[test]
    fn rcd_gates_cas() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        assert_eq!(b.open_row(), Some(5));
        assert!(!b.can_cas(T.rcd - 1));
        assert!(b.can_cas(T.rcd));
    }

    #[test]
    fn ras_gates_precharge() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        assert!(!b.can_precharge(T.ras - 1));
        assert!(b.can_precharge(T.ras));
    }

    #[test]
    fn rp_gates_reactivation() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        b.precharge(T.ras, &T);
        assert_eq!(b.open_row(), None);
        assert!(!b.can_activate(T.ras + T.rp - 1));
        assert!(b.can_activate(T.ras + T.rp));
    }

    #[test]
    fn rc_gates_back_to_back_activates() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        // Precharge as early as possible (tRAS), then tRP elapses at 40 =
        // tRC; both constraints coincide for GTX 480 values.
        b.precharge(T.ras, &T);
        assert!(!b.can_activate(T.rc - 1));
        assert!(b.can_activate(T.rc));
    }

    #[test]
    fn write_recovery_extends_precharge() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        let cas_at = T.rcd;
        let data_end = cas_at + T.wl + 4;
        b.cas(cas_at, true, data_end, &T);
        assert!(!b.can_precharge(data_end + T.wr - 1));
        assert!(b.can_precharge(data_end + T.wr));
    }

    #[test]
    fn read_burst_extends_precharge_to_data_end() {
        let mut b = BankState::default();
        b.activate(5, 0, &T);
        let data_end = T.rcd + T.cl + 4; // 28 == tRAS for these params
        b.cas(T.rcd, false, data_end + 10, &T);
        assert!(!b.can_precharge(data_end + 9));
        assert!(b.can_precharge(data_end + 10));
    }

    #[test]
    fn rrd_delay_applies() {
        let mut b = BankState::default();
        b.delay_activate_until(6);
        assert!(!b.can_activate(5));
        assert!(b.can_activate(6));
    }
}
