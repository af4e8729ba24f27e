//! Event-scheduler state for the event-driven run loop.
//!
//! The [`crate::machine::Machine`] carries one [`Sched`]: awake flags, a
//! [`TimeQ`] of scheduled wakes, and the lazy own-domain cycle ledger
//! (`done`) that lets a sleeping component absorb its skipped ticks in one
//! bulk `skip_cycles`/`skip_idle` call at wake time.
//!
//! ## Awake-flag lifecycle
//!
//! Components are born awake (for the classes the memory model exercises)
//! and stay awake while their probe answers `Busy` — a busy component
//! never touches the queue, so the saturated path pays no heap traffic.
//! A quiet probe parks the component: flag down, and a bounded wake
//! scheduled at `(bound - 1) * period` (the wall-clock instant its own
//! domain fires tick `bound`), or no entry at all when the component can
//! only be woken by external input. Wakes are consumed either by the
//! run loop's per-instant `pop_ready` drain or by a cross-component
//! activation, and both flush the owed quiet cycles *before* the first
//! mutation so every component skip hook observes the frozen quiet state
//! its own `debug_assert` demands.

use gmh_simt::IssueStallKind;
use gmh_types::{Picos, TimeQ};

/// Component classes the scheduler tracks, in probe order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// SIMT cores (core clock domain).
    Core,
    /// L2 banks (interconnect clock domain).
    Bank,
    /// DRAM channels (DRAM command-clock domain).
    Chan,
    /// Crossbar networks (interconnect clock domain).
    Net,
}

/// Event-scheduler state for the machine's components.
///
/// Component ids are laid out `[cores | banks | channels | nets]`,
/// each class contiguous in ascending global component order.
pub(crate) struct Sched {
    /// `false` pins the naive oracle: every component stays awake, no
    /// probe runs, no wake is ever scheduled.
    pub enabled: bool,
    /// Wake queue keyed by `(wake_ps, component id)`.
    pub q: TimeQ,
    /// Awake flag per component id.
    pub awake: Vec<bool>,
    /// Own-domain ticks this component has actually absorbed (cycled or
    /// skip-replayed). `cycles() - done` is the flush debt at wake time.
    pub done: Vec<u64>,
    /// Issue-stall class captured when each core went quiet; replayed by
    /// `skip_idle` for every flushed cycle of the window.
    pub core_stall: Vec<Option<IssueStallKind>>,
    n_cores: usize,
    n_banks: usize,
    n_chans: usize,
    /// Awake components per class, kept in lock-step with `awake` so the
    /// all-asleep check is O(1), not O(components).
    pub awake_cores: usize,
    pub awake_banks: usize,
    pub awake_chans: usize,
    pub awake_nets: usize,
    core_ps: Picos,
    icnt_ps: Picos,
    dram_ps: Picos,
}

impl Sched {
    /// Builds the scheduler for a machine with the given component counts.
    /// `cores_on`/`banks_on`/`chans_on`/`nets_on` say which classes the
    /// memory model actually ticks — classes it never ticks are born
    /// parked and are never woken or flushed, exactly like the naive loop
    /// never touching them.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        enabled: bool,
        counts: [usize; 4],
        participates: [bool; 4],
        periods: [Picos; 3],
    ) -> Self {
        let [n_cores, n_banks, n_chans, n_nets] = counts;
        let total = n_cores + n_banks + n_chans + n_nets;
        let mut awake = vec![false; total];
        let mut live = [0usize; 4];
        for (class, (&n, &on)) in counts.iter().zip(participates.iter()).enumerate() {
            if on {
                live[class] = n;
            }
        }
        let offsets = [0, n_cores, n_cores + n_banks, n_cores + n_banks + n_chans];
        for (class, &n) in live.iter().enumerate() {
            for slot in 0..n {
                awake[offsets[class] + slot] = true;
            }
        }
        Sched {
            enabled,
            q: TimeQ::new(total),
            awake,
            done: vec![0; total],
            core_stall: vec![None; n_cores],
            n_cores,
            n_banks,
            n_chans,
            awake_cores: live[0],
            awake_banks: live[1],
            awake_chans: live[2],
            awake_nets: live[3],
            core_ps: periods[0],
            icnt_ps: periods[1],
            dram_ps: periods[2],
        }
    }

    /// Id of core `slot` (cores lead the layout, so it is `slot`).
    #[inline]
    pub fn core_id(&self, slot: usize) -> usize {
        slot
    }

    /// Id of bank `slot`.
    #[inline]
    pub fn bank_id(&self, slot: usize) -> usize {
        self.n_cores + slot
    }

    /// Id of channel `slot`.
    #[inline]
    pub fn chan_id(&self, slot: usize) -> usize {
        self.n_cores + self.n_banks + slot
    }

    /// Id of network `slot`.
    #[inline]
    pub fn net_id(&self, slot: usize) -> usize {
        self.n_cores + self.n_banks + self.n_chans + slot
    }

    /// Maps an id back to `(class, slot)`.
    pub fn locate(&self, id: usize) -> (Class, usize) {
        if id < self.n_cores {
            (Class::Core, id)
        } else if id < self.n_cores + self.n_banks {
            (Class::Bank, id - self.n_cores)
        } else if id < self.n_cores + self.n_banks + self.n_chans {
            (Class::Chan, id - self.n_cores - self.n_banks)
        } else {
            (Class::Net, id - self.n_cores - self.n_banks - self.n_chans)
        }
    }

    /// The clock period of `class`'s domain in picoseconds.
    #[inline]
    fn period(&self, class: Class) -> Picos {
        match class {
            Class::Core => self.core_ps,
            Class::Bank | Class::Net => self.icnt_ps,
            Class::Chan => self.dram_ps,
        }
    }

    fn count_mut(&mut self, class: Class) -> &mut usize {
        match class {
            Class::Core => &mut self.awake_cores,
            Class::Bank => &mut self.awake_banks,
            Class::Chan => &mut self.awake_chans,
            Class::Net => &mut self.awake_nets,
        }
    }

    /// Parks component `id` after a quiet probe: flag down, and with a
    /// bounded probe a wake scheduled at the instant its own domain fires
    /// tick `bound` (1-based; tick N fires at `(N-1) * period`). `None`
    /// parks it for external input only.
    pub fn sleep(&mut self, id: usize, class: Class, bound: Option<u64>) {
        debug_assert!(self.awake[id], "sleeping a parked component");
        debug_assert!(!self.q.contains(id), "awake component still queued");
        self.awake[id] = false;
        *self.count_mut(class) -= 1;
        if let Some(b) = bound {
            self.q.schedule(id, (b - 1) * self.period(class));
        }
    }

    /// Raises the awake flag for `id` (cancelling any scheduled wake) and
    /// returns `true` if it was asleep. The *caller* flushes the owed quiet
    /// cycles before any mutation — see the machine-level wake helpers.
    pub fn wake(&mut self, id: usize, class: Class) -> bool {
        if self.awake[id] {
            return false;
        }
        self.q.cancel(id);
        self.awake[id] = true;
        *self.count_mut(class) += 1;
        true
    }

    /// Total awake components across all classes.
    #[cfg(test)]
    pub fn awake_total(&self) -> usize {
        self.awake_cores + self.awake_banks + self.awake_chans + self.awake_nets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_maps_ids_both_ways() {
        let s = Sched::new(true, [3, 2, 2, 1], [true; 4], [714, 1428, 1082]);
        assert_eq!(s.core_id(2), 2);
        assert_eq!(s.bank_id(0), 3);
        assert_eq!(s.chan_id(1), 6);
        assert_eq!(s.net_id(0), 7);
        assert_eq!(s.locate(2), (Class::Core, 2));
        assert_eq!(s.locate(3), (Class::Bank, 0));
        assert_eq!(s.locate(6), (Class::Chan, 1));
        assert_eq!(s.locate(7), (Class::Net, 0));
        assert_eq!(s.awake_total(), 8);
    }

    #[test]
    fn non_participating_classes_are_born_parked() {
        // An ideal-memory model: banks, channels and nets never tick.
        let s = Sched::new(
            true,
            [2, 2, 1, 2],
            [true, false, false, false],
            [714, 1428, 1082],
        );
        assert_eq!(s.awake_total(), 2);
        assert!(s.awake[0] && s.awake[1]);
        assert!(!s.awake[s.bank_id(0)]);
        assert!(!s.awake[s.chan_id(0)]);
        assert!(!s.awake[s.net_id(1)]);
    }

    #[test]
    fn sleep_schedules_bounded_wakes_and_wake_cancels_them() {
        let mut s = Sched::new(true, [1, 1, 0, 0], [true; 4], [10, 20, 30]);
        // Core 0 quiet until its own tick 5 -> wake at (5-1)*10 = 40 ps.
        s.sleep(0, Class::Core, Some(5));
        assert_eq!(s.q.peek(), Some((40, 0)));
        assert_eq!(s.awake_cores, 0);
        // Bank quiet for external input only: no queue entry.
        s.sleep(s.bank_id(0), Class::Bank, None);
        assert_eq!(s.q.len(), 1);
        assert_eq!(s.awake_total(), 0);
        // External activation wakes the core early and cancels its entry.
        assert!(s.wake(0, Class::Core));
        assert!(s.q.is_empty());
        assert_eq!(s.awake_cores, 1);
        // Waking an already-awake component is a no-op.
        assert!(!s.wake(0, Class::Core));
        assert_eq!(s.awake_cores, 1);
    }
}
