//! Event-scheduler state for the event-driven run loop.
//!
//! The [`crate::machine::Machine`] carries one [`Sched`]: awake flags, a
//! [`TimeQ`] of scheduled wakes, and the lazy own-domain cycle ledger
//! (`done`) that lets a sleeping component absorb its skipped ticks in one
//! bulk [`gmh_types::Component::skip_cycles`] call at wake time. Everything
//! per class is an array indexed by [`Class::idx`].
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
//! its own `debug_assert` demands. [`crate::machine`] holds the two
//! functions that move a component through this lifecycle.

use gmh_types::{Picos, TimeQ};

/// Component classes the scheduler tracks, in id-layout order.
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

impl Class {
    /// Every class, in [`Class::idx`] order.
    pub const ALL: [Class; 4] = [Class::Core, Class::Bank, Class::Chan, Class::Net];

    /// This class's index in every per-class array.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Event-scheduler state for the machine's components, whose ids are laid
/// out `[cores | banks | channels | nets]`, each class contiguous in
/// ascending global component order.
pub(crate) struct Sched {
    /// `false` pins the naive oracle: every component stays awake, no
    /// probe runs, no wake is ever scheduled.
    pub enabled: bool,
    /// Wake queue keyed by `(wake_ps, component id)`.
    pub q: TimeQ,
    /// Awake flag per component id.
    pub awake: Vec<bool>,
    /// Own-domain tick a sleeping component last really ticked on, stamped
    /// as it parks. `swept[class] - done` is the flush debt at wake time.
    pub done: Vec<u64>,
    /// Awake components per class, kept in lock-step with `awake` so the
    /// all-asleep check is O(1), not O(components).
    pub awake_n: [usize; 4],
    /// Components per class the memory model ticks: classes it never ticks
    /// count 0 here, are born parked and are never swept, woken or flushed,
    /// exactly like the naive loop never touching them.
    pub live: [usize; 4],
    /// Clock period of each class's domain.
    pub period: [Picos; 4],
    /// Own-domain ticks each class's sweep has completed: what a sleeper of
    /// that class must have absorbed before anything mutates it, whether
    /// its own sweep still runs later this instant or already ran.
    pub swept: [u64; 4],
    /// Id of each class's slot 0.
    offset: [usize; 4],
}

impl Sched {
    /// Builds the scheduler from per-class component counts, whether the
    /// memory model ticks the class, and clock periods.
    pub fn new(enabled: bool, counts: [usize; 4], ticked: [bool; 4], period: [Picos; 4]) -> Self {
        let (mut offset, mut awake) = ([0; 4], Vec::new());
        for c in 0..4 {
            offset[c] = awake.len();
            awake.resize(awake.len() + counts[c], ticked[c]);
        }
        let live = [0, 1, 2, 3].map(|c| if ticked[c] { counts[c] } else { 0 });
        Sched {
            enabled,
            q: TimeQ::new(awake.len()),
            done: vec![0; awake.len()],
            awake,
            awake_n: live,
            live,
            period,
            swept: [0; 4],
            offset,
        }
    }

    /// Id of `class`'s component `slot`.
    pub fn id(&self, class: Class, slot: usize) -> usize {
        self.offset[class.idx()] + slot
    }

    /// Maps an id back to `(class, slot)`: the last class whose offset does
    /// not exceed it (an empty class shares its offset with the next one).
    pub fn locate(&self, id: usize) -> (Class, usize) {
        let k = self.offset.iter().rposition(|&o| o <= id).unwrap_or(0);
        (Class::ALL[k], id - self.offset[k])
    }

    /// Whether `class`'s component `slot` is awake. Always true in naive
    /// mode (of a ticked class), so run-loop steps gated on it degrade to
    /// ungated sweeps.
    pub fn is_awake(&self, class: Class, slot: usize) -> bool {
        self.awake[self.id(class, slot)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_maps_ids_both_ways() {
        use Class::{Bank, Chan, Core, Net};
        let s = Sched::new(true, [3, 2, 2, 1], [true; 4], [714, 1428, 1082, 1428]);
        for (class, slot, id) in [(Core, 2, 2), (Bank, 0, 3), (Chan, 1, 6), (Net, 0, 7)] {
            assert_eq!(s.id(class, slot), id);
            assert_eq!(s.locate(id), (class, slot));
        }
        assert_eq!(s.awake_n, [3, 2, 2, 1]);
        let s = Sched::new(true, [1, 0, 1, 0], [true; 4], [1; 4]);
        assert_eq!(s.locate(1), (Chan, 0));
    }

    #[test]
    fn non_participating_classes_are_born_parked() {
        // An ideal-memory model: banks, channels and nets never tick.
        let s = Sched::new(true, [2, 2, 1, 2], [true, false, false, false], [1; 4]);
        assert_eq!((s.awake_n, s.live), ([2, 0, 0, 0], [2, 0, 0, 0]));
        assert_eq!(s.awake, [true, true, false, false, false, false, false]);
        assert!(s.is_awake(Class::Core, 1) && !s.is_awake(Class::Net, 1));
    }
}
