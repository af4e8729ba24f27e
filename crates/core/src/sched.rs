//! Event-scheduler state for the event-driven run loop.
//!
//! The [`crate::machine::Machine`] carries one [`Sched`]: awake flags, a
//! column of scheduled wake instants (one per component id, [`NEVER`] for
//! none) with its earliest entry `next_wake`, and the lazy own-domain cycle
//! ledger (`done`) that lets a sleeping component absorb its skipped ticks
//! in one bulk [`gmh_types::Component::skip_cycles`] call at wake time.
//! Everything per class is an array indexed by [`Class::idx`].
//!
//! ## Awake-flag lifecycle
//!
//! Components are born awake (for the classes the memory model exercises)
//! and stay awake while their probe answers `Busy` — a busy component
//! never touches the wake column, so the saturated path pays nothing for
//! it. A quiet probe parks the component: flag down, and a bounded wake
//! scheduled at `(bound - 1) * period` (the wall-clock instant its own
//! domain fires tick `bound`), or no wake at all when the component can
//! only be woken by external input. Wakes are consumed either by the run
//! loop's drain at the instant `next_wake` arrives or by a cross-component
//! activation, and both flush the owed quiet cycles *before* the first
//! mutation so every component skip hook observes the frozen quiet state
//! its own `debug_assert` demands. [`crate::machine`] holds the two
//! functions that move a component through this lifecycle.

use gmh_types::Picos;

/// The wake instant of a component with no scheduled wake.
pub(crate) const NEVER: Picos = Picos::MAX;

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
    /// Scheduled wake instant per component id, [`NEVER`] for none.
    wake: Vec<Picos>,
    /// The earliest entry of `wake`: [`NEVER`] when no wake is scheduled.
    pub next_wake: Picos,
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
            wake: vec![NEVER; awake.len()],
            next_wake: NEVER,
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

    /// Whether `class`'s component `slot` is awake. Always true in naive
    /// mode (of a ticked class), so run-loop steps gated on it degrade to
    /// ungated sweeps.
    pub fn is_awake(&self, class: Class, slot: usize) -> bool {
        self.awake[self.id(class, slot)]
    }

    /// Component `id`'s scheduled wake instant, [`NEVER`] for none.
    pub fn wake_at(&self, id: usize) -> Picos {
        self.wake[id]
    }

    /// Schedules component `id`, which has no wake, to wake at `at`.
    pub fn schedule(&mut self, id: usize, at: Picos) {
        self.wake[id] = at;
        self.next_wake = self.next_wake.min(at);
    }

    /// Clears component `id`'s wake, if it has one. Clearing the earliest
    /// rescans the column for the next one.
    pub fn cancel(&mut self, id: usize) {
        let at = std::mem::replace(&mut self.wake[id], NEVER);
        if at != NEVER && at == self.next_wake {
            self.next_wake = self.wake.iter().copied().min().unwrap_or(NEVER);
        }
    }

    /// Clears component `id`'s wake without looking for the next one. Only
    /// a drain does this: it finds the earliest wake left as it walks the
    /// column, and stores it in `next_wake` once it has taken every due one.
    pub fn take(&mut self, id: usize) {
        self.wake[id] = NEVER;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use gmh_types::{Component, EventBound, Tick, Xoshiro256};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn layout_lays_classes_out_contiguously() {
        use Class::{Bank, Chan, Core, Net};
        let s = Sched::new(true, [3, 2, 2, 1], [true; 4], [714, 1428, 1082, 1428]);
        for (class, slot, id) in [(Core, 2, 2), (Bank, 0, 3), (Chan, 1, 6), (Net, 0, 7)] {
            assert_eq!(s.id(class, slot), id);
        }
        assert_eq!(s.awake_n, [3, 2, 2, 1]);
        let s = Sched::new(true, [1, 0, 1, 0], [true; 4], [1; 4]);
        assert_eq!(s.id(Chan, 0), 1);
    }

    #[test]
    fn non_participating_classes_are_born_parked() {
        // An ideal-memory model: banks, channels and nets never tick.
        let s = Sched::new(true, [2, 2, 1, 2], [true, false, false, false], [1; 4]);
        assert_eq!((s.awake_n, s.live), ([2, 0, 0, 0], [2, 0, 0, 0]));
        assert_eq!(s.awake, [true, true, false, false, false, false, false]);
        assert!(s.is_awake(Class::Core, 1) && !s.is_awake(Class::Net, 1));
    }

    /// Appends its own id to a shared log when a wake flushes it.
    struct Logger {
        id: usize,
        log: Rc<RefCell<Vec<usize>>>,
    }

    impl Component for Logger {
        fn tick(&mut self, _: &mut Tick<'_>) -> bool {
            false
        }
        fn next_event_bound(&self) -> EventBound {
            EventBound::Busy
        }
        fn skip_cycles(&mut self, _: u64) {
            self.log.borrow_mut().push(self.id);
        }
    }

    fn column_min(s: &Sched) -> Picos {
        s.wake.iter().copied().min().unwrap_or(NEVER)
    }

    #[test]
    fn next_wake_is_the_column_minimum_and_a_drain_wakes_the_due_ids_in_order() {
        let mut rng = Xoshiro256::seeded(0x5EED);
        for _ in 0..200 {
            // 12..=71 components: Table I's 35, or 71 under 4x L2 banking.
            let n = 12 + usize::try_from(rng.below(60)).expect("below 60");
            let (cores, banks) = (n / 2, n / 3);
            let counts = [cores, banks, n - cores - banks - 2, 2];
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut comps: Vec<Logger> = (0..n)
                .map(|id| Logger {
                    id,
                    log: Rc::clone(&log),
                })
                .collect();
            let nets = [comps.remove(n - 2), comps.remove(n - 2)];
            let channels = comps.split_off(cores + banks);
            let banks = comps.split_off(cores);
            let mut m = Machine {
                cores: comps,
                banks,
                channels,
                nets,
                sched: Sched::new(true, counts, [true; 4], [1; 4]),
            };
            // Everyone parked, each owing one tick, so every wake logs.
            let s = &mut m.sched;
            s.awake.fill(false);
            s.awake_n = [0; 4];
            s.swept = [1; 4];
            for _ in 0..40 {
                let id = usize::try_from(rng.below(n as u64)).expect("below n");
                if s.wake_at(id) == NEVER && rng.chance(0.7) {
                    s.schedule(id, rng.below(1_000));
                } else {
                    s.cancel(id);
                }
                assert_eq!(s.next_wake, column_min(s));
            }
            let now = s.next_wake;
            if now == NEVER {
                continue;
            }
            let due: Vec<usize> = (0..n).filter(|&id| s.wake_at(id) <= now).collect();
            assert_eq!(m.drain_wakes(now), due.len() as u64);
            assert_eq!(*log.borrow(), due);
            assert!(due.iter().all(|&id| m.sched.awake[id]));
            assert!(m.sched.next_wake > now);
            assert_eq!(m.sched.next_wake, column_min(&m.sched));
        }
    }
}
