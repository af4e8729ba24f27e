//! Event-scheduler state for the event-driven run loop.
//!
//! The [`crate::machine::Machine`] carries one [`Sched`]: an awake word per
//! class, a column of scheduled wake instants (one per component id,
//! [`NEVER`] for none) with its earliest entry `next_wake` and a queued word
//! per class marking the slots that hold one, and the lazy own-domain cycle
//! ledger (`done`) that lets a sleeping component absorb its skipped ticks
//! in one bulk [`gmh_types::Component::skip_cycles`] call at wake time.
//! Everything per class is an array indexed by [`Class::idx`]; a class has
//! at most [`bits::CAP`] components (cores and banks are crossbar ports,
//! capped by the same width; channels divide banks; there are two
//! networks), so a class's words are [`gmh_types::bits`] sets over its slots.
//!
//! ## Awake-bit lifecycle
//!
//! Components are born awake (for the classes the memory model exercises)
//! and stay awake while their probe answers `Busy` — a busy component
//! never touches the wake column, so the saturated path pays nothing for
//! it. A quiet probe parks the component: bit down, and a bounded wake
//! scheduled at the wall-clock instant its own domain fires tick `bound`
//! ([`gmh_types::ClockDomain::tick_instant`]), or no wake at all when the
//! component can only be woken by external input. Wakes are consumed either
//! by the run loop's drain at the instant `next_wake` arrives or by a
//! cross-component activation, and both flush the owed quiet cycles
//! *before* the first mutation so every component skip hook observes the
//! frozen quiet state its own `debug_assert` demands. [`crate::machine`]
//! holds the two functions that move a component through this lifecycle.

use gmh_types::{bits, bits::Bits, ClockDomain, Picos};

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
    /// Per class, bit `slot` set while that component is awake: the
    /// all-asleep check is four word compares, and the run loop's hand-offs
    /// walk only these. Full for a ticked class in naive mode, so those
    /// walks degrade to ungated sweeps.
    pub awake: [Bits; 4],
    /// Per class, bit `slot` set while that component's `wake` entry is not
    /// [`NEVER`]: a drain or a rescan walks only these.
    queued: [Bits; 4],
    /// Per class, whether a component was swept or woken since the last
    /// [`Sched::stirred_since_sample`]: a class with no component awake
    /// and this flag down is frozen, its queues and counters as sampled.
    stirred: [bool; 4],
    /// Own-domain tick a sleeping component last really ticked on, stamped
    /// as it parks. `swept[class] - done` is the flush debt at wake time.
    pub done: Vec<u64>,
    /// Components per class the memory model ticks: classes it never ticks
    /// count 0 here, are born parked and are never swept, woken or flushed,
    /// exactly like the naive loop never touching them.
    pub live: [usize; 4],
    /// Each class's clock domain as built, read for its tick instants (the
    /// run loop's `ClockDomains` keeps the live tick counts).
    pub clock: [ClockDomain; 4],
    /// Own-domain ticks each class's sweep has completed: what a sleeper of
    /// that class must have absorbed before anything mutates it, whether
    /// its own sweep still runs later this instant or already ran.
    pub swept: [u64; 4],
    /// Own-domain ticks each class's components slept through, summed as
    /// wakes settle them (observation only: nothing reads it back).
    pub slept: [u64; 4],
    /// Id of each class's slot 0.
    offset: [usize; 4],
}

impl Sched {
    /// Builds the scheduler from per-class component counts, whether the
    /// memory model ticks the class, and clock domains.
    ///
    /// # Panics
    ///
    /// Panics if a class has more than [`bits::CAP`] components.
    pub fn new(
        enabled: bool,
        counts: [usize; 4],
        ticked: [bool; 4],
        clock: [ClockDomain; 4],
    ) -> Self {
        assert!(
            counts.iter().all(|&n| n <= bits::CAP),
            "a class holds at most {} components: {counts:?}",
            bits::CAP
        );
        let mut offset = [0; 4];
        for c in 1..4 {
            offset[c] = offset[c - 1] + counts[c - 1];
        }
        let n = offset[3] + counts[3];
        let live = [0, 1, 2, 3].map(|c| if ticked[c] { counts[c] } else { 0 });
        Sched {
            enabled,
            wake: vec![NEVER; n],
            next_wake: NEVER,
            awake: live.map(bits::below),
            queued: [0; 4],
            stirred: [true; 4],
            done: vec![0; n],
            live,
            clock,
            swept: [0; 4],
            slept: [0; 4],
            offset,
        }
    }

    /// Id of `class`'s component `slot`.
    pub fn id(&self, class: Class, slot: usize) -> usize {
        self.offset[class.idx()] + slot
    }

    /// Whether `class`'s component `slot` is awake.
    #[inline]
    pub fn is_awake(&self, class: Class, slot: usize) -> bool {
        bits::contains(self.awake[class.idx()], slot)
    }

    /// The slots of `class` with a scheduled wake.
    pub fn queued(&self, class: Class) -> Bits {
        self.queued[class.idx()]
    }

    /// `class`'s component `slot`'s scheduled wake instant, [`NEVER`] for
    /// none.
    pub fn wake_at(&self, class: Class, slot: usize) -> Picos {
        self.wake[self.id(class, slot)]
    }

    /// Schedules `class`'s component `slot`, which has no wake, to wake at
    /// `at`.
    pub fn schedule(&mut self, class: Class, slot: usize, at: Picos) {
        let id = self.id(class, slot);
        self.wake[id] = at;
        bits::put(&mut self.queued[class.idx()], slot, true);
        self.next_wake = self.next_wake.min(at);
    }

    /// Clears `class`'s component `slot`'s wake, if it has one. Clearing
    /// the earliest rescans the queued slots for the next one.
    pub fn cancel(&mut self, class: Class, slot: usize) {
        let at = self.wake_at(class, slot);
        if at == NEVER {
            return;
        }
        self.take(class, slot);
        if at == self.next_wake {
            self.next_wake = self.earliest();
        }
    }

    /// Clears `class`'s component `slot`'s wake without looking for the
    /// next one. Only a drain does this: it finds the earliest wake left
    /// as it walks the queued slots, and stores it in `next_wake` once it
    /// has taken every due one.
    pub fn take(&mut self, class: Class, slot: usize) {
        let id = self.id(class, slot);
        self.wake[id] = NEVER;
        bits::put(&mut self.queued[class.idx()], slot, false);
    }

    /// The earliest scheduled wake, [`NEVER`] for none.
    fn earliest(&self) -> Picos {
        let mut t = NEVER;
        for class in Class::ALL {
            for slot in bits::iter(self.queued(class)) {
                t = t.min(self.wake_at(class, slot));
            }
        }
        t
    }

    /// Records that `class` moved: a component of it was swept or woken.
    #[inline]
    pub fn stir(&mut self, class: Class) {
        self.stirred[class.idx()] = true;
    }

    /// Whether `class`'s queues and counters may differ from the last time
    /// this answered: a component is awake now, or one was swept or woken
    /// since. Clears the flag. (A parked component's state is frozen; an
    /// awake one may have been mutated by a run-loop hand-off after its
    /// sweep, so awake counts whether or not its sweep ran.)
    pub fn stirred_since_sample(&mut self, class: Class) -> bool {
        let k = class.idx();
        std::mem::take(&mut self.stirred[k]) || self.awake[k] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use gmh_types::rng::cases;
    use gmh_types::{Component, EventBound, Tick};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Four 1 ps clocks.
    fn one_ps() -> [ClockDomain; 4] {
        [ClockDomain::MAX_MHZ; 4].map(ClockDomain::new)
    }

    #[test]
    fn layout_lays_classes_out_contiguously() {
        use Class::{Bank, Chan, Core, Net};
        let table1 = [1400, 700, 924, 700].map(ClockDomain::new);
        let s = Sched::new(true, [3, 2, 2, 1], [true; 4], table1);
        for (class, slot, id) in [(Core, 2, 2), (Bank, 0, 3), (Chan, 1, 6), (Net, 0, 7)] {
            assert_eq!(s.id(class, slot), id);
        }
        assert_eq!(s.awake, [0b111, 0b11, 0b11, 0b1]);
        let s = Sched::new(true, [1, 0, 1, 0], [true; 4], one_ps());
        assert_eq!(s.id(Chan, 0), 1);
    }

    #[test]
    fn non_participating_classes_are_born_parked() {
        // An ideal-memory model: banks, channels and nets never tick.
        let s = Sched::new(true, [2, 2, 1, 2], [true, false, false, false], one_ps());
        assert_eq!((s.awake, s.live), ([0b11, 0, 0, 0], [2, 0, 0, 0]));
        assert!(s.is_awake(Class::Core, 1) && !s.is_awake(Class::Net, 1));
        // A full class of 64 is one full word.
        let s = Sched::new(true, [64, 64, 8, 2], [true; 4], one_ps());
        assert_eq!(s.awake, [u64::MAX, u64::MAX, 0xff, 0b11]);
    }

    #[test]
    #[should_panic(expected = "at most 64 components")]
    fn a_class_of_65_is_refused() {
        let _ = Sched::new(true, [65, 1, 1, 2], [true; 4], one_ps());
    }

    #[test]
    fn a_class_is_stirred_while_awake_and_once_after_a_move() {
        let mut s = Sched::new(true, [2, 1, 1, 2], [true; 4], one_ps());
        // Born stirred, so the first sample reads everything.
        assert!(Class::ALL.iter().all(|&c| s.stirred_since_sample(c)));
        s.awake[Class::Bank.idx()] = 0;
        assert!(!s.stirred_since_sample(Class::Bank), "parked, unmoved");
        assert!(s.stirred_since_sample(Class::Core), "awake now");
        s.stir(Class::Bank);
        assert!(s.stirred_since_sample(Class::Bank), "moved since");
        assert!(!s.stirred_since_sample(Class::Bank), "the flag clears");
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

    /// The `(class, slot)` of component `id`.
    fn slot_of(s: &Sched, id: usize) -> (Class, usize) {
        let class = *Class::ALL
            .iter()
            .rev()
            .find(|c| s.offset[c.idx()] <= id)
            .expect("id 0 is in the first class");
        (class, id - s.offset[class.idx()])
    }

    /// The queued words hold exactly the slots whose column entry is set.
    fn queued_matches_column(s: &Sched) -> bool {
        (0..s.wake.len()).all(|id| {
            let (c, slot) = slot_of(s, id);
            bits::contains(s.queued(c), slot) == (s.wake[id] != NEVER)
        })
    }

    #[test]
    fn next_wake_is_the_column_minimum_and_a_drain_wakes_the_due_ids_in_order() {
        cases(
            "next_wake_is_the_column_minimum_and_a_drain_wakes_the_due_ids_in_order",
            200,
            |rng| {
                // 12..=71 components: Table I's 35, or 71 under 4x L2 banking.
                let n = rng.range(12..72usize);
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
                    sched: Sched::new(true, counts, [true; 4], one_ps()),
                };
                // Everyone parked, each owing one tick, so every wake logs.
                let s = &mut m.sched;
                s.awake = [0; 4];
                s.swept = [1; 4];
                for step in 0..40 {
                    let (c, slot) = slot_of(s, rng.range(0..n));
                    if s.wake_at(c, slot) == NEVER && rng.chance(0.7) {
                        s.schedule(c, slot, Picos(rng.below(1_000)));
                    } else {
                        s.cancel(c, slot);
                    }
                    assert_eq!(s.next_wake, column_min(s), "{n} ids, step {step}");
                    assert!(queued_matches_column(s), "{n} ids, step {step}");
                }
                let now = s.next_wake;
                if now == NEVER {
                    return;
                }
                let due: Vec<usize> = (0..n).filter(|&id| s.wake[id] <= now).collect();
                assert_eq!(m.drain_wakes(now), due.len() as u64, "drain at {now}");
                assert_eq!(*log.borrow(), due, "drain at {now}");
                let s = &m.sched;
                assert!(due.iter().all(|&id| {
                    let (c, slot) = slot_of(s, id);
                    s.is_awake(c, slot)
                }));
                assert!(s.next_wake > now);
                assert_eq!(s.next_wake, column_min(s));
                assert!(queued_matches_column(s));
            },
        );
    }
}
