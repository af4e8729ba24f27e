//! The machine's components and the event protocol that advances them.
//!
//! [`Machine`] owns every ticking component — SIMT cores, L2 banks, DRAM
//! channels and the two crossbar networks — plus the [`Sched`] that says
//! which of them are awake. The protocol is written once against
//! [`Component`]: [`sweep`] ticks a class, probes what did nothing and lets
//! it sleep; [`wake`] settles a sleeper's owed ticks before anything touches
//! it. Everything that moves a fetch between components is a serial step in
//! [`crate::sim`], which calls [`Machine::wake`] on the receiver first. A
//! simulation runs on one thread (DESIGN.md §6 records why).

use crate::l2bank::L2Bank;
use crate::sched::{Class, Sched, NEVER};
use gmh_dram::DramChannel;
use gmh_icnt::Network;
use gmh_simt::SimtCore;
use gmh_types::{bits, Component, EventBound, Picos, Tick};

/// Slot of the request (core → L2) network in [`Machine::nets`].
pub(crate) const REQ: usize = 0;
/// Slot of the reply (L2 → core) network in [`Machine::nets`].
pub(crate) const REP: usize = 1;

/// Every ticking component of the simulated GPU, indexed by its global id.
/// (The type parameters exist so the unit tests can drive the protocol
/// with a recording fake.)
pub(crate) struct Machine<Co = SimtCore, Ba = L2Bank, Ch = DramChannel, Ne = Network> {
    pub cores: Vec<Co>,
    pub banks: Vec<Ba>,
    pub channels: Vec<Ch>,
    /// Crossbar networks at [`REQ`] and [`REP`] (they switch
    /// independently; the run loop serializes all inject/eject).
    pub nets: [Ne; 2],
    /// Event scheduler: awake words, wake instants and the lazy
    /// skipped-cycle ledger for the components above.
    pub sched: Sched,
}

impl<Co: Component, Ba: Component, Ch: Component, Ne: Component> Machine<Co, Ba, Ch, Ne> {
    /// [`sweep`] over `class`'s components, for own-domain tick `cx.cyc`.
    /// (Always inlined, like `wake`: a caller's constant class folds the
    /// match down to one monomorphized call.)
    #[inline(always)]
    pub fn sweep(&mut self, class: Class, cx: &mut Tick<'_>) {
        match class {
            Class::Core => sweep(&mut self.sched, class, &mut self.cores, cx),
            Class::Bank => sweep(&mut self.sched, class, &mut self.banks, cx),
            Class::Chan => sweep(&mut self.sched, class, &mut self.channels, cx),
            Class::Net => sweep(&mut self.sched, class, &mut self.nets, cx),
        }
    }

    /// Wakes `class`'s component `slot` ahead of a mutation (see [`wake`]).
    #[inline(always)]
    pub fn wake(&mut self, class: Class, slot: usize) {
        match class {
            Class::Core => wake(&mut self.sched, class, &mut self.cores, slot),
            Class::Bank => wake(&mut self.sched, class, &mut self.banks, slot),
            Class::Chan => wake(&mut self.sched, class, &mut self.channels, slot),
            Class::Net => wake(&mut self.sched, class, &mut self.nets, slot),
        }
    }

    /// Drains the due wakes at one clock instant: every component whose
    /// wake time has arrived is woken and flushed (its domain provably
    /// fires at its wake instant, so the sweep running later this instant
    /// executes the final tick). Returns how many woke.
    ///
    /// One walk of the queued slots in id order wakes the due components
    /// and finds the earliest wake left, so no cleared wake rescans the
    /// column. Every wake is a future tick of its own domain and no jump
    /// passes the earliest one, so all due wakes fall at `now_ps`: id order
    /// is the order a `(wake, id)` queue would pop them in.
    pub fn drain_wakes(&mut self, now_ps: Picos) -> u64 {
        let (mut woke, mut next) = (0, NEVER);
        for class in Class::ALL {
            // A wake touches only its own slot, so the snapshot stays exact.
            for slot in bits::iter(self.sched.queued(class)) {
                let at = self.sched.wake_at(class, slot);
                if at > now_ps {
                    next = next.min(at);
                    continue;
                }
                debug_assert!(
                    now_ps.is_multiple_of(self.sched.clock[class.idx()].period_ps()),
                    "a wake instant must be a tick instant of its own domain"
                );
                self.sched.take(class, slot);
                self.wake(class, slot);
                woke += 1;
            }
        }
        self.sched.next_wake = next;
        woke
    }

    /// End-of-run flush: replays every sleeper's owed quiet cycles up to
    /// the final tick count of its class, so the collected stats (stall
    /// attribution, occupancy samples) are exactly
    /// what the naive loop would have accumulated. Classes the memory model
    /// never ticks are left untouched, like the naive loop leaves them.
    pub fn flush_end(&mut self) {
        for class in Class::ALL {
            for slot in 0..self.sched.live[class.idx()] {
                self.wake(class, slot);
            }
        }
    }
}

/// Tick → probe → sleep, for one class: advances its *awake* components by
/// one own-domain tick in ascending order (a sleeping component is provably
/// inert this tick, so skipping it is exact). A component whose tick was
/// not active is probed: a busy probe keeps it hot without a wake write,
/// a quiet one parks it ([`crate::sched`] has the lifecycle). With the
/// scheduler off (the naive-loop oracle) nothing ever sleeps, so every
/// component of a class the memory model ticks cycles, unprobed.
fn sweep<C: Component>(sched: &mut Sched, class: Class, comps: &mut [C], cx: &mut Tick<'_>) {
    let k = class.idx();
    sched.swept[k] = cx.cyc;
    // Only a component's own tick parks it, so the snapshot stays exact.
    let awake = sched.awake[k];
    if awake == 0 {
        return;
    }
    sched.stir(class);
    for slot in bits::iter(awake) {
        let c = &mut comps[slot];
        if c.tick(cx) || !sched.enabled {
            continue;
        }
        if let EventBound::QuietUntil { bound } = c.next_event_bound() {
            debug_assert!(
                sched.wake_at(class, slot) == NEVER,
                "awake component still queued"
            );
            let id = sched.id(class, slot);
            sched.done[id] = cx.cyc;
            bits::put(&mut sched.awake[k], slot, false);
            if let Some(b) = bound {
                sched.schedule(class, slot, sched.clock[k].tick_instant(b));
            }
        }
    }
}

/// Flush → wake: raises a sleeper's bit (cancelling its scheduled wake) and
/// replays its owed quiet ticks — through the last tick its class's sweep
/// completed — through its bulk skip hook while its state is still the
/// frozen quiet state the hook's `debug_assert` demands; only then may the
/// caller mutate it. No-op on an awake component.
fn wake<C: Component>(sched: &mut Sched, class: Class, comps: &mut [C], slot: usize) {
    if sched.is_awake(class, slot) {
        return;
    }
    sched.cancel(class, slot);
    bits::put(&mut sched.awake[class.idx()], slot, true);
    sched.stir(class);
    let owed = sched.swept[class.idx()] - sched.done[sched.id(class, slot)];
    if owed > 0 {
        sched.slept[class.idx()] += owed;
        comps[slot].skip_cycles(owed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::trace::TraceSink;
    use gmh_types::ClockDomain;
    use std::cell::Cell;

    /// Records what the protocol asked of it; answers as configured.
    #[derive(Clone)]
    struct Fake {
        active: bool,
        answer: EventBound,
        ticks: Vec<u64>,
        probes: Cell<u32>,
        skipped: u64,
    }

    impl Component for Fake {
        fn tick(&mut self, cx: &mut Tick<'_>) -> bool {
            self.ticks.push(cx.cyc);
            self.active
        }
        fn next_event_bound(&self) -> EventBound {
            self.probes.set(self.probes.get() + 1);
            self.answer
        }
        fn skip_cycles(&mut self, n: u64) {
            self.skipped += n;
        }
    }

    type FakeMachine = Machine<Fake, Fake, Fake, Fake>;
    const CORES_ONLY: [bool; 4] = [true, false, false, false];

    /// One inactive fake per class (two nets) answering `answer`; periods
    /// are 10 ps (core), 20 ps (bank, net) and 30 ps (channel).
    fn machine(enabled: bool, ticked: [bool; 4], answer: EventBound) -> FakeMachine {
        let f = Fake {
            active: false,
            answer,
            ticks: vec![],
            probes: Cell::new(0),
            skipped: 0,
        };
        Machine {
            cores: vec![f.clone()],
            banks: vec![f.clone()],
            channels: vec![f.clone()],
            nets: [f.clone(), f],
            sched: Sched::new(
                enabled,
                [1, 1, 1, 2],
                ticked,
                [100_000, 50_000, 33_333, 50_000].map(ClockDomain::new),
            ),
        }
    }

    fn sweeps(m: &mut FakeMachine, cyc: u64) {
        let (now_ps, trace) = (Picos::ZERO, &mut TraceSink::disabled());
        for class in Class::ALL {
            m.sweep(class, &mut Tick { now_ps, cyc, trace });
        }
    }

    fn beyond_cores(m: &FakeMachine) -> impl Iterator<Item = &Fake> {
        m.banks.iter().chain(&m.channels).chain(&m.nets)
    }

    #[test]
    fn quiet_probe_parks_and_a_wake_flushes_the_debt_first() {
        let mut m = machine(true, [true; 4], EventBound::quiet_until(5));
        m.cores[0].answer = EventBound::quiet_external();
        sweeps(&mut m, 1);
        sweeps(&mut m, 2);
        // Parked after tick 1 by one probe each, and not ticked again. The
        // bank's tick 5 fires at (5 - 1) * 20 ps; the core waits for input.
        let id = m.sched.id(Class::Bank, 0);
        assert_eq!((&m.banks[0].ticks, m.banks[0].probes.get()), (&vec![1], 1));
        let slots = [(Class::Core, 0), (Class::Bank, 0), (Class::Chan, 0)];
        let slots = slots.into_iter().chain([(Class::Net, 0), (Class::Net, 1)]);
        let wakes = slots
            .map(|(c, s)| m.sched.wake_at(c, s))
            .collect::<Vec<_>>();
        assert_eq!(
            (m.sched.awake, wakes),
            (
                [0; 4],
                vec![NEVER, Picos(80), Picos(120), Picos(80), Picos(80)]
            )
        );
        assert_eq!(m.sched.next_wake, Picos(80));
        // An external wake after sweep 4 settles ticks 2..=4 before returning.
        m.sched.swept = [4; 4];
        m.wake(Class::Bank, 0);
        assert_eq!((m.banks[0].skipped, m.sched.done[id]), (3, 1));
        assert_eq!(m.sched.slept, [0, 3, 0, 0]);
        assert!(m.sched.is_awake(Class::Bank, 0) && m.sched.wake_at(Class::Bank, 0) == NEVER);
        // The nets still wake at 80 ps.
        assert_eq!(m.sched.next_wake, Picos(80));
        // Waking the awake is a no-op.
        m.sched.swept = [9; 4];
        m.wake(Class::Bank, 0);
        assert_eq!(m.banks[0].skipped, 3);
    }

    #[test]
    fn due_wakes_drain_to_the_tick_before_the_one_about_to_run() {
        let mut m = machine(true, CORES_ONLY, EventBound::quiet_until(5));
        sweeps(&mut m, 1);
        m.sched.swept = [4, 2, 2, 2];
        assert_eq!(m.drain_wakes(Picos(39)), 0);
        // At 40 ps the core domain fires tick 5: ticks 2..=4 are owed.
        assert_eq!(m.drain_wakes(Picos(40)), 1);
        assert_eq!((m.cores[0].skipped, m.sched.awake), (3, [1, 0, 0, 0]));
    }

    #[test]
    fn an_active_tick_is_never_probed() {
        let mut m = machine(true, [true; 4], EventBound::quiet_external());
        m.channels[0].active = true;
        sweeps(&mut m, 1);
        assert_eq!(m.channels[0].probes.get(), 0);
        assert_eq!(m.sched.awake, [0, 0, 1, 0]);
    }

    #[test]
    fn disabled_scheduler_ticks_everything_and_never_probes() {
        let mut m = machine(false, [true; 4], EventBound::quiet_external());
        sweeps(&mut m, 1);
        sweeps(&mut m, 2);
        for f in m.cores.iter().chain(beyond_cores(&m)) {
            assert_eq!((&f.ticks, f.probes.get()), (&vec![1, 2], 0));
        }
        assert_eq!(m.sched.awake, [1, 1, 1, 0b11]);
    }

    #[test]
    fn a_non_participating_class_is_neither_swept_nor_flushed() {
        for enabled in [true, false] {
            let mut m = machine(enabled, CORES_ONLY, EventBound::quiet_external());
            sweeps(&mut m, 1);
            m.sched.swept = [9; 4];
            m.flush_end();
            // The core ticked once; asleep, it is owed ticks 2..=9.
            assert_eq!(m.cores[0].ticks, [1]);
            assert_eq!(m.cores[0].skipped, if enabled { 8 } else { 0 });
            assert!(beyond_cores(&m).all(|f| f.ticks.is_empty() && f.skipped == 0));
        }
    }
}
