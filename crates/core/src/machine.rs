//! The machine's components and their per-tick sweeps.
//!
//! [`Machine`] owns every ticking component — SIMT cores, L2 banks, DRAM
//! channels and the two crossbar networks — plus the [`Sched`] that says
//! which of them are awake. Each run-loop phase that advances one class of
//! components is a *sweep* over that class; everything that moves a fetch
//! from one component to another (injection, ejection, miss hand-off,
//! fills) is a serial step in [`crate::sim`], which wakes the receiving
//! component through the helpers here before mutating it.
//!
//! A simulation runs on one thread (DESIGN.md §6 records why); parallelism
//! lives one level up, across simulations.

use crate::l2bank::L2Bank;
use crate::sched::{Class, Sched};
use gmh_dram::DramChannel;
use gmh_icnt::Network;
use gmh_simt::{CoreIdleProbe, SimtCore};
use gmh_types::trace::TraceSink;
use gmh_types::{EventBound, Picos, TickSet};

/// Slot of the request (core → L2) network in [`Machine::nets`].
pub(crate) const REQ: usize = 0;
/// Slot of the reply (L2 → core) network in [`Machine::nets`].
pub(crate) const REP: usize = 1;

/// Every ticking component of the simulated GPU, indexed by its global id.
pub(crate) struct Machine {
    /// SIMT cores.
    pub cores: Vec<SimtCore>,
    /// L2 banks.
    pub banks: Vec<L2Bank>,
    /// DRAM channels.
    pub channels: Vec<DramChannel>,
    /// Crossbar networks at [`REQ`] and [`REP`] (they switch
    /// independently; the run loop serializes all inject/eject).
    pub nets: [Network; 2],
    /// Event scheduler: awake flags, wake queue and the lazy skipped-cycle
    /// ledger for the components above.
    pub sched: Sched,
}

impl Machine {
    // ---- sweeps ----------------------------------------------------------------
    //
    // Each sweep advances the *awake* components of one class by one
    // own-domain tick, in ascending component order (sleeping components
    // are provably inert this tick, so skipping them is exact). After its
    // cycle each component is re-probed: a quiet probe parks it in the
    // scheduler, a busy one keeps it hot with zero queue traffic. With the
    // scheduler off (the naive-loop oracle) every component cycles and
    // nothing is probed.

    /// Switches both crossbar networks one interconnect cycle.
    pub fn sweep_nets(&mut self, cyc: u64) {
        let Machine { nets, sched, .. } = self;
        if sched.enabled && sched.awake_nets == 0 {
            return;
        }
        for (i, n) in nets.iter_mut().enumerate() {
            let id = sched.net_id(i);
            if sched.enabled && !sched.awake[id] {
                continue;
            }
            let moved = n.cycle();
            if !sched.enabled {
                continue;
            }
            sched.done[id] = cyc;
            // A moving switch is trivially busy: probe only on a
            // do-nothing cycle, keeping the saturated path free of
            // per-cycle head scans. A parked ejection backlog is
            // re-offered by the run loop every tick; the network's own
            // bound does not cover it, so a backlogged switch stays awake.
            if moved || n.ejection_backlog() > 0 {
                continue;
            }
            match n.next_event_bound() {
                EventBound::Busy => {}
                EventBound::QuietUntil { bound } => sched.sleep(id, Class::Net, bound),
            }
        }
    }

    /// Advances every L2 bank pipeline one interconnect cycle.
    pub fn sweep_banks(&mut self, now_ps: Picos, cyc: u64, trace: &mut TraceSink) {
        let Machine { banks, sched, .. } = self;
        if sched.enabled && sched.awake_banks == 0 {
            return;
        }
        for (i, b) in banks.iter_mut().enumerate() {
            let id = sched.bank_id(i);
            if sched.enabled && !sched.awake[id] {
                continue;
            }
            b.cycle_traced(now_ps, trace);
            if !sched.enabled {
                continue;
            }
            sched.done[id] = cyc;
            // The bank probe is three O(1) queue checks — probing
            // every cycle costs no more than an activity check.
            match b.next_event_bound() {
                EventBound::Busy => {}
                EventBound::QuietUntil { bound } => sched.sleep(id, Class::Bank, bound),
            }
        }
    }

    /// Advances every SIMT core one core cycle.
    pub fn sweep_cores(&mut self, now_ps: Picos, cyc: u64, trace: &mut TraceSink) {
        let Machine { cores, sched, .. } = self;
        if sched.enabled && sched.awake_cores == 0 {
            return;
        }
        for (i, c) in cores.iter_mut().enumerate() {
            let id = sched.core_id(i);
            if sched.enabled && !sched.awake[id] {
                continue;
            }
            let active = c.cycle_traced(now_ps, trace);
            if !sched.enabled {
                continue;
            }
            sched.done[id] = cyc;
            // An active cycle (pipeline inputs to chew on, or an
            // instruction issued) implies the probe would answer
            // `Busy` or the core is one cycle from quiescing —
            // skip the O(warps) probe scan and re-check next tick.
            if active {
                continue;
            }
            match c.next_event_bound() {
                CoreIdleProbe::Busy => {}
                CoreIdleProbe::Quiet { bound, stall } => {
                    sched.core_stall[i] = stall;
                    sched.sleep(id, Class::Core, bound);
                }
            }
        }
    }

    /// Advances every DRAM channel one DRAM cycle.
    pub fn sweep_channels(&mut self, cyc: u64) {
        let Machine {
            channels, sched, ..
        } = self;
        if sched.enabled && sched.awake_chans == 0 {
            return;
        }
        for (i, ch) in channels.iter_mut().enumerate() {
            let id = sched.chan_id(i);
            if sched.enabled && !sched.awake[id] {
                continue;
            }
            ch.cycle(cyc);
            if !sched.enabled {
                continue;
            }
            sched.done[id] = cyc;
            // The channel probe early-outs `Busy` on the first
            // visible queue entry, so per-cycle probing is cheap
            // on the saturated path.
            match ch.next_event_bound(cyc) {
                EventBound::Busy => {}
                EventBound::QuietUntil { bound } => sched.sleep(id, Class::Chan, bound),
            }
        }
    }

    // ---- wake helpers --------------------------------------------------------
    //
    // Every helper follows the flush-before-mutate discipline: the owed
    // quiet cycles are replayed through the component's bulk skip hook
    // while its state is still the frozen quiet state the hook's
    // debug_assert demands, and only then does the caller mutate it.
    // `target` is the own-domain tick count the component must have
    // absorbed *before* the caller's mutation (callers subtract one when
    // the component's own sweep still runs later this instant).

    /// Wakes core `slot`, flushing its owed quiet cycles (with the stall
    /// class captured when it went to sleep) up to core tick `target`.
    pub fn wake_core(&mut self, slot: usize, target: u64) {
        if !self.sched.enabled {
            return;
        }
        let id = self.sched.core_id(slot);
        if !self.sched.wake(id, Class::Core) {
            return;
        }
        let owed = target - self.sched.done[id];
        if owed > 0 {
            self.cores[slot].skip_idle(owed, self.sched.core_stall[slot]);
        }
        self.sched.done[id] = target;
    }

    /// Wakes bank `slot`, flushing up to interconnect tick `target`.
    pub fn wake_bank(&mut self, slot: usize, target: u64) {
        if !self.sched.enabled {
            return;
        }
        let id = self.sched.bank_id(slot);
        if !self.sched.wake(id, Class::Bank) {
            return;
        }
        let owed = target - self.sched.done[id];
        if owed > 0 {
            self.banks[slot].skip_cycles(owed);
        }
        self.sched.done[id] = target;
    }

    /// Wakes channel `slot`, flushing up to DRAM tick `target`. The skip
    /// hook receives the channel's *pre-skip* cycle count — the `now` its
    /// most recent real cycle saw — so its quiet assertion evaluates the
    /// frozen state.
    pub fn wake_channel(&mut self, slot: usize, target: u64) {
        if !self.sched.enabled {
            return;
        }
        let id = self.sched.chan_id(slot);
        if !self.sched.wake(id, Class::Chan) {
            return;
        }
        let done = self.sched.done[id];
        let owed = target - done;
        if owed > 0 {
            self.channels[slot].skip_cycles(owed, done);
        }
        self.sched.done[id] = target;
    }

    /// Wakes network `slot`, flushing up to interconnect tick `target`.
    pub fn wake_net(&mut self, slot: usize, target: u64) {
        if !self.sched.enabled {
            return;
        }
        let id = self.sched.net_id(slot);
        if !self.sched.wake(id, Class::Net) {
            return;
        }
        let owed = target - self.sched.done[id];
        if owed > 0 {
            self.nets[slot].skip_cycles(owed);
        }
        self.sched.done[id] = target;
    }

    /// Drains the due wakes at one clock instant: every queued component
    /// whose wake time has arrived is flushed to `cycles - 1` of its own
    /// domain (its domain provably fires at its wake instant, so the sweep
    /// running later this instant executes the final tick) and marked
    /// awake. Returns the number of components woken.
    pub fn drain_wakes(
        &mut self,
        now_ps: Picos,
        fired: TickSet,
        core_cyc: u64,
        icnt_cyc: u64,
        dram_cyc: u64,
    ) -> u64 {
        if !self.sched.enabled {
            return 0;
        }
        let mut woke = 0;
        while let Some(id) = self.sched.q.pop_ready(now_ps) {
            let (class, slot) = self.sched.locate(id);
            debug_assert!(
                match class {
                    Class::Core => fired.core,
                    Class::Bank | Class::Net => fired.icnt,
                    Class::Chan => fired.dram,
                },
                "a wake instant must be a tick instant of its own domain"
            );
            match class {
                Class::Core => self.wake_core(slot, core_cyc - 1),
                Class::Bank => self.wake_bank(slot, icnt_cyc - 1),
                Class::Chan => self.wake_channel(slot, dram_cyc - 1),
                Class::Net => self.wake_net(slot, icnt_cyc - 1),
            }
            woke += 1;
        }
        woke
    }

    /// End-of-run flush: replays every sleeping component's owed quiet
    /// cycles up to the final domain tick counts, so the collected stats
    /// (stall attribution, occupancy samples, blocked-cycle counts) are
    /// exactly what the naive loop would have accumulated. Classes the
    /// memory model never ticks are left untouched, like the naive loop
    /// leaves them.
    pub fn flush_end(
        &mut self,
        core_end: u64,
        icnt_end: u64,
        dram_end: u64,
        hierarchy: bool,
        full_dram: bool,
    ) {
        if !self.sched.enabled {
            return;
        }
        for slot in 0..self.cores.len() {
            self.wake_core(slot, core_end);
        }
        if hierarchy {
            for slot in 0..self.banks.len() {
                self.wake_bank(slot, icnt_end);
            }
            for slot in 0..self.nets.len() {
                self.wake_net(slot, icnt_end);
            }
        }
        if full_dram {
            for slot in 0..self.channels.len() {
                self.wake_channel(slot, dram_end);
            }
        }
    }
}
