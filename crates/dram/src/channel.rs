//! A GDDR5 channel: FR-FCFS scheduler queue, banks, command and data buses.

use crate::bank::BankState;
use crate::timing::DramTiming;
use gmh_types::{
    BoundedQueue, Component, Cycle, EventBound, LineAddr, MemFetch, OccupancyHistogram, RatioStat,
    Scratch, Tick,
};

/// Command-scheduling policy of the controller.
///
/// The baseline is First-Ready FCFS (Table I); plain FCFS is provided for
/// ablation — it shows how much of the paper's baseline DRAM efficiency
/// comes from row-hit reordering.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedPolicy {
    /// First-ready first-come-first-serve: row hits anywhere in the queue
    /// are served before older row misses.
    #[default]
    FrFcfs,
    /// Strict first-come-first-serve: only the oldest request may issue a
    /// CAS; younger row hits wait behind older conflicts.
    Fcfs,
}

/// Static configuration of a [`DramChannel`].
#[derive(Clone, Debug)]
pub struct DramConfig {
    /// Banks per channel (Table I: 16 banks/chip, chips in lockstep).
    pub n_banks: usize,
    /// Cache lines per DRAM row (4 KB row across the lockstep pair / 128 B).
    pub lines_per_row: u64,
    /// Total channels in the GPU; used to decode channel-local addresses
    /// (lines are interleaved `channel = line % n_channels`).
    pub n_channels: usize,
    /// Scheduler queue capacity — the pool FR-FCFS searches (Table III:
    /// 16 entries baseline).
    pub sched_queue: usize,
    /// Response queue capacity toward the L2.
    pub response_queue: usize,
    /// Data-bus bytes per command-clock cycle. The GTX 480 moves 32 B per
    /// command clock per channel (64-bit bus at 4× data rate), so a 128 B
    /// line occupies the bus for 4 cycles.
    pub bus_bytes_per_cycle: u32,
    /// Fixed off-chip access pipeline latency in DRAM cycles, covering I/O,
    /// command propagation and controller front-end — the paper's "~100
    /// (core) cycles excluding arbitration" (§II-A). Requests become visible
    /// to the scheduler after this delay.
    pub fixed_latency: Cycle,
    /// Command-scheduling policy (FR-FCFS baseline).
    pub policy: SchedPolicy,
    /// Timing constraints.
    pub timing: DramTiming,
}

impl DramConfig {
    /// One GTX 480 memory partition (Table I).
    pub fn gtx480() -> Self {
        DramConfig {
            n_banks: 16,
            lines_per_row: 32,
            n_channels: 6,
            sched_queue: 16,
            response_queue: 8,
            bus_bytes_per_cycle: 32,
            fixed_latency: 30,
            policy: SchedPolicy::FrFcfs,
            timing: DramTiming::gtx480(),
        }
    }
}

/// Aggregate statistics of one channel.
#[derive(Clone, Debug, Default)]
pub struct DramStats {
    /// Cycles the data bus transferred data / cycles with pending work —
    /// the paper's *bandwidth efficiency*.
    pub efficiency: RatioStat,
    /// Read CAS commands issued.
    pub reads: u64,
    /// Write CAS commands issued.
    pub writes: u64,
    /// ACT commands issued.
    pub activates: u64,
    /// PRE commands issued.
    pub precharges: u64,
}

impl DramStats {
    /// Fraction of CAS commands that did not require their own row
    /// activation (approximate row-buffer hit rate).
    pub fn row_hit_rate(&self) -> f64 {
        let cas = self.reads + self.writes;
        if cas == 0 {
            0.0
        } else {
            1.0 - (self.activates as f64 / cas as f64).min(1.0)
        }
    }
}

#[derive(Clone, Debug)]
struct Pending {
    fetch: MemFetch,
    bank: usize,
    row: u64,
    is_write: bool,
    visible_at: Cycle,
}

/// The one command a queue entry can ask for in its bank's present state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// Its row is open: a CAS.
    Cas,
    /// Another row is open: a PRE.
    Precharge,
    /// The bank is closed: an ACT of its row.
    Activate,
}

/// One DRAM channel (memory partition).
///
/// Drive it by calling [`DramChannel::cycle`] once per DRAM command-clock
/// cycle; feed it with [`DramChannel::push`] and drain read responses with
/// [`DramChannel::pop_response`].
#[derive(Clone, Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    id: usize,
    queue: BoundedQueue<Pending>,
    /// Completed reads toward the L2, with the DRAM cycle at which the
    /// data burst finished (for latency decomposition).
    response: BoundedQueue<(Cycle, MemFetch)>,
    banks: Vec<BankState>,
    in_flight: Vec<(Cycle, MemFetch)>,
    bus_free_at: Cycle,
    last_cas: Cycle,
    act_allowed_at: Cycle,
    read_allowed_at: Cycle,
    /// Data-bus cycles one cache line occupies.
    transfer: Cycle,
    /// No command can issue before this cycle: the verdict of the last
    /// cycle whose scan chose nothing, the minimum of the entries'
    /// [`DramChannel::ready_at`]. It stands until the queue or the response
    /// slots change — the only inputs of the scan, besides the clock, that
    /// move while no command issues: [`DramChannel::push`] lowers it to the
    /// newcomer's ready cycle, and a response pop that frees the read slot
    /// resets it.
    next_cmd_at: Scratch<Cycle>,
    /// The cycle the most recent [`DramChannel::cycle`] call saw (the next
    /// one sees `now + 1`); what the [`Component`] probe measures against.
    now: Cycle,
    stats: DramStats,
}

impl DramChannel {
    /// Creates channel `id` of `cfg.n_channels`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent.
    pub fn new(cfg: DramConfig, id: usize) -> Self {
        assert!(cfg.n_banks > 0, "need at least one bank");
        assert!(cfg.lines_per_row > 0, "need at least one line per row");
        assert!(id < cfg.n_channels, "channel id out of range");
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: construction rejects inconsistent timing up front; failing \
                loudly here beats simulating with broken parameters."
        )]
        cfg.timing.validate().expect("valid timing");
        DramChannel {
            queue: BoundedQueue::new(cfg.sched_queue),
            response: BoundedQueue::new(cfg.response_queue),
            banks: vec![BankState::default(); cfg.n_banks],
            in_flight: Vec::new(),
            bus_free_at: 0,
            last_cas: 0,
            act_allowed_at: 0,
            read_allowed_at: 0,
            transfer: (gmh_types::LINE_SIZE as Cycle).div_ceil(cfg.bus_bytes_per_cycle as Cycle),
            next_cmd_at: Scratch(0),
            now: 0,
            stats: DramStats::default(),
            id,
            cfg,
        }
    }

    /// The channel's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Scheduler-queue occupancy histogram (the paper's Fig. 5 measures
    /// this queue).
    pub fn queue_occupancy(&self) -> &OccupancyHistogram {
        self.queue.occupancy()
    }

    /// Whether the scheduler queue can accept another request.
    pub fn can_accept(&self) -> bool {
        !self.queue.is_full()
    }

    /// Requests waiting in the scheduler queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Decodes the bank and row a line maps to within this channel.
    pub fn decode(&self, line: LineAddr) -> (usize, u64) {
        debug_assert_eq!(
            line.interleave(self.cfg.n_channels),
            self.id,
            "line routed to wrong channel"
        );
        let local = line.index() / self.cfg.n_channels as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the modulus bounds the value below n_banks, a usize"
        )]
        let bank = ((local / self.cfg.lines_per_row) % self.cfg.n_banks as u64) as usize;
        let row = local / (self.cfg.lines_per_row * self.cfg.n_banks as u64);
        (bank, row)
    }

    /// Enqueues a request arriving at DRAM-clock time `now`.
    ///
    /// # Errors
    ///
    /// Returns the fetch back when the scheduler queue is full (the caller
    /// holds it upstream: bp-DRAM).
    pub fn push(&mut self, fetch: MemFetch, now: Cycle) -> Result<(), MemFetch> {
        if self.queue.is_full() {
            return Err(fetch);
        }
        let (bank, row) = self.decode(fetch.line);
        let is_write = fetch.kind.is_write();
        let p = Pending {
            fetch,
            bank,
            row,
            is_write,
            visible_at: now + self.cfg.fixed_latency,
        };
        // The entries already queued keep their ready cycles.
        let (_, ready_at) = self.ready_at(&p);
        self.queue.push(p).map_err(|p| p.fetch)?;
        self.next_cmd_at.0 = self.next_cmd_at.0.min(ready_at);
        Ok(())
    }

    /// Completed reads waiting to fill the L2 (telemetry).
    pub fn response_queue_len(&self) -> usize {
        self.response.len()
    }

    /// Pops a completed read response, if any.
    pub fn pop_response(&mut self) -> Option<MemFetch> {
        self.pop_response_cas().map(|(_, f)| f)
    }

    /// Pops a completed read response together with the DRAM cycle at which
    /// its data burst finished (the CAS completion time, before any
    /// response-queue residency).
    pub fn pop_response_cas(&mut self) -> Option<(Cycle, MemFetch)> {
        let held_reads = !self.read_slot_free();
        let popped = self.response.pop();
        if popped.is_some() && held_reads {
            // The freed slot may let a held-back read CAS issue.
            self.next_cmd_at.0 = 0;
        }
        popped
    }

    /// Whether a read CAS may issue: space is reserved in the response
    /// queue for every burst in flight.
    fn read_slot_free(&self) -> bool {
        self.in_flight.len() + self.response.len() < self.response.capacity()
    }

    /// Drops the standing no-command verdict, so the next cycle scans the
    /// queue again. Results never depend on it; the fork-and-compare suite
    /// calls it before every cycle of one copy to prove that.
    #[doc(hidden)]
    pub fn forget_standing_verdict(&mut self) {
        self.next_cmd_at.0 = 0;
    }

    /// Peeks the oldest completed read response without removing it, so
    /// the owner can verify the L2 can take the fill before popping.
    pub fn peek_response(&self) -> Option<&MemFetch> {
        self.response.front().map(|(_, f)| f)
    }

    /// Whether any work (queued, in flight, or buffered responses) remains.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.response.is_empty()
    }

    /// Conservative idle probe for the fast-forward scheduler. `now` is the
    /// DRAM cycle count passed to the most recent [`DramChannel::cycle`]
    /// call (the next call will receive `now + 1`).
    ///
    /// `Busy` unless the channel provably issues no command and delivers no
    /// data strictly before its own cycle `bound`: buffered responses may
    /// fill the L2 on any dram tick, and a scheduler-queue entry or
    /// in-flight burst becoming visible/finished at or before `now + 1`
    /// can act on the very next tick. While every entry is still hidden
    /// behind the fixed off-chip latency (and every burst unfinished), the
    /// command chooser deterministically picks nothing — only the constant
    /// per-cycle occupancy sample and efficiency denominator advance, which
    /// the [`Component::skip_cycles`] hook replays in bulk.
    pub fn next_event_bound(&self, now: Cycle) -> EventBound {
        if !self.response.is_empty() {
            return EventBound::Busy;
        }
        let mut earliest = Cycle::MAX;
        for p in self.queue.iter() {
            if p.visible_at <= now + 1 {
                return EventBound::Busy;
            }
            earliest = earliest.min(p.visible_at);
        }
        for (done, _) in &self.in_flight {
            if *done <= now + 1 {
                return EventBound::Busy;
            }
            earliest = earliest.min(*done);
        }
        EventBound::quiet_until(earliest)
    }

    /// Advances the channel by one command-clock cycle.
    pub fn cycle(&mut self, now: Cycle) {
        self.now = now;
        self.queue.sample_occupancy();

        // Deliver finished reads to the response queue (space was reserved
        // at CAS issue).
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (t, f) = self.in_flight.swap_remove(i);
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: try_cas only issues a read when in_flight + response \
                        stay within the response queue capacity."
                )]
                self.response
                    .push((t, f))
                    .expect("response slot reserved at CAS");
            } else {
                i += 1;
            }
        }

        // Bandwidth-efficiency accounting: the denominator is every cycle
        // with pending work; the numerator (bus-busy cycles) is added in
        // bulk at CAS issue.
        if !self.queue.is_empty() || !self.in_flight.is_empty() {
            self.stats.efficiency.add(0, 1);
        }

        // One command per cycle. While the last scan's verdict stands, no
        // command can issue and the cycle is done.
        if now < self.next_cmd_at.0 {
            return;
        }
        match self.choose(now) {
            Ok((idx, ask)) => self.issue(idx, ask, now),
            Err(next_cmd_at) => self.next_cmd_at.0 = next_cmd_at,
        }
    }

    /// The command `p` asks for, and the cycle from which it may issue if
    /// neither the queue nor the response slots change before then. Every
    /// gate is "`now` has reached some time" over state that only an issued
    /// command, a push or a response pop moves — hidden entry: not before
    /// `visible_at`; row hit: tCCD, the bank's tRCD, the data bus and
    /// (reads) the write-to-read turnaround, never for a read without a
    /// response slot; row conflict: the bank's PRE-ready time; closed bank:
    /// its ACT-ready time and tRRD. [`DramChannel::choose`] decides and
    /// bounds with it, and [`DramChannel::push`] lowers the standing bound
    /// with it, so the three cannot disagree.
    fn ready_at(&self, p: &Pending) -> (Ask, Cycle) {
        let t = &self.cfg.timing;
        let bank = &self.banks[p.bank];
        let (ask, state_ready_at) = match bank.open_row() {
            Some(row) if row == p.row => {
                let cas_gate_at = if self.stats.reads + self.stats.writes > 0 {
                    self.last_cas + t.ccd
                } else {
                    0
                };
                let lat = if p.is_write { t.wl } else { t.cl };
                let at = cas_gate_at
                    .max(bank.cas_ready_at())
                    .max(self.bus_free_at.saturating_sub(lat));
                let at = if p.is_write {
                    at
                } else if self.read_slot_free() {
                    at.max(self.read_allowed_at) // write-to-read turnaround (tCDLR)
                } else {
                    Cycle::MAX
                };
                (Ask::Cas, at)
            }
            Some(_) => (Ask::Precharge, bank.pre_ready_at()),
            None => (Ask::Activate, bank.act_ready_at().max(self.act_allowed_at)),
        };
        (ask, state_ready_at.max(p.visible_at))
    }

    /// Picks this cycle's command — the queue index of its entry and what
    /// it asks for — in one pass over the scheduler queue: CAS
    /// (first-ready) > ACT > PRE, each FCFS within its class. `Err` is the
    /// earliest cycle at which any command could issue if neither the queue
    /// nor the response slots change before then: nothing issues before the
    /// earliest [`DramChannel::ready_at`]. Strict FCFS only narrows the
    /// candidates, so the same bound holds there, conservatively.
    fn choose(&self, now: Cycle) -> Result<(usize, Ask), Cycle> {
        let fcfs = self.cfg.policy == SchedPolicy::Fcfs;
        let (mut cas_open, mut act_open, mut pre_open) = (true, true, true);
        let (mut act, mut pre) = (None, None);
        let mut next_cmd_at = Cycle::MAX;
        for (idx, p) in self.queue.iter().enumerate() {
            let (ask, ready_at) = self.ready_at(p);
            next_cmd_at = next_cmd_at.min(ready_at);
            if p.visible_at > now {
                continue;
            }
            if ready_at <= now {
                match ask {
                    Ask::Cas if cas_open => return Ok((idx, ask)),
                    Ask::Activate if act_open => {
                        act.get_or_insert((idx, ask));
                    }
                    Ask::Precharge if pre_open => {
                        pre.get_or_insert((idx, ask));
                    }
                    _ => {}
                }
            }
            if fcfs {
                // Strict order: only the oldest visible request may open or
                // close a row, and no CAS passes an older request whose row
                // is not open and past tRCD.
                act_open = false;
                pre_open = false;
                cas_open &= ask == Ask::Cas && self.banks[p.bank].can_cas(now);
            }
        }
        act.or(pre).ok_or(next_cmd_at)
    }

    /// Issues what the queue entry at `idx` asks for.
    fn issue(&mut self, idx: usize, ask: Ask, now: Cycle) {
        let t = self.cfg.timing;
        if ask != Ask::Cas {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: idx came from enumerating the queue this cycle."
            )]
            let p = self.queue.iter().nth(idx).expect("index valid");
            let (bank, row) = (p.bank, p.row);
            if ask == Ask::Activate {
                self.banks[bank].activate(row, now, &t);
                self.act_allowed_at = now + t.rrd;
                self.stats.activates += 1;
            } else {
                self.banks[bank].precharge(now, &t);
                self.stats.precharges += 1;
            }
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: idx came from enumerating the queue this cycle."
        )]
        let p = self.queue.remove(idx).expect("index valid");
        let lat = if p.is_write { t.wl } else { t.cl };
        let data_end = now + lat + self.transfer;
        self.banks[p.bank].cas(now, p.is_write, data_end, &t);
        self.bus_free_at = data_end;
        self.last_cas = now;
        self.stats.efficiency.add(self.transfer, 0);
        if p.is_write {
            self.stats.writes += 1;
            self.read_allowed_at = self.read_allowed_at.max(data_end + t.cdlr);
            // Writes complete silently; the fetch is dropped.
        } else {
            self.stats.reads += 1;
            self.in_flight.push((data_end, p.fetch));
        }
    }
}

impl Component for DramChannel {
    /// Never active: the probe early-outs `Busy` on the first visible queue
    /// entry, so asking every cycle is cheap on the saturated path.
    #[inline]
    fn tick(&mut self, cx: &mut Tick<'_>) -> bool {
        self.cycle(cx.cyc);
        false
    }

    fn next_event_bound(&self) -> EventBound {
        DramChannel::next_event_bound(self, self.now)
    }

    /// Samples the frozen scheduler-queue occupancy and counts the
    /// pending-work cycles into the bandwidth-efficiency denominator.
    fn skip_cycles(&mut self, n: u64) {
        debug_assert!(!matches!(self.next_event_bound(self.now), EventBound::Busy));
        self.now += n;
        self.queue.sample_occupancy_n(n);
        if !self.queue.is_empty() || !self.in_flight.is_empty() {
            self.stats.efficiency.add(0, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::{AccessKind, Picos};

    fn cfg() -> DramConfig {
        DramConfig {
            fixed_latency: 0, // isolate the timing model in unit tests
            ..DramConfig::gtx480()
        }
    }

    fn load(id: u64, line: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(line), 0)
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Store, LineAddr::new(line), 0)
    }

    /// Runs the channel until a response appears or `max` cycles pass.
    fn run_until_response(ch: &mut DramChannel, start: Cycle, max: Cycle) -> (Cycle, MemFetch) {
        for now in start..start + max {
            ch.cycle(now);
            if let Some(r) = ch.pop_response() {
                return (now, r);
            }
        }
        panic!("no response within {max} cycles");
    }

    #[test]
    fn decode_is_channel_local() {
        let ch = DramChannel::new(cfg(), 0);
        // Line 0 -> channel 0, local 0 -> bank 0, row 0.
        assert_eq!(ch.decode(LineAddr::new(0)), (0, 0));
        // Local index 32 (line 192): bank 1, row 0.
        assert_eq!(ch.decode(LineAddr::new(32 * 6)), (1, 0));
        // Local index 32*16 = 512 (line 3072): bank 0, row 1.
        assert_eq!(ch.decode(LineAddr::new(512 * 6)), (0, 1));
    }

    #[test]
    fn cold_read_latency_is_rcd_cl_burst() {
        let mut ch = DramChannel::new(cfg(), 0);
        ch.push(load(0, 0), 0).unwrap();
        let (done, resp) = run_until_response(&mut ch, 0, 200);
        // ACT at 0, CAS at tRCD=12, data 24..28 -> response at cycle 28.
        assert_eq!(resp.id, 0);
        assert_eq!(done, 28);
    }

    #[test]
    fn the_owner_s_arrival_stamp_survives_the_channel() {
        let mut ch = DramChannel::new(cfg(), 0);
        let mut f = load(0, 0);
        f.time.dram_arrive = Picos(123);
        ch.push(f, 0).unwrap();
        let resp = (0..200).find_map(|now| {
            ch.cycle(now);
            ch.pop_response_cas()
        });
        let (_, resp) = resp.expect("a response within 200 cycles");
        assert_eq!(resp.time.dram_arrive, Picos(123));
    }

    #[test]
    fn fixed_latency_delays_visibility() {
        let mut ch = DramChannel::new(
            DramConfig {
                fixed_latency: 50,
                ..cfg()
            },
            0,
        );
        ch.push(load(0, 0), 0).unwrap();
        let (done, _) = run_until_response(&mut ch, 0, 300);
        assert_eq!(done, 50 + 28);
    }

    #[test]
    fn row_hit_skips_activate() {
        let mut ch = DramChannel::new(cfg(), 0);
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 6), 0).unwrap(); // same channel (line%6==0), next column
        let (t0, r0) = run_until_response(&mut ch, 0, 200);
        assert_eq!(r0.id, 0);
        let (t1, r1) = run_until_response(&mut ch, t0 + 1, 200);
        assert_eq!(r1.id, 1);
        // Second CAS needs no ACT: data follows the first burst closely.
        assert!(t1 - t0 <= 8, "row hit took {} cycles after first", t1 - t0);
        assert_eq!(ch.stats().activates, 1);
        assert_eq!(ch.stats().reads, 2);
        assert!(ch.stats().row_hit_rate() > 0.4);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let mut ch = DramChannel::new(cfg(), 0);
        // Same bank (0), different rows: local 0 and local 512.
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 512 * 6), 0).unwrap();
        let (t0, _) = run_until_response(&mut ch, 0, 400);
        let (t1, _) = run_until_response(&mut ch, t0 + 1, 400);
        // Conflict path: PRE (>= tRAS=28) + tRP=12 + tRCD=12 + CL+burst=16.
        assert!(
            t1 - t0 >= 30,
            "conflict resolved suspiciously fast: {}",
            t1 - t0
        );
        assert_eq!(ch.stats().precharges, 1);
        assert_eq!(ch.stats().activates, 2);
    }

    #[test]
    fn bank_parallelism_overlaps_activates() {
        let mut ch = DramChannel::new(cfg(), 0);
        // Two different banks: local 0 (bank 0) and local 32 (bank 1).
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 32 * 6), 0).unwrap();
        let (t0, _) = run_until_response(&mut ch, 0, 400);
        let (t1, _) = run_until_response(&mut ch, t0 + 1, 400);
        // Bank 1's ACT happens at tRRD=6 (overlapped), so the second read
        // finishes only a burst behind the first, far sooner than a serial
        // row cycle.
        assert!(t1 - t0 <= 8, "bank-parallel read took {}", t1 - t0);
    }

    #[test]
    fn writes_complete_silently_and_occupy_bus() {
        let mut ch = DramChannel::new(cfg(), 0);
        ch.push(store(0, 0), 0).unwrap();
        for now in 0..100 {
            ch.cycle(now);
        }
        assert!(ch.pop_response().is_none());
        assert_eq!(ch.stats().writes, 1);
        assert!(ch.stats().efficiency.numerator() >= 4);
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut ch = DramChannel::new(cfg(), 0);
        ch.push(store(0, 0), 0).unwrap();
        ch.push(load(1, 6), 0).unwrap(); // same row: CAS-ready immediately after
        let (done, _) = run_until_response(&mut ch, 0, 400);
        // Write: ACT 0, CASW 12, data 16..20; read CAS >= 20+tCDLR=25,
        // data >= 25+12+4=41... must be well after a no-turnaround path (32).
        assert!(done >= 40, "read completed at {done}, turnaround violated");
    }

    #[test]
    fn queue_full_rejects() {
        let mut ch = DramChannel::new(
            DramConfig {
                sched_queue: 2,
                ..cfg()
            },
            0,
        );
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 6), 0).unwrap();
        assert!(!ch.can_accept());
        assert!(ch.push(load(2, 12), 0).is_err());
    }

    #[test]
    fn response_queue_backpressure_blocks_reads() {
        let mut ch = DramChannel::new(
            DramConfig {
                response_queue: 1,
                ..cfg()
            },
            0,
        );
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 6), 0).unwrap();
        // Never pop responses: the second read must stay queued.
        for now in 0..500 {
            ch.cycle(now);
        }
        assert_eq!(ch.queue_len(), 1, "second read must wait for resp space");
        // Draining the response releases it.
        assert!(ch.pop_response().is_some());
        let (_, r) = run_until_response(&mut ch, 500, 200);
        assert_eq!(r.id, 1);
    }

    #[test]
    fn efficiency_increases_with_row_locality() {
        // Streaming same-row reads vs. alternating row conflicts. The
        // conflict channel gets a 2-entry scheduler queue so FR-FCFS cannot
        // batch same-row requests out of order (with the full 16-entry pool
        // it very effectively does — which is the point of FR-FCFS).
        let mut streaming = DramChannel::new(cfg(), 0);
        let mut conflict = DramChannel::new(
            DramConfig {
                sched_queue: 2,
                ..cfg()
            },
            0,
        );
        let mut now_s = 0;
        let mut now_c = 0;
        for i in 0..64u64 {
            // Stream: consecutive columns of one row.
            while !streaming.can_accept() {
                streaming.cycle(now_s);
                streaming.pop_response();
                now_s += 1;
            }
            streaming.push(load(i, i * 6), now_s).unwrap();
            // Conflict: bounce between two rows of bank 0.
            while !conflict.can_accept() {
                conflict.cycle(now_c);
                conflict.pop_response();
                now_c += 1;
            }
            let line = if i % 2 == 0 {
                i / 2 * 6
            } else {
                (512 + i / 2) * 6
            };
            conflict.push(load(i, line), now_c).unwrap();
        }
        for _ in 0..4000 {
            streaming.cycle(now_s);
            streaming.pop_response();
            now_s += 1;
            conflict.cycle(now_c);
            conflict.pop_response();
            now_c += 1;
        }
        let es = streaming.stats().efficiency.ratio();
        let ec = conflict.stats().efficiency.ratio();
        assert!(es > ec, "streaming {es} must beat conflicts {ec}");
        assert!(es > 0.5, "streaming efficiency too low: {es}");
        assert!(ec < 0.4, "conflict efficiency too high: {ec}");
    }

    #[test]
    fn fr_fcfs_beats_fcfs_on_interleaved_rows() {
        // Requests alternating between two rows of one bank: FR-FCFS can
        // batch the row hits; strict FCFS pays a row cycle per request.
        let run = |policy: SchedPolicy| {
            let mut ch = DramChannel::new(DramConfig { policy, ..cfg() }, 0);
            let mut now = 0u64;
            let mut served = 0;
            for i in 0..24u64 {
                let line = if i % 2 == 0 {
                    (i / 2) * 6
                } else {
                    (512 + i / 2) * 6
                };
                while !ch.can_accept() {
                    ch.cycle(now);
                    now += 1;
                    if ch.pop_response().is_some() {
                        served += 1;
                    }
                }
                ch.push(load(i, line), now).unwrap();
            }
            while served < 24 && now < 100_000 {
                ch.cycle(now);
                now += 1;
                if ch.pop_response().is_some() {
                    served += 1;
                }
            }
            assert_eq!(served, 24, "{policy:?} failed to serve all");
            now
        };
        let t_frfcfs = run(SchedPolicy::FrFcfs);
        let t_fcfs = run(SchedPolicy::Fcfs);
        assert!(
            t_frfcfs < t_fcfs,
            "FR-FCFS ({t_frfcfs}) must beat FCFS ({t_fcfs}) on row-interleaved traffic"
        );
    }

    #[test]
    fn fcfs_still_serves_everything() {
        let mut ch = DramChannel::new(
            DramConfig {
                policy: SchedPolicy::Fcfs,
                ..cfg()
            },
            0,
        );
        ch.push(load(0, 0), 0).unwrap();
        ch.push(load(1, 512 * 6), 0).unwrap(); // row conflict
        ch.push(store(2, 6), 0).unwrap();
        let mut got = 0;
        for now in 0..5000 {
            ch.cycle(now);
            if ch.pop_response().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 2);
        assert!(ch.is_idle());
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut ch = DramChannel::new(cfg(), 0);
        assert!(ch.is_idle());
        ch.push(load(0, 0), 0).unwrap();
        assert!(!ch.is_idle());
        let _ = run_until_response(&mut ch, 0, 200);
        assert!(ch.is_idle());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_channel_id_panics() {
        let _ = DramChannel::new(cfg(), 6);
    }
}
