//! One bank of the shared L2, with its access queue, response queue and
//! data port — the structure between the crossbar and the DRAM scheduler
//! in Fig. 2 of the paper.

use gmh_cache::{
    AccessResult, BlockReason, Cache, CacheConfig, DataPort, L2StallCounters, L2StallKind,
    WriteOutcome,
};
use gmh_types::trace::{Level, TraceEventKind, TraceSink};
use gmh_types::{
    BoundedQueue, Component, Cycle, EventBound, FetchId, MemFetch, OccupancyHistogram, Picos, Tick,
};

/// One L2 bank: cache slice + queues + port + stall attribution.
#[derive(Clone, Debug)]
pub struct L2Bank {
    cache: Cache,
    access_queue: BoundedQueue<MemFetch>,
    /// Responses waiting to inject into the reply network, with the L2
    /// cycle at which the lookup pipeline releases them.
    response_queue: BoundedQueue<(Cycle, MemFetch)>,
    port: DataPort,
    latency: Cycle,
    stalls: L2StallCounters,
    now: Cycle,
    /// Reply-network credit for this bank, set by the run loop each icnt
    /// tick before the bank sweep runs (pull model): `false` means
    /// the reply crossbar would refuse this bank's ready response this
    /// cycle. Consulted by `stall_cause` purely for *attribution* — a
    /// cycle that is already stalled for a reply-path-coupled reason is
    /// charged to bp-ICNT instead of a downstream cause; withheld credit
    /// never blocks progress by itself (the response queue exists to
    /// absorb transient refusals).
    reply_credit: bool,
}

impl L2Bank {
    /// Builds a bank from its cache config, queue depths, port width and
    /// lookup latency (in L2 cycles).
    pub fn new(
        cache_cfg: CacheConfig,
        access_queue: usize,
        response_queue: usize,
        port_bytes: u32,
        latency: Cycle,
    ) -> Self {
        L2Bank {
            cache: Cache::new(cache_cfg),
            access_queue: BoundedQueue::new(access_queue),
            response_queue: BoundedQueue::new(response_queue),
            port: DataPort::new(port_bytes),
            latency,
            stalls: L2StallCounters::default(),
            now: 0,
            reply_credit: true,
        }
    }

    /// The underlying cache (hit/miss statistics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Per-kind stall counters (Fig. 8).
    pub fn stalls(&self) -> &L2StallCounters {
        &self.stalls
    }

    /// Occupancy histogram of the access queue (Fig. 4).
    pub fn access_occupancy(&self) -> &OccupancyHistogram {
        self.access_queue.occupancy()
    }

    /// Requests waiting in the access queue (telemetry).
    pub fn access_queue_len(&self) -> usize {
        self.access_queue.len()
    }

    /// Misses waiting to be accepted by DRAM (telemetry).
    pub fn miss_queue_len(&self) -> usize {
        self.cache.miss_queue_len()
    }

    /// Responses waiting to inject into the reply network (telemetry).
    pub fn response_queue_len(&self) -> usize {
        self.response_queue.len()
    }

    /// Whether the access queue can take another request from the crossbar.
    pub fn can_accept(&self) -> bool {
        !self.access_queue.is_full()
    }

    /// Enqueues a request ejected from the crossbar.
    ///
    /// # Errors
    ///
    /// Returns the fetch back if the access queue is full (it stays in the
    /// crossbar ejection buffer, backing the network up).
    pub fn push_access(&mut self, fetch: MemFetch) -> Result<(), MemFetch> {
        self.access_queue.push(fetch)
    }

    /// Head of the miss queue (next request toward DRAM).
    pub fn miss_queue_front(&self) -> Option<&MemFetch> {
        self.cache.miss_queue_front()
    }

    /// Pops the miss queue once DRAM accepted the head.
    pub fn pop_miss(&mut self) -> Option<MemFetch> {
        self.cache.pop_miss()
    }

    /// The response ready to inject into the reply network, if its lookup
    /// pipeline delay has elapsed.
    pub fn response_ready(&self) -> Option<&MemFetch> {
        match self.response_queue.front() {
            Some((ready, f)) if *ready <= self.now => Some(f),
            _ => None,
        }
    }

    /// The response that will be ready for injection on the *next* bank
    /// cycle (`ready <= now + 1`, matching the `now` increment at the top
    /// of [`L2Bank::cycle_traced`]). The run loop uses this to compute the
    /// reply-network credit before the bank sweep.
    pub fn response_ready_next(&self) -> Option<&MemFetch> {
        match self.response_queue.front() {
            Some((ready, f)) if *ready <= self.now + 1 => Some(f),
            _ => None,
        }
    }

    /// Sets the reply-network credit consulted by `stall_cause` (pull
    /// model, attribution only). Called by the run loop every icnt tick,
    /// before the bank sweep runs.
    pub fn set_reply_credit(&mut self, credit: bool) {
        self.reply_credit = credit;
    }

    /// Pops the ready response (after the crossbar accepted it).
    pub fn pop_response(&mut self) -> Option<MemFetch> {
        match self.response_queue.front() {
            Some((ready, _)) if *ready <= self.now => self.response_queue.pop().map(|(_, f)| f),
            _ => None,
        }
    }

    /// Free slots in the response queue.
    pub fn response_free(&self) -> usize {
        self.response_queue.free()
    }

    /// Response slots a fill for `line` will need: the traveling fetch plus
    /// every merged waiter. The sim checks this before popping a DRAM
    /// response; shortage holds the fill in the channel (back-pressure).
    pub fn fill_response_needs(&self, line: gmh_types::LineAddr) -> usize {
        1 + self.cache.mshr_waiters(line)
    }

    /// Delivers a DRAM fill: the reserved line becomes valid, the port is
    /// occupied by the fill, and the traveling fetch plus all merged
    /// waiters are queued as responses.
    ///
    /// The caller must have verified `response_free() > waiter count`
    /// before popping the DRAM response (otherwise back-pressure holds it
    /// in the channel).
    pub fn deliver_fill(&mut self, mut fetch: MemFetch, now_ps: impl Into<Picos>) {
        let now_ps = now_ps.into();
        fetch.serviced_by = gmh_types::fetch::ServicedBy::Dram;
        fetch.time.dram_done = now_ps;
        let waiters = self.cache.fill(fetch.line, now_ps);
        // The fill transfer occupies the data port (best effort: if the
        // port is busy this cycle the fill shares it next cycle; fills are
        // not re-queued).
        let _ = self.port.try_occupy(gmh_types::LINE_SIZE, self.now);
        let ready = self.now + 1;
        for mut w in waiters {
            w.serviced_by = gmh_types::fetch::ServicedBy::Dram;
            if w.kind.wants_response() {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: fill() is only called with response space reserved for \
                        every waiter (see Sim::drain_dram)."
                )]
                self.response_queue
                    .push((ready, w))
                    .expect("caller reserved response space");
            }
        }
        if fetch.kind.wants_response() {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the caller reserved response space for the filling fetch \
                    itself before invoking fill()."
            )]
            self.response_queue
                .push((ready, fetch))
                .expect("caller reserved response space");
        }
    }

    /// Conservative idle probe for the fast-forward scheduler: `Busy`
    /// unless the bank provably does nothing strictly before its own cycle
    /// `bound`. Quiescence requires an empty access queue (a queued head is
    /// processed — or charged a stall — every cycle) and an empty miss
    /// queue (the DRAM scheduler could accept its head on any dram tick);
    /// a parked response is inert until its pipeline-release cycle.
    /// Outstanding MSHR fills are travelling inside the DRAM channel, whose
    /// own probe covers them.
    pub fn next_event_bound(&self) -> EventBound {
        if !self.access_queue.is_empty() || self.cache.miss_queue_len() != 0 {
            return EventBound::Busy;
        }
        match self.response_queue.front() {
            // Poppable on the next icnt tick (`ready <= now'` with
            // `now' = now + 1`): the reply network may inject it.
            Some((ready, _)) if *ready <= self.now + 1 => EventBound::Busy,
            Some((ready, _)) => EventBound::quiet_until(*ready),
            None => EventBound::quiet_external(),
        }
    }

    /// Drops the cache's standing block (see
    /// [`Cache::forget_standing_block`]); results never depend on it.
    #[doc(hidden)]
    pub fn forget_standing_block(&mut self) {
        self.cache.forget_standing_block();
    }

    /// Whether all bank state has drained.
    pub fn is_idle(&self) -> bool {
        self.access_queue.is_empty()
            && self.response_queue.is_empty()
            && self.cache.miss_queue_len() == 0
            && self.cache.mshr_used() == 0
    }

    /// Advances the bank one L2 (icnt-domain) cycle: samples the access
    /// queue and processes its head.
    pub fn cycle(&mut self, now_ps: impl Into<Picos>) {
        self.cycle_traced(now_ps.into(), &mut TraceSink::disabled());
    }

    /// Advances the bank one cycle, recording lifecycle events for sampled
    /// fetches into `trace` (see [`gmh_types::trace`]).
    ///
    /// A hit records only `DequeuedAt(L2)` here; `ServicedAt(L2)` is
    /// recorded by the owner when the response leaves the bank, so the L2
    /// service time covers the lookup pipeline *and* response-queue
    /// residency. A miss entering the miss queue records `EnqueuedAt(Dram)`:
    /// per the paper's bp-DRAM semantics the miss queue is the head of the
    /// DRAM-side queueing.
    pub fn cycle_traced(&mut self, now_ps: Picos, trace: &mut TraceSink) {
        self.now += 1;
        self.access_queue.sample_occupancy();

        let Some(head) = self.access_queue.front() else {
            return;
        };
        let is_write = head.kind.is_write();
        let line = head.line;
        // Captured before the head moves into the cache: who it is, and the
        // trace sampler's verdict that travels with it.
        let head_key = (head.traced.0, head.core_id, head.id);

        if is_write {
            // Write path: needs the data port to absorb the line.
            if let Some(kind) = self.stall_cause(!self.port.is_free(self.now), false, None) {
                self.stalls.record(kind);
                return;
            }
            match self.cache.admit_write(line) {
                Ok(admitted) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: front() returned Some above."
                    )]
                    let fetch = self.access_queue.pop().expect("head exists");
                    let done = self.cache.commit_write(admitted, fetch, now_ps);
                    debug_assert_eq!(done, WriteOutcome::Absorbed, "L2 is write-back");
                    self.port.try_occupy(gmh_types::LINE_SIZE, self.now);
                }
                Err(reason) => self.record_block(reason, head_key, now_ps, trace),
            }
            return;
        }

        // Read path. The head leaves the access queue only once the cache
        // admits it; a refusal (replayed from the cache's standing block
        // while nothing changed) is charged and the queue stays as it is.
        let admitted = match self.cache.admit_read(line) {
            Ok(admitted) => admitted,
            Err(reason) => return self.record_block(reason, head_key, now_ps, trace),
        };
        // Hit-side resources (port, response queue) are checked before any
        // state changes.
        if admitted.is_hit() {
            if let Some(kind) = self.stall_cause(!self.port.is_free(self.now), true, None) {
                self.stalls.record(kind);
                self.record_stall(kind, head_key, now_ps, trace);
                return;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: front() returned Some above."
        )]
        let fetch = self.access_queue.pop().expect("head exists");
        let (traced, head_core, head_id) = head_key;
        let mut record = |kind| trace.record(traced, head_core, head_id, now_ps, kind);
        record(TraceEventKind::DequeuedAt(Level::L2));
        match self.cache.commit_read(admitted, fetch, now_ps) {
            (AccessResult::Hit, Some(mut fetch)) => {
                fetch.serviced_by = gmh_types::fetch::ServicedBy::L2;
                fetch.time.l2_done = now_ps;
                self.port.try_occupy(gmh_types::LINE_SIZE, self.now);
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: stall_cause checked response_queue fullness."
                )]
                self.response_queue
                    .push((self.now + self.latency, fetch))
                    .expect("fullness checked");
            }
            (AccessResult::MissIssued, _) => record(TraceEventKind::EnqueuedAt(Level::Dram)),
            (AccessResult::MissMerged, _) => record(TraceEventKind::MshrMerged(Level::L2)),
            other => unreachable!("unexpected L2 read outcome: {other:?}"),
        }
    }

    fn record_block(
        &mut self,
        reason: BlockReason,
        head: (bool, usize, FetchId),
        now_ps: Picos,
        trace: &mut TraceSink,
    ) {
        if let Some(kind) = self.stall_cause(false, false, Some(reason)) {
            self.stalls.record(kind);
            self.record_stall(kind, head, now_ps, trace);
        }
    }

    /// Mirrors an attributed stall cycle into the trace for the blocked
    /// head-of-queue fetch `(traced, core, id)` (no-op unless that fetch
    /// is sampled).
    fn record_stall(
        &self,
        kind: L2StallKind,
        (traced, core, fetch): (bool, usize, FetchId),
        now_ps: Picos,
        trace: &mut TraceSink,
    ) {
        trace.record(
            traced,
            core,
            fetch,
            now_ps,
            TraceEventKind::StalledAt(Level::L2, kind.into()),
        );
    }

    /// Classifies a stalled head-of-queue access into the single cause the
    /// cycle is charged to. This is the one place `L2StallKind` variants
    /// are produced, and the branch order *is* the paper's priority chain
    /// (Fig. 8): bp-ICNT > port > cache > mshr > bp-DRAM — pinned by the
    /// precedence tests below (`reply_backpressure_outranks_*`,
    /// `full_response_queue_outranks_*`, `withheld_credit_*`).
    ///
    /// `port_busy` is the pre-checked data-port state; `hit_needs_reply_slot`
    /// marks the hit path, which needs a response-queue slot up front;
    /// `blocked` carries the cache's verdict after an access was attempted.
    fn stall_cause(
        &self,
        port_busy: bool,
        hit_needs_reply_slot: bool,
        blocked: Option<BlockReason>,
    ) -> Option<L2StallKind> {
        let reply_blocked = self.response_queue.is_full() || !self.reply_credit;
        // bp-ICNT: the reply network is not draining — either the response
        // queue is full, or the reply crossbar withheld this bank's
        // injection credit this cycle (pull model, set by the run loop).
        // On the hit path that is a missing response slot, or a busy port
        // while the crossbar is simultaneously refusing this bank (the
        // higher-priority cause wins, per the paper's chain); on the miss
        // path a full miss queue while replies back up means DRAM fills
        // are being held in the channel (the sim reserves response slots
        // before accepting a fill), so the root cause is the reply network,
        // whatever else is also busy. The credit only *reclassifies* cycles
        // that are already stalled — withheld credit with a free port and
        // response space lets the hit proceed (the queue absorbs transient
        // refusals), so timing is independent of attribution.
        if (hit_needs_reply_slot
            && (self.response_queue.is_full() || (port_busy && !self.reply_credit)))
            || (reply_blocked && matches!(blocked, Some(BlockReason::MissQueueFull)))
        {
            return Some(L2StallKind::BpIcnt);
        }
        if port_busy {
            return Some(L2StallKind::Port);
        }
        match blocked {
            Some(BlockReason::NoReplaceableLine) => Some(L2StallKind::Cache),
            Some(BlockReason::MshrFull | BlockReason::MshrMergeFull) => Some(L2StallKind::Mshr),
            // Miss queue full with replies flowing: DRAM is the bottleneck.
            Some(BlockReason::MissQueueFull) => Some(L2StallKind::BpDram),
            None => None,
        }
    }
}

impl Component for L2Bank {
    /// Never active: the probe is three O(1) queue checks, no dearer than
    /// an activity check.
    #[inline]
    fn tick(&mut self, cx: &mut Tick<'_>) -> bool {
        self.cycle_traced(cx.now_ps, cx.trace);
        false
    }

    fn next_event_bound(&self) -> EventBound {
        L2Bank::next_event_bound(self)
    }

    /// Advances the clock. (The per-cycle occupancy sample is a no-op: the
    /// access queue is empty, outside the histogram's usage lifetime.)
    fn skip_cycles(&mut self, n: u64) {
        debug_assert!(!matches!(self.next_event_bound(), EventBound::Busy));
        self.now += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::{AccessKind, LineAddr};

    fn bank() -> L2Bank {
        L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 32, 4)
    }

    fn load(id: u64, line: u64) -> MemFetch {
        // Lines multiple of 12 route to bank 0 under 12-bank interleave.
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(line * 12), 0)
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Store, LineAddr::new(line * 12), 0)
    }

    #[test]
    fn read_miss_reaches_miss_queue() {
        let mut b = bank();
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        assert!(b.miss_queue_front().is_some());
        assert!(b.response_ready().is_none());
    }

    #[test]
    fn fill_then_hit_produces_response_after_latency() {
        let mut b = bank();
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let miss = b.pop_miss().unwrap();
        b.deliver_fill(miss, 100);
        // Response appears next cycle (fill path).
        b.cycle(200);
        let r = b.pop_response().expect("fill response ready");
        assert_eq!(r.id, 0);
        assert_eq!(r.serviced_by, gmh_types::fetch::ServicedBy::Dram);
        // Second access to the same line: hit, released only after the
        // lookup latency (plus any residual port occupancy from the fill).
        b.push_access(load(1, 1)).unwrap();
        b.cycle(300);
        assert!(b.response_ready().is_none(), "lookup pipeline delay");
        let mut waited = 0;
        let r = loop {
            b.cycle(300 + waited);
            if let Some(r) = b.pop_response() {
                break r;
            }
            waited += 1;
            assert!(waited < 16, "hit response never released");
        };
        assert!(waited >= 3, "response released before the lookup latency");
        assert_eq!(r.serviced_by, gmh_types::fetch::ServicedBy::L2);
    }

    #[test]
    fn response_queue_full_stalls_with_bp_icnt() {
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 1, 128, 0);
        // Warm a line.
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let miss = b.pop_miss().unwrap();
        b.deliver_fill(miss, 0);
        b.cycle(0);
        // The fill response occupies the single response slot; never drain.
        b.push_access(load(1, 1)).unwrap();
        for _ in 0..5 {
            b.cycle(0);
        }
        assert!(
            b.stalls().get(L2StallKind::BpIcnt) >= 4,
            "bp-ICNT = {}",
            b.stalls().get(L2StallKind::BpIcnt)
        );
    }

    #[test]
    fn narrow_port_stalls_back_to_back_hits() {
        // 32 B port: each hit occupies 4 cycles; two hits contend.
        let mut b = bank();
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let miss = b.pop_miss().unwrap();
        b.deliver_fill(miss, 0);
        b.cycle(0);
        b.pop_response();
        b.push_access(load(1, 1)).unwrap();
        b.push_access(load(2, 1)).unwrap();
        for _ in 0..8 {
            b.cycle(0);
        }
        assert!(
            b.stalls().get(L2StallKind::Port) >= 2,
            "port stalls = {}",
            b.stalls().get(L2StallKind::Port)
        );
    }

    #[test]
    fn wide_port_does_not_stall_hits() {
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 128, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let miss = b.pop_miss().unwrap();
        b.deliver_fill(miss, 0);
        b.cycle(0);
        b.pop_response();
        b.push_access(load(1, 1)).unwrap();
        b.push_access(load(2, 1)).unwrap();
        for _ in 0..4 {
            b.cycle(0);
        }
        assert_eq!(b.stalls().get(L2StallKind::Port), 0);
    }

    #[test]
    fn miss_queue_full_stalls_with_bp_dram() {
        let mut cfg = CacheConfig::fermi_l2_bank();
        cfg.miss_queue_len = 1;
        let mut b = L2Bank::new(cfg, 8, 8, 32, 0);
        b.push_access(load(0, 1)).unwrap();
        b.push_access(load(1, 2)).unwrap();
        b.push_access(load(2, 3)).unwrap();
        for _ in 0..4 {
            b.cycle(0); // never drain the miss queue: DRAM "not accepting"
        }
        assert!(
            b.stalls().get(L2StallKind::BpDram) >= 2,
            "bp-DRAM = {}",
            b.stalls().get(L2StallKind::BpDram)
        );
    }

    #[test]
    fn stalls_attribute_at_most_one_cause_per_cycle() {
        // A heavily congested bank must never record more stall causes
        // than cycles elapsed (each cycle is attributed to exactly one
        // cause, or none when work proceeds).
        let mut cfg = CacheConfig::fermi_l2_bank();
        cfg.miss_queue_len = 1;
        let mut b = L2Bank::new(cfg, 8, 1, 32, 0);
        for i in 0..6 {
            b.push_access(load(i, i + 1)).unwrap();
        }
        let cycles = 24;
        for _ in 0..cycles {
            b.cycle(0); // never drain miss or response queues
        }
        assert!(
            b.stalls().total() <= cycles,
            "stalls {} > cycles {cycles}",
            b.stalls().total()
        );
        assert!(b.stalls().total() > 0, "congestion must be attributed");
    }

    #[test]
    fn reply_backpressure_outranks_bp_dram_on_full_miss_queue() {
        // Both the miss queue and the response queue are full: the miss
        // queue is full *because* fills cannot deliver into the full
        // response queue, so the paper's priority order attributes the
        // stall to the reply network (bp-ICNT), not DRAM.
        let mut cfg = CacheConfig::fermi_l2_bank();
        cfg.miss_queue_len = 1;
        let mut b = L2Bank::new(cfg, 8, 1, 128, 0);
        // Warm a line and leave its response stuck in the 1-deep queue.
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let m = b.pop_miss().unwrap();
        b.deliver_fill(m, 0);
        b.cycle(0);
        assert_eq!(b.response_free(), 0);
        // Fill the miss queue, then block a further miss on it.
        b.push_access(load(1, 2)).unwrap();
        b.cycle(0);
        b.push_access(load(2, 3)).unwrap();
        for _ in 0..4 {
            b.cycle(0);
        }
        assert!(
            b.stalls().get(L2StallKind::BpIcnt) >= 3,
            "bp-ICNT = {}",
            b.stalls().get(L2StallKind::BpIcnt)
        );
        assert_eq!(
            b.stalls().get(L2StallKind::BpDram),
            0,
            "reply back-pressure must not be attributed to DRAM"
        );
    }

    #[test]
    fn full_response_queue_outranks_busy_port_on_hits() {
        // A hit blocked by both a busy port and a full response queue is
        // attributed to bp-ICNT (paper priority), not the port.
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 1, 32, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let m = b.pop_miss().unwrap();
        b.deliver_fill(m, 0); // occupies the 32 B port for 4 cycles
        b.push_access(load(1, 1)).unwrap(); // hit behind the congestion
        for _ in 0..3 {
            b.cycle(0);
        }
        assert!(
            b.stalls().get(L2StallKind::BpIcnt) >= 2,
            "bp-ICNT = {}",
            b.stalls().get(L2StallKind::BpIcnt)
        );
        assert_eq!(b.stalls().get(L2StallKind::Port), 0);
    }

    #[test]
    fn withheld_credit_reclassifies_port_stalls_as_bp_icnt() {
        // Pull model: a hit stalled on a busy port while the reply
        // crossbar is simultaneously refusing this bank is charged to the
        // higher-priority bp-ICNT, not the port.
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 32, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let m = b.pop_miss().unwrap();
        b.deliver_fill(m, 0); // occupies the 32 B port for 4 cycles
        b.push_access(load(1, 1)).unwrap(); // hit behind the port occupancy
        b.set_reply_credit(false);
        for _ in 0..3 {
            b.cycle(0);
        }
        assert!(
            b.stalls().get(L2StallKind::BpIcnt) >= 2,
            "bp-ICNT = {}",
            b.stalls().get(L2StallKind::BpIcnt)
        );
        assert_eq!(
            b.stalls().get(L2StallKind::Port),
            0,
            "reply refusal outranks the port"
        );
    }

    #[test]
    fn withheld_credit_never_blocks_progress() {
        // Attribution only: with a free port and response space, a hit
        // proceeds even while the crossbar withholds injection credit —
        // the response queue exists to absorb transient refusals.
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 128, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        let m = b.pop_miss().unwrap();
        b.deliver_fill(m, 0);
        b.cycle(0);
        b.pop_response();
        b.push_access(load(1, 1)).unwrap();
        b.set_reply_credit(false);
        b.cycle(0);
        assert_eq!(b.stalls().total(), 0, "no stall was recorded");
        assert!(
            b.access_queue_len() == 0,
            "hit processed despite withheld credit"
        );
    }

    #[test]
    fn withheld_credit_elevates_full_miss_queue_to_bp_icnt() {
        // A miss rejected by a full miss queue while the reply crossbar
        // refuses this bank's injections is reply back-pressure (bp-ICNT),
        // not DRAM — even though the response queue still has slack.
        let mut cfg = CacheConfig::fermi_l2_bank();
        cfg.miss_queue_len = 1;
        let mut b = L2Bank::new(cfg, 8, 8, 128, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0); // fills the 1-deep miss queue
        b.push_access(load(1, 2)).unwrap();
        b.set_reply_credit(false);
        for _ in 0..4 {
            b.cycle(0); // never drain the miss queue
        }
        assert!(
            b.stalls().get(L2StallKind::BpIcnt) >= 3,
            "bp-ICNT = {}",
            b.stalls().get(L2StallKind::BpIcnt)
        );
        assert_eq!(
            b.stalls().get(L2StallKind::BpDram),
            0,
            "reply refusal outranks bp-DRAM"
        );
    }

    #[test]
    fn withheld_credit_does_not_stall_misses_or_writes() {
        // Misses and writes need no reply slot, so withheld credit must
        // not block them (and must not be attributed to bp-ICNT).
        let mut b = bank();
        b.set_reply_credit(false);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        assert!(b.miss_queue_front().is_some(), "miss proceeds to DRAM");
        assert_eq!(b.stalls().get(L2StallKind::BpIcnt), 0);
        let mut b = bank();
        b.set_reply_credit(false);
        b.push_access(store(0, 1)).unwrap();
        b.cycle(0);
        assert_eq!(b.cache().stats().writes, 1, "store absorbed");
        assert_eq!(b.stalls().get(L2StallKind::BpIcnt), 0);
    }

    #[test]
    fn writes_are_absorbed_and_occupy_port() {
        let mut b = bank();
        b.push_access(store(0, 1)).unwrap();
        b.push_access(store(1, 2)).unwrap();
        b.cycle(0);
        assert_eq!(b.cache().stats().writes, 1);
        // Port busy for 4 cycles: second store stalls.
        b.cycle(0);
        assert!(b.stalls().get(L2StallKind::Port) >= 1);
        assert!(b.miss_queue_front().is_none(), "no write-through traffic");
    }

    #[test]
    fn merged_waiters_all_get_responses() {
        let mut b = bank();
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        b.push_access(load(1, 1)).unwrap(); // merges into the MSHR
        b.cycle(0);
        assert_eq!(b.cache().stats().read_merges, 1);
        let miss = b.pop_miss().unwrap();
        assert!(b.pop_miss().is_none(), "merge sends no duplicate");
        b.deliver_fill(miss, 0);
        b.cycle(0);
        assert!(b.pop_response().is_some());
        assert!(b.pop_response().is_some(), "waiter responds too");
    }

    #[test]
    fn fill_response_needs_counts_waiters() {
        let mut b = bank();
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        assert_eq!(b.fill_response_needs(LineAddr::new(12)), 1);
        b.push_access(load(1, 1)).unwrap();
        b.cycle(0); // merges
        b.push_access(load(2, 1)).unwrap();
        b.cycle(0); // merges again
        assert_eq!(
            b.fill_response_needs(LineAddr::new(12)),
            3,
            "traveling fetch + two waiters"
        );
    }

    #[test]
    fn inst_fetch_reads_share_the_read_path() {
        let mut b = bank();
        let ifetch = MemFetch::new(9, 3, 7, AccessKind::InstFetch, LineAddr::new(24), 0);
        b.push_access(ifetch).unwrap();
        b.cycle(0);
        let miss = b.pop_miss().expect("ifetch misses to DRAM");
        assert_eq!(miss.kind, AccessKind::InstFetch);
        b.deliver_fill(miss, 0);
        b.cycle(0);
        let resp = b.pop_response().expect("ifetch gets a response");
        assert_eq!(resp.kind, AccessKind::InstFetch);
        assert_eq!(resp.core_id, 3, "response routes back to the fetching core");
    }

    #[test]
    fn writeback_arrivals_are_absorbed_as_writes() {
        // A write-back evicted from some other bank level never reaches an
        // L2 access queue in the real topology, but stores do; verify the
        // write path counts port occupancy.
        let mut b = bank();
        b.push_access(store(0, 1)).unwrap();
        b.cycle(0);
        assert_eq!(b.cache().stats().writes, 1);
        assert!(b.miss_queue_front().is_none());
    }

    #[test]
    fn responses_preserve_order_per_bank() {
        let mut b = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 128, 0);
        b.push_access(load(0, 1)).unwrap();
        b.cycle(0);
        b.push_access(load(1, 2)).unwrap();
        b.cycle(0);
        let m0 = b.pop_miss().unwrap();
        let m1 = b.pop_miss().unwrap();
        b.deliver_fill(m0, 0);
        b.deliver_fill(m1, 0);
        b.cycle(0);
        assert_eq!(b.pop_response().unwrap().id, 0);
        assert_eq!(b.pop_response().unwrap().id, 1);
    }

    #[test]
    fn is_idle_tracks_state() {
        let mut b = bank();
        assert!(b.is_idle());
        b.push_access(load(0, 1)).unwrap();
        assert!(!b.is_idle());
        b.cycle(0);
        assert!(!b.is_idle(), "outstanding miss keeps the bank busy");
        let miss = b.pop_miss().unwrap();
        b.deliver_fill(miss, 0);
        b.cycle(0);
        b.pop_response();
        assert!(b.is_idle());
    }
}
