//! One direction of the crossbar: input-queued flit switching.
//!
//! Each source node owns a bounded injection buffer (measured in flits).
//! Every cycle, each output port grabs one flit from one eligible input
//! (round-robin among inputs, head-of-line packet only), and each input may
//! send at most one flit. A packet starts transferring only when its
//! destination's ejection buffer has a free (reservable) slot, so full
//! ejection buffers back-pressure through the switch to the injection
//! buffers — and from there to the L1 miss queues / L2 response queues.
//!
//! The arbiter works on port bit sets: one `u64` word holds a flag per
//! source, so a side has at most [`MAX_PORTS`] ports.

use gmh_types::queue::BoundedQueue;
use gmh_types::{Component, Counter, Cycle, EventBound, MemFetch, Scratch, Tick};

/// Most ports a [`Network`] side can have: the arbiter keeps one bit per
/// source (and per destination) in a `u64`.
pub const MAX_PORTS: usize = 64;

#[derive(Clone, Debug)]
struct Packet {
    fetch: MemFetch,
    dst: usize,
    flits_total: u32,
    flits_sent: u32,
    ready_at: Cycle,
}

/// The injection buffers' head packets as the arbiter reads them. Derived
/// state: every entry is a function of its buffer's front
/// ([`Network::load_head`]), kept current by `inject` and by the grant that
/// completes a packet.
#[derive(Clone, Debug)]
struct Heads {
    /// Bit `src`: source `src` has a buffered packet.
    present: u64,
    /// Bit `src`: the head has sent a flit, so it holds an ejection slot.
    reserved: u64,
    /// Per source: the head's destination (meaningful while present).
    dst: Vec<usize>,
    /// Per source: the head's router-exit cycle (meaningful while present).
    ready_at: Vec<Cycle>,
}

/// Traffic statistics for one network direction.
#[derive(Clone, Debug, Default)]
pub struct NetworkStats {
    /// Flits moved through the switch.
    pub flits: Counter,
    /// Packets delivered to ejection buffers.
    pub packets: Counter,
}

/// One direction of the crossbar (see module docs).
#[derive(Clone, Debug)]
pub struct Network {
    n_src: usize,
    n_dst: usize,
    flit_bytes: u32,
    input_capacity_flits: usize,
    router_latency: Cycle,
    /// Injection buffers. The packet-count bound (one packet is at least
    /// one flit) backs the real limit, which is the per-source flit count
    /// in `input_flits`.
    inputs: Vec<BoundedQueue<Packet>>,
    input_flits: Vec<usize>,
    /// Ejection buffers; a slot is reserved from a packet's first flit.
    outputs: Vec<BoundedQueue<MemFetch>>,
    output_capacity: usize,
    output_reserved: Vec<usize>,
    rr: Vec<usize>,
    output_speedup: usize,
    now: Cycle,
    stats: NetworkStats,
    /// The head index the arbiter reads instead of the buffers.
    heads: Scratch<Heads>,
    /// Per destination: the sources whose eligible head targets it this
    /// cycle. All zero between cycles.
    want: Scratch<Vec<u64>>,
    /// Total flits across all injection buffers (incremental mirror of
    /// `input_flits`, so telemetry reads are O(1)).
    buffered_total: usize,
    /// Total packets across all ejection buffers (incremental, O(1) reads).
    backlog_total: usize,
}

impl Network {
    /// Creates a network with `n_src` injection ports and `n_dst` ejection
    /// ports.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or capacity is zero, or a dimension exceeds
    /// [`MAX_PORTS`].
    pub fn new(
        n_src: usize,
        n_dst: usize,
        flit_bytes: u32,
        input_buffer_flits: usize,
        output_buffer_packets: usize,
        router_latency: Cycle,
    ) -> Self {
        Self::with_speedup(
            n_src,
            n_dst,
            flit_bytes,
            input_buffer_flits,
            output_buffer_packets,
            router_latency,
            1,
        )
    }

    /// Like [`Network::new`] with an explicit output speedup: each ejection
    /// port may accept up to `output_speedup` flits per cycle (from
    /// distinct inputs).
    ///
    /// # Panics
    ///
    /// Panics if any dimension, capacity or the speedup is zero, or a
    /// dimension exceeds [`MAX_PORTS`].
    pub fn with_speedup(
        n_src: usize,
        n_dst: usize,
        flit_bytes: u32,
        input_buffer_flits: usize,
        output_buffer_packets: usize,
        router_latency: Cycle,
        output_speedup: usize,
    ) -> Self {
        assert!(output_speedup > 0, "output speedup must be non-zero");
        assert!(
            n_src > 0 && n_dst > 0,
            "network dimensions must be non-zero"
        );
        assert!(
            n_src <= MAX_PORTS && n_dst <= MAX_PORTS,
            "a network side has at most {MAX_PORTS} ports"
        );
        assert!(flit_bytes > 0, "flit size must be non-zero");
        assert!(input_buffer_flits > 0, "input buffer must be non-zero");
        assert!(output_buffer_packets > 0, "output buffer must be non-zero");
        Network {
            n_src,
            n_dst,
            flit_bytes,
            input_capacity_flits: input_buffer_flits,
            router_latency,
            inputs: (0..n_src)
                .map(|_| BoundedQueue::new(input_buffer_flits))
                .collect(),
            input_flits: vec![0; n_src],
            outputs: (0..n_dst)
                .map(|_| BoundedQueue::new(output_buffer_packets))
                .collect(),
            output_capacity: output_buffer_packets,
            output_reserved: vec![0; n_dst],
            rr: vec![0; n_dst],
            output_speedup,
            now: 0,
            stats: NetworkStats::default(),
            heads: Scratch(Heads {
                present: 0,
                reserved: 0,
                dst: vec![0; n_src],
                ready_at: vec![0; n_src],
            }),
            want: Scratch(vec![0; n_dst]),
            buffered_total: 0,
            backlog_total: 0,
        }
    }

    /// Number of injection (source) ports.
    pub fn n_src(&self) -> usize {
        self.n_src
    }

    /// Number of ejection (destination) ports.
    pub fn n_dst(&self) -> usize {
        self.n_dst
    }

    /// Flit size in bytes.
    pub fn flit_bytes(&self) -> u32 {
        self.flit_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Flits a `bytes`-sized packet occupies on this network.
    pub fn flits_for(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.flit_bytes).max(1)
    }

    /// Whether source `src` has room for a packet of `bytes`.
    pub fn can_inject(&self, src: usize, bytes: u32) -> bool {
        self.input_flits[src] + self.flits_for(bytes) as usize <= self.input_capacity_flits
    }

    /// Injects a packet of `bytes` from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns the fetch back when the injection buffer lacks space.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    pub fn inject(
        &mut self,
        src: usize,
        dst: usize,
        fetch: MemFetch,
        bytes: u32,
    ) -> Result<(), MemFetch> {
        assert!(src < self.n_src, "source out of range");
        assert!(dst < self.n_dst, "destination out of range");
        let flits = self.flits_for(bytes);
        if self.input_flits[src] + flits as usize > self.input_capacity_flits {
            return Err(fetch);
        }
        self.input_flits[src] += flits as usize;
        self.buffered_total += flits as usize;
        let packet = Packet {
            fetch,
            dst,
            flits_total: flits,
            flits_sent: 0,
            ready_at: self.now + self.router_latency,
        };
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the flit check above bounds buffered packets by buffered flits, \
                and capacity is input_buffer_flits packets."
        )]
        self.inputs[src]
            .push(packet)
            .expect("packet count bounded by flit accounting");
        if self.heads.0.present & (1 << src) == 0 {
            self.load_head(src);
        }
        Ok(())
    }

    /// Re-reads source `src`'s buffer front into the head index.
    fn load_head(&mut self, src: usize) {
        let bit = 1u64 << src;
        let heads = &mut self.heads.0;
        heads.present &= !bit;
        heads.reserved &= !bit;
        if let Some(head) = self.inputs[src].front() {
            heads.present |= bit;
            if head.flits_sent > 0 {
                heads.reserved |= bit;
            }
            heads.dst[src] = head.dst;
            heads.ready_at[src] = head.ready_at;
        }
    }

    /// Whether the head index agrees with every buffer front.
    fn heads_match_fronts(&self) -> bool {
        let heads = &self.heads.0;
        self.inputs.iter().enumerate().all(|(src, q)| {
            let bit = 1u64 << src;
            match q.front() {
                None => (heads.present | heads.reserved) & bit == 0,
                Some(head) => {
                    heads.present & bit != 0
                        && (heads.reserved & bit != 0) == (head.flits_sent > 0)
                        && heads.dst[src] == head.dst
                        && heads.ready_at[src] == head.ready_at
                }
            }
        })
    }

    /// Pops a delivered packet from ejection port `dst`.
    pub fn pop_eject(&mut self, dst: usize) -> Option<MemFetch> {
        let f = self.outputs[dst].pop();
        if f.is_some() {
            self.output_reserved[dst] -= 1;
            self.backlog_total -= 1;
        }
        f
    }

    /// Peeks the oldest delivered packet at `dst` without removing it.
    pub fn peek_eject(&self, dst: usize) -> Option<&MemFetch> {
        self.outputs[dst].front()
    }

    /// Flits currently buffered in all injection queues (telemetry; O(1)).
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(self.buffered_total, self.input_flits.iter().sum::<usize>());
        self.buffered_total
    }

    /// Delivered packets waiting in all ejection buffers (telemetry; O(1)).
    pub fn ejection_backlog(&self) -> usize {
        debug_assert_eq!(
            self.backlog_total,
            self.outputs.iter().map(|q| q.len()).sum::<usize>()
        );
        self.backlog_total
    }

    /// Whether any packets are buffered anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.heads.0.present == 0 && self.backlog_total == 0
    }

    /// Advances the switch by one cycle: each output port pulls at most one
    /// flit (`output_speedup` flits, from distinct inputs) and each input
    /// sends at most one flit.
    ///
    /// Returns whether any flit moved. A moving switch is trivially busy,
    /// so the fast-forward scheduler skips its idle probe on `true`; a
    /// `false` return (empty, or every head short of its router latency /
    /// blocked on ejection credits) is the cue to probe for a sleep window.
    ///
    /// Destinations are served in ascending order, each granting the first
    /// requester at or after its round-robin pointer. A source requests
    /// exactly one destination, so the requester sets are disjoint and the
    /// order destinations are served in cannot change any grant.
    pub fn cycle(&mut self) -> bool {
        self.now += 1;
        debug_assert!(self.heads_match_fronts());
        let mut pending = self.heads.0.present;
        let mut active = 0u64;
        while pending != 0 {
            let src = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if self.heads.0.ready_at[src] < self.now {
                let dst = self.heads.0.dst[src];
                self.want.0[dst] |= 1 << src;
                active |= 1 << dst;
            }
        }

        let mut any_moved = false;
        while active != 0 {
            let dst = active.trailing_zeros() as usize;
            active &= active - 1;
            let mut requesters = std::mem::take(&mut self.want.0[dst]);
            for _pass in 0..self.output_speedup {
                // A packet occupies an ejection slot from its first flit, so
                // a full output still takes flits of packets holding a slot.
                let eligible = if self.output_reserved[dst] >= self.output_capacity {
                    requesters & self.heads.0.reserved
                } else {
                    requesters
                };
                if eligible == 0 {
                    break;
                }
                let from_rr = eligible & (!0u64 << self.rr[dst]);
                let src = if from_rr != 0 { from_rr } else { eligible }.trailing_zeros() as usize;
                requesters &= !(1 << src);
                self.rr[dst] = (src + 1) % self.n_src;
                self.send_flit(src, dst);
                any_moved = true;
            }
        }
        any_moved
    }

    /// Moves one flit of source `src`'s head packet to output `dst`.
    fn send_flit(&mut self, src: usize, dst: usize) {
        let bit = 1u64 << src;
        if self.heads.0.reserved & bit == 0 {
            self.heads.0.reserved |= bit;
            self.output_reserved[dst] += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: only sources with a present head request an output."
        )]
        let head = self.inputs[src].front_mut().expect("granted head exists");
        head.flits_sent += 1;
        self.input_flits[src] -= 1;
        self.buffered_total -= 1;
        self.stats.flits.inc();
        if head.flits_sent == head.flits_total {
            #[expect(clippy::expect_used, reason = "INVARIANT: the head was just granted.")]
            let pkt = self.inputs[src].pop().expect("head exists");
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: an ejection slot was reserved with the packet's first flit \
                    (the full-output check in `cycle`)."
            )]
            self.outputs[dst]
                .push(pkt.fetch)
                .expect("ejection slot reserved at first flit");
            self.backlog_total += 1;
            self.stats.packets.inc();
            self.load_head(src);
        }
    }

    /// Conservative idle probe for the fast-forward scheduler, over this
    /// network's own cycle counter.
    ///
    /// Returns [`EventBound::Busy`] when a flit could move on the very next
    /// cycle (some head packet is past its router latency — even if it
    /// would then lose arbitration or find its ejection slot full, deciding
    /// that is this switch's job, not the prober's). Otherwise the switch
    /// provably moves nothing before the returned cycle: every buffered
    /// head still sits in its router pipeline (`ready_at >= now`), and a
    /// head becomes eligible only on the cycle *after* `ready_at`.
    ///
    /// Ejection backlogs do not factor in here: draining them is the run
    /// loop's per-cycle work, which the [`Component::tick`] activity answer
    /// accounts for.
    pub fn next_event_bound(&self) -> EventBound {
        debug_assert!(self.heads_match_fronts());
        let heads = &self.heads.0;
        if heads.present == 0 {
            return EventBound::quiet_external();
        }
        let mut earliest = Cycle::MAX;
        let mut pending = heads.present;
        while pending != 0 {
            let ready_at = heads.ready_at[pending.trailing_zeros() as usize];
            pending &= pending - 1;
            if ready_at <= self.now {
                return EventBound::Busy;
            }
            earliest = earliest.min(ready_at + 1);
        }
        EventBound::quiet_until(earliest)
    }
}

impl Component for Network {
    /// A moving switch is active, and so is one with a parked ejection
    /// backlog: the run loop re-offers the backlog every tick, which the
    /// switch's own bound does not cover.
    #[inline]
    fn tick(&mut self, _cx: &mut Tick<'_>) -> bool {
        self.cycle() || self.backlog_total > 0
    }

    fn next_event_bound(&self) -> EventBound {
        Network::next_event_bound(self)
    }

    /// Advances the clock: a quiet switch moves no flit and counts nothing.
    fn skip_cycles(&mut self, n: u64) {
        debug_assert!(!matches!(self.next_event_bound(), EventBound::Busy));
        self.now += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::rng::cases;
    use gmh_types::{AccessKind, LineAddr};

    fn load(id: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(id), 0)
    }

    fn net(n_src: usize, n_dst: usize, flit: u32) -> Network {
        Network::new(n_src, n_dst, flit, 16, 4, 0)
    }

    #[test]
    fn flit_count_rounds_up() {
        let n = net(1, 1, 32);
        assert_eq!(n.flits_for(8), 1);
        assert_eq!(n.flits_for(32), 1);
        assert_eq!(n.flits_for(33), 2);
        assert_eq!(n.flits_for(136), 5);
        assert_eq!(n.flits_for(0), 1, "zero-byte packets still need a flit");
    }

    #[test]
    fn single_flit_packet_delivers_in_one_cycle() {
        let mut n = net(1, 1, 32);
        n.inject(0, 0, load(1), 8).unwrap();
        n.cycle();
        assert_eq!(n.pop_eject(0).unwrap().id, 1);
    }

    #[test]
    fn multi_flit_packet_takes_flit_count_cycles() {
        let mut n = net(1, 1, 32);
        n.inject(0, 0, load(1), 136).unwrap(); // 5 flits
        for _ in 0..4 {
            n.cycle();
            assert!(n.peek_eject(0).is_none());
        }
        n.cycle();
        assert_eq!(n.pop_eject(0).unwrap().id, 1);
    }

    #[test]
    fn wider_flits_deliver_faster() {
        let mut narrow = net(1, 1, 32);
        let mut wide = net(1, 1, 128);
        narrow.inject(0, 0, load(1), 136).unwrap();
        wide.inject(0, 0, load(1), 136).unwrap();
        let mut t_narrow = 0;
        while narrow.peek_eject(0).is_none() {
            narrow.cycle();
            t_narrow += 1;
        }
        let mut t_wide = 0;
        while wide.peek_eject(0).is_none() {
            wide.cycle();
            t_wide += 1;
        }
        assert_eq!(t_narrow, 5);
        assert_eq!(t_wide, 2);
    }

    #[test]
    fn router_latency_delays_eligibility() {
        let mut n = Network::new(1, 1, 32, 16, 4, 3);
        n.inject(0, 0, load(1), 8).unwrap();
        for _ in 0..3 {
            n.cycle();
            assert!(n.peek_eject(0).is_none());
        }
        n.cycle();
        assert!(n.peek_eject(0).is_some());
    }

    #[test]
    fn injection_buffer_capacity_in_flits() {
        let mut n = Network::new(1, 1, 32, 6, 4, 0);
        n.inject(0, 0, load(1), 136).unwrap(); // 5 flits
        assert!(n.can_inject(0, 8)); // 1 more flit fits
        assert!(!n.can_inject(0, 136)); // 5 more do not
        assert!(n.inject(0, 0, load(2), 136).is_err());
    }

    #[test]
    fn output_contention_serializes() {
        // Two inputs race for one output with single-flit packets: 2 cycles.
        let mut n = net(2, 1, 32);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(1, 0, load(2), 8).unwrap();
        n.cycle();
        assert!(n.pop_eject(0).is_some());
        assert!(n.pop_eject(0).is_none());
        n.cycle();
        assert!(n.pop_eject(0).is_some());
    }

    #[test]
    fn round_robin_is_fair() {
        let mut n = net(2, 1, 32);
        // Keep both inputs loaded; deliveries must alternate.
        for i in 0..8 {
            n.inject(0, 0, load(i * 2), 8).unwrap();
            n.inject(1, 0, load(i * 2 + 1), 8).unwrap();
        }
        let mut from = Vec::new();
        for _ in 0..8 {
            n.cycle();
            if let Some(f) = n.pop_eject(0) {
                from.push(f.id % 2);
            }
        }
        let zeros = from.iter().filter(|&&s| s == 0).count();
        let ones = from.len() - zeros;
        assert!(zeros >= 3 && ones >= 3, "unfair: {from:?}");
    }

    #[test]
    fn distinct_outputs_transfer_in_parallel() {
        let mut n = net(2, 2, 32);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(1, 1, load(2), 8).unwrap();
        n.cycle();
        assert!(n.pop_eject(0).is_some());
        assert!(n.pop_eject(1).is_some());
    }

    #[test]
    fn one_flit_per_input_per_cycle() {
        // One input, two outputs: packets to both outputs, but the single
        // input link limits throughput to one flit per cycle — and FIFO
        // order means output 1's packet waits behind output 0's.
        let mut n = net(1, 2, 32);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(0, 1, load(2), 8).unwrap();
        n.cycle();
        assert!(n.pop_eject(0).is_some());
        assert!(n.pop_eject(1).is_none());
        n.cycle();
        assert!(n.pop_eject(1).is_some());
    }

    #[test]
    fn ejection_backpressure_stalls_switch() {
        let mut n = Network::new(1, 1, 32, 16, 1, 0);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(0, 0, load(2), 8).unwrap();
        n.cycle();
        n.cycle();
        // Output buffer holds 1 packet; the second must wait inside.
        assert_eq!(n.stats().packets.get(), 1);
        assert_eq!(n.pop_eject(0).unwrap().id, 1);
        n.cycle();
        assert_eq!(n.pop_eject(0).unwrap().id, 2);
    }

    #[test]
    fn head_of_line_blocking() {
        // Input 0's head targets a congested output; a later packet to a
        // free output is blocked behind it (FIFO injection buffer).
        let mut n = Network::new(2, 2, 32, 16, 1, 0);
        // Congest output 0 with a packet from input 1.
        n.inject(1, 0, load(9), 8).unwrap();
        n.cycle();
        // Output 0's buffer now full. Input 0: head -> output 0 (blocked),
        // second packet -> output 1 (would be deliverable, but HOL-blocked).
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(0, 1, load(2), 8).unwrap();
        n.cycle();
        assert!(
            n.peek_eject(1).is_none(),
            "HOL blocking must hold back pkt 2"
        );
        // Drain output 0; everything flows.
        assert_eq!(n.pop_eject(0).unwrap().id, 9);
        n.cycle();
        n.cycle();
        assert_eq!(n.pop_eject(0).unwrap().id, 1);
        assert_eq!(n.pop_eject(1).unwrap().id, 2);
    }

    #[test]
    fn output_speedup_accepts_two_flits_per_cycle() {
        // Two inputs race for one output; with speedup 2 both single-flit
        // packets land in the same cycle.
        let mut n = Network::with_speedup(2, 1, 32, 16, 4, 0, 2);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(1, 0, load(2), 8).unwrap();
        n.cycle();
        assert!(n.pop_eject(0).is_some());
        assert!(n.pop_eject(0).is_some(), "speedup 2 must deliver both");
    }

    #[test]
    fn output_speedup_does_not_exceed_input_rate() {
        // One input, speedup 2: the single input link still sends only one
        // flit per cycle.
        let mut n = Network::with_speedup(1, 1, 32, 16, 4, 0, 2);
        n.inject(0, 0, load(1), 8).unwrap();
        n.inject(0, 0, load(2), 8).unwrap();
        n.cycle();
        assert!(n.pop_eject(0).is_some());
        assert!(n.pop_eject(0).is_none(), "input rate still 1 flit/cycle");
    }

    #[test]
    fn is_idle_reflects_buffers() {
        let mut n = net(1, 1, 32);
        assert!(n.is_idle());
        n.inject(0, 0, load(1), 8).unwrap();
        assert!(!n.is_idle());
        n.cycle();
        assert!(!n.is_idle(), "packet sits in ejection buffer");
        n.pop_eject(0);
        assert!(n.is_idle());
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn bad_destination_panics() {
        let mut n = net(1, 1, 32);
        let _ = n.inject(0, 5, load(1), 8);
    }

    #[test]
    #[should_panic(expected = "at most 64 ports")]
    fn more_ports_than_a_word_panics() {
        let _ = net(MAX_PORTS + 1, 1, 32);
    }

    /// The reference arbiter: every destination in ascending order sweeps
    /// every source round-robin from `rr[dst]`, reading the buffers only.
    /// An input sends at most one flit a cycle; a packet's first flit needs
    /// a free ejection slot. Rebuilds the head index from the fronts after.
    fn sweep_cycle(n: &mut Network) -> bool {
        n.now += 1;
        let mut used = vec![false; n.n_src];
        let mut moved = false;
        for dst in 0..n.n_dst {
            for _pass in 0..n.output_speedup {
                let start = n.rr[dst];
                let granted = (0..n.n_src).map(|k| (start + k) % n.n_src).find(|&src| {
                    !used[src]
                        && n.inputs[src].front().is_some_and(|h| {
                            h.dst == dst
                                && h.ready_at < n.now
                                && (h.flits_sent > 0 || n.output_reserved[dst] < n.output_capacity)
                        })
                });
                let Some(src) = granted else { break };
                used[src] = true;
                moved = true;
                n.rr[dst] = (src + 1) % n.n_src;
                let head = n.inputs[src].front_mut().unwrap();
                if head.flits_sent == 0 {
                    n.output_reserved[dst] += 1;
                }
                head.flits_sent += 1;
                n.input_flits[src] -= 1;
                n.buffered_total -= 1;
                n.stats.flits.inc();
                if head.flits_sent == head.flits_total {
                    let pkt = n.inputs[src].pop().unwrap();
                    n.outputs[dst].push(pkt.fetch).unwrap();
                    n.backlog_total += 1;
                    n.stats.packets.inc();
                }
            }
        }
        for src in 0..n.n_src {
            n.load_head(src);
        }
        moved
    }

    /// Random traffic through the bit-set arbiter and the reference sweep
    /// in lock-step: the same grants every cycle, over geometries up to a
    /// full word, output speedups 1-3, router latencies 0-6, packets of
    /// 1-256 B and drain rates that leave ejection buffers full.
    #[test]
    fn bit_set_arbiter_matches_the_sweep() {
        cases("bit_set_arbiter_matches_the_sweep", 48, |rng| {
            let (n_src, n_dst) = (rng.range(1..MAX_PORTS + 1), rng.range(1..MAX_PORTS + 1));
            let (speedup, latency) = (rng.range(1..4), rng.range(0..7));
            let out_buf = rng.range(1..5);
            let (inject_per_mille, drain_pct) = (rng.range(0..1000), rng.range(5..95));
            let mut fast = Network::with_speedup(n_src, n_dst, 32, 16, out_buf, latency, speedup);
            let mut oracle = fast.clone();
            let mut id = 0;
            for cyc in 0..300 {
                for src in 0..n_src {
                    if rng.below(1000) < inject_per_mille {
                        let (dst, bytes) = (rng.range(0..n_dst), rng.range(1..257));
                        let took = fast.inject(src, dst, load(id), bytes).is_ok();
                        assert_eq!(took, oracle.inject(src, dst, load(id), bytes).is_ok());
                        id += 1;
                    }
                }
                let at = format!("{n_src}x{n_dst}, cycle {cyc}");
                assert_eq!(fast.cycle(), sweep_cycle(&mut oracle), "{at}");
                assert_eq!(fast.stats.flits.get(), oracle.stats.flits.get(), "{at}");
                assert_eq!(fast.stats.packets.get(), oracle.stats.packets.get(), "{at}");
                assert_eq!(fast.next_event_bound(), oracle.next_event_bound(), "{at}");
                for dst in 0..n_dst {
                    if rng.below(100) < drain_pct {
                        let got = fast.pop_eject(dst).map(|f| f.id);
                        assert_eq!(got, oracle.pop_eject(dst).map(|f| f.id), "{at}");
                    }
                }
            }
        });
    }
}
