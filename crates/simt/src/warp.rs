//! Per-warp execution state.

use crate::inst::Inst;
use gmh_types::queue::BoundedQueue;
use gmh_types::Cycle;

/// The state of one warp on a SIMT core.
#[derive(Clone, Debug)]
pub struct Warp {
    id: usize,
    /// Hardware instruction buffer: `ibuffer_size` entries, refilled only
    /// when empty, so its bound is a real structural limit.
    ibuffer: BoundedQueue<Inst>,
    /// Outstanding coalesced load accesses; dependent instructions wait for
    /// this to reach zero (tail-request semantics).
    pending_loads: u32,
    /// Cycle at which the most recent ALU result becomes available.
    alu_ready_at: Cycle,
    /// An I-cache miss is outstanding; the fetch stage skips the warp.
    fetch_outstanding: bool,
    /// The instruction source is exhausted.
    stream_done: bool,
    /// Sequential fetch counter, drives I-cache line addresses.
    fetch_groups: u64,
    insts_issued: u64,
    last_issued_at: Cycle,
}

impl Warp {
    /// Creates warp `id` in its initial (empty, runnable) state with an
    /// `ibuffer_size`-entry instruction buffer.
    ///
    /// # Panics
    ///
    /// Panics if `ibuffer_size` is zero.
    pub fn new(id: usize, ibuffer_size: usize) -> Self {
        Warp {
            id,
            ibuffer: BoundedQueue::new(ibuffer_size),
            pending_loads: 0,
            alu_ready_at: 0,
            fetch_outstanding: false,
            stream_done: false,
            fetch_groups: 0,
            insts_issued: 0,
            last_issued_at: 0,
        }
    }

    /// The warp id within its core.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions issued so far.
    pub fn insts_issued(&self) -> u64 {
        self.insts_issued
    }

    /// Cycle of the warp's most recent issue (GTO tiebreak diagnostics).
    pub fn last_issued_at(&self) -> Cycle {
        self.last_issued_at
    }

    /// Whether the warp has issued everything it ever will.
    pub fn finished(&self) -> bool {
        self.stream_done && self.ibuffer.is_empty()
    }

    /// Whether the warp still has memory responses outstanding.
    pub fn has_pending_loads(&self) -> bool {
        self.pending_loads > 0
    }

    /// Outstanding load accesses.
    pub fn pending_loads(&self) -> u32 {
        self.pending_loads
    }

    /// Whether the instruction buffer is empty (fetch needed).
    pub fn needs_fetch(&self) -> bool {
        !self.stream_done && self.ibuffer.is_empty() && !self.fetch_outstanding
    }

    /// Whether the warp sits behind an outstanding I-cache miss.
    pub fn fetch_outstanding(&self) -> bool {
        self.fetch_outstanding
    }

    /// Marks an I-cache miss issued (clears on [`Warp::fetch_arrived`]).
    pub fn set_fetch_outstanding(&mut self) {
        self.fetch_outstanding = true;
    }

    /// The I-cache miss response arrived; fetch may retry.
    pub fn fetch_arrived(&mut self) {
        self.fetch_outstanding = false;
    }

    /// Sequential fetch-group counter used to derive I-cache line
    /// addresses for the next refill.
    pub fn fetch_group(&self) -> u64 {
        self.fetch_groups
    }

    /// Advances to the next fetch group once the current one's
    /// instructions entered the buffer (or its miss was issued).
    pub fn advance_fetch_group(&mut self) {
        self.fetch_groups += 1;
    }

    /// Refills the instruction buffer; `None` entries mark stream end.
    ///
    /// # Panics
    ///
    /// Panics if `insts` yields more instructions than the buffer has
    /// free slots (the fetch stage refills at most `ibuffer_size` at
    /// once, and only when the buffer is empty).
    pub fn refill<I: Iterator<Item = Option<Inst>>>(&mut self, insts: I) {
        for slot in insts {
            match slot {
                Some(i) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: fetch refills an empty buffer with at most \
                            ibuffer_size instructions, so a slot is always free."
                    )]
                    self.ibuffer.push(i).expect("ibuffer overfilled by fetch");
                }
                None => {
                    self.stream_done = true;
                    break;
                }
            }
        }
    }

    /// The instruction the warp would issue next.
    pub fn head(&self) -> Option<&Inst> {
        self.ibuffer.front()
    }

    /// Removes and returns the head instruction, recording the issue.
    pub fn issue_head(&mut self, now: Cycle) -> Option<Inst> {
        let i = self.ibuffer.pop();
        if i.is_some() {
            self.insts_issued += 1;
            self.last_issued_at = now;
        }
        i
    }

    /// Registers `n` outstanding load accesses.
    pub fn add_pending_loads(&mut self, n: u32) {
        self.pending_loads += n;
    }

    /// One load access returned.
    ///
    /// # Panics
    ///
    /// Panics if no loads are outstanding (a response was double-counted).
    pub fn load_returned(&mut self) {
        assert!(self.pending_loads > 0, "load response without pending load");
        self.pending_loads -= 1;
    }

    /// Registers an ALU result available at `ready_at`.
    pub fn set_alu_ready(&mut self, ready_at: Cycle) {
        self.alu_ready_at = self.alu_ready_at.max(ready_at);
    }

    /// Whether an ALU result is still pending at `now`.
    pub fn alu_pending(&self, now: Cycle) -> bool {
        now < self.alu_ready_at
    }

    /// The cycle at which the most recent ALU result becomes available
    /// (the warp's scoreboard-release wakeup for the fast-forward
    /// scheduler).
    pub fn alu_ready_at(&self) -> Cycle {
        self.alu_ready_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn fresh_warp_needs_fetch() {
        let w = Warp::new(3, 2);
        assert_eq!(w.id(), 3);
        assert!(w.needs_fetch());
        assert!(!w.finished());
        assert!(w.head().is_none());
    }

    #[test]
    fn refill_and_issue() {
        let mut w = Warp::new(0, 2);
        w.refill([Some(Inst::alu(1)), Some(Inst::alu(2))].into_iter());
        assert!(!w.needs_fetch());
        assert_eq!(w.issue_head(5), Some(Inst::alu(1)));
        assert_eq!(w.insts_issued(), 1);
        assert_eq!(w.last_issued_at(), 5);
    }

    #[test]
    fn stream_end_finishes_warp() {
        let mut w = Warp::new(0, 2);
        w.refill([Some(Inst::alu(1)), None].into_iter());
        assert!(!w.finished(), "buffered instruction still to issue");
        w.issue_head(0);
        assert!(w.finished());
        assert!(!w.needs_fetch(), "finished warps never fetch");
    }

    #[test]
    fn pending_loads_round_trip() {
        let mut w = Warp::new(0, 2);
        w.add_pending_loads(2);
        assert!(w.has_pending_loads());
        w.load_returned();
        w.load_returned();
        assert!(!w.has_pending_loads());
    }

    #[test]
    #[should_panic(expected = "without pending load")]
    fn spurious_load_response_panics() {
        Warp::new(0, 2).load_returned();
    }

    #[test]
    fn alu_ready_takes_max() {
        let mut w = Warp::new(0, 2);
        w.set_alu_ready(10);
        w.set_alu_ready(7);
        assert!(w.alu_pending(9));
        assert!(!w.alu_pending(10));
    }

    #[test]
    fn fetch_outstanding_blocks_needs_fetch() {
        let mut w = Warp::new(0, 2);
        w.set_fetch_outstanding();
        assert!(!w.needs_fetch());
        assert!(w.fetch_outstanding());
        w.fetch_arrived();
        assert!(w.needs_fetch());
    }

    #[test]
    fn fetch_groups_count_up() {
        let mut w = Warp::new(0, 2);
        assert_eq!(w.fetch_group(), 0);
        w.advance_fetch_group();
        assert_eq!(w.fetch_group(), 1);
        assert_eq!(w.fetch_group(), 1, "peek does not advance");
    }
}
