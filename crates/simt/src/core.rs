//! The SIMT core pipeline: fetch → issue → memory pipeline → L1.

use crate::inst::{InstKind, InstSource};
use crate::lsu::LoadStoreUnit;
use crate::scheduler::{WarpSchedPolicy, WarpScheduler};
use crate::stall::{IssueStallCounters, IssueStallKind};
use crate::warp::Warp;
use gmh_cache::{
    AccessResult, BlockReason, Cache, CacheConfig, L1StallCounters, L1StallKind, WriteOutcome,
};
use gmh_types::bits::{self, Bits};
use gmh_types::trace::{Level, TraceEventKind, TraceSink};
use gmh_types::{
    AccessKind, BoundedQueue, Component, Cycle, EventBound, FetchId, LatencyHistogram, LineAddr,
    MeanAccumulator, MemFetch, Picos, Tick,
};

/// Line-index base of the kernel code segment. All cores share it (they run
/// the same kernel), so instruction misses hit the same L2 lines.
pub const CODE_SEGMENT_BASE: u64 = 1 << 40;

/// Static configuration of a [`SimtCore`].
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Concurrent warps per core (Table I: 1536 threads / 32 = 48).
    pub max_warps: usize,
    /// Memory pipeline width — LSU accesses buffered toward the L1
    /// (Table III: 10 baseline, 40 scaled).
    pub mem_pipeline_width: usize,
    /// Instruction-buffer entries refilled per I-cache hit.
    pub ibuffer_size: usize,
    /// Response FIFO depth (fills arriving from the interconnect).
    pub response_fifo: usize,
    /// L1 data cache configuration.
    pub l1d: CacheConfig,
    /// L1 instruction cache configuration.
    pub l1i: CacheConfig,
    /// Warp-scheduling policy (GTO baseline, LRR for ablation).
    pub sched_policy: WarpSchedPolicy,
}

impl CoreConfig {
    /// The GTX 480 baseline core (Table I).
    pub fn gtx480() -> Self {
        CoreConfig {
            max_warps: 48,
            mem_pipeline_width: 10,
            ibuffer_size: 2,
            response_fifo: 8,
            l1d: CacheConfig::fermi_l1(),
            l1i: CacheConfig::fermi_l1i(),
            sched_policy: WarpSchedPolicy::Gto,
        }
    }
}

/// Statistics exported by a core at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Issue-stall classification (Figs. 1, 7).
    pub issue: IssueStallCounters,
    /// L1 stall attribution (Fig. 9).
    pub l1_stalls: L1StallCounters,
    /// Warp instructions issued.
    pub insts_issued: u64,
    /// Core cycles executed.
    pub cycles: u64,
    /// Mean round-trip latency of L1 data misses, in picoseconds (AML).
    pub aml_ps: MeanAccumulator,
    /// Mean round-trip latency of L1 data misses serviced by the L2, in
    /// picoseconds (L2-AHL).
    pub l2_ahl_ps: MeanAccumulator,
    /// Load accesses that returned.
    pub loads_returned: u64,
    /// Distribution of L1-miss round trips, in picoseconds (covers 0-4 µs,
    /// i.e. several thousand core cycles at GHz-class clocks).
    pub aml_hist_ps: LatencyHistogram,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_issued as f64 / self.cycles as f64
        }
    }
}

/// The hazards one issue scan found holding back live warps' heads, ranked
/// into a stall class by [`SimtCore::classify_issue_stall`].
struct Hazards {
    any_live: bool,
    fetch: bool,
    mem_dep: bool,
    alu_dep: bool,
    str_mem: bool,
    /// Earliest ALU-ready cycle among the warps held by an ALU dependence
    /// (`Cycle::MAX` if none).
    wake: Cycle,
}

impl Hazards {
    fn new() -> Self {
        Hazards {
            any_live: false,
            fetch: false,
            mem_dep: false,
            alu_dep: false,
            str_mem: false,
            wake: Cycle::MAX,
        }
    }

    /// Records the first hazard, in issue-check order, holding back `w`'s
    /// head at cycle `now`. Returns `false` only when the warp could issue.
    /// The issue stage decides on [`WarpWords`]; this per-warp check is the
    /// reference [`SimtCore::issue_verdict_by_scan`] walks.
    fn note(&mut self, w: &Warp, lsu: &LoadStoreUnit, now: Cycle) -> bool {
        if w.finished() {
            return true;
        }
        self.any_live = true;
        let Some(head) = w.head() else {
            // Buffer empty and not finished: the warp waits on a fetch.
            self.fetch = true;
            return true;
        };
        if head.wait_mem && w.has_pending_loads() {
            self.mem_dep = true;
        } else if head.wait_alu && w.alu_pending(now) {
            self.alu_dep = true;
            self.wake = self.wake.min(w.alu_ready_at());
        } else if head.kind.is_mem() && !lsu.can_accept(head.kind.accesses()) {
            self.str_mem = true;
        } else {
            return false;
        }
        true
    }
}

/// What the issue stage decides at one cycle.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueVerdict {
    /// This warp issues.
    Issue(usize),
    /// Nothing issues: the cycle is charged to `kind` (`None` = idle), and
    /// `wake` is the earliest ALU release among the warps an ALU
    /// dependence holds (`Cycle::MAX` if none).
    Stall {
        /// The stall class charged.
        kind: Option<IssueStallKind>,
        /// The earliest ALU release.
        wake: Cycle,
    },
}

/// The warp table as bit sets, bit `w` for warp `w` (at most
/// [`bits::CAP`]). [`SimtCore::refresh`] recomputes one warp's bits
/// after every event that can change them — a refill, an issue, a load
/// return, a fetch — so an issue scan or an idle probe costs a few word
/// operations plus one check per warp whose head waits on a clock or a
/// pipeline slot.
#[derive(Clone, Debug, Default)]
struct WarpWords {
    /// Not finished.
    live: Bits,
    /// Live with an empty instruction buffer: the warp waits on a fetch.
    no_head: Bits,
    /// The head reads a load result and loads are pending.
    mem_dep: Bits,
    /// The head reads an ALU result and is not in `mem_dep`. Whether the
    /// result is still pending depends on the cycle, so a scan reads the
    /// warp's `alu_ready_at`.
    alu_wait: Bits,
    /// The head is a load or a store and is not in `mem_dep`; its access
    /// count is `accesses[w]`.
    mem_head: Bits,
    /// Needs an instruction-buffer refill ([`Warp::needs_fetch`]).
    need_fetch: Bits,
    /// Finished, no pending loads, no outstanding I-miss. Absorbing:
    /// `finished()` never reverts, and loads and I-misses are only added
    /// by unfinished warps.
    drained: Bits,
    /// Memory-pipeline slots each `mem_head` warp's head needs.
    accesses: Vec<usize>,
}

/// One highly-multithreaded SIMT core with private L1 caches.
///
/// The owner (the full-GPU simulator in `gmh-core`) drives it by calling
/// [`SimtCore::cycle`] once per core-clock cycle, draining
/// [`SimtCore::pop_outgoing`] into the interconnect and feeding fills into
/// [`SimtCore::push_response`].
pub struct SimtCore {
    id: usize,
    cfg: CoreConfig,
    warps: Vec<Warp>,
    /// The warp table's issue state as bit words.
    words: WarpWords,
    /// One bit per warp: what `words.drained` reads when every warp drained.
    all_warps: Bits,
    /// No-issue verdict `(stall, wake)` memoized from the last full issue
    /// scan. Warp eligibility only changes through discrete events — a
    /// response intake, an instruction-buffer refill, an LSU pop, an actual
    /// issue (each sets `issue_dirty`) — or the clock reaching `wake`, the
    /// earliest ALU-ready time among blocked warps. Until one of those
    /// happens, every input to the scan is frozen, so replaying the verdict
    /// is exactly what the scan would conclude (bit-identical, just O(1)).
    issue_memo: Option<(Option<IssueStallKind>, Cycle)>,
    issue_dirty: bool,
    sched: WarpScheduler,
    lsu: LoadStoreUnit,
    l1d: Cache,
    l1i: Cache,
    response_fifo: BoundedQueue<MemFetch>,
    source: Box<dyn InstSource + Send>,
    code_lines: u64,
    next_fetch_id: u64,
    fetch_rr: usize,
    outgoing_rr: bool,
    now: Cycle,
    stats: CoreStats,
}

impl std::fmt::Debug for SimtCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimtCore")
            .field("id", &self.id)
            .field("cycle", &self.now)
            .field("insts_issued", &self.stats.insts_issued)
            .finish_non_exhaustive()
    }
}

impl SimtCore {
    /// Creates core `id` running instructions from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_warps` is zero or above [`bits::CAP`], or
    /// a queue capacity is zero (`gmh-core`'s `GpuConfig::validate` refuses
    /// each of these with a reason).
    pub fn new(id: usize, cfg: CoreConfig, source: Box<dyn InstSource + Send>) -> Self {
        assert!(
            (1..=bits::CAP).contains(&cfg.max_warps),
            "a core holds 1 to {} warps (one bit each in a word), not {}",
            bits::CAP,
            cfg.max_warps
        );
        let warps: Vec<Warp> = (0..cfg.max_warps)
            .map(|w| Warp::new(w, cfg.ibuffer_size))
            .collect();
        let code_lines = source.code_lines().max(1);
        let mut core = SimtCore {
            id,
            words: WarpWords {
                accesses: vec![0; cfg.max_warps],
                ..WarpWords::default()
            },
            all_warps: bits::below(cfg.max_warps),
            issue_memo: None,
            issue_dirty: true,
            warps,
            sched: WarpScheduler::new(cfg.sched_policy, cfg.max_warps),
            lsu: LoadStoreUnit::new(cfg.mem_pipeline_width),
            l1d: Cache::new(cfg.l1d.clone()),
            l1i: Cache::new(cfg.l1i.clone()),
            response_fifo: BoundedQueue::new(cfg.response_fifo),
            source,
            code_lines,
            next_fetch_id: 0,
            fetch_rr: 0,
            outgoing_rr: false,
            now: 0,
            stats: CoreStats::default(),
            cfg,
        };
        for wid in 0..core.warps.len() {
            core.refresh(wid);
        }
        core
    }

    /// The core's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Core cycles executed so far.
    pub fn cycles(&self) -> Cycle {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The L1 data cache (for hit/miss statistics).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// Drops both L1s' standing blocks (see
    /// [`Cache::forget_standing_block`]); results never depend on it.
    #[doc(hidden)]
    pub fn forget_standing_blocks(&mut self) {
        self.l1d.forget_standing_block();
        self.l1i.forget_standing_block();
    }

    /// Whether every warp has issued its whole stream and all memory
    /// activity visible to the core has drained. O(1): drained warps are a
    /// bit word, and every queue length is cached.
    pub fn done(&self) -> bool {
        let done = self.words.drained == self.all_warps
            && self.lsu.is_empty()
            && self.response_fifo.is_empty()
            && self.l1d.miss_queue_len() == 0
            && self.l1i.miss_queue_len() == 0;
        debug_assert_eq!(
            done,
            self.warps
                .iter()
                .all(|w| w.finished() && !w.has_pending_loads() && !w.fetch_outstanding())
                && self.lsu.is_empty()
                && self.response_fifo.is_empty()
                && self.l1d.miss_queue_len() == 0
                && self.l1i.miss_queue_len() == 0,
            "drained-warp word out of sync with warp state"
        );
        done
    }

    /// Recomputes warp `wid`'s bit in every [`WarpWords`] word; call after
    /// any event that changes its instruction buffer, pending loads,
    /// outstanding fetch or stream state.
    fn refresh(&mut self, wid: usize) {
        let w = &self.warps[wid];
        let m = &mut self.words;
        let drained = w.finished() && !w.has_pending_loads() && !w.fetch_outstanding();
        debug_assert!(
            drained || !bits::contains(m.drained, wid),
            "a drained warp came back to life"
        );
        bits::put(&mut m.drained, wid, drained);
        bits::put(&mut m.need_fetch, wid, w.needs_fetch());
        bits::put(&mut m.live, wid, !w.finished());
        let head = w.head();
        // A finished warp has no head, so only live warps set the rest.
        bits::put(&mut m.no_head, wid, !w.finished() && head.is_none());
        let mem_dep = head.is_some_and(|h| h.wait_mem) && w.has_pending_loads();
        bits::put(&mut m.mem_dep, wid, mem_dep);
        let head = head.filter(|_| !mem_dep);
        bits::put(&mut m.alu_wait, wid, head.is_some_and(|h| h.wait_alu));
        let accesses = head.map_or(0, |h| h.kind.accesses());
        bits::put(&mut m.mem_head, wid, head.is_some_and(|h| h.kind.is_mem()));
        m.accesses[wid] = accesses;
    }

    /// Whether every warp has issued its whole instruction stream (memory
    /// may still be draining).
    pub fn finished_issuing(&self) -> bool {
        self.words.live == 0
    }

    /// Conservative idle probe for the fast-forward scheduler.
    ///
    /// Answers `Busy` unless the core provably does nothing but count one
    /// stall cycle per tick until either an external input arrives (a fill
    /// response, or the interconnect taking a miss-queue head) or the
    /// returned `bound` cycle — the earliest ALU scoreboard release among
    /// blocked warps — whichever comes first: the response FIFO is empty,
    /// no warp can fetch, the memory pipeline is empty or its head stands
    /// refused by the L1D ([`Cache::standing_block`]), and every live warp
    /// is pinned by a hazard whose clearing the window excludes.
    pub fn next_event_bound(&self) -> EventBound {
        match self.quiet_window() {
            Some((bound, _)) => EventBound::QuietUntil { bound },
            None => EventBound::Busy,
        }
    }

    /// The scan behind the probe and the skip hook: `None` when the core
    /// may act on its next cycle, else the window's bound and the
    /// issue-stall class every cycle inside it records (`None` = idle) —
    /// constant across the window because every input to the naive
    /// per-cycle classification is frozen inside it.
    ///
    /// Queued misses do not keep the core awake: only the interconnect's
    /// hand-off pops them, and it wakes the core first. A refused head does
    /// not either: nothing inside the core can change the L1D while it
    /// waits, so every cycle of the window replays the refusal.
    fn quiet_window(&self) -> Option<(Option<Cycle>, Option<IssueStallKind>)> {
        // A warp that needs a fetch is never finished, and the fetch stage
        // acts on it next cycle.
        if !self.response_fifo.is_empty()
            || self.words.need_fetch != 0
            || (!self.lsu.is_empty() && self.head_refusal().is_none())
        {
            return None;
        }
        // The memory pipeline is frozen, so a str-MEM hazard holds through
        // the window (with the LSU empty it means an instruction wider than
        // the whole pipeline: the naive loop would record str-MEM forever).
        // While the issue stage's memo holds (see the `issue_memo` field
        // docs), it is the scan's verdict.
        let verdict = match self.issue_memo {
            Some((kind, wake)) if !self.issue_dirty && self.now + 1 < wake => {
                let v = IssueVerdict::Stall { kind, wake };
                debug_assert_eq!(v, self.checked_verdict(self.now + 1));
                v
            }
            _ => self.checked_verdict(self.now + 1),
        };
        match verdict {
            // The warp could issue next cycle.
            IssueVerdict::Issue(_) => None,
            IssueVerdict::Stall { kind, wake } => {
                Some(((wake != Cycle::MAX).then_some(wake), kind))
            }
        }
    }

    /// The refusal the memory pipeline's head stands under at the L1D:
    /// `Some` when its next attempt would replay it without touching the
    /// cache (see [`Cache::standing_block`]).
    fn head_refusal(&self) -> Option<BlockReason> {
        let head = self.lsu.head()?;
        self.l1d
            .standing_block(head.line, head.kind == AccessKind::Store)
    }

    /// The issue decision at cycle `t` from the warp words. The policy's
    /// first warp (GTO's greedy warp, which usually keeps issuing) is
    /// checked from its own bits in O(1); otherwise one pass over the words
    /// finds every warp that could issue and the hazards holding the rest
    /// back, in [`Hazards::note`]'s per-warp first-hazard order:
    ///
    /// * `alu_blk`: the `alu_wait` warps whose result is not ready at `t`;
    /// * `str_blk`: the `mem_head` warps outside `alu_blk` whose accesses
    ///   exceed the memory pipeline's free slots;
    /// * ready: `live` outside `no_head`, `mem_dep`, `alu_blk` and `str_blk`.
    #[doc(hidden)]
    pub fn issue_verdict(&self, t: Cycle) -> IssueVerdict {
        let m = &self.words;
        let alu_ready_at = |w: usize| self.warps[w].alu_ready_at();
        let first = self.sched.first();
        let has = |set: Bits| bits::contains(set, first);
        if has(m.live & !(m.no_head | m.mem_dep))
            && (!has(m.alu_wait) || alu_ready_at(first) <= t)
            && (!has(m.mem_head) || self.lsu.can_accept(m.accesses[first]))
        {
            return IssueVerdict::Issue(first);
        }
        let mut hz = Hazards::new();
        let mut alu_blk = 0;
        for w in bits::iter(m.alu_wait) {
            let at = alu_ready_at(w);
            if at > t {
                bits::put(&mut alu_blk, w, true);
                hz.wake = hz.wake.min(at);
            }
        }
        let mut str_blk = 0;
        for w in bits::iter(m.mem_head & !alu_blk) {
            bits::put(&mut str_blk, w, !self.lsu.can_accept(m.accesses[w]));
        }
        let ready = m.live & !(m.no_head | m.mem_dep | alu_blk | str_blk);
        if let Some(w) = self.sched.pick(ready) {
            return IssueVerdict::Issue(w);
        }
        hz.any_live = m.live != 0;
        hz.fetch = m.no_head != 0;
        hz.mem_dep = m.mem_dep != 0;
        hz.alu_dep = alu_blk != 0;
        hz.str_mem = str_blk != 0;
        IssueVerdict::Stall {
            kind: Self::classify_issue_stall(&hz),
            wake: hz.wake,
        }
    }

    /// The reference for [`SimtCore::issue_verdict`]: walks the warps in
    /// the policy's priority order, checking each with [`Hazards::note`],
    /// and issues the first that passes.
    #[doc(hidden)]
    pub fn issue_verdict_by_scan(&self, t: Cycle) -> IssueVerdict {
        let n = self.warps.len();
        let first = self.sched.first();
        let mut hz = Hazards::new();
        for pos in 0..n {
            let wid = match self.sched.policy() {
                // The greedy warp, then oldest-first without it.
                WarpSchedPolicy::Gto if pos == 0 => first,
                WarpSchedPolicy::Gto if pos - 1 < first => pos - 1,
                WarpSchedPolicy::Gto => pos,
                WarpSchedPolicy::Lrr => (first + pos) % n,
            };
            if !hz.note(&self.warps[wid], &self.lsu, t) {
                return IssueVerdict::Issue(wid);
            }
        }
        IssueVerdict::Stall {
            kind: Self::classify_issue_stall(&hz),
            wake: hz.wake,
        }
    }

    /// [`SimtCore::issue_verdict`], checked against its reference in debug
    /// builds.
    #[inline]
    fn checked_verdict(&self, t: Cycle) -> IssueVerdict {
        let v = self.issue_verdict(t);
        debug_assert_eq!(
            v,
            self.issue_verdict_by_scan(t),
            "core {}: the word scan and the warp walk disagree at cycle {t}",
            self.id
        );
        v
    }

    fn alloc_fetch_id(&mut self) -> u64 {
        let id = self.next_fetch_id;
        self.next_fetch_id += 1;
        id
    }

    // ---- external plumbing -------------------------------------------------

    /// The next request the core wants to inject into the interconnect
    /// (head of the L1D or L1I miss queue).
    pub fn peek_outgoing(&self) -> Option<&MemFetch> {
        // Alternate between data and instruction miss queues for fairness;
        // fall through to whichever has traffic.
        let (first, second) = if self.outgoing_rr {
            (&self.l1i, &self.l1d)
        } else {
            (&self.l1d, &self.l1i)
        };
        first
            .miss_queue_front()
            .or_else(|| second.miss_queue_front())
    }

    /// Removes the request returned by [`SimtCore::peek_outgoing`].
    pub fn pop_outgoing(&mut self) -> Option<MemFetch> {
        let out = if self.outgoing_rr {
            match self.l1i.pop_miss() {
                Some(f) => Some(f),
                None => self.l1d.pop_miss(),
            }
        } else {
            match self.l1d.pop_miss() {
                Some(f) => Some(f),
                None => self.l1i.pop_miss(),
            }
        };
        if out.is_some() {
            self.outgoing_rr = !self.outgoing_rr;
        }
        out
    }

    /// Whether the response FIFO can accept a fill from the interconnect.
    pub fn can_accept_response(&self) -> bool {
        !self.response_fifo.is_full()
    }

    /// Fills waiting in the response FIFO (telemetry).
    pub fn response_fifo_len(&self) -> usize {
        self.response_fifo.len()
    }

    /// Outstanding L1 data + instruction misses waiting to inject into the
    /// interconnect (telemetry).
    pub fn miss_queue_len(&self) -> usize {
        self.l1d.miss_queue_len() + self.l1i.miss_queue_len()
    }

    /// Delivers a fill response (load or instruction miss) to the core.
    ///
    /// # Errors
    ///
    /// Hands the fetch back when the response FIFO is full; the caller
    /// leaves it in the network (reply-network back-pressure).
    pub fn push_response(&mut self, fetch: MemFetch) -> Result<(), MemFetch> {
        self.response_fifo.push(fetch)
    }

    // ---- pipeline stages ---------------------------------------------------

    /// Advances the core one cycle at wall-clock time `now_ps`.
    ///
    /// Returns whether the cycle did observable work (see
    /// [`SimtCore::cycle_traced`]).
    pub fn cycle(&mut self, now_ps: impl Into<Picos>) -> bool {
        self.cycle_traced(now_ps.into(), &mut TraceSink::disabled())
    }

    /// Advances the core one cycle, recording lifecycle events for sampled
    /// fetches into `trace` (see [`gmh_types::trace`]).
    ///
    /// Returns whether the cycle did observable work: it entered with a
    /// pending fill or a fetch need (each of which
    /// [`SimtCore::next_event_bound`] would call `Busy` anyway), it issued
    /// an instruction, or the L1D admitted the memory pipeline's head. A
    /// head the L1D refused — afresh or replaying its standing refusal —
    /// and queued misses are not work: a refused head leaves the core
    /// quiet until the L1D changes. A `false` return is the fast-forward
    /// scheduler's cue that a probe could pay off; an active cycle never
    /// needs one, which keeps the saturated path free of per-cycle warp
    /// scans.
    pub fn cycle_traced(&mut self, now_ps: Picos, trace: &mut TraceSink) -> bool {
        self.now += 1;
        self.stats.cycles += 1;
        let busy_in = !self.response_fifo.is_empty() || self.words.need_fetch != 0;
        let (issued_before, lsu_before) = (self.stats.insts_issued, self.lsu.len());
        self.intake_response(now_ps, trace);
        self.fetch_stage(now_ps, trace);
        self.issue_stage(now_ps, trace);
        self.lsu_stage(now_ps, trace);
        // Without an issue, the pipeline only shrinks by an admission.
        busy_in || self.stats.insts_issued != issued_before || self.lsu.len() != lsu_before
    }

    /// Processes one fill per cycle from the response FIFO.
    fn intake_response(&mut self, now_ps: Picos, trace: &mut TraceSink) {
        let Some(mut fetch) = self.response_fifo.pop() else {
            return;
        };
        // A fill wakes warps (pending-load release or I-buffer refill).
        self.issue_dirty = true;
        fetch.time.returned = now_ps;
        match fetch.kind {
            AccessKind::InstFetch => {
                let waiters = self.l1i.fill(fetch.line, now_ps);
                for w in waiters {
                    debug_assert_eq!(w.kind, AccessKind::InstFetch);
                    trace.record_fetch(&w, now_ps, TraceEventKind::Returned);
                    self.fetch_returned(w.warp_id);
                }
                let wid = fetch.warp_id;
                self.fetch_returned(wid);
            }
            AccessKind::Load => {
                let waiters = self.l1d.fill(fetch.line, now_ps);
                for mut w in waiters {
                    debug_assert_eq!(w.kind, AccessKind::Load);
                    w.time.returned = now_ps;
                    // Merged requests were serviced wherever the traveling
                    // fetch was (L2 vs DRAM) — classify them the same way.
                    w.serviced_by = fetch.serviced_by;
                    trace.record_fetch(&w, now_ps, TraceEventKind::Returned);
                    self.record_load_return(&w);
                    self.warps[w.warp_id].load_returned();
                    self.refresh(w.warp_id);
                }
                self.record_load_return(&fetch);
                self.warps[fetch.warp_id].load_returned();
                self.refresh(fetch.warp_id);
            }
            AccessKind::Store | AccessKind::L2WriteBack => {
                unreachable!("stores and write-backs never generate responses")
            }
        }
    }

    fn record_load_return(&mut self, fetch: &MemFetch) {
        self.stats.loads_returned += 1;
        let rt = fetch.round_trip_ps().as_u64() as f64;
        self.stats.aml_ps.push(rt);
        self.stats.aml_hist_ps.push(rt);
        if fetch.serviced_by == gmh_types::fetch::ServicedBy::L2 {
            self.stats.l2_ahl_ps.push(rt);
        }
    }

    /// An I-cache miss response for `wid` arrived: the fetched instructions
    /// enter the warp's buffer directly (fetch + decode complete).
    fn fetch_returned(&mut self, wid: usize) {
        self.warps[wid].fetch_arrived();
        self.warps[wid].advance_fetch_group();
        let src = &mut self.source;
        let n_insts = self.cfg.ibuffer_size;
        self.warps[wid].refill((0..n_insts).map(|_| src.next_inst(wid)));
        // The refill may have hit the stream end with nothing buffered.
        self.refresh(wid);
    }

    /// Attempts one instruction-buffer refill per cycle (round-robin).
    fn fetch_stage(&mut self, now_ps: Picos, trace: &mut TraceSink) {
        // Round-robin: the first warp needing a fetch at or after `fetch_rr`
        // (past the last warp, that wraps to the lowest).
        let Some(wid) = bits::first_from(self.words.need_fetch, self.fetch_rr) else {
            debug_assert!(self.warps.iter().all(|w| !w.needs_fetch()));
            return;
        };
        debug_assert!(self.warps[wid].needs_fetch());
        self.fetch_rr = wid + 1;

        let group = self.warps[wid].fetch_group();
        let line = LineAddr::new(CODE_SEGMENT_BASE + group % self.code_lines);
        // A refused attempt still consumes an id: the warp retries the same
        // group under a fresh one.
        let id = self.alloc_fetch_id();
        let Ok(admitted) = self.l1i.admit_read(line) else {
            // I-cache resources exhausted; the cycle shows up as a fetch
            // hazard at issue.
            return;
        };
        // Only an admitted fetch is sampled: tracing a refused attempt
        // would leak half-traced fetches into the sink.
        let mut fetch = MemFetch::new(id, self.id, wid, AccessKind::InstFetch, line, now_ps);
        // The verdict is captured with the id: the fetch moves into the L1.
        let traced = trace.issued(&mut fetch, now_ps);
        let mut record = |kind| trace.record(traced, self.id, id, now_ps, kind);
        match self.l1i.commit_read(admitted, fetch, now_ps) {
            (AccessResult::Hit, _) => {
                record(TraceEventKind::ServicedAt(Level::L1));
                record(TraceEventKind::Returned);
                self.warps[wid].advance_fetch_group();
                let src = &mut self.source;
                let n_insts = self.cfg.ibuffer_size;
                self.warps[wid].refill((0..n_insts).map(|_| src.next_inst(wid)));
                self.refresh(wid);
                // The refill may have given the warp an issuable head.
                self.issue_dirty = true;
            }
            (AccessResult::MissIssued, _) => {
                record(TraceEventKind::EnqueuedAt(Level::L1));
                // The refill completes when the response arrives (see
                // `fetch_returned`); the group advances there.
                self.warps[wid].set_fetch_outstanding();
                self.refresh(wid);
            }
            (AccessResult::MissMerged, _) => {
                record(TraceEventKind::MshrMerged(Level::L1));
                self.warps[wid].set_fetch_outstanding();
                self.refresh(wid);
            }
            (AccessResult::Blocked(_), _) => unreachable!("admitted accesses never block"),
        }
    }

    /// Issue of at most one instruction per cycle in the policy's priority
    /// order, with the paper's stall classification when nothing issues.
    fn issue_stage(&mut self, now_ps: Picos, trace: &mut TraceSink) {
        let now = self.now;
        // Replay the memoized no-issue verdict while its inputs are frozen
        // (see the `issue_memo` field docs): identical stats, no scan.
        if !self.issue_dirty {
            if let Some((stall, wake)) = self.issue_memo {
                if now < wake {
                    self.stats.issue.record_n(stall, 1);
                    return;
                }
            }
        }
        self.issue_dirty = false;
        self.issue_memo = None;
        let wid = match self.checked_verdict(now) {
            IssueVerdict::Issue(wid) => wid,
            IssueVerdict::Stall { kind, wake } => {
                // Charge the cycle and memoize the verdict — it holds
                // verbatim until an event or `wake`.
                self.issue_memo = Some((kind, wake));
                self.stats.issue.record_n(kind, 1);
                return;
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: only a live warp outside `no_head` issues, and such a warp \
                has a head."
        )]
        let inst = self.warps[wid].issue_head(now).expect("head checked");
        self.stats.insts_issued += 1;
        self.stats.issue.issued_cycles.inc();
        match inst.kind {
            InstKind::Alu { latency } => {
                self.warps[wid].set_alu_ready(now + latency as Cycle);
            }
            InstKind::Load { lines } => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: coalesced accesses per load are bounded by the \
                        32-thread warp width."
                )]
                let n = u32::try_from(lines.len()).expect("accesses fit u32");
                self.warps[wid].add_pending_loads(n);
                for line in lines {
                    let id = self.alloc_fetch_id();
                    let mut fetch = MemFetch::new(id, self.id, wid, AccessKind::Load, line, now_ps);
                    trace.issued(&mut fetch, now_ps);
                    self.lsu.push(fetch);
                }
            }
            InstKind::Store { lines } => {
                for line in lines {
                    let id = self.alloc_fetch_id();
                    let mut fetch =
                        MemFetch::new(id, self.id, wid, AccessKind::Store, line, now_ps);
                    trace.issued(&mut fetch, now_ps);
                    self.lsu.push(fetch);
                }
            }
        }
        self.sched.issued(wid);
        self.refresh(wid);
        // Issuing mutates warp/LSU state; rescan next cycle.
        self.issue_dirty = true;
    }

    /// Classifies a no-issue cycle per §IV-A.5: structural hazards take
    /// precedence (a dependence-free warp was blocked by resources), then
    /// data hazards, then fetch starvation; `None` is idle time (no live
    /// warps, or only unclassified tail-drain cycles).
    ///
    /// This is the single attribution site for [`IssueStallKind`]: both the
    /// per-cycle issue stage and the fast-forward probe classify through
    /// it, so their verdicts cannot drift apart. The test
    /// `issue_stall_classes_follow_the_paper_precedence_chain` checks it on
    /// every hazard combination.
    fn classify_issue_stall(hz: &Hazards) -> Option<IssueStallKind> {
        if !hz.any_live {
            // All warps finished issuing; the tail drain is idle time.
            return None;
        }
        if hz.str_mem {
            Some(IssueStallKind::StrMem)
        } else if hz.mem_dep {
            Some(IssueStallKind::DataMem)
        } else if hz.alu_dep {
            Some(IssueStallKind::DataAlu)
        } else if hz.fetch {
            Some(IssueStallKind::Fetch)
        } else {
            None
        }
    }

    /// One L1D access attempt per cycle from the memory pipeline head. The
    /// head leaves the pipeline only once the L1 admits it; a refusal
    /// (replayed from the cache's standing block while nothing changed)
    /// charges the stall and leaves the pipeline as it is.
    fn lsu_stage(&mut self, now_ps: Picos, trace: &mut TraceSink) {
        let Some(head) = self.lsu.head() else {
            return;
        };
        // Captured before the head moves into the L1: its id, and the trace
        // sampler's verdict that travels with it.
        let (fid, traced, line) = (head.id, head.traced.0, head.line);
        let admitted = if head.kind == AccessKind::Store {
            self.l1d.admit_write(line)
        } else {
            self.l1d.admit_read(line)
        };
        let admitted = match admitted {
            Ok(admitted) => admitted,
            Err(reason) => return self.record_l1_block(reason, traced, fid, now_ps, trace),
        };
        #[expect(clippy::expect_used, reason = "INVARIANT: head() returned Some above.")]
        let fetch = self.lsu.pop().expect("head exists");
        // The LSU drained a slot (a str-MEM warp may now issue), and a hit
        // releases a pending load.
        self.issue_dirty = true;
        if fetch.kind == AccessKind::Store {
            let done = match self.l1d.commit_write(admitted, fetch, now_ps) {
                WriteOutcome::Absorbed => TraceEventKind::Absorbed,
                WriteOutcome::Forwarded => TraceEventKind::EnqueuedAt(Level::L1),
                WriteOutcome::Blocked(_) => unreachable!("admitted accesses never block"),
            };
            trace.record(traced, self.id, fid, now_ps, done);
            return;
        }
        match self.l1d.commit_read(admitted, fetch, now_ps) {
            (AccessResult::Hit, Some(f)) => {
                trace.record_fetch(&f, now_ps, TraceEventKind::ServicedAt(Level::L1));
                trace.record_fetch(&f, now_ps, TraceEventKind::Returned);
                // L1 hits complete through the pipelined hit path.
                self.warps[f.warp_id].load_returned();
                self.refresh(f.warp_id);
            }
            (AccessResult::MissIssued, _) => {
                let queued = TraceEventKind::EnqueuedAt(Level::L1);
                trace.record(traced, self.id, fid, now_ps, queued);
            }
            (AccessResult::MissMerged, _) => {
                let merged = TraceEventKind::MshrMerged(Level::L1);
                trace.record(traced, self.id, fid, now_ps, merged);
            }
            other => unreachable!("unexpected L1 read outcome: {other:?}"),
        }
    }

    /// The one site attributing `L1StallKind`; arms read in the documented
    /// priority order (cache > mshr > bp-L2). The match is exhaustive over
    /// disjoint `BlockReason`s, so the compiler checks that every refusal
    /// is charged exactly one cause and the order is documentation, not
    /// behavior. The skip hook charges a slept refusal through it too.
    fn l1_stall_kind(reason: BlockReason) -> L1StallKind {
        match reason {
            BlockReason::NoReplaceableLine => L1StallKind::Cache,
            BlockReason::MshrFull | BlockReason::MshrMergeFull => L1StallKind::Mshr,
            BlockReason::MissQueueFull => L1StallKind::BpL2,
        }
    }

    /// Charges a refused LSU head's cycle and traces it.
    fn record_l1_block(
        &mut self,
        reason: BlockReason,
        traced: bool,
        fetch: FetchId,
        now_ps: Picos,
        trace: &mut TraceSink,
    ) {
        let kind = Self::l1_stall_kind(reason);
        self.stats.l1_stalls.record(kind);
        trace.record(
            traced,
            self.id,
            fetch,
            now_ps,
            TraceEventKind::StalledAt(Level::L1, kind.into()),
        );
    }
}

impl Component for SimtCore {
    #[inline]
    fn tick(&mut self, cx: &mut Tick<'_>) -> bool {
        self.cycle_traced(cx.now_ps, cx.trace)
    }

    fn next_event_bound(&self) -> EventBound {
        SimtCore::next_event_bound(self)
    }

    /// Advances the clock and records `n` cycles of the window's constant
    /// stall class, and of its refused head's L1 stall and refused attempt.
    /// The trace needs nothing: each of the `n` attempts would record the
    /// same `StalledAt` event, which collapses into the one the episode's
    /// first refusal recorded.
    fn skip_cycles(&mut self, n: u64) {
        // What the issue stage would record on every skipped cycle: the
        // window's class, read off the issue stage's memoized verdict while
        // it holds (always after an idle tick, which keeps the scheduler's
        // flushes O(1)).
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the scheduler skips only from the frozen state in which the \
                probe answered quiet."
        )]
        let (_, stall) = self.quiet_window().expect("skip from a quiet core");
        self.now += n;
        self.stats.cycles += n;
        self.stats.issue.record_n(stall, n);
        if let Some(reason) = self.head_refusal() {
            self.stats.l1_stalls.add(Self::l1_stall_kind(reason), n);
            self.l1d.count_refusals(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, ScriptedSource};
    use gmh_types::{ClockDomains, DomainId};

    /// The 1 GHz clock the tests drive a core with.
    fn clock() -> ClockDomains {
        ClockDomains::new(1000, 1000, 1000)
    }

    /// The instant `t` cycles of [`clock`] in.
    fn at(t: u64) -> Picos {
        clock().domain(DomainId::Core).span(t)
    }

    fn small_cfg() -> CoreConfig {
        CoreConfig {
            max_warps: 4,
            ..CoreConfig::gtx480()
        }
    }

    /// Drives a core against an ideal fixed-latency memory; returns the
    /// cycle count when the core drained (panics on timeout).
    fn drive(core: &mut SimtCore, latency: u64, max_cycles: u64) -> u64 {
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        let mut t = 0u64;
        while !core.done() {
            t += 1;
            assert!(t < max_cycles, "core did not drain in {max_cycles} cycles");
            core.cycle(at(t));
            while let Some(f) = core.pop_outgoing() {
                if f.kind.wants_response() {
                    inflight.push((t + latency, f));
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).expect("fifo checked");
                } else {
                    i += 1;
                }
            }
        }
        t
    }

    fn warps_with(n: usize, prog: Vec<Inst>) -> Box<ScriptedSource> {
        Box::new(ScriptedSource::new(vec![prog; n]))
    }

    #[test]
    fn alu_only_program_drains_fast() {
        let prog = vec![Inst::alu(1); 32];
        let mut core = SimtCore::new(0, small_cfg(), warps_with(4, prog));
        let cycles = drive(&mut core, 10, 10_000);
        assert_eq!(core.stats().insts_issued, 4 * 32);
        // 128 instructions at ~1 IPC plus fetch warmup.
        assert!(cycles < 400, "took {cycles} cycles");
        assert!(core.stats().ipc() > 0.3);
    }

    #[test]
    fn dependent_load_counts_data_mem_stalls() {
        // One warp: LD; dependent ALU. The ALU cannot issue for ~latency
        // cycles -> data-MEM stalls.
        let prog = vec![
            Inst::load(vec![LineAddr::new(0)]),
            Inst::alu(1).after_load(),
        ];
        let mut core = SimtCore::new(0, small_cfg(), Box::new(ScriptedSource::new(vec![prog])));
        drive(&mut core, 100, 10_000);
        assert!(
            core.stats().issue.get(IssueStallKind::DataMem) >= 80,
            "data-MEM stalls = {}",
            core.stats().issue.get(IssueStallKind::DataMem)
        );
    }

    #[test]
    fn independent_warps_hide_latency() {
        // Four warps with independent loads tolerate latency better than
        // one: stall fraction drops.
        let prog = vec![
            Inst::load(vec![LineAddr::new(0)]),
            Inst::alu(1).after_load(),
        ];
        let mut solo = SimtCore::new(
            0,
            small_cfg(),
            Box::new(ScriptedSource::new(vec![prog.clone()])),
        );
        // Distinct lines per warp so responses do not merge.
        let progs: Vec<Vec<Inst>> = (0..4)
            .map(|w| {
                vec![
                    Inst::load(vec![LineAddr::new(w * 100)]),
                    Inst::alu(1).after_load(),
                ]
            })
            .collect();
        let mut multi = SimtCore::new(0, small_cfg(), Box::new(ScriptedSource::new(progs)));
        let t_solo = drive(&mut solo, 100, 10_000);
        let t_multi = drive(&mut multi, 100, 10_000);
        // 4x the work in barely more time.
        assert!(
            t_multi < t_solo + 20,
            "multi {t_multi} vs solo {t_solo}: TLP failed to overlap"
        );
    }

    #[test]
    fn mshr_scarcity_causes_str_mem_and_l1_mshr_stalls() {
        let mut cfg = small_cfg();
        cfg.l1d.mshr_entries = 1;
        cfg.mem_pipeline_width = 2;
        // One warp issuing many independent loads to distinct lines: the
        // second can't get an MSHR, the LSU head blocks, the pipeline fills,
        // and issue sees str-MEM.
        let prog: Vec<Inst> = (0..8)
            .map(|i| Inst::load(vec![LineAddr::new(i * 7)]))
            .collect();
        let mut core = SimtCore::new(0, cfg, Box::new(ScriptedSource::new(vec![prog])));
        drive(&mut core, 200, 50_000);
        assert!(
            core.stats().l1_stalls.get(L1StallKind::Mshr) > 100,
            "L1 mshr stalls = {}",
            core.stats().l1_stalls.get(L1StallKind::Mshr)
        );
        assert!(
            core.stats().issue.get(IssueStallKind::StrMem) > 100,
            "str-MEM stalls = {}",
            core.stats().issue.get(IssueStallKind::StrMem)
        );
    }

    #[test]
    fn fig6_more_mshrs_finish_sooner() {
        // The paper's Fig. 6: three loads + an independent ALU op. With a
        // 2-entry MSHR the third load blocks the pipeline and serializes;
        // with ample MSHRs everything overlaps.
        let prog = || {
            vec![
                Inst::load(vec![LineAddr::new(0)]),
                Inst::load(vec![LineAddr::new(100)]),
                Inst::load(vec![LineAddr::new(200)]),
                Inst::alu(4),
            ]
        };
        let mut small = small_cfg();
        small.l1d.mshr_entries = 2;
        let mut big = small_cfg();
        big.l1d.mshr_entries = 32;
        // One code line so only the first instruction fetch misses;
        // otherwise I-miss round trips dominate and mask the MSHR effect.
        let mut core_small = SimtCore::new(
            0,
            small,
            Box::new(ScriptedSource::new(vec![prog()]).with_code_lines(1)),
        );
        let mut core_big = SimtCore::new(
            0,
            big,
            Box::new(ScriptedSource::new(vec![prog()]).with_code_lines(1)),
        );
        let t_small = drive(&mut core_small, 150, 50_000);
        let t_big = drive(&mut core_big, 150, 50_000);
        assert!(
            t_small >= t_big + 100,
            "structural hazard must serialize: small={t_small} big={t_big}"
        );
    }

    #[test]
    fn same_line_loads_merge_into_one_request() {
        // Two warps load the same line: only one fetch leaves the core.
        let prog = vec![Inst::load(vec![LineAddr::new(5)])];
        let mut core = SimtCore::new(
            0,
            small_cfg(),
            Box::new(ScriptedSource::new(vec![prog.clone(), prog])),
        );
        let mut outgoing_loads = 0;
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        let mut t = 0;
        while !core.done() && t < 10_000 {
            t += 1;
            core.cycle(at(t));
            while let Some(f) = core.pop_outgoing() {
                if f.kind == AccessKind::Load {
                    outgoing_loads += 1;
                }
                if f.kind.wants_response() {
                    inflight.push((t + 50, f));
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).unwrap();
                } else {
                    i += 1;
                }
            }
        }
        assert!(core.done());
        assert_eq!(outgoing_loads, 1, "merged loads must not duplicate traffic");
        assert_eq!(core.stats().loads_returned, 2, "both warps get their data");
    }

    #[test]
    fn stores_drain_without_responses() {
        let prog = vec![
            Inst::store(vec![LineAddr::new(1)]),
            Inst::store(vec![LineAddr::new(2)]),
        ];
        let mut core = SimtCore::new(0, small_cfg(), warps_with(2, prog));
        let cycles = drive(&mut core, 100, 10_000);
        // A few I-fetch round trips (cold I-cache) plus the stores.
        assert!(cycles < 600, "took {cycles} cycles");
        assert_eq!(core.stats().loads_returned, 0);
        assert_eq!(core.l1d().stats().writes, 4);
    }

    #[test]
    fn large_kernel_code_causes_fetch_hazards() {
        // Code footprint far beyond the 2 KB L1I: every refill misses.
        let prog = vec![Inst::alu(1); 64];
        let src = ScriptedSource::new(vec![prog; 4]).with_code_lines(4096);
        let mut core = SimtCore::new(0, small_cfg(), Box::new(src));
        drive(&mut core, 200, 100_000);
        assert!(
            core.stats().issue.get(IssueStallKind::Fetch) > 100,
            "fetch stalls = {}",
            core.stats().issue.get(IssueStallKind::Fetch)
        );
    }

    #[test]
    fn aml_matches_configured_latency() {
        let prog = vec![
            Inst::load(vec![LineAddr::new(0)]),
            Inst::alu(1).after_load(),
        ];
        let mut core = SimtCore::new(0, small_cfg(), Box::new(ScriptedSource::new(vec![prog])));
        drive(&mut core, 123, 10_000);
        let aml_cycles = clock().ps_to_core_cycles(core.stats().aml_ps.mean());
        assert!(
            (aml_cycles - 123.0).abs() <= 3.0,
            "AML = {aml_cycles} cycles, expected ~123"
        );
    }

    #[test]
    fn done_requires_drain() {
        // Respond to instruction fetches promptly but never to data loads:
        // issuing completes, draining does not.
        let prog = vec![Inst::load(vec![LineAddr::new(0)])];
        let mut core = SimtCore::new(0, small_cfg(), warps_with(4, prog));
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        for t in 1..500u64 {
            core.cycle(at(t));
            while let Some(f) = core.pop_outgoing() {
                if f.kind == AccessKind::InstFetch {
                    inflight.push((t + 10, f));
                }
                // Loads are swallowed: their responses never come.
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).unwrap();
                } else {
                    i += 1;
                }
            }
        }
        assert!(core.finished_issuing());
        assert!(!core.done(), "outstanding loads must block done()");
    }

    #[test]
    fn traced_run_produces_valid_lifecycles() {
        let prog = vec![
            Inst::load(vec![LineAddr::new(0)]),
            Inst::store(vec![LineAddr::new(64)]),
        ];
        let mut core = SimtCore::new(0, small_cfg(), warps_with(2, prog));
        let mut trace = TraceSink::new(1, 4096, 7);
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        let mut t = 0u64;
        while !core.done() && t < 10_000 {
            t += 1;
            let now = at(t);
            core.cycle_traced(now, &mut trace);
            while let Some(f) = core.pop_outgoing() {
                // The owner (GpuSim) normally records the icnt/L2/DRAM hops;
                // close each story at the core boundary here.
                trace.record_fetch(&f, now, TraceEventKind::DequeuedAt(Level::L1));
                if f.kind.wants_response() {
                    inflight.push((t + 20, f));
                } else {
                    trace.record_fetch(&f, now, TraceEventKind::Absorbed);
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).expect("fifo checked");
                } else {
                    i += 1;
                }
            }
        }
        assert!(core.done());
        trace.validate().expect("well-formed lifecycles");
        trace.check().expect("well-formed lifecycles");
        assert!(trace.sampled() > 0, "denominator 1 samples everything");
        let kinds: Vec<TraceEventKind> = trace.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceEventKind::Returned), "loads complete");
        assert!(kinds.contains(&TraceEventKind::Absorbed), "stores complete");
    }

    #[test]
    fn ipc_counts_issued_over_cycles() {
        let prog = vec![Inst::alu(1); 10];
        let mut core = SimtCore::new(0, small_cfg(), warps_with(1, prog));
        let cycles = drive(&mut core, 10, 10_000);
        let s = core.stats();
        assert_eq!(s.cycles, cycles);
        assert!((s.ipc() - 10.0 / cycles as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "a core holds 1 to 64 warps (one bit each in a word), not 65")]
    fn more_warps_than_a_word_holds_panic() {
        let cfg = CoreConfig {
            max_warps: bits::CAP + 1,
            ..CoreConfig::gtx480()
        };
        let _ = SimtCore::new(0, cfg, warps_with(1, vec![]));
    }

    #[test]
    fn issue_stall_classes_follow_the_paper_precedence_chain() {
        // §IV-A.5: a no-issue cycle with live warps is charged to the first
        // hazard present in this chain; none present (or no live warp) is
        // idle time. All 32 hazard combinations, against the chain.
        let chain = [
            (0b0001, IssueStallKind::StrMem),
            (0b0010, IssueStallKind::DataMem),
            (0b0100, IssueStallKind::DataAlu),
            (0b1000, IssueStallKind::Fetch),
        ];
        for bits in 0u32..32 {
            let any_live = bits & 0b1_0000 != 0;
            let hz = Hazards {
                any_live,
                str_mem: bits & 0b0001 != 0,
                mem_dep: bits & 0b0010 != 0,
                alu_dep: bits & 0b0100 != 0,
                fetch: bits & 0b1000 != 0,
                wake: Cycle::MAX,
            };
            let want = chain
                .iter()
                .find(|&&(bit, _)| any_live && bits & bit != 0)
                .map(|&(_, kind)| kind);
            assert_eq!(
                SimtCore::classify_issue_stall(&hz),
                want,
                "hazard bits {bits:05b}"
            );
        }
    }

    #[test]
    fn l1_stalls_attribute_at_most_one_cause_per_cycle() {
        // The L1 twin of the L2 bank's check: data misses never come back,
        // so the L1 runs out of MSHRs and miss-queue slots and blocks every
        // cycle after; instruction fetches are answered so the warps keep
        // issuing loads.
        let mut cfg = small_cfg();
        cfg.l1d.mshr_entries = 2;
        let progs: Vec<Vec<Inst>> = (0..4)
            .map(|w| {
                (0..16)
                    .map(|i| Inst::load(vec![LineAddr::new(w * 1000 + i)]))
                    .collect()
            })
            .collect();
        let mut core = SimtCore::new(0, cfg, Box::new(ScriptedSource::new(progs)));
        let cycles = 400;
        for t in 1..=cycles {
            core.cycle(at(t));
            if core
                .peek_outgoing()
                .is_some_and(|f| f.kind == AccessKind::InstFetch)
                && core.can_accept_response()
            {
                let f = core.pop_outgoing().expect("peeked");
                core.push_response(f).expect("space checked");
            }
        }
        let l1 = &core.stats().l1_stalls;
        assert!(
            l1.total() <= cycles,
            "stalls {} > cycles {cycles}",
            l1.total()
        );
        assert!(
            l1.get(L1StallKind::Mshr) > 0 && l1.total() > cycles / 2,
            "congestion must be attributed: {l1:?}"
        );
    }
}
