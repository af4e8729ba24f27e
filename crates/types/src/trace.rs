//! Sampled per-fetch lifecycle tracing.
//!
//! The windowed telemetry in [`crate::telemetry`] shows *aggregate*
//! congestion; this module shows it *per fetch*. A [`TraceSink`] samples a
//! deterministic subset of core-emitted fetches and records typed
//! lifecycle events — issue, queue entry/exit at each level, MSHR merges,
//! stalls with their attributed cause, service completion, and the
//! terminal return/absorb — each stamped with the wall-clock picosecond it
//! happened.
//!
//! The admission decision is a pure function of `(seed, core, fetch id)`
//! (a [`crate::hash::StableHasher`] draw, not a sequential RNG stream), so
//! which fetches are sampled does not depend on the order the sink
//! observes them in.
//!
//! From the event stream the sink derives, per level, a queueing-delay
//! histogram (time between entering and leaving a queue) and a service-time
//! histogram (time between being dequeued and serviced). Comparing the two
//! is exactly the decomposition Dublish et al. use to argue that
//! *congestion, not raw latency*, dominates GPU memory latency: under
//! memory-intensive load the queueing component at the L2 and DRAM dwarfs
//! the service component.
//!
//! Memory is bounded twice: sampling admits only 1-in-N fetches, and a hard
//! event cap stops recording (counting what was dropped) if a pathological
//! run exceeds it. The disabled sink (`sample_denom == 0`) allocates
//! nothing and early-returns from every call, so an untraced run pays only
//! a branch per call site.

use crate::clock::Picos;
use crate::fetch::{AccessKind, FetchId, MemFetch};
use crate::hash::StableHasher;
use crate::stats::Histogram;
use std::collections::BTreeMap;

/// A level of the memory hierarchy a traced fetch passes through.
// Ord so levels can key BTreeMaps and export in a stable order (R1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The private L1 caches and their miss queues (per core).
    L1,
    /// The crossbar interconnect (request and reply networks).
    Icnt,
    /// The shared, banked L2.
    L2,
    /// The GDDR5 channels (or the ideal DRAM pipe).
    Dram,
}

impl Level {
    /// All levels, in hierarchy order.
    pub const ALL: [Level; 4] = [Level::L1, Level::Icnt, Level::L2, Level::Dram];

    /// Lowercase stable name (used in exports and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::Icnt => "icnt",
            Level::L2 => "l2",
            Level::Dram => "dram",
        }
    }
}

/// Why a traced fetch stalled — the union of the L1 and L2 stall
/// taxonomies (the paper's Figs. 8 and 9), so one event type covers every
/// level. Conversions from the per-level enums live next to their
/// definitions in `gmh-cache`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// Interconnect back-pressure (full reply path out of the L2).
    BpIcnt,
    /// Data-port contention.
    Port,
    /// No replaceable cache line.
    Cache,
    /// No free MSHR entry / merge slot.
    Mshr,
    /// Back-pressure from the L2 (full L1 miss queue).
    BpL2,
    /// Back-pressure from DRAM (full L2 miss queue).
    BpDram,
}

impl StallCause {
    /// Lowercase stable name (used in exports and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::BpIcnt => "bp_icnt",
            StallCause::Port => "port",
            StallCause::Cache => "cache",
            StallCause::Mshr => "mshr",
            StallCause::BpL2 => "bp_l2",
            StallCause::BpDram => "bp_dram",
        }
    }
}

/// One typed lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The fetch was created by its core.
    Issued,
    /// The fetch entered a queue feeding this level.
    EnqueuedAt(Level),
    /// The fetch left that queue and started being processed.
    DequeuedAt(Level),
    /// The fetch merged into an outstanding miss at this level (it stops
    /// traveling; the primary fetch carries it).
    MshrMerged(Level),
    /// The fetch sat at the head of this level for a cycle without
    /// progress, for the attributed cause. Recorded once per contiguous
    /// stall episode, not per stalled cycle.
    StalledAt(Level, StallCause),
    /// The level finished servicing the fetch (hit data read, DRAM data
    /// returned).
    ServicedAt(Level),
    /// The response reached the issuing core (terminal for loads and
    /// instruction fetches).
    Returned,
    /// The memory system absorbed the fetch (terminal for stores).
    Absorbed,
}

impl TraceEventKind {
    /// Whether this event ends the fetch's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(self, TraceEventKind::Returned | TraceEventKind::Absorbed)
    }
}

/// One recorded event: who, when, what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing core.
    pub core: usize,
    /// Fetch id (unique within its core).
    pub fetch: FetchId,
    /// Wall-clock timestamp in picoseconds.
    pub at_ps: Picos,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Static facts about a sampled fetch, for labeling exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchInfo {
    /// Access kind (load, store, instruction fetch).
    pub kind: AccessKind,
    /// Target line address (raw line index).
    pub line: u64,
    /// Issuing warp.
    pub warp: usize,
}

/// Per-fetch sampling state.
#[derive(Clone, Debug)]
struct Tracked {
    info: FetchInfo,
    last_stall: Option<(Level, StallCause)>,
    done: bool,
}

/// A derived `[start, end]` interval at one level (queue residency or
/// service time), used by the Chrome-trace exporter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Issuing core.
    pub core: usize,
    /// Fetch id.
    pub fetch: FetchId,
    /// Hierarchy level.
    pub level: Level,
    /// `true` for queue residency (enqueue → dequeue), `false` for service
    /// (dequeue → serviced).
    pub is_queue: bool,
    /// Interval start, picoseconds.
    pub start_ps: Picos,
    /// Interval end, picoseconds.
    pub end_ps: Picos,
}

/// Queueing-vs-service decomposition at one level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelLatency {
    /// Queue-residency times, picoseconds (enqueue → dequeue).
    pub queueing: Histogram,
    /// Service times, picoseconds (dequeue → serviced).
    pub service: Histogram,
}

/// Everything a finished trace exports, carried in the run statistics.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// 1-in-N sampling denominator the trace ran with (0 = tracing off).
    pub sample_denom: u64,
    /// All recorded events, in record order.
    pub events: Vec<TraceEvent>,
    /// Static facts per sampled fetch, keyed by `(core, fetch id)`.
    pub fetches: BTreeMap<(usize, FetchId), FetchInfo>,
    /// Per-level queueing/service histograms derived from the events.
    pub levels: BTreeMap<Level, LevelLatency>,
    /// Fetches admitted into the trace.
    pub sampled: u64,
    /// Candidate fetches the sampler passed over.
    pub skipped: u64,
    /// Events discarded because the event cap was reached.
    pub dropped_events: u64,
}

/// The sampled event recorder (see module docs). The simulator owns one
/// and threads `&mut` references through every component that touches a
/// [`MemFetch`].
#[derive(Clone, Debug)]
pub struct TraceSink {
    sample_denom: u64,
    cap: usize,
    /// Hasher pre-seeded with the admission seed; cloned per query so the
    /// seed bytes are folded in once instead of on every decision.
    admit_prefix: StableHasher,
    /// Direct-mapped memo of recent admission decisions. The decision is a
    /// pure function of `(seed, sample_denom, core, fetch)` — all fixed at
    /// construction — so a hit is always valid and the memo never needs
    /// invalidation. Sized for the stalled-head pattern where the same
    /// fetch is re-queried every cycle. Empty unless the sink samples a
    /// fraction (`sample_denom > 1`), the only case that consults it: a
    /// disabled sink is built per call by the untraced `cycle()` wrappers.
    admit_memo: Vec<(usize, FetchId, bool)>,
    tracked: BTreeMap<(usize, FetchId), Tracked>,
    events: Vec<TraceEvent>,
    sampled: u64,
    skipped: u64,
    dropped: u64,
}

/// Slots in the direct-mapped admission memo (power of two for masking).
const ADMIT_MEMO_SLOTS: usize = 64;

impl TraceSink {
    /// A sink that records nothing and allocates nothing. Every call
    /// early-returns; this is what untraced runs pass around.
    pub fn disabled() -> Self {
        Self::new(0, 0, 0)
    }

    /// A sink sampling 1-in-`sample_denom` fetches (0 disables tracing),
    /// holding at most `event_cap` events, with sampling decisions driven
    /// by `seed`.
    pub fn new(sample_denom: u64, event_cap: usize, seed: u64) -> Self {
        let mut admit_prefix = StableHasher::new();
        admit_prefix.write_u64(seed);
        TraceSink {
            sample_denom,
            cap: event_cap,
            admit_prefix,
            // `tracks()` rejects `usize::MAX` cores, so this key can never
            // collide with a real query — every slot starts as a miss.
            admit_memo: if sample_denom > 1 {
                vec![(usize::MAX, u64::MAX, false); ADMIT_MEMO_SLOTS]
            } else {
                Vec::new()
            },
            tracked: BTreeMap::new(),
            events: Vec::new(),
            sampled: 0,
            skipped: 0,
            dropped: 0,
        }
    }

    /// Whether the sink records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.sample_denom > 0
    }

    /// The pure admission decision: a stable hash of
    /// `(seed, core, fetch id)`, so every sink sharing a seed agrees and
    /// no sequential RNG state is consumed (the decision cannot depend on
    /// the order fetches are observed in).
    fn admits(&mut self, core: usize, fetch: FetchId) -> bool {
        if self.sample_denom == 0 {
            return false;
        }
        if self.sample_denom == 1 {
            return true;
        }
        // Direct-mapped memo: a stalled fetch re-queries its (identical)
        // decision every cycle, which previously re-hashed the full key
        // each time on the cheap-tick path.
        let masked = (core as u64 ^ fetch) & (ADMIT_MEMO_SLOTS as u64 - 1);
        // INVARIANT: masked < ADMIT_MEMO_SLOTS (a usize constant), so the
        // narrowing conversion cannot fail on any platform.
        let slot = usize::try_from(masked).expect("masked below ADMIT_MEMO_SLOTS");
        let (c, f, hit) = self.admit_memo[slot];
        if c == core && f == fetch {
            return hit;
        }
        let mut h = self.admit_prefix.clone();
        h.write_u64(core as u64);
        h.write_u64(fetch);
        let admitted = h.finish().is_multiple_of(self.sample_denom);
        self.admit_memo[slot] = (core, fetch, admitted);
        admitted
    }

    /// Whether write-back pseudo-fetches and other non-core traffic are
    /// excluded (mirrors `FetchAudit`: write-backs carry
    /// `core_id == usize::MAX`).
    fn tracks(core: usize, fetch: FetchId) -> bool {
        core != usize::MAX && fetch != u64::MAX
    }

    /// Sampling decision point: call once when a core creates `fetch`.
    /// Returns whether the fetch was admitted; admitted fetches get an
    /// `Issued` event and all their later [`TraceSink::record`] calls are
    /// kept.
    pub fn issued(&mut self, fetch: &MemFetch, now_ps: Picos) -> bool {
        if !self.is_enabled() || !Self::tracks(fetch.core_id, fetch.id) {
            return false;
        }
        if self.events.len() >= self.cap {
            // Full: stop admitting new fetches (existing ones count drops).
            self.skipped += 1;
            return false;
        }
        if !self.admits(fetch.core_id, fetch.id) {
            self.skipped += 1;
            return false;
        }
        self.sampled += 1;
        self.tracked.insert(
            (fetch.core_id, fetch.id),
            Tracked {
                info: FetchInfo {
                    kind: fetch.kind,
                    line: fetch.line.index(),
                    warp: fetch.warp_id,
                },
                last_stall: None,
                done: false,
            },
        );
        self.push_event(TraceEvent {
            core: fetch.core_id,
            fetch: fetch.id,
            at_ps: now_ps,
            kind: TraceEventKind::Issued,
        });
        true
    }

    /// Records one lifecycle event for the fetch identified by
    /// `(core, fetch)`; a no-op unless that fetch was admitted by
    /// [`TraceSink::issued`]. Consecutive identical stalls collapse into
    /// one event per episode.
    pub fn record(&mut self, core: usize, fetch: FetchId, now_ps: Picos, kind: TraceEventKind) {
        if !self.is_enabled() || !Self::tracks(core, fetch) {
            return;
        }
        // Reject unsampled fetches before any map traffic: an unadmitted
        // fetch can never be tracked (`issued` filters on the same
        // decision), and the admission memo answers from a direct-mapped
        // slot — the overwhelmingly common exit on a sampling run, where
        // `denom - 1` of every `denom` fetches take it each record call.
        if self.sample_denom > 1 && !self.admits(core, fetch) {
            return;
        }
        // A fetch the hash admits but `issued` refused (the cap was full)
        // was never tracked and stays silent.
        let Some(t) = self.tracked.get_mut(&(core, fetch)) else {
            return;
        };
        if t.done {
            return;
        }
        match kind {
            TraceEventKind::StalledAt(level, cause) => {
                if t.last_stall == Some((level, cause)) {
                    return; // same episode, already recorded
                }
                t.last_stall = Some((level, cause));
            }
            _ => t.last_stall = None,
        }
        if kind.is_terminal() {
            t.done = true;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.push_event(TraceEvent {
            core,
            fetch,
            at_ps: now_ps,
            kind,
        });
    }

    /// [`TraceSink::record`] keyed by the fetch itself.
    pub fn record_fetch(&mut self, fetch: &MemFetch, now_ps: Picos, kind: TraceEventKind) {
        self.record(fetch.core_id, fetch.id, now_ps, kind);
    }

    fn push_event(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Events recorded so far, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Fetches admitted so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Checks structural invariants of the event stream, the tracing
    /// counterpart of `FetchAudit::finish`: per fetch, the first event is
    /// `Issued`, timestamps never decrease in record order, and nothing
    /// follows a terminal event. (Cross-hop timestamp monotonicity of the
    /// fetch itself is checked independently by the audit; a trace that
    /// fails here is a simulator bug, not a modeling choice.)
    ///
    /// # Errors
    ///
    /// Returns a bounded description of the violations found.
    pub fn validate(&self) -> Result<(), String> {
        let mut last: BTreeMap<(usize, FetchId), (Picos, bool)> = BTreeMap::new();
        let mut problems: Vec<String> = Vec::new();
        let mut violate = |msg: String| {
            if problems.len() < 16 {
                problems.push(msg);
            }
        };
        for e in &self.events {
            let key = (e.core, e.fetch);
            match last.get(&key) {
                None => {
                    if e.kind != TraceEventKind::Issued {
                        violate(format!(
                            "fetch core={} id={}: first event is {:?}, not Issued",
                            e.core, e.fetch, e.kind
                        ));
                    }
                }
                Some(&(prev_ps, done)) => {
                    if done {
                        violate(format!(
                            "fetch core={} id={}: {:?} after a terminal event",
                            e.core, e.fetch, e.kind
                        ));
                    }
                    if e.at_ps < prev_ps {
                        violate(format!(
                            "fetch core={} id={}: {:?}@{} travels back before {}",
                            e.core, e.fetch, e.kind, e.at_ps, prev_ps
                        ));
                    }
                }
            }
            let done = last.get(&key).is_some_and(|&(_, d)| d) || e.kind.is_terminal();
            last.insert(key, (e.at_ps, done));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Derives `[start, end]` intervals from the event stream (see
    /// [`spans_of`]).
    pub fn spans(&self) -> Vec<Span> {
        spans_of(&self.events)
    }

    /// Rolls the spans up into per-level queueing/service histograms.
    pub fn decomposition(&self) -> BTreeMap<Level, LevelLatency> {
        let mut levels: BTreeMap<Level, LevelLatency> = BTreeMap::new();
        for level in Level::ALL {
            levels.insert(level, LevelLatency::default());
        }
        for s in self.spans() {
            // INVARIANT: every Level::ALL entry was inserted above.
            let l = levels.get_mut(&s.level).expect("level pre-inserted");
            let dur = s.end_ps.saturating_sub(s.start_ps);
            if s.is_queue {
                l.queueing.record(dur);
            } else {
                l.service.record(dur);
            }
        }
        levels
    }

    /// Consumes the sink into its exportable form.
    pub fn into_data(self) -> TraceData {
        let levels = self.decomposition();
        TraceData {
            sample_denom: self.sample_denom,
            fetches: self.tracked.iter().map(|(&k, t)| (k, t.info)).collect(),
            levels,
            sampled: self.sampled,
            skipped: self.skipped,
            dropped_events: self.dropped,
            events: self.events,
        }
    }
}

impl TraceData {
    /// Derives `[start, end]` intervals from the event stream (see
    /// [`spans_of`]).
    pub fn spans(&self) -> Vec<Span> {
        spans_of(&self.events)
    }
}

/// Derives `[start, end]` intervals from an event stream: each
/// `EnqueuedAt(l)` pairs with the next `DequeuedAt(l)` of the same fetch
/// (queue residency), and each `DequeuedAt(l)` with the next
/// `ServicedAt(l)` (service time). Unpaired events (merged fetches,
/// cap-truncated lifecycles, in-flight fetches at end of run) derive no
/// interval.
pub fn spans_of(events: &[TraceEvent]) -> Vec<Span> {
    #[derive(Default)]
    struct Pending {
        enq: BTreeMap<Level, Picos>,
        deq: BTreeMap<Level, Picos>,
    }
    let mut pending: BTreeMap<(usize, FetchId), Pending> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        let p = pending.entry((e.core, e.fetch)).or_default();
        match e.kind {
            TraceEventKind::EnqueuedAt(l) => {
                p.enq.insert(l, e.at_ps);
            }
            TraceEventKind::DequeuedAt(l) => {
                if let Some(start) = p.enq.remove(&l) {
                    out.push(Span {
                        core: e.core,
                        fetch: e.fetch,
                        level: l,
                        is_queue: true,
                        start_ps: start,
                        end_ps: e.at_ps,
                    });
                }
                p.deq.insert(l, e.at_ps);
            }
            TraceEventKind::ServicedAt(l) => {
                if let Some(start) = p.deq.remove(&l) {
                    out.push(Span {
                        core: e.core,
                        fetch: e.fetch,
                        level: l,
                        is_queue: false,
                        start_ps: start,
                        end_ps: e.at_ps,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn load(core: usize, id: u64) -> MemFetch {
        MemFetch::new(id, core, 3, AccessKind::Load, LineAddr::new(id * 2), 10)
    }

    /// A sink that samples everything.
    fn full_sink() -> TraceSink {
        TraceSink::new(1, 10_000, 42)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = TraceSink::disabled();
        assert!(!t.is_enabled());
        assert!(!t.issued(&load(0, 1), 10));
        t.record(0, 1, 20, TraceEventKind::Returned);
        assert!(t.events().is_empty());
        assert_eq!(t.sampled(), 0);
    }

    #[test]
    fn sample_all_traces_full_lifecycle() {
        let mut t = full_sink();
        let f = load(0, 1);
        assert!(t.issued(&f, 10));
        t.record_fetch(&f, 20, TraceEventKind::EnqueuedAt(Level::L1));
        t.record_fetch(&f, 50, TraceEventKind::DequeuedAt(Level::L1));
        t.record_fetch(&f, 90, TraceEventKind::Returned);
        assert_eq!(t.events().len(), 4);
        t.validate().expect("well-formed lifecycle");
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].level, Level::L1);
        assert!(spans[0].is_queue);
        assert_eq!((spans[0].start_ps, spans[0].end_ps), (20, 50));
    }

    #[test]
    fn unsampled_fetch_is_ignored() {
        // Denominator large enough that (with this seed) the first draw
        // rejects; regardless of the draw, recording an unadmitted fetch
        // must be a no-op.
        let mut t = full_sink();
        t.record(0, 99, 20, TraceEventKind::Returned);
        assert!(t.events().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_partial() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut t = TraceSink::new(4, 10_000, seed);
            (0..64).map(|i| t.issued(&load(0, i), 10)).collect()
        };
        let a = decide(7);
        assert_eq!(a, decide(7), "same seed, same decisions");
        let admitted = a.iter().filter(|&&x| x).count();
        assert!(
            admitted > 0 && admitted < 64,
            "1-in-4 is partial: {admitted}"
        );
    }

    #[test]
    fn write_backs_are_never_sampled() {
        let mut t = full_sink();
        let wb = MemFetch::write_back(LineAddr::new(9), 5);
        assert!(!t.issued(&wb, 10));
        assert!(t.events().is_empty());
    }

    #[test]
    fn event_cap_bounds_memory() {
        let mut t = TraceSink::new(1, 3, 1);
        let f = load(0, 1);
        assert!(t.issued(&f, 10));
        t.record_fetch(&f, 20, TraceEventKind::EnqueuedAt(Level::L1));
        t.record_fetch(&f, 30, TraceEventKind::DequeuedAt(Level::L1));
        t.record_fetch(&f, 40, TraceEventKind::Returned); // dropped: cap hit
        assert_eq!(t.events().len(), 3);
        assert!(!t.issued(&load(0, 2), 50), "cap also stops admissions");
        let data = t.into_data();
        assert_eq!(data.dropped_events, 1);
        assert_eq!(data.skipped, 1);
    }

    #[test]
    fn stall_episodes_collapse() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 10);
        for c in 0..5 {
            t.record_fetch(
                &f,
                20 + c,
                TraceEventKind::StalledAt(Level::L2, StallCause::BpDram),
            );
        }
        t.record_fetch(&f, 30, TraceEventKind::DequeuedAt(Level::L2));
        t.record_fetch(
            &f,
            40,
            TraceEventKind::StalledAt(Level::L2, StallCause::BpDram),
        );
        // Issued + one stall episode + dequeue + a new episode.
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn terminal_event_freezes_the_fetch() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 10);
        t.record_fetch(&f, 20, TraceEventKind::Returned);
        t.record_fetch(&f, 30, TraceEventKind::ServicedAt(Level::L2));
        assert_eq!(t.events().len(), 2, "post-terminal events are dropped");
        t.validate().expect("frozen fetch stays valid");
    }

    #[test]
    fn validate_catches_time_travel() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 100);
        t.record_fetch(&f, 40, TraceEventKind::Returned);
        let err = t.validate().expect_err("must flag reversal");
        assert!(err.contains("travels back"), "{err}");
    }

    #[test]
    fn validate_catches_missing_issue() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 10);
        // Forge an event for a different fetch id directly.
        t.tracked.insert(
            (0, 2),
            Tracked {
                info: FetchInfo {
                    kind: AccessKind::Load,
                    line: 0,
                    warp: 0,
                },
                last_stall: None,
                done: false,
            },
        );
        t.record(0, 2, 20, TraceEventKind::Returned);
        let err = t.validate().expect_err("must flag missing Issued");
        assert!(err.contains("not Issued"), "{err}");
    }

    #[test]
    fn decomposition_separates_queueing_from_service() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 0);
        t.record_fetch(&f, 100, TraceEventKind::EnqueuedAt(Level::L2));
        t.record_fetch(&f, 900, TraceEventKind::DequeuedAt(Level::L2));
        t.record_fetch(&f, 1000, TraceEventKind::ServicedAt(Level::L2));
        t.record_fetch(&f, 1100, TraceEventKind::Returned);
        let levels = t.decomposition();
        let l2 = &levels[&Level::L2];
        assert_eq!(l2.queueing.count(), 1);
        assert_eq!(l2.queueing.sum(), 800);
        assert_eq!(l2.service.count(), 1);
        assert_eq!(l2.service.sum(), 100);
        assert_eq!(levels[&Level::Dram].queueing.count(), 0);
    }

    #[test]
    fn sequential_pairing_handles_two_icnt_legs() {
        let mut t = full_sink();
        let f = load(0, 1);
        t.issued(&f, 0);
        // Request leg.
        t.record_fetch(&f, 10, TraceEventKind::EnqueuedAt(Level::Icnt));
        t.record_fetch(&f, 40, TraceEventKind::DequeuedAt(Level::Icnt));
        // Reply leg.
        t.record_fetch(&f, 100, TraceEventKind::EnqueuedAt(Level::Icnt));
        t.record_fetch(&f, 160, TraceEventKind::DequeuedAt(Level::Icnt));
        t.record_fetch(&f, 170, TraceEventKind::Returned);
        let spans = t.spans();
        let icnt: Vec<_> = spans.iter().filter(|s| s.level == Level::Icnt).collect();
        assert_eq!(icnt.len(), 2);
        assert_eq!(icnt[0].end_ps - icnt[0].start_ps, 30);
        assert_eq!(icnt[1].end_ps - icnt[1].start_ps, 60);
    }

    #[test]
    fn admission_is_order_independent() {
        // Two sinks with the same seed observing fetches in opposite
        // orders agree on every decision.
        let ids: Vec<u64> = (0..64).collect();
        let mut fwd = TraceSink::new(4, 10_000, 7);
        let mut rev = TraceSink::new(4, 10_000, 7);
        let a: BTreeMap<u64, bool> = ids
            .iter()
            .map(|&i| (i, fwd.issued(&load(0, i), 10)))
            .collect();
        let b: BTreeMap<u64, bool> = ids
            .iter()
            .rev()
            .map(|&i| (i, rev.issued(&load(0, i), 10)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn into_data_carries_fetch_info() {
        let mut t = full_sink();
        let f = load(2, 7);
        t.issued(&f, 10);
        t.record_fetch(&f, 20, TraceEventKind::Returned);
        let data = t.into_data();
        assert_eq!(data.sampled, 1);
        assert_eq!(data.sample_denom, 1);
        let info = data.fetches.get(&(2, 7)).expect("info kept");
        assert_eq!(info.kind, AccessKind::Load);
        assert_eq!(info.warp, 3);
        assert_eq!(data.events.len(), 2);
        assert!(data.levels.contains_key(&Level::Dram));
    }
}
