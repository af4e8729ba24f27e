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
//! observes them in. It is taken once, in [`TraceSink::issued`], and
//! travels with the fetch ([`MemFetch::traced`]): every record site tests
//! that bit and nothing else, so the fetches that were passed over cost a
//! branch per site however long they stall.
//!
//! From the events it keeps the sink derives, per level, a queueing-delay
//! histogram (time between entering and leaving a queue) and a service-time
//! histogram (time between being dequeued and serviced). Comparing the two
//! is exactly the decomposition Dublish et al. use to argue that
//! *congestion, not raw latency*, dominates GPU memory latency: under
//! memory-intensive load the queueing component at the L2 and DRAM dwarfs
//! the service component. The histograms are fed as the events arrive,
//! from a per-fetch ledger that holds in-flight sampled fetches only; the
//! same ledger checks each fetch's timestamps on the spot
//! ([`TraceSink::check`]). [`spans_of`], [`decomposition_of`] and
//! [`TraceSink::validate`] derive the same answers from the finished event
//! stream: the reference the tests compare the ledger against, and what
//! the Chrome-trace exporter draws.
//!
//! Memory is bounded twice: sampling admits only 1-in-N fetches, and a hard
//! event cap stops recording (counting what was dropped) if a pathological
//! run exceeds it. The disabled sink (`sample_denom == 0`) allocates
//! nothing and admits nothing, so an untraced run pays only a branch per
//! call site.

use crate::clock::Picos;
use crate::fetch::{AccessKind, FetchId, MemFetch};
use crate::hash::StableHasher;
use crate::scratch::Scratch;
use crate::stats::Histogram;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A level of the memory hierarchy a traced fetch passes through.
// Ord so levels can key BTreeMaps and export in a stable order (HashMap is a
// disallowed type in model crates, see clippy.toml).
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

/// Number of [`Level`]s (bound of per-level arrays).
const N_LEVELS: usize = 4;

impl Level {
    /// All levels, in hierarchy order.
    pub const ALL: [Level; N_LEVELS] = [Level::L1, Level::Icnt, Level::L2, Level::Dram];

    /// Lowercase stable name (used in exports and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::Icnt => "icnt",
            Level::L2 => "l2",
            Level::Dram => "dram",
        }
    }

    /// Position in [`Level::ALL`] (dense index for per-level arrays): the
    /// declaration order.
    fn index(self) -> usize {
        self as usize
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

/// The ledger entry of one in-flight sampled fetch.
#[derive(Clone, Debug)]
struct Tracked {
    info: FetchInfo,
    last_stall: Option<(Level, StallCause)>,
    /// Timestamp of the last event kept for this fetch.
    last_ps: Picos,
    /// Per level, the enqueue (dequeue) stamp still waiting for its
    /// dequeue (service) event — [`spans_of`]'s pairing, kept as it goes.
    enq: [Option<Picos>; N_LEVELS],
    deq: [Option<Picos>; N_LEVELS],
}

impl Tracked {
    fn new(info: FetchInfo, issued_ps: Picos) -> Self {
        Tracked {
            info,
            last_stall: None,
            last_ps: issued_ps,
            enq: [None; N_LEVELS],
            deq: [None; N_LEVELS],
        }
    }
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
    /// Hasher pre-seeded with the admission seed; cloned per decision so
    /// the seed bytes are folded in once instead of on every fetch.
    admit_prefix: StableHasher,
    /// Everything recorded. A disabled sink has none, which keeps it a few
    /// words to build and drop: the untraced `cycle()` wrappers make one
    /// per call.
    book: Option<Box<Book>>,
}

/// What an enabled [`TraceSink`] has recorded so far.
#[derive(Clone, Debug, Default)]
struct Book {
    /// Sampled fetches that have not reached their terminal event yet.
    live: BTreeMap<(usize, FetchId), Tracked>,
    /// Sampled fetches past their terminal event, in retirement order.
    retired: Vec<((usize, FetchId), FetchInfo)>,
    events: Vec<TraceEvent>,
    /// Per-level histograms fed by every kept event, indexed by
    /// `Level::index`.
    levels: [LevelLatency; N_LEVELS],
    /// Per-fetch ordering violations seen at record time, bounded like
    /// [`TraceSink::validate`]'s report.
    violations: Vec<String>,
    sampled: u64,
    skipped: u64,
    dropped: u64,
}

/// Violations kept in a report; the first few identify the bug.
const MAX_VIOLATIONS: usize = 16;

impl TraceSink {
    /// A sink that records nothing and allocates nothing: it admits no
    /// fetch, so no record site gets past its first branch. This is what
    /// untraced runs pass around.
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
            book: (sample_denom > 0).then(Box::default),
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
    fn admits(seeded: &StableHasher, denom: u64, core: usize, fetch: FetchId) -> bool {
        if denom == 1 {
            return true;
        }
        let mut h = seeded.clone();
        h.write_u64(core as u64);
        h.write_u64(fetch);
        h.finish().is_multiple_of(denom)
    }

    /// Whether write-back pseudo-fetches and other non-core traffic are
    /// excluded (mirrors `FetchAudit`: write-backs carry
    /// `core_id == usize::MAX`).
    fn tracks(core: usize, fetch: FetchId) -> bool {
        core != usize::MAX && fetch != u64::MAX
    }

    /// The one sampling decision point: call once when a core creates
    /// `fetch`. The verdict is returned and left on the fetch
    /// ([`MemFetch::traced`]), where every later record call reads it; an
    /// admitted fetch gets an `Issued` event. A fetch refused because the
    /// event cap is full carries `false` like any other refusal.
    pub fn issued(&mut self, fetch: &mut MemFetch, now_ps: Picos) -> bool {
        let admitted = self.admit(fetch, now_ps);
        fetch.traced = Scratch(admitted);
        admitted
    }

    fn admit(&mut self, fetch: &MemFetch, now_ps: Picos) -> bool {
        let Some(book) = self.book.as_deref_mut() else {
            return false; // disabled
        };
        if !Self::tracks(fetch.core_id, fetch.id) {
            return false;
        }
        // Full: stop admitting new fetches (existing ones count drops).
        let full = book.events.len() >= self.cap;
        let (prefix, denom) = (&self.admit_prefix, self.sample_denom);
        if full || !Self::admits(prefix, denom, fetch.core_id, fetch.id) {
            book.skipped += 1;
            return false;
        }
        book.sampled += 1;
        let info = FetchInfo {
            kind: fetch.kind,
            line: fetch.line.index(),
            warp: fetch.warp_id,
        };
        book.live
            .insert((fetch.core_id, fetch.id), Tracked::new(info, now_ps));
        book.events.push(TraceEvent {
            core: fetch.core_id,
            fetch: fetch.id,
            at_ps: now_ps,
            kind: TraceEventKind::Issued,
        });
        true
    }

    /// Records one lifecycle event for the fetch identified by
    /// `(core, fetch)`. `admitted` is the verdict [`TraceSink::issued`]
    /// left on that fetch ([`MemFetch::traced`]), captured with the id by
    /// sites that have handed the fetch itself on; a passed-over fetch
    /// costs this one test. Consecutive identical stalls collapse into one
    /// event per episode.
    pub fn record(
        &mut self,
        admitted: bool,
        core: usize,
        fetch: FetchId,
        now_ps: Picos,
        kind: TraceEventKind,
    ) {
        if admitted {
            self.record_admitted(core, fetch, now_ps, kind);
        }
    }

    /// [`TraceSink::record`] keyed by the fetch itself.
    pub fn record_fetch(&mut self, fetch: &MemFetch, now_ps: Picos, kind: TraceEventKind) {
        self.record(fetch.traced.0, fetch.core_id, fetch.id, now_ps, kind);
    }

    /// The admitted minority's path: one lookup among the in-flight
    /// sampled fetches, then the ledger does on this event what the
    /// end-of-run passes would do on the whole stream.
    fn record_admitted(
        &mut self,
        core: usize,
        fetch: FetchId,
        now_ps: Picos,
        kind: TraceEventKind,
    ) {
        // A sink that admitted nothing has nothing to add to.
        let Some(book) = self.book.as_deref_mut() else {
            return;
        };
        // Not live: past its terminal event (a store absorbed at the L2's
        // door still stalls inside the bank), or admitted by another sink.
        let Entry::Occupied(mut slot) = book.live.entry((core, fetch)) else {
            return;
        };
        let t = slot.get_mut();
        match kind {
            TraceEventKind::StalledAt(level, cause) => {
                if t.last_stall == Some((level, cause)) {
                    return; // same episode, already recorded
                }
                t.last_stall = Some((level, cause));
            }
            _ => t.last_stall = None,
        }
        if book.events.len() >= self.cap {
            book.dropped += 1;
        } else {
            // Only a kept event moves the ledger, so a run that hits the
            // cap derives what the reference derives from its events.
            if now_ps < t.last_ps && book.violations.len() < MAX_VIOLATIONS {
                book.violations
                    .push(travels_back(core, fetch, kind, now_ps, t.last_ps));
            }
            t.last_ps = now_ps;
            match kind {
                TraceEventKind::EnqueuedAt(l) => t.enq[l.index()] = Some(now_ps),
                TraceEventKind::DequeuedAt(l) => {
                    if let Some(start) = t.enq[l.index()].take() {
                        book.levels[l.index()]
                            .queueing
                            .record(now_ps.saturating_sub(start).as_u64());
                    }
                    t.deq[l.index()] = Some(now_ps);
                }
                TraceEventKind::ServicedAt(l) => {
                    if let Some(start) = t.deq[l.index()].take() {
                        book.levels[l.index()]
                            .service
                            .record(now_ps.saturating_sub(start).as_u64());
                    }
                }
                _ => {}
            }
            book.events.push(TraceEvent {
                core,
                fetch,
                at_ps: now_ps,
                kind,
            });
        }
        if kind.is_terminal() {
            let (key, t) = slot.remove_entry();
            book.retired.push((key, t.info));
        }
    }

    /// Events recorded so far, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        self.book.as_deref().map_or(&[], |book| &book.events)
    }

    /// Fetches admitted so far.
    pub fn sampled(&self) -> u64 {
        self.book.as_deref().map_or(0, |book| book.sampled)
    }

    /// The per-fetch ordering check, as kept at record time: every event
    /// the sink kept was compared with the previous one kept for its fetch
    /// when it arrived. Equal to [`TraceSink::validate`] on any stream this
    /// sink recorded — `issued` puts `Issued` first and a fetch leaves the
    /// ledger at its terminal event, so time reversal is the one rule a
    /// record call can break. (Cross-hop timestamp monotonicity of the
    /// fetch itself is checked independently by the audit; a trace that
    /// fails here is a simulator bug, not a modeling choice.)
    ///
    /// # Errors
    ///
    /// Returns a bounded description of the violations seen.
    pub fn check(&self) -> Result<(), String> {
        match self.book.as_deref() {
            Some(book) if !book.violations.is_empty() => Err(book.violations.join("; ")),
            _ => Ok(()),
        }
    }

    /// The reference for [`TraceSink::check`]: re-derives the structural
    /// invariants from the finished event stream — per fetch, the first
    /// event is `Issued`, timestamps never decrease in record order, and
    /// nothing follows a terminal event. The tracing counterpart of
    /// `FetchAudit::finish`.
    ///
    /// # Errors
    ///
    /// Returns a bounded description of the violations found.
    pub fn validate(&self) -> Result<(), String> {
        let mut last: BTreeMap<(usize, FetchId), (Picos, bool)> = BTreeMap::new();
        let mut problems: Vec<String> = Vec::new();
        let mut violate = |msg: String| {
            if problems.len() < MAX_VIOLATIONS {
                problems.push(msg);
            }
        };
        for e in self.events() {
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
                        violate(travels_back(e.core, e.fetch, e.kind, e.at_ps, prev_ps));
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
        spans_of(self.events())
    }

    /// Consumes the sink into its exportable form. `levels` is what the
    /// ledger accumulated; [`decomposition_of`] over `events` is equal.
    pub fn into_data(self) -> TraceData {
        // A disabled sink exports what an enabled one that saw nothing
        // would: no events, empty histograms.
        let book = self.book.map_or_else(Book::default, |book| *book);
        TraceData {
            sample_denom: self.sample_denom,
            fetches: book
                .retired
                .into_iter()
                .chain(book.live.into_iter().map(|(k, t)| (k, t.info)))
                .collect(),
            levels: Level::ALL.into_iter().zip(book.levels).collect(),
            sampled: book.sampled,
            skipped: book.skipped,
            dropped_events: book.dropped,
            events: book.events,
        }
    }
}

fn travels_back(
    core: usize,
    fetch: FetchId,
    kind: TraceEventKind,
    at_ps: Picos,
    prev_ps: Picos,
) -> String {
    format!("fetch core={core} id={fetch}: {kind:?}@{at_ps} travels back before {prev_ps}")
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

/// Rolls the spans of an event stream ([`spans_of`]) up into per-level
/// queueing/service histograms: the reference derivation of
/// [`TraceData::levels`], which the sink keeps as the events arrive.
pub fn decomposition_of(events: &[TraceEvent]) -> BTreeMap<Level, LevelLatency> {
    let mut levels: BTreeMap<Level, LevelLatency> = Level::ALL
        .into_iter()
        .map(|l| (l, LevelLatency::default()))
        .collect();
    for s in spans_of(events) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: every Level::ALL entry was inserted above."
        )]
        let l = levels.get_mut(&s.level).expect("level pre-inserted");
        let dur = s.end_ps.saturating_sub(s.start_ps).as_u64();
        if s.is_queue {
            l.queueing.record(dur);
        } else {
            l.service.record(dur);
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::rng::Xoshiro256;

    #[test]
    fn all_lists_the_levels_in_index_order() {
        for (i, level) in Level::ALL.into_iter().enumerate() {
            assert_eq!(level.index(), i, "{level:?}");
        }
    }

    /// A fetch no sink has seen: its verdict bit is still `false`.
    fn load(core: usize, id: u64) -> MemFetch {
        MemFetch::new(id, core, 3, AccessKind::Load, LineAddr::new(id * 2), 10)
    }

    /// A sink that samples everything.
    fn full_sink() -> TraceSink {
        TraceSink::new(1, 10_000, 42)
    }

    fn book(t: &TraceSink) -> &Book {
        t.book.as_deref().expect("an enabled sink")
    }

    /// `load(core, id)` issued into `t` at `now_ps`.
    fn issue(t: &mut TraceSink, core: usize, id: u64, now_ps: Picos) -> MemFetch {
        let mut f = load(core, id);
        t.issued(&mut f, now_ps);
        f
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = TraceSink::disabled();
        assert!(!t.is_enabled());
        let mut f = load(0, 1);
        assert!(!t.issued(&mut f, Picos(10)));
        assert!(!f.traced.0);
        t.record_fetch(&f, Picos(20), TraceEventKind::Returned);
        // Even a fetch another sink admitted finds nothing to join.
        t.record(true, 0, 1, Picos(20), TraceEventKind::Returned);
        assert!(t.events().is_empty());
        assert_eq!(t.sampled(), 0);
    }

    #[test]
    fn sample_all_traces_full_lifecycle() {
        let mut t = full_sink();
        let mut f = load(0, 1);
        assert!(t.issued(&mut f, Picos(10)));
        assert!(f.traced.0);
        t.record_fetch(&f, Picos(20), TraceEventKind::EnqueuedAt(Level::L1));
        t.record_fetch(&f, Picos(50), TraceEventKind::DequeuedAt(Level::L1));
        t.record_fetch(&f, Picos(90), TraceEventKind::Returned);
        assert_eq!(t.events().len(), 4);
        t.validate().expect("well-formed lifecycle");
        t.check().expect("well-formed lifecycle");
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].level, Level::L1);
        assert!(spans[0].is_queue);
        assert_eq!((spans[0].start_ps, spans[0].end_ps), (Picos(20), Picos(50)));
    }

    #[test]
    fn unsampled_fetch_is_ignored() {
        // A test-built fetch and a write-back carry `false`; a site that
        // claims admission for an id the sink never saw finds no ledger
        // entry. None of them records.
        let mut t = full_sink();
        t.record_fetch(&load(0, 99), Picos(20), TraceEventKind::Returned);
        t.record_fetch(
            &MemFetch::write_back(LineAddr::new(9), Picos(5)),
            Picos(20),
            TraceEventKind::Returned,
        );
        t.record(false, 0, 99, Picos(20), TraceEventKind::Returned);
        t.record(true, 0, 99, Picos(20), TraceEventKind::Returned);
        assert!(t.events().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_partial() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut t = TraceSink::new(4, 10_000, seed);
            (0..64)
                .map(|i| t.issued(&mut load(0, i), Picos(10)))
                .collect()
        };
        let a = decide(7);
        assert_eq!(a, decide(7), "same seed, same decisions");
        let admitted = a.iter().filter(|&&x| x).count();
        assert!(
            admitted > 0 && admitted < 64,
            "1-in-4 is partial: {admitted}"
        );
    }

    /// The sampled set is pinned to the hash: the bit `issued` leaves on a
    /// fetch is `StableHasher(seed, core, id) % denom == 0`, whatever else
    /// changes about how the verdict is stored or carried.
    #[test]
    fn the_bit_on_the_fetch_is_the_hash_verdict() {
        for seed in [0u64, 7] {
            for denom in [1u64, 2, 16] {
                let mut t = TraceSink::new(denom, usize::MAX, seed);
                let mut admitted = 0u64;
                for core in 0..4usize {
                    for id in 0..4096u64 {
                        let mut h = StableHasher::new();
                        h.write_u64(seed);
                        h.write_u64(core as u64);
                        h.write_u64(id);
                        let remainder = h.finish() % denom;
                        let expect = remainder == 0;
                        let mut f = load(core, id);
                        assert_eq!(t.issued(&mut f, Picos(10)), expect);
                        assert_eq!(f.traced.0, expect, "seed {seed} 1/{denom} {core}:{id}");
                        admitted += u64::from(expect);
                    }
                }
                assert_eq!(t.sampled(), admitted);
                assert_eq!(t.events().len() as u64, admitted);
            }
        }
    }

    #[test]
    fn write_backs_are_never_sampled() {
        let mut t = full_sink();
        let mut wb = MemFetch::write_back(LineAddr::new(9), Picos(5));
        assert!(!t.issued(&mut wb, Picos(10)));
        assert!(!wb.traced.0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn event_cap_bounds_memory() {
        let mut t = TraceSink::new(1, 3, 1);
        let f = issue(&mut t, 0, 1, Picos(10));
        assert!(f.traced.0);
        t.record_fetch(&f, Picos(20), TraceEventKind::EnqueuedAt(Level::L1));
        t.record_fetch(&f, Picos(30), TraceEventKind::DequeuedAt(Level::L1));
        t.record_fetch(&f, Picos(40), TraceEventKind::Returned); // dropped: cap hit
        assert_eq!(t.events().len(), 3);
        // The cap also stops admissions: the refused fetch carries `false`
        // and records nothing, and counts no drop either.
        let refused = issue(&mut t, 0, 2, Picos(50));
        assert!(!refused.traced.0);
        t.record_fetch(&refused, Picos(60), TraceEventKind::Returned);
        let data = t.into_data();
        assert_eq!(data.dropped_events, 1);
        assert_eq!(data.skipped, 1);
        assert_eq!(data.fetches.len(), 1);
    }

    #[test]
    fn stall_episodes_collapse() {
        let mut t = full_sink();
        let f = issue(&mut t, 0, 1, Picos(10));
        for c in 0..5 {
            t.record_fetch(
                &f,
                Picos(20 + c),
                TraceEventKind::StalledAt(Level::L2, StallCause::BpDram),
            );
        }
        t.record_fetch(&f, Picos(30), TraceEventKind::DequeuedAt(Level::L2));
        t.record_fetch(
            &f,
            Picos(40),
            TraceEventKind::StalledAt(Level::L2, StallCause::BpDram),
        );
        // Issued + one stall episode + dequeue + a new episode.
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn terminal_event_freezes_the_fetch() {
        let mut t = full_sink();
        let f = issue(&mut t, 0, 1, Picos(10));
        t.record_fetch(&f, Picos(20), TraceEventKind::Returned);
        assert!(
            book(&t).live.is_empty(),
            "lookups see in-flight fetches only"
        );
        t.record_fetch(&f, Picos(30), TraceEventKind::ServicedAt(Level::L2));
        assert_eq!(t.events().len(), 2, "post-terminal events are dropped");
        t.validate().expect("retired fetch stays valid");
        t.check().expect("retired fetch stays valid");
    }

    #[test]
    fn validate_catches_time_travel() {
        let mut t = full_sink();
        let f = issue(&mut t, 0, 1, Picos(100));
        t.record_fetch(&f, Picos(40), TraceEventKind::Returned);
        let err = t.check().expect_err("must flag reversal");
        assert_eq!(
            err,
            "fetch core=0 id=1: Returned@40 travels back before 100"
        );
        assert_eq!(t.validate(), Err(err), "the reference agrees word for word");
    }

    #[test]
    fn validate_catches_what_only_a_forged_stream_can_hold() {
        // `issued` puts `Issued` first and a terminal event retires the
        // fetch, so neither rule can be broken through the sink's calls;
        // the reference still checks them for streams built elsewhere.
        let mut t = full_sink();
        let f = issue(&mut t, 0, 1, Picos(10));
        t.record_fetch(&f, Picos(20), TraceEventKind::Returned);
        let forge = |t: &mut TraceSink, fetch: u64| {
            t.book.as_mut().expect("enabled").events.push(TraceEvent {
                core: 0,
                fetch,
                at_ps: Picos(30),
                kind: TraceEventKind::ServicedAt(Level::L2),
            });
        };
        forge(&mut t, 1);
        forge(&mut t, 2);
        let err = t.validate().expect_err("must flag both");
        assert!(
            err.contains("id=1: ServicedAt(L2) after a terminal event"),
            "{err}"
        );
        assert!(
            err.contains("id=2: first event is ServicedAt(L2), not Issued"),
            "{err}"
        );
    }

    #[test]
    fn decomposition_separates_queueing_from_service() {
        let mut t = full_sink();
        let f = issue(&mut t, 0, 1, Picos(0));
        t.record_fetch(&f, Picos(100), TraceEventKind::EnqueuedAt(Level::L2));
        t.record_fetch(&f, Picos(900), TraceEventKind::DequeuedAt(Level::L2));
        t.record_fetch(&f, Picos(1000), TraceEventKind::ServicedAt(Level::L2));
        t.record_fetch(&f, Picos(1100), TraceEventKind::Returned);
        let reference = decomposition_of(t.events());
        let levels = t.into_data().levels;
        assert_eq!(levels, reference);
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
        let f = issue(&mut t, 0, 1, Picos(0));
        // Request leg.
        t.record_fetch(&f, Picos(10), TraceEventKind::EnqueuedAt(Level::Icnt));
        t.record_fetch(&f, Picos(40), TraceEventKind::DequeuedAt(Level::Icnt));
        // Reply leg.
        t.record_fetch(&f, Picos(100), TraceEventKind::EnqueuedAt(Level::Icnt));
        t.record_fetch(&f, Picos(160), TraceEventKind::DequeuedAt(Level::Icnt));
        t.record_fetch(&f, Picos(170), TraceEventKind::Returned);
        let spans = t.spans();
        let icnt: Vec<_> = spans.iter().filter(|s| s.level == Level::Icnt).collect();
        assert_eq!(icnt.len(), 2);
        assert_eq!(icnt[0].end_ps - icnt[0].start_ps, Picos(30));
        assert_eq!(icnt[1].end_ps - icnt[1].start_ps, Picos(60));
        let icnt = &t.into_data().levels[&Level::Icnt];
        assert_eq!((icnt.queueing.count(), icnt.queueing.sum()), (2, 90));
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
            .map(|&i| (i, fwd.issued(&mut load(0, i), Picos(10))))
            .collect();
        let b: BTreeMap<u64, bool> = ids
            .iter()
            .rev()
            .map(|&i| (i, rev.issued(&mut load(0, i), Picos(10))))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn into_data_carries_fetch_info() {
        let mut t = full_sink();
        let done = issue(&mut t, 2, 7, Picos(10));
        t.record_fetch(&done, Picos(20), TraceEventKind::Returned);
        issue(&mut t, 1, 9, Picos(30)); // still in flight at the end
        let data = t.into_data();
        assert_eq!(data.sampled, 2);
        assert_eq!(data.sample_denom, 1);
        assert_eq!(
            data.fetches.keys().copied().collect::<Vec<_>>(),
            [(1, 9), (2, 7)],
            "retired and in-flight fetches, in key order"
        );
        let info = data.fetches.get(&(2, 7)).expect("info kept");
        assert_eq!(info.kind, AccessKind::Load);
        assert_eq!(info.warp, 3);
        assert_eq!(data.events.len(), 3);
        assert!(data.levels.contains_key(&Level::Dram));
    }

    /// Drives a sink with a seeded random event stream: a pool of fetches
    /// in flight, each event drawn at random — queue entries and exits at
    /// random levels in no particular pairing, merges, repeated stalls,
    /// terminal events (and, with `misbehave`, time-reversed stamps and
    /// events for fetches already retired). Some fetches are left in
    /// flight.
    fn random_stream(seed: u64, denom: u64, cap: usize, misbehave: bool) -> TraceSink {
        fn pick(rng: &mut Xoshiro256, n: usize) -> usize {
            usize::try_from(rng.below(n as u64)).expect("below a usize")
        }
        let mut rng = Xoshiro256::seeded(seed);
        let mut t = TraceSink::new(denom, cap, seed);
        let mut pool: Vec<MemFetch> = Vec::new();
        let mut gone: Vec<MemFetch> = Vec::new();
        let mut now = Picos(1_000);
        let mut next_id = 0u64;
        for _ in 0..4_000 {
            now += Picos(rng.below(50));
            if pool.len() < 24 && rng.below(3) == 0 {
                let core = pick(&mut rng, 3);
                pool.push(issue(&mut t, core, next_id, now));
                next_id += 1;
                continue;
            }
            if pool.is_empty() {
                continue;
            }
            let i = pick(&mut rng, pool.len());
            let level = Level::ALL[pick(&mut rng, N_LEVELS)];
            let at = if misbehave && rng.below(40) == 0 {
                now - Picos(rng.below(900))
            } else {
                now
            };
            let kind = match rng.below(12) {
                0..=2 => TraceEventKind::EnqueuedAt(level),
                3..=5 => TraceEventKind::DequeuedAt(level),
                6 | 7 => TraceEventKind::ServicedAt(level),
                8 => TraceEventKind::MshrMerged(level),
                9 | 10 => TraceEventKind::StalledAt(level, StallCause::Mshr),
                _ if rng.below(2) == 0 => TraceEventKind::Returned,
                _ => TraceEventKind::Absorbed,
            };
            t.record_fetch(&pool[i], at, kind);
            if kind.is_terminal() {
                gone.push(pool.swap_remove(i));
            } else if misbehave && !gone.is_empty() && rng.below(20) == 0 {
                let j = pick(&mut rng, gone.len());
                t.record_fetch(&gone[j], at, TraceEventKind::ServicedAt(level));
            }
        }
        t
    }

    #[test]
    fn ledger_equals_the_reference_on_random_streams() {
        for seed in 0..24u64 {
            // Every third stream hits its cap a third of the way in.
            let cap = if seed % 3 == 0 { 700 } else { usize::MAX };
            let denom = 1 + seed % 2;
            let t = random_stream(seed, denom, cap, false);
            assert!(t.events().len() > 500 || cap == 700, "seed {seed}");
            t.validate().expect("an orderly stream");
            t.check().expect("an orderly stream");
            let reference = decomposition_of(t.events());
            let queued: u64 = reference.values().map(|l| l.queueing.count()).sum();
            assert!(queued > 20, "seed {seed}: the stream pairs spans");
            // (A full sink admits nothing new, so its ledger drains.)
            let hit = book(&t).dropped > 0;
            assert_eq!(hit, cap == 700, "seed {seed}: cap hit");
            assert!(
                hit || !book(&t).live.is_empty(),
                "seed {seed}: fetches in flight"
            );
            assert_eq!(t.into_data().levels, reference, "seed {seed}");
        }
    }

    #[test]
    fn ledger_flags_exactly_what_the_reference_flags() {
        let mut flagged = 0;
        for seed in 100..124u64 {
            let cap = if seed % 3 == 0 { 700 } else { usize::MAX };
            let t = random_stream(seed, 1, cap, true);
            assert_eq!(t.check(), t.validate(), "seed {seed}");
            flagged += u32::from(t.check().is_err());
            // A reversed stamp still pairs (saturating to 0) the same way.
            assert_eq!(t.clone().into_data().levels, decomposition_of(t.events()));
        }
        assert!(
            flagged >= 12,
            "the streams are meant to misbehave: {flagged}"
        );
    }
}
