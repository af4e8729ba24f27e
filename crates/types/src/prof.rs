//! Host-side self-profiler: hierarchical wall-clock spans for the
//! simulator *host* (the machine running the simulation), as opposed to
//! the simulated machine that [`crate::telemetry`] and [`crate::trace`]
//! observe.
//!
//! The profiler answers where `GpuSim::run` spends wall time — core,
//! crossbar/L2 and DRAM ticks, telemetry, scheduler wakes, fast-forward
//! jumps. It is strictly **observational**: nothing read from a clock ever
//! feeds back into the simulation, so results are bit-identical with
//! profiling on or off (the `host_prof` determinism suite pins this
//! byte-for-byte).
//!
//! ## Span contract
//!
//! A simulation runs on one thread, so there is one timeline: closed spans
//! `[start, end)` against an epoch taken when the profiler is created.
//! Spans may nest by time containment (e.g. [`HostPhase::L2Tick`] inside
//! [`HostPhase::IcntTick`]); they never overlap partially, because they
//! close in LIFO order. Per-phase totals and counts always accumulate; the
//! per-span event list is bounded by a cap (overflow is counted in
//! `dropped`, never silently).
//!
//! Timing uses [`Instant`], which is monotonic — spans cannot go negative
//! under NTP slew. The R1 lint ban on wall-clock in model crates carries an
//! audited `[[allow]]` for this module: the clock is *read* here but never
//! *used* by the model.

use std::time::Instant;

/// One profiled phase of host work. Top-level phases partition the run
/// loop's wall time; nested phases attribute time *within* a top-level
/// phase (see [`HostPhase::is_top_level`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HostPhase {
    /// Issue + L1 + core-side pipelines (`core_tick`). Top-level.
    CoreTick,
    /// Crossbar + L2 + boundary queues (`icnt_tick`). Top-level.
    IcntTick,
    /// L2 bank service within `icnt_tick` (the "l2_tick" sub-phase:
    /// reply-credit drain + bank sweep). Nested inside `IcntTick`.
    L2Tick,
    /// DRAM channel service (`dram_tick`). Top-level.
    DramTick,
    /// A fast-forward probe that found no jumpable gap. Top-level.
    FfProbe,
    /// A fast-forward probe that jumped (includes the bulk replay).
    /// Top-level.
    FfJump,
    /// Windowed telemetry sampling after an icnt edge. Top-level.
    Telemetry,
    /// Event scheduler: draining due wakes from the time queue at the top
    /// of an instant (`TimeQ::pop_ready` + owed-cycle flush). Top-level.
    SchedPop,
    /// Event scheduler: the end-of-run flush of every sleeping component's
    /// owed cycles. Top-level.
    SchedResched,
}

/// Number of [`HostPhase`] variants (array-index bound).
pub const N_HOST_PHASES: usize = 9;

impl HostPhase {
    /// Every phase, in fixed display/index order.
    pub const ALL: [HostPhase; N_HOST_PHASES] = [
        HostPhase::CoreTick,
        HostPhase::IcntTick,
        HostPhase::L2Tick,
        HostPhase::DramTick,
        HostPhase::FfProbe,
        HostPhase::FfJump,
        HostPhase::Telemetry,
        HostPhase::SchedPop,
        HostPhase::SchedResched,
    ];

    /// Stable dense index into per-phase arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            HostPhase::CoreTick => 0,
            HostPhase::IcntTick => 1,
            HostPhase::L2Tick => 2,
            HostPhase::DramTick => 3,
            HostPhase::FfProbe => 4,
            HostPhase::FfJump => 5,
            HostPhase::Telemetry => 6,
            HostPhase::SchedPop => 7,
            HostPhase::SchedResched => 8,
        }
    }

    /// Snake-case name used in tables, trace JSON and metric labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::CoreTick => "core_tick",
            HostPhase::IcntTick => "icnt_tick",
            HostPhase::L2Tick => "l2_tick",
            HostPhase::DramTick => "dram_tick",
            HostPhase::FfProbe => "ff_probe",
            HostPhase::FfJump => "ff_jump",
            HostPhase::Telemetry => "telemetry",
            HostPhase::SchedPop => "sched_pop",
            HostPhase::SchedResched => "sched_resched",
        }
    }

    /// Whether the phase partitions run-loop wall time (top-level), as
    /// opposed to attributing time *within* another phase (nested).
    /// Summing top-level totals approximates the busy portion of the run's
    /// wall time without double counting.
    #[must_use]
    pub fn is_top_level(self) -> bool {
        !matches!(self, HostPhase::L2Tick)
    }
}

/// One closed span, relative to the profiler epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What the host was doing.
    pub phase: HostPhase,
    /// Span start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Default cap on recorded [`SpanEvent`]s. Totals and counts keep
/// accumulating past the cap; only the per-span timeline truncates (with
/// the overflow counted), bounding profiler memory on long runs.
pub const DEFAULT_EVENT_CAP: usize = 1 << 18;

/// The host profiler: a span recorder owned by the thread that owns
/// `GpuSim`. Recording is plain (non-atomic) and costs two monotonic clock
/// reads per span at most — one when chaining.
#[derive(Debug)]
pub struct HostProfiler {
    epoch: Instant,
    totals_ns: [u64; N_HOST_PHASES],
    counts: [u64; N_HOST_PHASES],
    events: Vec<SpanEvent>,
    cap: usize,
    dropped: u64,
}

impl HostProfiler {
    /// A profiler whose epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        HostProfiler {
            epoch: Instant::now(),
            totals_ns: [0; N_HOST_PHASES],
            counts: [0; N_HOST_PHASES],
            events: Vec::new(),
            cap: DEFAULT_EVENT_CAP,
            dropped: 0,
        }
    }

    /// The instant every span start is measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Overrides the event cap (tests use small caps to exercise dropping).
    pub fn set_event_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Closes a span that started at `t0` and returns its end timestamp so
    /// adjacent phases can chain (end of one = start of the next) with a
    /// single clock read per boundary.
    #[inline]
    pub fn end_chain(&mut self, phase: HostPhase, t0: Instant) -> Instant {
        let t1 = Instant::now();
        self.record_span(phase, t0, t1);
        t1
    }

    /// Records a closed span from explicit timestamps (testable without
    /// sleeping: `Instant + Duration` fabricates offsets).
    pub fn record_span(&mut self, phase: HostPhase, start: Instant, end: Instant) {
        let i = phase.index();
        let dur_ns = saturating_ns(end.saturating_duration_since(start).as_nanos());
        self.totals_ns[i] += dur_ns;
        self.counts[i] += 1;
        if self.events.len() < self.cap {
            let start_ns = saturating_ns(start.saturating_duration_since(self.epoch).as_nanos());
            self.events.push(SpanEvent {
                phase,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Freezes everything into a [`HostReport`]. Wall time is epoch→now.
    #[must_use]
    pub fn finish(self) -> HostReport {
        HostReport {
            wall_ns: saturating_ns(self.epoch.elapsed().as_nanos()),
            totals_ns: self.totals_ns,
            counts: self.counts,
            events: self.events,
            dropped: self.dropped,
        }
    }
}

impl Default for HostProfiler {
    fn default() -> Self {
        HostProfiler::new()
    }
}

/// Frozen profile of one run: plain data, no clock handles, safe to ship
/// across threads or serialize.
#[derive(Clone, Debug)]
pub struct HostReport {
    /// Wall nanoseconds from profiler creation to [`HostProfiler::finish`].
    pub wall_ns: u64,
    /// Accumulated nanoseconds per phase (indexed by [`HostPhase::index`]).
    pub totals_ns: [u64; N_HOST_PHASES],
    /// Span counts per phase.
    pub counts: [u64; N_HOST_PHASES],
    /// Recorded spans, capped; see [`HostReport::dropped`].
    pub events: Vec<SpanEvent>,
    /// Spans past the event cap (totals above still include them).
    pub dropped: u64,
}

impl HostReport {
    /// Accumulated nanoseconds for `phase`.
    #[must_use]
    pub fn phase_total_ns(&self, phase: HostPhase) -> u64 {
        self.totals_ns[phase.index()]
    }

    /// Span count for `phase`.
    #[must_use]
    pub fn phase_count(&self, phase: HostPhase) -> u64 {
        self.counts[phase.index()]
    }

    /// Nanoseconds attributed to any phase: the top-level totals, which do
    /// not double count the spans nested inside them.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        HostPhase::ALL
            .iter()
            .filter(|p| p.is_top_level())
            .map(|p| self.phase_total_ns(*p))
            .sum()
    }
}

/// Clamps a `u128` nanosecond count into `u64` (saturating; ~584 years).
fn saturating_ns(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn span_totals_and_counts_accumulate() {
        let mut p = HostProfiler::new();
        let epoch = p.epoch();
        p.record_span(HostPhase::IcntTick, at(epoch, 10), at(epoch, 40));
        p.record_span(HostPhase::IcntTick, at(epoch, 50), at(epoch, 55));
        p.record_span(HostPhase::DramTick, at(epoch, 55), at(epoch, 60));
        let r = p.finish();
        assert_eq!(r.phase_total_ns(HostPhase::IcntTick), 35_000);
        assert_eq!(r.phase_count(HostPhase::IcntTick), 2);
        assert_eq!(r.phase_total_ns(HostPhase::DramTick), 5_000);
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.dropped, 0);
        assert!(r.wall_ns > 0);
    }

    #[test]
    fn nested_spans_are_time_contained_and_not_double_counted() {
        // L2Tick nests inside IcntTick by construction in the run loop;
        // the exporter relies on containment, so pin it here.
        let mut p = HostProfiler::new();
        let epoch = p.epoch();
        p.record_span(HostPhase::L2Tick, at(epoch, 120), at(epoch, 160));
        p.record_span(HostPhase::IcntTick, at(epoch, 100), at(epoch, 200));
        let r = p.finish();
        let span = |phase| *r.events.iter().find(|e| e.phase == phase).unwrap();
        let (icnt, l2) = (span(HostPhase::IcntTick), span(HostPhase::L2Tick));
        assert!(l2.start_ns >= icnt.start_ns);
        assert!(l2.start_ns + l2.dur_ns <= icnt.start_ns + icnt.dur_ns);
        assert_eq!(r.busy_ns(), 100_000, "the nested span is not counted twice");
    }

    #[test]
    fn event_cap_drops_spans_but_keeps_totals() {
        let mut p = HostProfiler::new();
        let epoch = p.epoch();
        p.set_event_cap(2);
        for k in 0..5 {
            p.record_span(
                HostPhase::CoreTick,
                at(epoch, k * 10),
                at(epoch, k * 10 + 1),
            );
        }
        let r = p.finish();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.dropped, 3);
        assert_eq!(
            r.phase_count(HostPhase::CoreTick),
            5,
            "counts ignore the cap"
        );
        assert_eq!(
            r.phase_total_ns(HostPhase::CoreTick),
            5_000,
            "totals ignore the cap"
        );
    }
}
