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
//! close in LIFO order.
//!
//! ## One iteration in 17 is timed
//!
//! A clock read costs as much as a cheap tick, so the profiler does not
//! time every span: the run loop announces each of its iterations
//! ([`HostProfiler::begin_iteration`]) and every [`TIMED_STRIDE`]-th one is
//! timed — as a whole, and all of its spans, so nesting and chaining hold
//! within it. The others only *count* their spans
//! ([`HostProfiler::count`]). Counts are therefore exact and a function of
//! the simulation alone; the per-span event list holds the timed spans,
//! bounded by a cap (overflow is counted in `dropped`, never silently).
//!
//! A phase's total is an estimate ([`HostReport::phase_total_ns`]): its
//! share of the timed iterations' wall, times the wall of the whole loop.
//! A timed iteration's clock reads sit in its spans and in its wall alike,
//! so a phase of many cheap spans still reads high beside one of few
//! costly spans; but top-level phases do not overlap, so their shares add
//! up to at most one and the attributed total cannot pass the wall. Spans
//! outside the loop (the end-of-run flush) count at their measured time.
//!
//! Timing uses [`Instant`], which is monotonic — spans cannot go negative
//! under NTP slew. Wall-clock types are banned in model crates
//! (`clippy.toml`'s `disallowed-types`); each use here carries an
//! `#[expect]` saying why: the clock is *read* here but never *used* by the
//! model.

#[expect(
    clippy::disallowed_types,
    reason = "the opt-in profile_host span profiler measures host wall time per run-loop phase; \
        spans are observational (read only after run() returns, never fed back into model state), \
        so results remain a pure function of (config, seed) — pinned by tests/host_prof.rs \
        byte-identity"
)]
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
    /// Event scheduler: draining due wakes at the top of an instant (the
    /// walk of the wake column + owed-cycle flush). Top-level.
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

    /// Stable dense index into per-phase arrays: the declaration order,
    /// which [`HostPhase::ALL`] repeats.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
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

/// Default cap on recorded [`SpanEvent`]s (timed spans only, so it covers
/// [`TIMED_STRIDE`] times as many run-loop iterations). Totals and counts
/// keep accumulating past the cap; only the per-span timeline truncates
/// (with the overflow counted), bounding profiler memory on long runs.
pub const DEFAULT_EVENT_CAP: usize = 1 << 18;

/// One run-loop iteration in this many is timed. Not configurable: it is a
/// property of the instrument, like a histogram's bucket layout. Prime, so
/// it cannot lock onto the clock-edge pattern (1400 / 700 / 924 MHz repeat
/// every 897 edges = 3 · 13 · 23): every kind of edge is timed in its
/// proportion.
pub const TIMED_STRIDE: u64 = 17;

/// The host profiler: a span recorder owned by the thread that owns
/// `GpuSim`. Recording is plain (non-atomic); a timed iteration costs two
/// monotonic clock reads per span at most — one when chaining — plus one
/// at each end of the iteration, and an untimed one an increment per span.
#[derive(Debug)]
pub struct HostProfiler {
    #[expect(
        clippy::disallowed_types,
        reason = "the opt-in profile_host span profiler measures host wall time per run-loop \
            phase; spans are observational (read only after run() returns, never fed back into \
            model state), so results remain a pure function of (config, seed) — pinned by \
            tests/host_prof.rs byte-identity"
    )]
    epoch: Instant,
    /// Whether the current iteration is timed.
    timed: bool,
    /// Nanoseconds since the epoch when the first iteration began and when
    /// the open timed iteration began (`None` outside one).
    loop_start: Option<u64>,
    iteration_start: Option<u64>,
    cap: usize,
    /// What [`HostProfiler::finish`] hands over, accumulated in place.
    report: HostReport,
}

#[expect(
    clippy::disallowed_types,
    reason = "the opt-in profile_host span profiler measures host wall time per run-loop phase; \
        spans are observational (read only after run() returns, never fed back into model state), \
        so results remain a pure function of (config, seed) — pinned by tests/host_prof.rs \
        byte-identity"
)]
impl HostProfiler {
    /// A profiler whose epoch is "now". Spans recorded before the first
    /// [`HostProfiler::begin_iteration`] are timed.
    #[must_use]
    pub fn new() -> Self {
        HostProfiler {
            epoch: Instant::now(),
            timed: true,
            loop_start: None,
            iteration_start: None,
            cap: DEFAULT_EVENT_CAP,
            report: HostReport::default(),
        }
    }

    /// Opens the next run-loop iteration, a timed one if it is the first or
    /// every [`TIMED_STRIDE`]-th. The verdict holds (see
    /// [`HostProfiler::is_timed`]) until the next call. Reads the clock
    /// only to open or close a timed iteration.
    #[inline]
    pub fn begin_iteration(&mut self) {
        let r = &mut self.report;
        self.timed = r.iterations.is_multiple_of(TIMED_STRIDE);
        r.iterations += 1;
        r.timed_iterations += u64::from(self.timed);
        if self.timed || self.iteration_start.is_some() {
            let now = self.now_ns();
            self.close_iteration(now);
            self.loop_start.get_or_insert(now);
            self.iteration_start = self.timed.then_some(now);
        }
    }

    /// Leaves the strided part of the run: what follows (the end-of-run
    /// flush, which happens once) is always timed.
    pub fn end_iterations(&mut self) {
        let now = self.now_ns();
        self.close_iteration(now);
        self.report.loop_ns = self.loop_start.map_or(0, |start| now - start);
        self.timed = true;
    }

    fn close_iteration(&mut self, now: u64) {
        if let Some(start) = self.iteration_start.take() {
            self.report.timed_iteration_ns += now - start;
        }
    }

    fn now_ns(&self) -> u64 {
        saturating_ns(self.epoch.elapsed().as_nanos())
    }

    /// Whether spans are being timed right now. When not, the caller skips
    /// the clock and reports each span with [`HostProfiler::count`].
    #[inline]
    #[must_use]
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// Counts one span of `phase` that was not timed.
    #[inline]
    pub fn count(&mut self, phase: HostPhase) {
        self.report.counts[phase.index()] += 1;
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

    /// Records a closed, timed span from explicit timestamps (testable
    /// without sleeping: `Instant + Duration` fabricates offsets).
    pub fn record_span(&mut self, phase: HostPhase, start: Instant, end: Instant) {
        let (i, r) = (phase.index(), &mut self.report);
        let dur_ns = saturating_ns(end.saturating_duration_since(start).as_nanos());
        r.timed_ns[i] += dur_ns;
        if self.iteration_start.is_none() {
            r.outside_ns[i] += dur_ns;
        }
        r.timed_counts[i] += 1;
        r.counts[i] += 1;
        if r.events.len() < self.cap {
            let start_ns = saturating_ns(start.saturating_duration_since(self.epoch).as_nanos());
            r.events.push(SpanEvent {
                phase,
                start_ns,
                dur_ns,
            });
        } else {
            r.dropped += 1;
        }
    }

    /// Freezes everything into a [`HostReport`], ending the loop if it is
    /// still open. Wall time is epoch→now.
    #[must_use]
    pub fn finish(mut self) -> HostReport {
        if self.loop_start.is_some() && self.report.loop_ns == 0 {
            self.end_iterations();
        }
        self.report.wall_ns = self.now_ns();
        self.report
    }
}

impl Default for HostProfiler {
    fn default() -> Self {
        HostProfiler::new()
    }
}

/// Frozen profile of one run: plain data, no clock handles, safe to ship
/// across threads or serialize.
#[derive(Clone, Debug, Default)]
pub struct HostReport {
    /// Wall nanoseconds from profiler creation to [`HostProfiler::finish`].
    pub wall_ns: u64,
    /// Wall nanoseconds of the run loop, from the first iteration to
    /// [`HostProfiler::end_iterations`].
    pub loop_ns: u64,
    /// Summed wall nanoseconds of the timed iterations.
    pub timed_iteration_ns: u64,
    /// Span counts per phase, timed or not: exact, and a function of the
    /// simulation alone.
    pub counts: [u64; N_HOST_PHASES],
    /// How many of `counts` were timed (likewise deterministic).
    pub timed_counts: [u64; N_HOST_PHASES],
    /// Measured nanoseconds of the timed spans, per phase.
    pub timed_ns: [u64; N_HOST_PHASES],
    /// The part of `timed_ns` measured outside the timed iterations.
    pub outside_ns: [u64; N_HOST_PHASES],
    /// Run-loop iterations announced to the profiler.
    pub iterations: u64,
    /// How many of them were timed (one in [`TIMED_STRIDE`]).
    pub timed_iterations: u64,
    /// The timed spans, capped; see [`HostReport::dropped`].
    pub events: Vec<SpanEvent>,
    /// Timed spans past the event cap (the sums above still include them).
    pub dropped: u64,
}

impl HostReport {
    /// Estimated nanoseconds for `phase`: its share of the timed
    /// iterations' wall times the loop's, plus its spans outside the loop.
    #[must_use]
    pub fn phase_total_ns(&self, phase: HostPhase) -> u64 {
        let i = phase.index();
        let looped = u128::from(self.timed_ns[i] - self.outside_ns[i]) * u128::from(self.loop_ns)
            / u128::from(self.timed_iteration_ns.max(1));
        self.outside_ns[i] + saturating_ns(looped)
    }

    /// Span count for `phase` (exact).
    #[must_use]
    pub fn phase_count(&self, phase: HostPhase) -> u64 {
        self.counts[phase.index()]
    }

    /// Estimated nanoseconds attributed to any phase: the top-level totals,
    /// which do not double count the spans nested inside them.
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

    #[test]
    fn all_lists_the_phases_in_index_order() {
        for (i, phase) in HostPhase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i, "{phase:?}");
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "fabricates span timestamps at fixed offsets from the profiler's epoch"
    )]
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
            // Spans that were only counted never reach the timeline, so
            // they cannot overflow it.
            p.count(HostPhase::CoreTick);
        }
        let r = p.finish();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.dropped, 3, "drops are counted among timed spans only");
        assert_eq!(
            r.phase_count(HostPhase::CoreTick),
            10,
            "counts ignore the cap"
        );
        assert_eq!(
            r.phase_total_ns(HostPhase::CoreTick),
            5_000,
            "totals ignore the cap; outside the loop they are what was timed"
        );
    }

    #[test]
    fn one_iteration_in_seventeen_is_timed() {
        let mut p = HostProfiler::new();
        assert!(p.is_timed(), "before the loop starts");
        let timed: Vec<bool> = (0..53)
            .map(|_| {
                p.begin_iteration();
                p.is_timed()
            })
            .collect();
        for (i, &t) in timed.iter().enumerate() {
            assert_eq!(t, [0, 17, 34, 51].contains(&i), "iteration {i}");
        }
        assert!(!p.is_timed(), "iteration 52 is not a timed one");
        p.end_iterations();
        assert!(p.is_timed(), "what follows the loop is always timed");
        let r = p.finish();
        assert_eq!((r.iterations, r.timed_iterations), (53, 4));
    }

    #[test]
    fn a_loop_phase_is_its_share_of_the_timed_iterations_times_the_loop() {
        // 100 ns of core ticks in 400 ns of timed iterations, of a 6.8 µs
        // loop; then a 50 ns flush after the loop.
        let mut r = HostProfiler::new().finish();
        (r.wall_ns, r.loop_ns, r.timed_iteration_ns) = (7_000, 6_800, 400);
        r.timed_ns[HostPhase::CoreTick.index()] = 100;
        r.timed_ns[HostPhase::SchedResched.index()] = 50;
        r.outside_ns[HostPhase::SchedResched.index()] = 50;
        assert_eq!(r.phase_total_ns(HostPhase::CoreTick), 1_700);
        assert_eq!(r.phase_total_ns(HostPhase::SchedResched), 50);
        assert_eq!(r.busy_ns(), 1_750);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "opens real spans the way the run loop does"
    )]
    fn attributed_time_cannot_pass_the_wall() {
        let mut p = HostProfiler::new();
        for _ in 0..1_000 {
            p.begin_iteration();
            if p.is_timed() {
                let t1 = p.end_chain(HostPhase::CoreTick, Instant::now());
                p.end_chain(HostPhase::DramTick, t1);
            } else {
                p.count(HostPhase::CoreTick);
                p.count(HostPhase::DramTick);
                // A phase that only ever happens on untimed iterations.
                p.count(HostPhase::FfJump);
            }
        }
        p.end_iterations();
        p.end_chain(HostPhase::SchedResched, Instant::now());
        let r = p.finish();
        assert_eq!(r.timed_iterations, 59);
        assert_eq!(r.phase_count(HostPhase::FfJump), 941);
        assert_eq!(
            r.phase_total_ns(HostPhase::FfJump),
            0,
            "counted, never timed"
        );
        assert_eq!(
            r.events.len() as u64,
            r.timed_counts.iter().sum::<u64>(),
            "the timeline holds exactly the timed spans"
        );
        assert!(r.timed_iteration_ns <= r.loop_ns);
        let flush = HostPhase::SchedResched.index();
        assert_eq!(
            r.outside_ns[flush], r.timed_ns[flush],
            "the flush is outside the loop"
        );
        assert_eq!(r.phase_total_ns(HostPhase::SchedResched), r.timed_ns[flush]);
        assert!(r.busy_ns() <= r.wall_ns, "{} > {}", r.busy_ns(), r.wall_ns);
    }
}
