//! The full-GPU simulator: topology, clock domains and the run loop.

use crate::config::GpuConfig;
use crate::ideal::IdealMemory;
use crate::l2bank::L2Bank;
use crate::machine::{Machine, REP, REQ};
use crate::sched::{Class, Sched};
use crate::stats::SimStats;
use gmh_dram::DramChannel;
use gmh_icnt::Crossbar;
use gmh_simt::SimtCore;
use gmh_types::bits::{self, Bits};
use gmh_types::prof::{HostPhase, HostProfiler, HostReport};
use gmh_types::trace::{Level, TraceEventKind, TraceSink};
use gmh_types::{
    stable_hash_str, ClockDomains, DomainId, FetchAudit, MemFetch, Picos, Telemetry, Tick, TickSet,
};
use gmh_workloads::WorkloadSpec;

/// Salt mixed into the trace sampler's seed so it never correlates with the
/// workload's own address/instruction RNG streams (the sim results must be
/// bit-identical with tracing on or off).
const TRACE_SEED_SALT: u64 = 0x5452_4143_455F_5631;

/// The telemetry table's series, one per observed structure class (values
/// aggregate across instances: all cores, all banks, all channels), in the
/// order [`GpuSim::telemetry_values`] samples them.
const SERIES: [&str; 19] = [
    "l1.miss_queue",
    "core.response_fifo",
    "icnt.req.inject_flits",
    "icnt.req.eject_backlog",
    "icnt.req.flits_per_cycle",
    "icnt.rep.inject_flits",
    "icnt.rep.eject_backlog",
    "icnt.rep.flits_per_cycle",
    "l2.access_queue",
    "l2.miss_queue",
    "l2.response_queue",
    "l2.stall.bp_icnt",
    "l2.stall.port",
    "l2.stall.cache",
    "l2.stall.mshr",
    "l2.stall.bp_dram",
    "dram.sched_queue",
    "dram.response_queue",
    "ideal.in_flight",
];

/// Why [`GpuSim::run_until`] returned no statistics: its stop poll fired
/// before the run finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stopped;

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the run was stopped before it finished")
    }
}

impl std::error::Error for Stopped {}

/// Counters describing how often the fast-forward scheduler engaged
/// (purely observational — never fed back into simulation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Successful jumps (≥1 tick skipped).
    pub jumps: u64,
    /// Core-domain ticks skipped across all jumps.
    pub skipped_core: u64,
    /// Interconnect-domain ticks skipped across all jumps.
    pub skipped_icnt: u64,
    /// DRAM-domain ticks skipped across all jumps.
    pub skipped_dram: u64,
    /// Per class, in [`FastForwardStats::CLASSES`] order: own-domain ticks
    /// its components slept through (replayed by their skip hooks, jumped
    /// ticks included), summed over the components.
    pub slept: [u64; 4],
    /// Per class: own-domain ticks times the components the memory model
    /// ticks, the ticks `slept` is a share of.
    pub ticks: [u64; 4],
}

impl FastForwardStats {
    /// The component classes `slept` and `ticks` count, in order.
    pub const CLASSES: [&'static str; 4] = ["cores", "banks", "channels", "nets"];

    /// Total ticks skipped across all domains.
    pub fn skipped_total(&self) -> u64 {
        self.skipped_core + self.skipped_icnt + self.skipped_dram
    }

    /// Per class, the share of its component-ticks slept through (0 for a
    /// class the memory model never ticks).
    pub fn slept_shares(&self) -> [f64; 4] {
        std::array::from_fn(|k| match self.ticks[k] {
            0 => 0.0,
            t => self.slept[k] as f64 / t as f64,
        })
    }
}

/// What [`GpuSim::host_span_begin`] decided for one host-profiler span: no
/// profiler, an iteration that is only counted, or a timed one (with the
/// clock read that opens the span). Decided once per span chain, so closing
/// a span on the unprofiled path costs a branch on a local.
enum HostSpan {
    Off,
    Counted,
    #[expect(
        clippy::disallowed_types,
        reason = "the run loop reads the clock only to open and close profile_host spans \
            (host_span_begin/host_span_end); the timestamps go straight to the HostProfiler, are \
            read only after run() returns and never feed back into model state, so results remain \
            a pure function of (config, seed)"
    )]
    Timed(std::time::Instant),
}

/// The simulated GPU: cores, crossbar, L2 banks and DRAM channels advanced
/// under three clock domains.
///
/// Build one per `(config, workload)` pair and call [`GpuSim::run`].
pub struct GpuSim {
    cfg: GpuConfig,
    clocks: ClockDomains,
    /// Every ticking component plus the event scheduler over them.
    m: Machine,
    /// The memory model's ideal memory, if it has one.
    ideal: IdealMemory,
    telemetry: Telemetry,
    audit: FetchAudit,
    /// Sampled per-fetch lifecycle tracer (disabled when
    /// `cfg.trace_sample == 0`).
    trace: TraceSink,
    /// Last-sampled flit counters, for per-cycle rate deltas.
    prev_req_flits: u64,
    prev_rep_flits: u64,
    /// Last-sampled L2 stall totals (bp-ICNT, port, cache, MSHR, bp-DRAM).
    prev_l2_stalls: [u64; 5],
    /// Last-sampled L2 access, miss and response queue totals.
    prev_l2_queues: [usize; 3],
    /// Last-sampled DRAM scheduler and response queue totals.
    prev_dram_queues: [usize; 2],
    /// Observational fast-forward engagement counters.
    ff_stats: FastForwardStats,
    /// Bit `c` set while core `c`'s L1 miss queues hold fetches: the cores
    /// the interconnect's (or ideal memory's) hand-off takes from, awake or
    /// not. Only a core's own tick adds to its miss queues and only that
    /// hand-off pops them, so it is refreshed after each core sweep for the
    /// swept cores and after each pop for the popped core.
    has_out: Bits,
    /// Host-side span profiler (present only under `cfg.profile_host`).
    /// Strictly observational: nothing it reads from the clock ever feeds
    /// back into simulation state. It times one run-loop iteration in
    /// `TIMED_STRIDE` and counts the spans of the rest.
    host_prof: Option<HostProfiler>,
    workload: String,
}

impl std::fmt::Debug for GpuSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuSim")
            .field("workload", &self.workload)
            .field("core_cycles", &self.clocks.domain(DomainId::Core).cycles())
            .finish_non_exhaustive()
    }
}

impl GpuSim {
    /// Builds the simulator for `cfg` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig, workload: &WorkloadSpec) -> Self {
        workload
            .validate()
            .unwrap_or_else(|e| panic!("invalid workload: {e}"));
        Self::from_sources(cfg, workload.name, |c| {
            Box::new(workload.source_for_core(c))
        })
    }

    /// Builds the simulator with an arbitrary per-core instruction source —
    /// e.g. replaying a recorded [`gmh_workloads::TraceBundle`] or feeding
    /// streams converted from real GPU traces. `factory(core)` is called
    /// once per core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn from_sources(
        cfg: GpuConfig,
        name: &str,
        mut factory: impl FnMut(usize) -> Box<dyn gmh_simt::inst::InstSource + Send>,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        let cores: Vec<SimtCore> = (0..cfg.n_cores)
            .map(|c| SimtCore::new(c, cfg.core.clone(), factory(c)))
            .collect();
        let banks: Vec<L2Bank> = (0..cfg.n_l2_banks)
            .map(|_| {
                L2Bank::new(
                    cfg.l2_bank.clone(),
                    cfg.l2_access_queue,
                    cfg.l2_response_queue,
                    cfg.l2_data_port_bytes,
                    cfg.l2_latency,
                )
            })
            .collect();
        let channels: Vec<DramChannel> = (0..cfg.n_channels)
            .map(|ch| DramChannel::new(cfg.dram.clone(), ch))
            .collect();
        let (req_net, rep_net) =
            Crossbar::new(cfg.icnt.clone(), cfg.n_cores, cfg.n_l2_banks).into_parts();
        let ideal = IdealMemory::new(&cfg);
        let trace_seed = stable_hash_str(name) ^ TRACE_SEED_SALT;
        let trace = TraceSink::new(
            cfg.trace_sample,
            usize::try_from(cfg.trace_event_cap).unwrap_or(usize::MAX),
            trace_seed,
        );
        let clocks = ClockDomains::new(cfg.core_mhz, cfg.icnt_mhz, cfg.dram_mhz);
        // Classes a memory model never ticks are born parked; the event
        // core then never probes, wakes or flushes them — mirroring the
        // naive loop, which never touches them either.
        let hier = ideal.l1.is_none();
        let full = hier && ideal.dram.is_none();
        let sched = Sched::new(
            !cfg.force_naive_loop,
            [cores.len(), banks.len(), channels.len(), 2],
            [true, hier, full, hier],
            Self::per_class(&clocks, Clone::clone),
        );
        GpuSim {
            clocks,
            m: Machine {
                cores,
                banks,
                channels,
                nets: [req_net, rep_net],
                sched,
            },
            ideal,
            telemetry: Telemetry::new(cfg.telemetry_window, &SERIES),
            audit: FetchAudit::default(),
            trace,
            prev_req_flits: 0,
            prev_rep_flits: 0,
            prev_l2_stalls: [0; 5],
            prev_l2_queues: [0; 3],
            prev_dram_queues: [0; 2],
            ff_stats: FastForwardStats::default(),
            has_out: 0,
            host_prof: cfg.profile_host.then(HostProfiler::new),
            workload: name.to_string(),
            cfg,
        }
    }

    /// One value per [`Class`], read off the clock domain each class ticks
    /// in (banks and networks share the interconnect's).
    fn per_class<T>(clocks: &ClockDomains, f: impl Fn(&gmh_types::ClockDomain) -> T) -> [T; 4] {
        use DomainId::{Core, Dram, Icnt};
        [Core, Icnt, Dram, Icnt].map(|d| f(clocks.domain(d)))
    }

    /// The workload name this sim runs.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Fast-forward engagement counters for the run so far (a sleeper's
    /// ticks count as slept once a wake or the end-of-run flush settles
    /// them).
    pub fn ff_stats(&self) -> FastForwardStats {
        let s = &self.m.sched;
        let cycles = Self::per_class(&self.clocks, |d| d.cycles());
        FastForwardStats {
            slept: s.slept,
            ticks: std::array::from_fn(|k| s.live[k] as u64 * cycles[k]),
            ..self.ff_stats
        }
    }

    /// Consumes the host profiler and freezes it into a
    /// [`HostReport`] — call after [`GpuSim::run`]. `None` when
    /// [`GpuConfig::profile_host`] was off or the report was already
    /// taken.
    pub fn take_host_report(&mut self) -> Option<HostReport> {
        self.host_prof.take().map(HostProfiler::finish)
    }

    /// Whether L1 misses cross the crossbar (no ideal memory answers them).
    fn uses_hierarchy(&self) -> bool {
        self.ideal.l1.is_none()
    }

    fn done(&self) -> bool {
        let m = &self.m;
        m.cores.iter().all(|c| c.done())
            && self.ideal.in_flight() == 0
            && (!self.uses_hierarchy()
                || m.nets.iter().all(|n| n.is_idle())
                    && m.banks.iter().all(|b| b.is_idle())
                    && m.channels.iter().all(|c| c.is_idle()))
    }

    /// Runs to completion (or the cycle cap) and returns the statistics.
    ///
    /// The loop is event-aware: a component whose probe proves it inert
    /// sleeps through the window, and when every component sleeps the
    /// clocks jump to the earliest scheduled wake in one step; a woken
    /// component replays the per-cycle bookkeeping it slept through in
    /// bulk. Both are bit-identical to stepping naively by construction;
    /// `cfg.force_naive_loop` disables them so equivalence tests can
    /// compare both paths.
    pub fn run(&mut self) -> SimStats {
        match self.run_until(|| false) {
            Ok(stats) => stats,
            Err(Stopped) => unreachable!("a stop that never fires stopped the run"),
        }
    }

    /// [`GpuSim::run`], polling `stop` once every 64 passes of the run
    /// loop (a jump is one pass, however far it moves the clocks), and
    /// ending the run with [`Stopped`] on the first poll that answers
    /// `true`. A stopped run returns no statistics and skips the end-of-run
    /// audit; the simulator is left mid-run, to be dropped. A run whose
    /// `stop` never fires is byte-identical to [`GpuSim::run`].
    ///
    /// # Errors
    ///
    /// [`Stopped`] when `stop` fired before the run finished.
    pub fn run_until(&mut self, mut stop: impl FnMut() -> bool) -> Result<SimStats, Stopped> {
        let mut hit_cap = false;
        let mut passes = 0u32;
        loop {
            let core_cycles = self.clocks.domain(DomainId::Core).cycles();
            if core_cycles >= self.cfg.max_core_cycles {
                hit_cap = true;
                break;
            }
            // done() walks every component, and the coarse 64-cycle stride
            // also pins the recorded termination cycle — which the jump
            // path must not overshoot (it refuses to skip once done()
            // holds).
            if core_cycles.is_multiple_of(64) && self.done() {
                break;
            }
            passes = passes.wrapping_add(1);
            if passes.is_multiple_of(64) && stop() {
                return Err(Stopped);
            }
            // One pass through this loop is one iteration to the host
            // profiler, which times some and only counts the rest.
            if let Some(hp) = self.host_prof.as_mut() {
                hp.begin_iteration();
            }
            if self.m.sched.enabled && self.try_jump() {
                continue;
            }
            let fired = self.clocks.advance();
            let now_ps = self.clocks.now();
            self.drain_due_wakes(now_ps);
            self.dispatch_ticks(fired, now_ps);
        }
        if let Some(hp) = self.host_prof.as_mut() {
            hp.end_iterations();
        }
        self.flush_all();
        // Read before `collect` consumes the sink.
        let trace_order = self.trace.check();
        let stats = self.collect(hit_cap);
        // Conservation must hold on every run: a fetch that vanished (or
        // returned twice, or traveled back in time) is a simulator bug.
        // Cycle-capped runs may legitimately leave fetches in flight.
        if let Err(e) = self.audit.finish(!hit_cap) {
            panic!(
                "fetch-conservation audit failed on workload {:?}: {e}",
                self.workload
            );
        }
        // The trace is held to the same invariants the audit enforces for
        // counts — per-fetch event order and time monotonicity — checked
        // as each event was recorded.
        if let Err(e) = trace_order {
            panic!(
                "trace validation failed on workload {:?}: {e}",
                self.workload
            );
        }
        Ok(stats)
    }

    /// Runs every domain tick fired by one clock edge, each phase in a
    /// host-profiler span (the nested `l2_tick` opens its own inside
    /// `icnt_tick`). Spans chain — the end of one phase is the start of the
    /// next — so a fully fired, timed edge costs one clock read per phase
    /// boundary, not two.
    fn dispatch_ticks(&mut self, fired: TickSet, now_ps: Picos) {
        let mut span = self.host_span_begin();
        if fired.icnt {
            if self.uses_hierarchy() {
                self.icnt_tick(now_ps);
                span = self.host_span_end(HostPhase::IcntTick, span);
            }
            self.sample_telemetry(1);
            span = self.host_span_end(HostPhase::Telemetry, span);
        }
        if fired.dram {
            self.dram_tick(now_ps);
            span = self.host_span_end(HostPhase::DramTick, span);
        }
        if fired.core {
            self.core_tick(now_ps);
            self.host_span_end(HostPhase::CoreTick, span);
        }
    }

    /// Opens a host-profiler span: reads the clock only when profiling is
    /// on and this iteration is a timed one. Pass the token to
    /// [`GpuSim::host_span_end`].
    #[inline]
    fn host_span_begin(&self) -> HostSpan {
        match &self.host_prof {
            None => HostSpan::Off,
            #[expect(
                clippy::disallowed_types,
                reason = "the run loop reads the clock only to open and close profile_host spans \
                    (host_span_begin/host_span_end); the timestamps go straight to the \
                    HostProfiler, are read only after run() returns and never feed back into \
                    model state, so results remain a pure function of (config, seed)"
            )]
            Some(hp) if hp.is_timed() => HostSpan::Timed(std::time::Instant::now()),
            Some(_) => HostSpan::Counted,
        }
    }

    /// Closes a span opened by [`GpuSim::host_span_begin`] (or returned by
    /// this call) and returns the span that starts where it ended: a timed
    /// span chains from its end timestamp, a counted one counts, and the
    /// unprofiled path passes `Off` through.
    #[inline]
    fn host_span_end(&mut self, phase: HostPhase, span: HostSpan) -> HostSpan {
        match (span, self.host_prof.as_mut()) {
            (HostSpan::Timed(t0), Some(hp)) => HostSpan::Timed(hp.end_chain(phase, t0)),
            (HostSpan::Counted, Some(hp)) => {
                hp.count(phase);
                HostSpan::Counted
            }
            (span, _) => span,
        }
    }

    /// Attempts one event-core jump. Returns `true` when it advanced the
    /// clocks (the caller restarts its loop), `false` when any component is
    /// still awake or no tick fit under the bound.
    ///
    /// Safety argument: a sleeping component proved (via its
    /// `next_event_bound` probe, re-run after its every cycle) that it is
    /// inert on every own-domain tick strictly before its scheduled wake.
    /// While *every* component sleeps, no new event can be created — the
    /// machine's state is frozen apart from constant per-cycle bookkeeping
    /// — so the earliest scheduled wake (as an exclusive picosecond bound)
    /// is a sound global jump target. The skipped per-cycle bookkeeping is
    /// not replayed here at all: each sleeper's `done` ledger keeps the
    /// debt, and the bulk skip hooks settle it at wake (or end-of-run
    /// flush) time. Only telemetry, which samples global state per
    /// interconnect tick, is replayed eagerly — every sampled value is
    /// frozen across the window, so repeating one sample is exact.
    fn try_jump(&mut self) -> bool {
        // Only an all-asleep machine with no miss queued for the
        // interconnect jumps, and a drained one must step naively to its
        // next 64-cycle done() poll so the recorded termination cycle is
        // unchanged.
        if self.m.sched.awake != [0; 4] || self.has_out != 0 || self.done() {
            return false;
        }
        let h0 = self.host_span_begin();
        let counts = self.clocks.fast_forward(self.jump_target());
        let jumped = counts.total() > 0;
        if jumped {
            self.ff_stats.jumps += 1;
            self.ff_stats.skipped_core += counts.core;
            self.ff_stats.skipped_icnt += counts.icnt;
            self.ff_stats.skipped_dram += counts.dram;
            // The ticks jumped over count as swept: every sleeper owes them.
            self.m.sched.swept = Self::per_class(&self.clocks, |d| d.cycles());
            if counts.icnt > 0 {
                self.sample_telemetry(counts.icnt);
            }
        }
        let phase = if jumped {
            HostPhase::FfJump
        } else {
            HostPhase::FfProbe
        };
        self.host_span_end(phase, h0);
        jumped
    }

    /// The exclusive picosecond bound for an all-asleep jump: the earliest
    /// scheduled component wake, the earliest ideal-pipe ready time, or
    /// the cycle cap — whichever comes first. A domain tick with index N
    /// fires at `(N-1)*period`; the ideal pipes are FIFO by ready time,
    /// so each front is that pipe's earliest event (a due-but-blocked
    /// front pins the bound into the past and the jump fires nothing).
    fn jump_target(&self) -> Picos {
        let core = self.clocks.domain(DomainId::Core);
        // Seed with the cycle cap: naive execution fires nothing at any
        // instant after core tick max_core_cycles (`validate` keeps one
        // picosecond past that instant representable).
        let cap = core.tick_instant(self.cfg.max_core_cycles) + Picos(1);
        let t = cap.min(self.m.sched.next_wake);
        self.ideal.next_ready().map_or(t, |ready| t.min(ready))
    }

    /// Wakes every component whose scheduled time has arrived at this
    /// clock edge, flushing its owed quiet cycles first. Runs before the
    /// tick dispatch so the woken component's own sweep (which provably
    /// fires this instant — wake times are own-domain tick instants)
    /// executes its final, possibly-eventful tick.
    fn drain_due_wakes(&mut self, now_ps: Picos) {
        // Common case: nothing due (never, with the scheduler off).
        if self.m.sched.next_wake > now_ps {
            return;
        }
        let t0 = self.host_span_begin();
        let woke = self.m.drain_wakes(now_ps);
        debug_assert!(woke > 0, "a due next_wake must drain at least one wake");
        self.host_span_end(HostPhase::SchedPop, t0);
    }

    /// End-of-run settlement of the lazy skipped-cycle ledger: every
    /// sleeping component replays its owed quiet cycles up to the final
    /// domain tick counts, so collected stats match the naive loop's
    /// exactly. No-op for awake components and in naive mode.
    fn flush_all(&mut self) {
        if !self.m.sched.enabled {
            return;
        }
        let t0 = self.host_span_begin();
        self.m.flush_end();
        self.host_span_end(HostPhase::SchedResched, t0);
    }

    /// Computes this interconnect cycle's sample for every telemetry series
    /// (updating the flit/stall delta baselines as a side effect). Shared
    /// by the per-cycle path and the fast-forward bulk replay — during a
    /// quiescent window every one of these values is frozen, so computing
    /// them once and repeating the sample is exact.
    ///
    /// The sums read only what can have moved. A parked core's response
    /// FIFO is empty (its probe's precondition) and its miss queues are
    /// empty unless it is in `has_out`, so the awake cores and `has_out`
    /// hold every entry. A bank or channel class with no
    /// component awake and none swept or woken since the last sample is
    /// frozen (parked queues and counters change only through a tick or a
    /// wake), so its last sums stand and its stall deltas are zero.
    fn telemetry_values(&mut self) -> [f64; 19] {
        let (mut l1_miss, mut resp_fifo) = (0usize, 0usize);
        for c in bits::iter(self.m.sched.awake[Class::Core.idx()] | self.has_out) {
            l1_miss += self.m.cores[c].miss_queue_len();
            resp_fifo += self.m.cores[c].response_fifo_len();
        }
        debug_assert_eq!(
            (l1_miss, resp_fifo),
            self.m.cores.iter().fold((0, 0), |(m, r), c| (
                m + c.miss_queue_len(),
                r + c.response_fifo_len()
            )),
            "a parked core holds queued fetches"
        );

        let (req_flits, rep_flits) = (
            self.m.nets[REQ].stats().flits.get(),
            self.m.nets[REP].stats().flits.get(),
        );
        let req_rate = req_flits - self.prev_req_flits;
        let rep_rate = rep_flits - self.prev_rep_flits;
        let req_buffered = self.m.nets[REQ].buffered_flits();
        let req_backlog = self.m.nets[REQ].ejection_backlog();
        let rep_buffered = self.m.nets[REP].buffered_flits();
        let rep_backlog = self.m.nets[REP].ejection_backlog();
        self.prev_req_flits = req_flits;
        self.prev_rep_flits = rep_flits;

        let (l2_queues, stalls) = if self.m.sched.stirred_since_sample(Class::Bank) {
            bank_sums(&self.m.banks)
        } else {
            (self.prev_l2_queues, self.prev_l2_stalls)
        };
        debug_assert_eq!(
            (l2_queues, stalls),
            bank_sums(&self.m.banks),
            "an unstirred bank class moved"
        );
        let stall_deltas: [u64; 5] = std::array::from_fn(|i| stalls[i] - self.prev_l2_stalls[i]);
        (self.prev_l2_queues, self.prev_l2_stalls) = (l2_queues, stalls);

        if self.m.sched.stirred_since_sample(Class::Chan) {
            self.prev_dram_queues = channel_sums(&self.m.channels);
        }
        debug_assert_eq!(
            self.prev_dram_queues,
            channel_sums(&self.m.channels),
            "an unstirred channel class moved"
        );
        let [sched, dresp] = self.prev_dram_queues;

        let ideal = self.ideal.in_flight();
        let [access_q, miss_q, resp_q] = l2_queues;
        [
            l1_miss as f64,
            resp_fifo as f64,
            req_buffered as f64,
            req_backlog as f64,
            req_rate as f64,
            rep_buffered as f64,
            rep_backlog as f64,
            rep_rate as f64,
            access_q as f64,
            miss_q as f64,
            resp_q as f64,
            stall_deltas[0] as f64,
            stall_deltas[1] as f64,
            stall_deltas[2] as f64,
            stall_deltas[3] as f64,
            stall_deltas[4] as f64,
            sched as f64,
            dresp as f64,
            ideal as f64,
        ]
    }

    /// Samples every observed queue/counter into the telemetry sink for `k`
    /// interconnect cycles: once per cycle, or all the cycles of a jump at
    /// once (the sampled values are frozen across a quiescent window, and
    /// [`Telemetry::record_n`] flushes at the boundaries the per-cycle path
    /// would hit).
    fn sample_telemetry(&mut self, k: u64) {
        let values = self.telemetry_values();
        self.telemetry.record_n(&values, k);
    }

    // ---- core domain --------------------------------------------------------

    fn core_tick(&mut self, now_ps: Picos) {
        let cyc = self.clocks.domain(DomainId::Core).cycles();
        let trace = &mut self.trace;
        let swept = self.m.sched.awake[Class::Core.idx()];
        self.m.sweep(Class::Core, &mut Tick { now_ps, cyc, trace });
        self.refresh_has_out(swept);
        let Some(l1) = self.ideal.l1.as_mut() else {
            return;
        };
        let core = self.clocks.domain(DomainId::Core);
        // The pops change the core's L1s (a refused head may now be
        // admitted), so a core parked by its sweep wakes first.
        let out = self.has_out;
        for i in bits::iter(out) {
            self.m.wake(Class::Core, i);
            while let Some(f) = self.m.cores[i].pop_outgoing() {
                self.audit.emitted(&f);
                self.trace
                    .record_fetch(&f, now_ps, TraceEventKind::DequeuedAt(Level::L1));
                if let Some(store) = l1.take(f, core, cyc) {
                    self.audit.absorbed(&store);
                    self.trace
                        .record_fetch(&store, now_ps, TraceEventKind::Absorbed);
                }
            }
        }
        // A core with a full response FIFO holds back only its own fetches.
        let (m, audit, trace) = (&mut self.m, &mut self.audit, &mut self.trace);
        let mut offer = |mut f: MemFetch| {
            let c = f.core_id;
            if !m.cores[c].can_accept_response() {
                return Err(f);
            }
            f.serviced_by = gmh_types::fetch::ServicedBy::Ideal;
            f.time.returned = now_ps;
            audit.returned(&f, now_ps);
            trace.record_fetch(&f, now_ps, TraceEventKind::Returned);
            m.wake(Class::Core, c);
            m.cores[c].push_response(f)
        };
        // The hit pipe delivers first, then the miss pipe.
        for pipe in &mut l1.pipes {
            pipe.deliver(now_ps, self.cfg.n_cores, |f| f.core_id, &mut offer);
        }
        self.refresh_has_out(out);
    }

    /// Re-reads `cores`' bits of `has_out` from their miss queues; debug
    /// builds check the whole word against a scan of every core.
    fn refresh_has_out(&mut self, cores: Bits) {
        for c in bits::iter(cores) {
            let queued = self.m.cores[c].miss_queue_len() != 0;
            bits::put(&mut self.has_out, c, queued);
        }
        debug_assert!(
            self.m
                .cores
                .iter()
                .enumerate()
                .all(|(c, core)| bits::contains(self.has_out, c) == (core.miss_queue_len() != 0)),
            "has_out out of sync with the cores' miss queues"
        );
    }

    // ---- interconnect / L2 domain -------------------------------------------

    /// Eight serial steps; each hand-off wakes its receiver first, and the
    /// wake settles exactly the ticks the receiver's class has swept, so a
    /// step need not know whether that sweep ran above it or runs below.
    ///
    /// Step 1 walks `has_out`, the cores with a miss to inject, asleep or
    /// awake. Steps 4, 5 and 7 walk a snapshot of their class's awake set,
    /// which stays exact because no step wakes a component of the class it
    /// walks: step 5 wakes only channels, step 7 only a network, and step
    /// 4's credits wake nothing.
    fn icnt_tick(&mut self, now_ps: Picos) {
        let icnt_cyc = self.clocks.domain(DomainId::Icnt).cycles();
        // 1. Cores inject L1 miss traffic into the request network. The
        //    pop changes the core's L1s (a refused head may now be
        //    admitted), so a parked core wakes before it.
        for c in bits::iter(self.has_out) {
            if let Some(head) = self.m.cores[c].peek_outgoing() {
                let bytes = head.request_bytes();
                let dst = head.line.interleave(self.cfg.n_l2_banks);
                if self.m.nets[REQ].can_inject(c, bytes) {
                    self.m.wake(Class::Net, REQ);
                    self.m.wake(Class::Core, c);
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: peek_outgoing() returned Some above."
                    )]
                    let mut f = self.m.cores[c].pop_outgoing().expect("peeked");
                    self.audit.emitted(&f);
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::DequeuedAt(Level::L1));
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::EnqueuedAt(Level::Icnt));
                    f.time.icnt_inject = now_ps;
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: can_inject() held just above."
                    )]
                    self.m.nets[REQ]
                        .inject(c, dst, f, bytes)
                        .expect("can_inject checked");
                    self.refresh_has_out(1 << c);
                }
            }
        }

        // 2. Switch both networks.
        let (cyc, trace) = (icnt_cyc, &mut self.trace);
        self.m.sweep(Class::Net, &mut Tick { now_ps, cyc, trace });

        // 3. Ejected requests enter L2 access queues (or stay in the
        //    crossbar's ejection buffers when a queue is full — that is the
        //    back-pressure path up toward the L1s). An empty backlog means
        //    every per-bank loop below would fall through its peek guard.
        if self.m.nets[REQ].ejection_backlog() > 0 {
            for b in 0..self.cfg.n_l2_banks {
                while self.m.nets[REQ].peek_eject(b).is_some() {
                    if !self.m.banks[b].can_accept() {
                        break;
                    }
                    self.m.wake(Class::Bank, b);
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: peek_eject() returned Some in the loop guard."
                    )]
                    let mut f = self.m.nets[REQ].pop_eject(b).expect("peeked");
                    f.time.l2_arrive = now_ps;
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::DequeuedAt(Level::Icnt));
                    if f.kind.wants_response() {
                        self.trace
                            .record_fetch(&f, now_ps, TraceEventKind::EnqueuedAt(Level::L2));
                    } else {
                        // A store reaching its L2 bank will be absorbed there
                        // (the bank retries internally until it lands); this is
                        // its terminal conservation event — and the trace's.
                        self.audit.absorbed(&f);
                        self.trace
                            .record_fetch(&f, now_ps, TraceEventKind::Absorbed);
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: can_accept() held just above."
                    )]
                    self.m.banks[b].push_access(f).expect("can_accept checked");
                }
            }
        }

        // 4. L2 bank pipelines. Before dispatching, each bank learns
        //    whether the reply crossbar would accept its next-ready
        //    response this tick (pull-based reply port): nothing between
        //    here and step 7 touches the reply network, so this credit is
        //    exactly the verdict injection will see, and `stall_cause`
        //    stays the single bp-ICNT attribution site. The credit
        //    only reclassifies stalled cycles — it never gates progress.
        let l2_t0 = self.host_span_begin();
        // A sleeping bank does not cycle this tick, so its credit is never
        // read; it always receives a fresh credit on the first tick it is
        // awake for (wakes drain before this step).
        for b in bits::iter(self.m.sched.awake[Class::Bank.idx()]) {
            let credit = match self.m.banks[b].response_ready_next() {
                Some(resp) => self.m.nets[REP].can_inject(b, resp.response_bytes()),
                None => true,
            };
            self.m.banks[b].set_reply_credit(credit);
        }
        let (cyc, trace) = (icnt_cyc, &mut self.trace);
        self.m.sweep(Class::Bank, &mut Tick { now_ps, cyc, trace });
        // The "l2_tick" sub-phase (credits + bank pipelines) nests inside
        // this icnt span by time containment.
        self.host_span_end(HostPhase::L2Tick, l2_t0);

        // 5. L2 miss queues drain toward DRAM (or the ideal-DRAM pipes).
        let dram_cyc = self.clocks.domain(DomainId::Dram).cycles();
        // A sleeping bank has an empty miss queue.
        for b in bits::iter(self.m.sched.awake[Class::Bank.idx()]) {
            let Some(head) = self.m.banks[b].miss_queue_front() else {
                continue;
            };
            let ch = head.line.interleave(self.cfg.n_channels);
            let ideal = self.ideal.dram.as_mut();
            if ideal.is_none() && !self.m.channels[ch].can_accept() {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: miss_queue_front() returned Some above."
            )]
            let mut f = self.m.banks[b].pop_miss().expect("peeked");
            f.time.dram_arrive = now_ps;
            let Some(dram) = ideal else {
                self.m.wake(Class::Chan, ch);
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: can_accept() held just above."
                )]
                self.m.channels[ch]
                    .push(f, dram_cyc)
                    .expect("can_accept checked");
                continue;
            };
            self.trace
                .record_fetch(&f, now_ps, TraceEventKind::DequeuedAt(Level::Dram));
            // Write-backs are absorbed instantly by the ideal DRAM.
            if f.kind.wants_response() {
                let ready = now_ps + self.clocks.domain(DomainId::Core).span(dram.latency);
                dram.banks[b].push(ready, f);
            }
        }

        // 6. DRAM (or ideal-DRAM) responses fill the L2; a bank whose
        //    response queue cannot take a fill holds back only its own.
        if let Some(dram) = self.ideal.dram.as_mut() {
            let (m, trace) = (&mut self.m, &mut self.trace);
            let mut fill = |b: usize, f: MemFetch| {
                if m.banks[b].response_free() < m.banks[b].fill_response_needs(f.line) {
                    return Err(f);
                }
                trace.record_fetch(&f, now_ps, TraceEventKind::ServicedAt(Level::Dram));
                m.wake(Class::Bank, b);
                m.banks[b].deliver_fill(f, now_ps);
                Ok(())
            };
            for (b, pipe) in dram.banks.iter_mut().enumerate() {
                pipe.deliver(now_ps, 1, |_| 0, |f| fill(b, f));
            }
        } else {
            let dram = self.clocks.domain(DomainId::Dram);
            for ch in 0..self.cfg.n_channels {
                while let Some(f) = self.m.channels[ch].peek_response() {
                    let (bank, line) = (f.line.interleave(self.cfg.n_l2_banks), f.line);
                    let b = &self.m.banks[bank];
                    if b.response_free() < b.fill_response_needs(line) {
                        break;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: peek_response() returned Some in the loop guard."
                    )]
                    let (cas, f) = self.m.channels[ch].pop_response_cas().expect("peeked");
                    // The clamp keeps the event stream monotone even for
                    // degenerate clock configurations.
                    let cas_ps = dram.tick_instant(cas).min(now_ps);
                    self.trace
                        .record_fetch(&f, cas_ps, TraceEventKind::DequeuedAt(Level::Dram));
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::ServicedAt(Level::Dram));
                    self.m.wake(Class::Bank, bank);
                    self.m.banks[bank].deliver_fill(f, now_ps);
                }
            }
        }

        // 7. L2 responses inject into the reply network. A sleeping bank
        //    never has a ready response (that would have kept it awake).
        for b in bits::iter(self.m.sched.awake[Class::Bank.idx()]) {
            if let Some(resp) = self.m.banks[b].response_ready() {
                let bytes = resp.response_bytes();
                let dst = resp.core_id;
                if self.m.nets[REP].can_inject(b, bytes) {
                    self.m.wake(Class::Net, REP);
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: response_ready() returned Some above."
                    )]
                    let f = self.m.banks[b].pop_response().expect("ready");
                    // An L2 hit is "serviced" when its response leaves the
                    // bank: lookup pipeline plus response-queue residency.
                    // DRAM-filled responses were serviced at the channel.
                    if f.serviced_by == gmh_types::fetch::ServicedBy::L2 {
                        self.trace
                            .record_fetch(&f, now_ps, TraceEventKind::ServicedAt(Level::L2));
                    }
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::EnqueuedAt(Level::Icnt));
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: can_inject() held just above."
                    )]
                    self.m.nets[REP]
                        .inject(b, dst, f, bytes)
                        .expect("can_inject checked");
                }
            }
        }

        // 8. Ejected replies enter core response FIFOs. Same early-out as
        //    step 3: no backlog, nothing to re-offer.
        if self.m.nets[REP].ejection_backlog() > 0 {
            for c in 0..self.cfg.n_cores {
                while self.m.nets[REP].peek_eject(c).is_some() {
                    if !self.m.cores[c].can_accept_response() {
                        break;
                    }
                    self.m.wake(Class::Core, c);
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: peek_eject() returned Some in the loop guard."
                    )]
                    let f = self.m.nets[REP].pop_eject(c).expect("peeked");
                    self.audit.returned(&f, now_ps);
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::DequeuedAt(Level::Icnt));
                    self.trace
                        .record_fetch(&f, now_ps, TraceEventKind::Returned);
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: can_accept_response() held just above."
                    )]
                    self.m.cores[c].push_response(f).expect("space checked");
                }
            }
        }
    }

    // ---- DRAM domain ---------------------------------------------------------

    /// (A sweep of a class the memory model never ticks is a no-op.)
    fn dram_tick(&mut self, now_ps: Picos) {
        let cyc = self.clocks.domain(DomainId::Dram).cycles();
        let trace = &mut self.trace;
        self.m.sweep(Class::Chan, &mut Tick { now_ps, cyc, trace });
    }

    // ---- statistics -----------------------------------------------------------

    fn collect(&mut self, hit_cap: bool) -> SimStats {
        let mut stats = SimStats {
            hit_cycle_cap: hit_cap,
            ..SimStats::default()
        };
        stats.core_cycles = self.clocks.domain(DomainId::Core).cycles();

        let mut aml_sum = 0.0;
        let mut aml_n = 0u64;
        let mut aml_hist = gmh_types::LatencyHistogram::default();
        let mut ahl_sum = 0.0;
        let mut ahl_n = 0u64;
        let mut l1_reads = 0u64;
        let mut l1_hits = 0u64;
        for c in self.m.cores.iter() {
            let s = c.stats();
            stats.insts += s.insts_issued;
            stats.issue.merge(&s.issue);
            stats.l1_stalls.merge(&s.l1_stalls);
            aml_sum += s.aml_ps.mean() * s.aml_ps.count() as f64;
            aml_n += s.aml_ps.count();
            aml_hist.merge(&s.aml_hist_ps);
            ahl_sum += s.l2_ahl_ps.mean() * s.l2_ahl_ps.count() as f64;
            ahl_n += s.l2_ahl_ps.count();
            l1_reads += c.l1d().stats().reads;
            l1_hits += c.l1d().stats().read_hits;
        }
        stats.ipc = ratio(stats.insts as f64, stats.core_cycles);
        let cycles = |ps: f64| self.clocks.ps_to_core_cycles(ps);
        stats.aml_core_cycles = cycles(ratio(aml_sum, aml_n));
        stats.aml_p50 = cycles(aml_hist.quantile(0.5));
        stats.aml_p90 = cycles(aml_hist.quantile(0.9));
        stats.aml_p99 = cycles(aml_hist.quantile(0.99));
        stats.l2_ahl_core_cycles = cycles(ratio(ahl_sum, ahl_n));
        stats.stall_fraction = stats.issue.stall_fraction();
        stats.l1_miss_rate = miss_rate(l1_hits, l1_reads);

        let mut l2_reads = 0u64;
        let mut l2_hits = 0u64;
        for b in self.m.banks.iter() {
            stats.l2_stalls.merge(b.stalls());
            stats.l2_access_occupancy.merge(b.access_occupancy());
            l2_reads += b.cache().stats().reads;
            l2_hits += b.cache().stats().read_hits;
        }
        stats.l2_miss_rate = miss_rate(l2_hits, l2_reads);

        let mut eff_num = 0u64;
        let mut eff_den = 0u64;
        for ch in self.m.channels.iter() {
            stats.dram_queue_occupancy.merge(ch.queue_occupancy());
            eff_num += ch.stats().efficiency.numerator();
            eff_den += ch.stats().efficiency.denominator();
        }
        stats.dram_efficiency = ratio(eff_num as f64, eff_den);

        stats.telemetry = self.telemetry.snapshot();
        stats.audit = self.audit.summary();
        // The sink is taken, not copied: a run is collected once.
        stats.trace = std::mem::replace(&mut self.trace, TraceSink::disabled()).into_data();
        stats
    }
}

/// `num / den`, 0 over an empty denominator.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The share of `reads` that missed, 0 with no reads.
fn miss_rate(hits: u64, reads: u64) -> f64 {
    if reads == 0 {
        0.0
    } else {
        1.0 - hits as f64 / reads as f64
    }
}

/// The L2 banks' access, miss and response queue totals, and their stall
/// totals (bp-ICNT, port, cache, MSHR, bp-DRAM).
fn bank_sums(banks: &[L2Bank]) -> ([usize; 3], [u64; 5]) {
    let (mut queues, mut stalls) = ([0usize; 3], [0u64; 5]);
    for b in banks {
        queues[0] += b.access_queue_len();
        queues[1] += b.miss_queue_len();
        queues[2] += b.response_queue_len();
        for (sum, n) in stalls.iter_mut().zip(b.stalls().counts()) {
            *sum += n;
        }
    }
    (queues, stalls)
}

/// The DRAM channels' scheduler and response queue totals.
fn channel_sums(channels: &[DramChannel]) -> [usize; 2] {
    channels.iter().fold([0, 0], |[q, r], c| {
        [q + c.queue_len(), r + c.response_queue_len()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryModel;
    use gmh_workloads::catalog;
    use gmh_workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

    /// A small fast workload for sim unit tests.
    fn tiny_workload() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            suite: Suite::Rodinia,
            full_name: "tiny test workload",
            warps_per_core: 4,
            insts_per_warp: 60,
            code_lines: 2,
            mem_fraction: 0.4,
            write_fraction: 0.1,
            ilp: 2,
            alu_latency: 4,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.5, 0.4, 0.1),
            hot_lines: 64,
            shared_lines: 128,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 42,
        }
    }

    fn small_cfg() -> GpuConfig {
        let mut c = GpuConfig::gtx480_baseline();
        c.n_cores = 2;
        c.max_core_cycles = 200_000;
        c
    }

    #[test]
    fn full_model_drains_tiny_workload() {
        let wl = tiny_workload();
        let mut sim = GpuSim::new(small_cfg(), &wl);
        let stats = sim.run();
        assert!(
            !stats.hit_cycle_cap,
            "must drain, ran {} cycles",
            stats.core_cycles
        );
        assert_eq!(stats.insts, wl.total_insts(2));
        assert!(stats.ipc > 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        let wl = tiny_workload();
        let a = GpuSim::new(small_cfg(), &wl).run();
        let b = GpuSim::new(small_cfg(), &wl).run();
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.issue.total_stalls(), b.issue.total_stalls());
    }

    #[test]
    fn fixed_latency_model_drains() {
        let wl = tiny_workload();
        let mut cfg = small_cfg();
        cfg.memory_model = MemoryModel::FixedL1MissLatency(200);
        let stats = GpuSim::new(cfg, &wl).run();
        assert!(!stats.hit_cycle_cap);
        assert_eq!(stats.insts, wl.total_insts(2));
        // AML must reflect the configured latency.
        assert!(
            (stats.aml_core_cycles - 200.0).abs() < 10.0,
            "AML = {}",
            stats.aml_core_cycles
        );
    }

    #[test]
    fn lower_fixed_latency_is_faster() {
        let wl = tiny_workload();
        let mut fast_cfg = small_cfg();
        fast_cfg.memory_model = MemoryModel::FixedL1MissLatency(50);
        let mut slow_cfg = small_cfg();
        slow_cfg.memory_model = MemoryModel::FixedL1MissLatency(600);
        let fast = GpuSim::new(fast_cfg, &wl).run();
        let slow = GpuSim::new(slow_cfg, &wl).run();
        assert!(
            fast.ipc > slow.ipc,
            "fast {} must beat slow {}",
            fast.ipc,
            slow.ipc
        );
    }

    #[test]
    fn infinite_bw_model_drains_and_beats_baseline() {
        // A memory-heavy streaming slice: even two cores oversubscribe the
        // DRAM, so the congestion-free P∞ model must win clearly.
        let wl = WorkloadSpec {
            warps_per_core: 16,
            insts_per_warp: 600,
            mem_fraction: 0.7,
            mix: AddressMix::new(0.9, 0.05, 0.05),
            ..tiny_workload()
        };
        let mut cfg = small_cfg();
        cfg.memory_model = MemoryModel::InfiniteBw {
            l2_hit: 120,
            dram: 220,
        };
        let ideal = GpuSim::new(cfg, &wl).run();
        let base = GpuSim::new(small_cfg(), &wl).run();
        assert!(!ideal.hit_cycle_cap);
        assert!(
            ideal.ipc > base.ipc,
            "P∞ ({}) must beat the congested baseline ({})",
            ideal.ipc,
            base.ipc
        );
    }

    #[test]
    fn infinite_dram_model_drains() {
        let wl = tiny_workload();
        let mut cfg = small_cfg();
        cfg.memory_model = MemoryModel::InfiniteDram { latency: 100 };
        let stats = GpuSim::new(cfg, &wl).run();
        assert!(!stats.hit_cycle_cap);
        assert_eq!(stats.insts, wl.total_insts(2));
    }

    #[test]
    fn stats_fields_are_populated_on_full_model() {
        let wl = tiny_workload();
        let stats = GpuSim::new(small_cfg(), &wl).run();
        assert!(stats.core_cycles > 0);
        // Latency percentiles are ordered and bracket the mean.
        assert!(stats.aml_p50 <= stats.aml_p90);
        assert!(stats.aml_p90 <= stats.aml_p99);
        assert!(stats.aml_p99 > 0.0);
        assert!(
            stats.aml_p50 <= stats.aml_core_cycles * 1.5 + 50.0,
            "median ({}) wildly above mean ({})",
            stats.aml_p50,
            stats.aml_core_cycles
        );
        // The tiny workload misses in L1 (cold) so some AML samples exist.
        assert!(stats.aml_core_cycles > 0.0);
        assert!(stats.l1_miss_rate > 0.0 && stats.l1_miss_rate <= 1.0);
        assert!(stats.l2_access_occupancy.lifetime() > 0);
        assert!(stats.dram_queue_occupancy.lifetime() > 0);
        assert!(stats.dram_efficiency > 0.0 && stats.dram_efficiency <= 1.0);
    }

    #[test]
    fn telemetry_series_are_populated_and_audit_balances() {
        let wl = tiny_workload();
        let stats = GpuSim::new(small_cfg(), &wl).run();
        let snap = &stats.telemetry;
        assert!(snap.window_cycles > 0);
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "l1.miss_queue",
            "core.response_fifo",
            "icnt.req.flits_per_cycle",
            "icnt.rep.inject_flits",
            "l2.access_queue",
            "l2.miss_queue",
            "l2.response_queue",
            "l2.stall.bp_icnt",
            "l2.stall.bp_dram",
            "dram.sched_queue",
            "dram.response_queue",
        ] {
            assert!(names.contains(&expected), "missing series {expected}");
        }
        let lens: Vec<usize> = snap.series.iter().map(|s| s.points.len()).collect();
        assert!(lens[0] > 0, "series must have points");
        assert!(
            lens.iter().all(|&n| n == lens[0]),
            "sampled in lock-step: {lens:?}"
        );
        let l2q = snap
            .series
            .iter()
            .find(|s| s.name == "l2.access_queue")
            .unwrap();
        assert!(
            l2q.points.iter().any(|&p| p > 0.0),
            "a real run must exercise the L2 access queues"
        );
        assert!(stats.audit.emitted > 0);
        assert_eq!(
            stats.audit.emitted,
            stats.audit.returned + stats.audit.absorbed,
            "every emitted fetch must terminate exactly once"
        );
        assert_eq!(stats.audit.in_flight, 0);
    }

    #[test]
    fn tracing_does_not_change_simulation_results() {
        let wl = tiny_workload();
        let base = GpuSim::new(small_cfg(), &wl).run();
        let mut cfg = small_cfg();
        cfg.trace_sample = 2;
        let traced = GpuSim::new(cfg, &wl).run();
        assert_eq!(base.core_cycles, traced.core_cycles);
        assert_eq!(base.insts, traced.insts);
        assert_eq!(base.issue.total_stalls(), traced.issue.total_stalls());
        assert_eq!(base.audit.emitted, traced.audit.emitted);
        assert_eq!(base.l2_stalls.total(), traced.l2_stalls.total());
        assert!(base.trace.events.is_empty(), "tracing defaults off");
        assert!(!traced.trace.events.is_empty(), "sampled trace has events");
    }

    #[test]
    fn traced_full_run_decomposes_latency_per_level() {
        let wl = tiny_workload();
        let mut cfg = small_cfg();
        cfg.trace_sample = 1;
        let stats = GpuSim::new(cfg, &wl).run();
        let t = &stats.trace;
        assert!(t.sampled > 0);
        assert_eq!(t.skipped, 0, "denominator 1 samples every fetch");
        // Every fetch that misses the L1 queues at the L1 miss queue and at
        // the L2; the miss path exercises DRAM.
        for level in gmh_types::trace::Level::ALL {
            assert!(t.levels.contains_key(&level), "missing level {level:?}");
        }
        let l2 = &t.levels[&gmh_types::trace::Level::L2];
        assert!(
            l2.queueing.count() > 0,
            "a full-model run must observe L2 queueing"
        );
        let dram = &t.levels[&gmh_types::trace::Level::Dram];
        assert!(
            dram.service.count() > 0,
            "cold misses must observe DRAM service time"
        );
    }

    #[test]
    fn tracing_works_on_every_memory_model() {
        let wl = tiny_workload();
        for model in [
            MemoryModel::Full,
            MemoryModel::FixedL1MissLatency(120),
            MemoryModel::InfiniteBw {
                l2_hit: 120,
                dram: 220,
            },
            MemoryModel::InfiniteDram { latency: 100 },
        ] {
            let mut cfg = small_cfg();
            cfg.memory_model = model.clone();
            cfg.trace_sample = 2;
            let stats = GpuSim::new(cfg, &wl).run();
            assert!(
                !stats.trace.events.is_empty(),
                "model {model:?} produced no trace events"
            );
        }
    }

    #[test]
    fn real_catalog_workload_runs_on_two_cores() {
        let mut wl = catalog::by_name("nn").unwrap();
        wl.insts_per_warp = 100;
        wl.warps_per_core = 8;
        let stats = GpuSim::new(small_cfg(), &wl).run();
        assert!(!stats.hit_cycle_cap, "nn slice must drain");
        assert!(stats.ipc > 0.0);
    }
}
