//! Multi-frequency clock domains.
//!
//! The simulated GPU runs three clock domains (Table I): the SIMT cores at
//! 1.4 GHz, the crossbar and L2 at 700 MHz, and the GDDR5 command clock at
//! 924 MHz. [`ClockDomains`] advances simulated time to the next tick of the
//! earliest-due domain, exactly like GPGPU-Sim's top-level `cycle()`
//! interleaving, so components in different domains observe correct relative
//! rates.
//!
//! Time is kept in integer picoseconds for bit-exact determinism, as a
//! [`Picos`] the compiler keeps apart from cycle counts: every step between
//! the two goes through a [`ClockDomain`] or [`ClockDomains`] converter.

use crate::trace::TraceSink;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Simulated time in picoseconds: an instant, or a span between two.
///
/// Picoseconds only add to and compare with picoseconds; a cycle count
/// becomes a `Picos` through its domain's converter
/// ([`ClockDomain::tick_instant`], [`ClockDomain::span`]), so mixing the
/// two is a compile error (the `gmh` facade crate's `compile_fail`
/// doctests pin this). A picosecond literal is spelled `Picos(..)`.
///
/// `Display` and `Debug` print the bare integer, so reports, traces and
/// audit ledgers read as plain picosecond counts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Time zero.
    pub const ZERO: Picos = Picos(0);
    /// The last representable instant.
    pub const MAX: Picos = Picos(u64::MAX);

    /// The raw picosecond count, for statistics and exporters.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `self - rhs`, or zero when `rhs` is later.
    #[inline]
    #[must_use]
    pub const fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Whether `self` is a whole number of `rhs` spans.
    #[inline]
    pub const fn is_multiple_of(self, rhs: Picos) -> bool {
        self.0.is_multiple_of(rhs.0)
    }
}

/// Lets the entry points the `gmh-benchmark` package drives with bare
/// integers (`SimtCore::cycle`, `L2Bank::{cycle, deliver_fill}`,
/// `Cache::{access_read, fill}`, [`crate::MemFetch::new`]) take an
/// `impl Into<Picos>`. With this one impl an integer literal still infers
/// as `u64`.
impl From<u64> for Picos {
    #[inline]
    fn from(ps: u64) -> Picos {
        Picos(ps)
    }
}

impl Add for Picos {
    type Output = Picos;
    #[inline]
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl Sub for Picos {
    type Output = Picos;
    #[inline]
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl AddAssign for Picos {
    #[inline]
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Picos {
    #[inline]
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Debug for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// Outcome of a component's conservative idle probe, used by the run loop's
/// fast-forward scheduler.
///
/// The contract: a component answering `QuietUntil { bound }` guarantees it
/// is *inert* — apart from constant per-cycle bookkeeping its skip method
/// reproduces — on every tick of its clock domain whose index is strictly
/// below `bound`. Under-estimating (answering `Busy`, or a smaller bound) is
/// always safe; over-estimating breaks bit-identical replay. `bound == None`
/// means the component only wakes on external input and imposes no bound of
/// its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventBound {
    /// The component may act on its very next tick; do not skip.
    Busy,
    /// No state change strictly before tick index `bound` of the
    /// component's own domain (`None`: woken only by external input).
    QuietUntil {
        /// First tick index (1-based, matching [`ClockDomain::cycles`])
        /// at which the component could possibly act again.
        bound: Option<u64>,
    },
}

impl EventBound {
    /// Quiescent with no self-imposed wakeup (external input only).
    pub fn quiet_external() -> Self {
        EventBound::QuietUntil { bound: None }
    }

    /// Quiescent until tick index `bound` of the component's own domain.
    /// `u64::MAX` is treated as "no bound" for callers that fold with
    /// `min`.
    pub fn quiet_until(bound: u64) -> Self {
        EventBound::QuietUntil {
            bound: if bound == u64::MAX { None } else { Some(bound) },
        }
    }
}

/// What one tick of a [`Component`] sees of the machine around it.
pub struct Tick<'a> {
    /// Wall-clock instant of the tick.
    pub now_ps: Picos,
    /// 1-based index of the tick in the component's own clock domain.
    pub cyc: u64,
    /// Sink for the lifecycle events of sampled fetches.
    pub trace: &'a mut TraceSink,
}

/// What the event scheduler asks of a ticking component: it ticks it,
/// probes it after a tick that did nothing, lets it sleep through the
/// window the probe promised, and settles the slept ticks in one call
/// before anything touches it again. The scheduler is written against this
/// trait alone, so a probe cannot ship without its replay.
pub trait Component {
    /// Advances one own-domain tick. `true` says the tick was *active* —
    /// the probe would answer `Busy`, or is not worth asking yet — and the
    /// scheduler skips it; a component whose probe is O(1) may always
    /// answer `false`.
    fn tick(&mut self, cx: &mut Tick<'_>) -> bool;

    /// Conservative idle probe over the component's own tick index (see
    /// [`EventBound`] for the contract).
    fn next_event_bound(&self) -> EventBound;

    /// Applies `n` quiescent ticks in one step: exactly what `n` calls of
    /// [`Component::tick`] would do from the state in which the probe
    /// answered quiet with a bound beyond them. The scheduler calls it
    /// before the first mutation that ends the window.
    fn skip_cycles(&mut self, n: u64);
}

/// Identifies one of the three clock domains of the simulated GPU.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DomainId {
    /// SIMT cores and their private L1 caches (1.4 GHz baseline).
    Core,
    /// Crossbar interconnect and shared L2 banks (700 MHz baseline).
    Icnt,
    /// DRAM command clock (924 MHz baseline).
    Dram,
}

/// A single clock domain: a frequency plus the time of its next tick.
#[derive(Clone, Debug)]
pub struct ClockDomain {
    mhz: u32,
    period_ps: Picos,
    next_tick: Picos,
    cycles: u64,
}

impl ClockDomain {
    /// The fastest clock whose period is a whole picosecond.
    pub const MAX_MHZ: u32 = 1_000_000;

    /// Creates a domain running at `mhz` megahertz, first tick at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or above [`ClockDomain::MAX_MHZ`].
    pub fn new(mhz: u32) -> Self {
        assert!(
            (1..=Self::MAX_MHZ).contains(&mhz),
            "clock frequency must be non-zero and at most {} MHz",
            Self::MAX_MHZ
        );
        ClockDomain {
            mhz,
            period_ps: Picos(1_000_000 / u64::from(mhz)),
            next_tick: Picos::ZERO,
            cycles: 0,
        }
    }

    /// The tick period in picoseconds.
    pub fn period_ps(&self) -> Picos {
        self.period_ps
    }

    /// Number of ticks taken so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Time of the next tick.
    pub fn next_tick(&self) -> Picos {
        self.next_tick
    }

    /// The instant own-domain tick `n` (1-based) fires: `(n - 1)` periods
    /// after time 0. Tick 0, which never fires, maps to time 0 like tick 1;
    /// an instant past [`Picos::MAX`] saturates there.
    #[inline]
    pub fn tick_instant(&self, n: u64) -> Picos {
        Picos(n.saturating_sub(1).saturating_mul(self.period_ps.0))
    }

    /// The span of `n` ticks of this domain.
    #[inline]
    pub fn span(&self, n: u64) -> Picos {
        Picos(n * self.period_ps.0)
    }

    fn tick(&mut self) {
        self.cycles += 1;
        self.next_tick += self.period_ps;
    }
}

/// The set of three clock domains, advanced in lock-step simulated time.
///
/// # Example
///
/// ```
/// use gmh_types::{ClockDomains, DomainId};
///
/// let mut clocks = ClockDomains::new(1400, 700, 924);
/// // Advance until the core domain has run 1400 cycles (1 µs): the 700 MHz
/// // interconnect domain must have run half as many.
/// while clocks.domain(DomainId::Core).cycles() < 1400 {
///     clocks.advance();
/// }
/// assert!((699..=701).contains(&clocks.domain(DomainId::Icnt).cycles()));
/// ```
#[derive(Clone, Debug)]
pub struct ClockDomains {
    core: ClockDomain,
    icnt: ClockDomain,
    dram: ClockDomain,
    now: Picos,
}

/// Which domains fired on a given [`ClockDomains::advance`] call.
///
/// Multiple domains can tick at the same instant (e.g. at time 0 all three
/// fire). Components must be ticked for every set flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickSet {
    /// The core domain ticked.
    pub core: bool,
    /// The interconnect/L2 domain ticked.
    pub icnt: bool,
    /// The DRAM domain ticked.
    pub dram: bool,
}

impl ClockDomains {
    /// Creates the three domains from their frequencies in MHz.
    pub fn new(core_mhz: u32, icnt_mhz: u32, dram_mhz: u32) -> Self {
        ClockDomains {
            core: ClockDomain::new(core_mhz),
            icnt: ClockDomain::new(icnt_mhz),
            dram: ClockDomain::new(dram_mhz),
            now: Picos::ZERO,
        }
    }

    /// Current simulated time in picoseconds.
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Borrow a domain by id.
    pub fn domain(&self, id: DomainId) -> &ClockDomain {
        match id {
            DomainId::Core => &self.core,
            DomainId::Icnt => &self.icnt,
            DomainId::Dram => &self.dram,
        }
    }

    /// Advances simulated time to the next tick instant and returns which
    /// domains tick there. Domains sharing the instant all fire.
    pub fn advance(&mut self) -> TickSet {
        let t = self
            .core
            .next_tick
            .min(self.icnt.next_tick)
            .min(self.dram.next_tick);
        self.now = t;
        let mut fired = TickSet::default();
        if self.core.next_tick == t {
            self.core.tick();
            fired.core = true;
        }
        if self.icnt.next_tick == t {
            self.icnt.tick();
            fired.icnt = true;
        }
        if self.dram.next_tick == t {
            self.dram.tick();
            fired.dram = true;
        }
        fired
    }

    /// Converts a (mean) span of picoseconds into fractional core cycles,
    /// as the paper reports AML and L2-AHL.
    ///
    /// It divides by the exact period `1e6 / core_mhz` ps, not the whole
    /// picoseconds the core clock steps by: at 1400 MHz that is 714.29 ps
    /// against 714, so a latency counted in clock steps reads ≈0.04 % low.
    pub fn ps_to_core_cycles(&self, ps: f64) -> f64 {
        ps / (1_000_000.0 / f64::from(self.core.mhz))
    }

    /// Bulk-advances every domain past all tick instants strictly before
    /// `target_ps`, without firing components, and returns how many ticks
    /// each domain skipped.
    ///
    /// This is the clock half of the fast-forward scheduler: the caller
    /// proves (via component [`EventBound`]s) that every skipped tick would
    /// have been inert, then replays the per-tick constant bookkeeping
    /// itself. The per-domain tick counts — and therefore the exact
    /// interleaving a naive [`ClockDomains::advance`] loop would have
    /// produced — are preserved: after the jump, `cycles()`, `next_tick()`
    /// and `now()` are exactly what that loop would have left behind.
    ///
    /// Returns all-zero counts (and changes nothing) when no domain has a
    /// tick before `target_ps`.
    pub fn fast_forward(&mut self, target_ps: Picos) -> TickCounts {
        let mut counts = TickCounts::default();
        let mut last_fired: Option<Picos> = None;
        for (dom, k) in [
            (&mut self.core, &mut counts.core),
            (&mut self.icnt, &mut counts.icnt),
            (&mut self.dram, &mut counts.dram),
        ] {
            if dom.next_tick >= target_ps {
                continue;
            }
            // Number of ticks at instants next_tick + n*period < target_ps.
            let n = (target_ps - dom.next_tick).0.div_ceil(dom.period_ps.0);
            let last = dom.next_tick + dom.span(n - 1);
            last_fired = Some(last_fired.map_or(last, |t| t.max(last)));
            dom.cycles += n;
            dom.next_tick += dom.span(n);
            *k = n;
        }
        if let Some(t) = last_fired {
            self.now = t;
        }
        counts
    }
}

/// Per-domain tick counts skipped by [`ClockDomains::fast_forward`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickCounts {
    /// Core-domain ticks skipped.
    pub core: u64,
    /// Interconnect/L2-domain ticks skipped.
    pub icnt: u64,
    /// DRAM-domain ticks skipped.
    pub dram: u64,
}

impl TickCounts {
    /// Total ticks skipped across all domains.
    pub fn total(&self) -> u64 {
        self.core + self.icnt + self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_domains_fire_at_time_zero() {
        let mut c = ClockDomains::new(1400, 700, 924);
        let t = c.advance();
        assert_eq!(
            t,
            TickSet {
                core: true,
                icnt: true,
                dram: true
            }
        );
        assert_eq!(c.now(), Picos::ZERO);
    }

    #[test]
    fn relative_rates_match_frequencies() {
        let mut c = ClockDomains::new(1400, 700, 924);
        for _ in 0..100_000 {
            c.advance();
        }
        let core = c.domain(DomainId::Core).cycles() as f64;
        let icnt = c.domain(DomainId::Icnt).cycles() as f64;
        let dram = c.domain(DomainId::Dram).cycles() as f64;
        assert!(
            (core / icnt - 2.0).abs() < 0.01,
            "core:icnt = {}",
            core / icnt
        );
        assert!(
            (core / dram - 1400.0 / 924.0).abs() < 0.01,
            "core:dram = {}",
            core / dram
        );
    }

    #[test]
    fn time_is_monotonic() {
        let mut c = ClockDomains::new(1400, 700, 924);
        let mut last = Picos::ZERO;
        for _ in 0..1000 {
            c.advance();
            assert!(c.now() >= last);
            last = c.now();
        }
    }

    #[test]
    fn ps_to_core_cycles_divides_by_the_exact_period() {
        let c = ClockDomains::new(1000, 500, 500);
        // 1 GHz -> period 1000 ps, so 5000 ps = 5 cycles.
        assert_eq!(c.ps_to_core_cycles(5000.0), 5.0);
        // 1400 MHz steps 714 ps, but a cycle is 714.29 ps exactly.
        let c = ClockDomains::new(1400, 700, 924);
        assert_eq!(c.domain(DomainId::Core).period_ps(), Picos(714));
        assert!(c.ps_to_core_cycles(714.0) < 1.0);
        assert_eq!(c.ps_to_core_cycles(1_000_000.0), 1400.0);
    }

    #[test]
    fn tick_instants_and_spans_count_whole_periods() {
        let d = ClockDomain::new(1400);
        assert_eq!(d.tick_instant(1), Picos::ZERO);
        assert_eq!(d.tick_instant(0), Picos::ZERO);
        assert_eq!(d.tick_instant(4), Picos(3 * 714));
        assert_eq!(d.tick_instant(u64::MAX), Picos::MAX);
        assert_eq!(d.span(4), Picos(4 * 714));
        // The instant of tick N is where N ticks of a naive loop end up.
        let mut c = ClockDomains::new(1400, 700, 924);
        while c.domain(DomainId::Core).cycles() < 10 {
            c.advance();
        }
        let core = c.domain(DomainId::Core);
        assert_eq!(core.tick_instant(10), core.next_tick() - core.period_ps());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = ClockDomain::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 1000000 MHz")]
    fn sub_picosecond_period_panics() {
        let _ = ClockDomain::new(ClockDomain::MAX_MHZ + 1);
    }

    #[test]
    fn fast_forward_matches_naive_advance_loop() {
        // Jump to an arbitrary target, then compare against a clock that
        // took the same ticks one advance() at a time.
        for target in [1u64, 713, 1000, 12_345, 1_000_000].map(Picos) {
            let mut jumped = ClockDomains::new(1400, 700, 924);
            let mut naive = ClockDomains::new(1400, 700, 924);
            // Move both off the origin so the jump starts mid-stream.
            for _ in 0..7 {
                jumped.advance();
                naive.advance();
            }
            let counts = jumped.fast_forward(target);
            let mut naive_counts = TickCounts::default();
            while naive
                .core
                .next_tick
                .min(naive.icnt.next_tick)
                .min(naive.dram.next_tick)
                < target
            {
                let fired = naive.advance();
                naive_counts.core += u64::from(fired.core);
                naive_counts.icnt += u64::from(fired.icnt);
                naive_counts.dram += u64::from(fired.dram);
            }
            assert_eq!(counts, naive_counts, "target {target}");
            for id in [DomainId::Core, DomainId::Icnt, DomainId::Dram] {
                assert_eq!(jumped.domain(id).cycles(), naive.domain(id).cycles());
                assert_eq!(jumped.domain(id).next_tick(), naive.domain(id).next_tick());
            }
            if counts.total() > 0 {
                assert_eq!(jumped.now(), naive.now(), "target {target}");
            }
        }
    }

    #[test]
    fn fast_forward_before_any_tick_is_a_no_op() {
        let mut c = ClockDomains::new(1400, 700, 924);
        c.advance();
        let before = (c.now(), c.domain(DomainId::Core).cycles());
        let counts = c.fast_forward(c.domain(DomainId::Core).next_tick());
        assert_eq!(counts, TickCounts::default());
        assert_eq!((c.now(), c.domain(DomainId::Core).cycles()), before);
    }

    #[test]
    fn equal_frequencies_tick_together() {
        let mut c = ClockDomains::new(700, 700, 700);
        for _ in 0..100 {
            let t = c.advance();
            assert_eq!(t.core, t.icnt);
            assert_eq!(t.icnt, t.dram);
        }
    }
}
