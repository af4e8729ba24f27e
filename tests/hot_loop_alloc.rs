//! Allocation budget of the run loop.
//!
//! The per-cycle path runs hundreds of millions of times per experiment, so
//! scratch buffers live on the owning struct and are reused; an allocation
//! per tick of any component is a regression. A counting global allocator
//! measures the allocations `GpuSim::run` makes in steady state: the count
//! at 80k core cycles minus the count at 20k (setup and the end-of-run
//! report cancel) must stay below the crossbar ticks in those 60k cycles,
//! i.e. under 0.5 per core cycle. That is the smallest rate at which a
//! component ticking at or above the crossbar clock can allocate on every
//! tick.
//!
//! The instruction generator allocates on its own account (one address
//! list per memory instruction), so every warp's stream is generated
//! before the simulation starts and replayed from memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gmh::core::{GpuConfig, GpuSim, SimStats};
use gmh::exp::report_json;
use gmh::simt::inst::{Inst, InstSource};
use gmh::workloads::{catalog, WorkloadSpec};

thread_local! {
    /// Allocations made on this thread while counting (`None`: not counting).
    /// Per thread, so tests running side by side do not see each other's.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting allocations (including growth) on
/// threads that have counting switched on.
struct Counting;

impl Counting {
    fn note() {
        // `try_with`: the allocator may run while a thread tears down.
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter touches only a `Cell` in a const-initialized thread local, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One core's instruction streams, generated up front and handed out
/// without allocating (`ScriptedSource` clones each instruction, and a
/// memory instruction's clone allocates its address list).
struct Pregenerated {
    warps: Vec<std::vec::IntoIter<Inst>>,
    code_lines: u64,
}

impl Pregenerated {
    /// Drains every warp of `wl`'s source for `core`, one warp after the
    /// other. Streams of workloads whose warps walk separate cursors are
    /// unchanged by that; `coherent_stream` ones hand out the core's shared
    /// cursor in a different order, which is still a valid stream.
    fn new(wl: &WorkloadSpec, core: usize) -> Self {
        let mut src = wl.source_for_core(core);
        let warps = (0..wl.warps_per_core)
            .map(|w| {
                let stream: Vec<Inst> = std::iter::from_fn(|| src.next_inst(w)).collect();
                stream.into_iter()
            })
            .collect();
        Pregenerated {
            warps,
            code_lines: src.code_lines(),
        }
    }
}

impl InstSource for Pregenerated {
    fn next_inst(&mut self, warp: usize) -> Option<Inst> {
        self.warps.get_mut(warp)?.next()
    }

    fn code_lines(&self) -> u64 {
        self.code_lines
    }
}

fn baseline(max_core_cycles: u64) -> GpuConfig {
    GpuConfig {
        max_core_cycles,
        ..GpuConfig::gtx480_baseline()
    }
}

/// Runs `wl` on the baseline GPU from pregenerated streams for at most
/// `max_core_cycles`; returns the stats and the allocations `run` made.
fn counted_run(wl: &WorkloadSpec, max_core_cycles: u64) -> (SimStats, u64) {
    let mut sim = GpuSim::from_sources(baseline(max_core_cycles), wl.name, |c| {
        Box::new(Pregenerated::new(wl, c))
    });
    ALLOCS.set(Some(0));
    let stats = sim.run();
    let allocs = ALLOCS.replace(None).expect("counting was on");
    (stats, allocs)
}

const SHORT: u64 = 20_000;
const LONG: u64 = 80_000;

fn assert_steady_state_allocates_below_one_per_icnt_tick(name: &str) {
    let wl = catalog::by_name(name).expect("catalog workload");
    let (short, at_short) = counted_run(&wl, SHORT);
    let (long, at_long) = counted_run(&wl, LONG);
    assert!(
        short.hit_cycle_cap && long.hit_cycle_cap,
        "{name} must still be running at {SHORT} core cycles"
    );
    let cfg = baseline(LONG);
    let icnt_ticks = (LONG - SHORT) * u64::from(cfg.icnt_mhz) / u64::from(cfg.core_mhz);
    let extra = at_long.saturating_sub(at_short);
    assert!(
        extra < icnt_ticks,
        "{name}: run() made {extra} allocations in {} core cycles ({:.3} per cycle), \
         budget {icnt_ticks} (one per crossbar tick); {at_short} by {SHORT} cycles, \
         {at_long} by {LONG}",
        LONG - SHORT,
        extra as f64 / (LONG - SHORT) as f64,
    );
}

#[test]
fn mm_run_loop_stays_under_the_allocation_budget() {
    assert_steady_state_allocates_below_one_per_icnt_tick("mm");
}

#[test]
fn sc_run_loop_stays_under_the_allocation_budget() {
    assert_steady_state_allocates_below_one_per_icnt_tick("sc");
}

#[test]
fn lbm_run_loop_stays_under_the_allocation_budget() {
    assert_steady_state_allocates_below_one_per_icnt_tick("lbm");
}

#[test]
fn pregenerated_streams_replay_the_generator_exactly() {
    // mm's warps walk separate cursors, so generating each warp's stream
    // ahead of time must not change the run.
    let wl = catalog::by_name("mm").expect("catalog workload");
    assert!(!wl.coherent_stream);
    let (replayed, _) = counted_run(&wl, SHORT);
    let live = GpuSim::new(baseline(SHORT), &wl).run();
    assert_eq!(
        report_json("gtx480_baseline", wl.name, &replayed),
        report_json("gtx480_baseline", wl.name, &live)
    );
}
