//! Host self-profiler regression: profiling is pure observation.
//!
//! `profile_host` threads wall-clock spans through the run loop, which is
//! exactly the kind of change that could perturb results if it ever leaked
//! into model state. This test pins the contract at the strictest
//! observable boundary: with profiling on or off, the exported report
//! (stats, stall fractions, audit ledger, telemetry series) and the
//! sampled Chrome trace must be byte-identical — and the profiled run's
//! own output must be structurally sound.

use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::{chrome_trace_json, report_json, utilization_table};
use gmh::types::prof::{HostPhase, TIMED_STRIDE};
use gmh::types::{ClockDomains, DomainId, Picos};
use gmh::workloads::catalog;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

/// A small machine (4 cores, 4 banks, 2 channels) that stays fast.
fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 60_000;
    c.trace_sample = 4;
    c
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "host-prof-mix",
        suite: Suite::Parboil,
        full_name: "mixed archetype for host-profiler equivalence",
        warps_per_core: 16,
        insts_per_warp: 200,
        code_lines: 4,
        mem_fraction: 0.4,
        write_fraction: 0.15,
        ilp: 4,
        alu_latency: 8,
        alu_dep_fraction: 0.1,
        accesses_per_mem: 2,
        mix: AddressMix::new(0.5, 0.25, 0.25),
        hot_lines: 64,
        shared_lines: 2048,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 1234,
    }
}

#[test]
fn profiling_leaves_reports_and_traces_byte_identical() {
    let wl = workload();
    let off_cfg = small_gpu();
    let mut on_cfg = off_cfg.clone();
    on_cfg.profile_host = true;

    let off = GpuSim::new(off_cfg, &wl).run();
    let mut on_sim = GpuSim::new(on_cfg, &wl);
    let on = on_sim.run();
    assert_eq!(
        report_json("host-prof", wl.name, &off),
        report_json("host-prof", wl.name, &on),
        "profiling must not change a byte of the report"
    );
    assert_eq!(
        chrome_trace_json(wl.name, &off.trace),
        chrome_trace_json(wl.name, &on.trace),
        "profiling must not change a byte of the trace"
    );

    // And the profiled run did actually profile: every top-level tick
    // phase recorded spans, and the attribution table renders them.
    let r = on_sim.take_host_report().expect("profile_host was on");
    assert!(r.wall_ns > 0);
    let table = utilization_table(&r);
    for phase in [
        HostPhase::CoreTick,
        HostPhase::IcntTick,
        HostPhase::L2Tick,
        HostPhase::DramTick,
    ] {
        assert!(r.phase_count(phase) > 0, "no {phase:?} spans recorded");
        assert!(table.contains(phase.name()), "{table}");
    }
    // What was measured fits in the wall; `busy_ns()` is that scaled up by
    // count / timed count per phase, an estimate that can pass it (a timed
    // span carries a clock read the untimed ones did not pay).
    let timed_busy: u64 = HostPhase::ALL
        .iter()
        .filter(|p| p.is_top_level())
        .map(|p| r.timed_ns[p.index()])
        .sum();
    assert!(timed_busy <= r.wall_ns, "measured time fits in the wall");
    assert!(r.busy_ns() >= timed_busy);
}

/// Which spans exist and which of them are timed is decided by the
/// simulation and the stride, never by the clock; and the stride does not
/// lock onto the 1400 / 700 / 924 MHz edge pattern.
#[test]
fn counts_are_exact_and_the_stride_samples_every_phase_evenly() {
    let wl = workload();
    let mut cfg = small_gpu();
    cfg.profile_host = true;
    let run = || {
        let mut sim = GpuSim::new(cfg.clone(), &wl);
        sim.run();
        sim.take_host_report().expect("profile_host was on")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.timed_counts, b.timed_counts);
    assert_eq!(
        (a.iterations, a.timed_iterations),
        (b.iterations, b.timed_iterations)
    );

    assert!(a.iterations > 10_000, "{} iterations", a.iterations);
    assert!(
        a.timed_iterations.abs_diff(a.iterations / TIMED_STRIDE) <= 1,
        "{} of {} iterations timed",
        a.timed_iterations,
        a.iterations
    );
    for phase in [
        HostPhase::CoreTick,
        HostPhase::IcntTick,
        HostPhase::L2Tick,
        HostPhase::DramTick,
        HostPhase::Telemetry,
    ] {
        let (count, timed) = (a.phase_count(phase), a.timed_counts[phase.index()]);
        assert!(count >= 1_000, "{phase:?}: {count} spans");
        let expect = count as f64 / TIMED_STRIDE as f64;
        assert!(
            (timed as f64 - expect).abs() <= 0.2 * expect,
            "{phase:?}: {timed} of {count} spans timed, expected about {expect:.0}"
        );
    }
    // The end-of-run flush happens once and is always timed.
    assert_eq!(a.phase_count(HostPhase::SchedResched), 1);
    assert_eq!(a.timed_counts[HostPhase::SchedResched.index()], 1);
}

/// Every tick a domain fired is one span of its phase, timed or only
/// counted: the exact counts equal the clock edges up to the run's last
/// instant (core tick `core_cycles`) minus the ticks the loop jumped over —
/// on a saturated slice and on an idle-heavy one, where it does jump.
#[test]
fn every_tick_phase_counts_the_clock_edges_not_jumped_over() {
    for name in ["mm", "solo"] {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.max_core_cycles = 20_000;
        cfg.profile_host = true;
        let mut clocks = ClockDomains::new(cfg.core_mhz, cfg.icnt_mhz, cfg.dram_mhz);
        let wl = catalog::by_name(name).expect("catalog workload");
        let mut sim = GpuSim::new(cfg, &wl);
        let core_cycles = sim.run().core_cycles;
        let report = sim.take_host_report().expect("profile_host was on");
        let ff = sim.ff_stats();
        assert!(name == "mm" || ff.jumps > 0, "{name}: {ff:?}");

        let last_instant = clocks.domain(DomainId::Core).tick_instant(core_cycles);
        let fired = clocks.fast_forward(last_instant + Picos(1));
        assert_eq!(fired.core, core_cycles);
        for (phase, ticks) in [
            (HostPhase::CoreTick, fired.core - ff.skipped_core),
            (HostPhase::IcntTick, fired.icnt - ff.skipped_icnt),
            (HostPhase::L2Tick, fired.icnt - ff.skipped_icnt),
            (HostPhase::Telemetry, fired.icnt - ff.skipped_icnt),
            (HostPhase::DramTick, fired.dram - ff.skipped_dram),
        ] {
            assert_eq!(
                report.phase_count(phase),
                ticks,
                "{name}: one {phase:?} span per tick, timed or not"
            );
        }
    }
}
