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
use gmh::types::prof::HostPhase;
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
    assert!(r.busy_ns() <= r.wall_ns, "attributed time fits in the wall");
}
