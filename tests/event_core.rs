//! Event-core equivalence: skipping quiet components is an execution
//! strategy, not a model change.
//!
//! The event-driven run loop (the default) parks components whose
//! conservative idle probe promises a quiet window and bulk-replays the
//! skipped ticks at wake time. These tests pin it, byte-for-byte at the
//! simulator's strictest observable boundaries (exported report, sampled
//! Chrome trace, fetch-conservation audit), against the oracle:
//! `force_naive_loop`, the one-tick-at-a-time loop with no probes, no
//! skips and no fast-forward jumps.
//!
//! The matrix covers all four memory models, the bursty/idle-heavy catalog
//! extras (where the event core actually jumps), and a property sweep over
//! random phase structures.

use gmh::core::config::MemoryModel;
use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::{chrome_trace_json, report_json};
use gmh::types::rng::cases;
use gmh::types::Xoshiro256;
use gmh::workloads::catalog;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

fn all_models() -> [MemoryModel; 4] {
    [
        MemoryModel::Full,
        MemoryModel::FixedL1MissLatency(120),
        MemoryModel::InfiniteBw {
            l2_hit: 120,
            dram: 220,
        },
        MemoryModel::InfiniteDram { latency: 100 },
    ]
}

/// A 4-core machine: small enough that the full model × workload matrix
/// stays fast.
fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 120_000;
    c.trace_sample = 4;
    c
}

/// A bursty workload scaled to the 4-core test machine: storms refill the
/// hierarchy, lulls drain it, so the event core both parks components and
/// takes machine-wide jumps inside one run.
fn bursty_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "event-bursty",
        suite: Suite::Rodinia,
        full_name: "bursty mix for event-core equivalence",
        warps_per_core: 2,
        insts_per_warp: 600,
        code_lines: 4,
        mem_fraction: 0.5,
        write_fraction: 0.1,
        ilp: 4,
        alu_latency: 64,
        alu_dep_fraction: 0.9,
        accesses_per_mem: 2,
        mix: AddressMix::new(0.5, 0.25, 0.25),
        hot_lines: 64,
        shared_lines: 2048,
        coherent_stream: false,
        phases: PhaseSpec {
            period_insts: 120,
            storm_insts: 16,
            active_cores: 0,
        },
        seed: 0xE5E7,
    }
}

/// Runs one configuration and exports every observable boundary, after
/// checking that every core cycle — ticked, skipped or jumped over — was
/// charged exactly once: an issue, a stall or idle time. When `polled`, the
/// run is `run_until` with a stop that counts its polls and never fires.
fn observe(cfg: GpuConfig, wl: &WorkloadSpec, polled: bool) -> (String, String, (u64, u64, u64)) {
    let n_cores = cfg.n_cores as u64;
    let mut sim = GpuSim::new(cfg, wl);
    let stats = if polled {
        let mut polls = 0u64;
        let stats = sim.run_until(|| {
            polls += 1;
            false
        });
        assert!(polls > 0, "{}: the run never polled its stop", wl.name);
        stats.expect("a stop that never fires never stops the run")
    } else {
        sim.run()
    };
    let issue = &stats.issue;
    assert_eq!(
        issue.issued_cycles.get() + issue.total_stalls() + issue.idle.get(),
        n_cores * stats.core_cycles,
        "{}: issue cycles, stalls and idle cycles must partition the core cycles",
        wl.name
    );
    (
        report_json("gtx480_small", wl.name, &stats),
        chrome_trace_json(wl.name, &stats.trace),
        (
            stats.audit.emitted,
            stats.audit.returned,
            stats.audit.absorbed,
        ),
    )
}

/// Runs `wl` on `cfg` under the event core and under the naive loop, and
/// requires every observable boundary to match.
fn assert_matches_naive(cfg: GpuConfig, wl: &WorkloadSpec) {
    let mut naive_cfg = cfg.clone();
    naive_cfg.force_naive_loop = true;
    let model = cfg.memory_model.clone();
    let mhz = (cfg.core_mhz, cfg.icnt_mhz, cfg.dram_mhz);
    assert_eq!(
        observe(cfg, wl, false),
        observe(naive_cfg, wl, false),
        "{} under {model:?} at {mhz:?} MHz: event core must match the naive loop",
        wl.name
    );
}

/// `(core, icnt, dram)` MHz: Table I's clocks, then slow-DRAM and
/// slow-core ratios, under which a class's sweep and the samples and
/// hand-offs of the other domains interleave differently.
const CLOCKS: [(u32, u32, u32); 5] = [
    (1400, 700, 924),
    (1400, 700, 350),
    (1400, 700, 231),
    (600, 700, 300),
    (350, 700, 924),
];

// (The name dates from when a serial-sweep oracle existed beside the naive
// loop; the test-floor list pins it.)
#[test]
fn event_core_matches_both_oracles_on_all_models() {
    for (core_mhz, icnt_mhz, dram_mhz) in CLOCKS {
        for model in all_models() {
            let mut cfg = small_gpu();
            (cfg.core_mhz, cfg.icnt_mhz, cfg.dram_mhz) = (core_mhz, icnt_mhz, dram_mhz);
            cfg.memory_model = model;
            assert_matches_naive(cfg, &bursty_workload());
        }
    }
    // Polling a stop that never fires is no model change either, under
    // the event core and the naive loop alike.
    for model in all_models() {
        let mut cfg = small_gpu();
        cfg.memory_model = model;
        let mut naive_cfg = cfg.clone();
        naive_cfg.force_naive_loop = true;
        let wl = bursty_workload();
        let run = observe(cfg.clone(), &wl, false);
        for cfg in [cfg, naive_cfg] {
            let (model, naive) = (cfg.memory_model.clone(), cfg.force_naive_loop);
            assert_eq!(
                observe(cfg, &wl, true),
                run,
                "{model:?}, naive loop {naive}: run_until must match run"
            );
        }
    }
}

#[test]
fn catalog_bursty_extras_match_the_naive_loop() {
    // The shipping bursty/idle-heavy workloads on the full GTX 480
    // machine: what `gmh-benchmark`'s `bursty` workload times, pinned
    // bit-identical here (report + trace + audit).
    for wl in catalog::extras() {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.max_core_cycles = 60_000;
        cfg.trace_sample = 4;
        assert_matches_naive(cfg, &wl);
    }
}

/// A tiny machine for the property sweep.
fn tiny_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 2;
    c.n_l2_banks = 2;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 2;
    c.l2_bank.size_bytes = 128 * 1024 / 2;
    c.max_core_cycles = 300_000;
    c.trace_sample = 4;
    c
}

/// Random phase structures on top of random instruction mixes: steady
/// (storm == period), bursty, idle-heavy, and occupancy-capped specs
/// all fall out of the ranges.
fn arb_phased_workload(rng: &mut Xoshiro256) -> WorkloadSpec {
    let stream = rng.below(101) as f64 / 100.0;
    let period = rng.range(1..200);
    let storm = (period * rng.below(101) / 100).min(period);
    WorkloadSpec {
        name: "prop-phased",
        suite: Suite::Rodinia,
        full_name: "property-generated phased workload",
        warps_per_core: rng.range(1..6),
        insts_per_warp: rng.range(40..160),
        code_lines: 4,
        mem_fraction: rng.below(71) as f64 / 100.0,
        write_fraction: rng.below(41) as f64 / 100.0,
        ilp: rng.range(0..8),
        alu_latency: rng.range(1..100),
        alu_dep_fraction: rng.below(101) as f64 / 100.0,
        accesses_per_mem: 2,
        mix: AddressMix::new(stream, (1.0 - stream) * 0.5, (1.0 - stream) * 0.5),
        hot_lines: rng.range(8..256),
        shared_lines: 1024,
        coherent_stream: false,
        phases: PhaseSpec {
            period_insts: period,
            storm_insts: storm,
            active_cores: rng.range(0..3),
        },
        seed: rng.below(1_000_000),
    }
}

/// On arbitrary phased workloads under all four memory models, the
/// event core reproduces the naive one-tick loop byte-for-byte.
#[test]
fn event_core_matches_naive_on_arbitrary_phases() {
    cases("event_core_matches_naive_on_arbitrary_phases", 8, |rng| {
        let wl = arb_phased_workload(rng);
        for model in all_models() {
            let mut cfg = tiny_gpu();
            cfg.memory_model = model;
            assert_matches_naive(cfg, &wl);
        }
    });
}
