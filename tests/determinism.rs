//! Determinism regression: a run is a pure function of (config, seed).
//!
//! This is the property `clippy.toml`'s `disallowed-types` (no
//! HashMap/HashSet, no wall clock, no locks in model crates) exists to
//! protect: hash
//! iteration order varies per process, so a single HashMap on a hot path
//! silently breaks replay. Two identically-configured runs must produce
//! byte-identical exported JSON — stats, stall fractions, audit counts
//! and every telemetry series point included.

use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::report_json;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 200_000;
    c
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "determinism-mix",
        suite: Suite::Parboil,
        full_name: "mixed archetype for replay check",
        warps_per_core: 16,
        insts_per_warp: 200,
        code_lines: 4,
        mem_fraction: 0.4,
        write_fraction: 0.15,
        ilp: 4,
        alu_latency: 8,
        alu_dep_fraction: 0.1,
        accesses_per_mem: 2,
        // Every address class exercised so the replay check covers hot
        // lines, streaming and scatter paths.
        mix: AddressMix::new(0.5, 0.25, 0.25),
        hot_lines: 64,
        shared_lines: 2048,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 1234,
    }
}

#[test]
fn identical_config_and_seed_replay_byte_identical() {
    let wl = workload();
    let a = GpuSim::new(small_gpu(), &wl).run();
    let b = GpuSim::new(small_gpu(), &wl).run();
    let ja = report_json("gtx480_small", wl.name, &a);
    let jb = report_json("gtx480_small", wl.name, &b);
    assert_eq!(
        ja, jb,
        "identical (config, seed) must replay byte-identical"
    );
}

#[test]
fn traces_replay_byte_identical_on_every_memory_model() {
    // The tracing counterpart of the report check above: the sampled
    // per-fetch trace — sampling decisions, event order, every timestamp —
    // must be a pure function of (config, seed), on all four memory
    // models. Verified at the strictest boundary: byte-identical exported
    // Chrome-trace JSON.
    use gmh::core::config::MemoryModel;
    use gmh::exp::chrome_trace_json;
    let wl = workload();
    for model in [
        MemoryModel::Full,
        MemoryModel::FixedL1MissLatency(120),
        MemoryModel::InfiniteBw {
            l2_hit: 120,
            dram: 220,
        },
        MemoryModel::InfiniteDram { latency: 100 },
    ] {
        let mut cfg = small_gpu();
        cfg.memory_model = model.clone();
        cfg.trace_sample = 4;
        let a = GpuSim::new(cfg.clone(), &wl).run();
        let b = GpuSim::new(cfg, &wl).run();
        assert!(
            a.trace.sampled > 0,
            "{model:?}: the trace must sample fetches"
        );
        assert_eq!(
            chrome_trace_json(wl.name, &a.trace),
            chrome_trace_json(wl.name, &b.trace),
            "{model:?}: identical (config, seed) must replay a byte-identical trace"
        );
    }
}

#[test]
fn tracing_leaves_the_report_byte_identical() {
    // Tracing is observation only: switching it on must not perturb the
    // simulation, so the exported report is byte-for-byte the same with
    // and without a sampled trace attached.
    let wl = workload();
    let untraced = GpuSim::new(small_gpu(), &wl).run();
    let mut cfg = small_gpu();
    cfg.trace_sample = 4;
    let traced = GpuSim::new(cfg, &wl).run();
    assert_eq!(
        report_json("gtx480_small", wl.name, &untraced),
        report_json("gtx480_small", wl.name, &traced),
        "a sampled trace must not change the simulation"
    );
}

#[test]
fn different_seed_actually_changes_the_run() {
    // Guards against the trivial failure mode where the report ignores
    // the simulation entirely (a constant report would pass the test
    // above). A different workload seed must perturb the output.
    let wl_a = workload();
    let mut wl_b = workload();
    wl_b.seed = 4321;
    let a = GpuSim::new(small_gpu(), &wl_a).run();
    let b = GpuSim::new(small_gpu(), &wl_b).run();
    assert_ne!(
        report_json("gtx480_small", wl_a.name, &a),
        report_json("gtx480_small", wl_b.name, &b),
        "changing the seed must change the exported report"
    );
}
