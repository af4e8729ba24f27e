//! Integration tests asserting the paper's qualitative claims end-to-end
//! on down-scaled (but congested) configurations, so they are fast enough
//! for debug-build CI runs.
//!
//! Absolute numbers are not asserted — the claims are about *shape*: who
//! is bandwidth-bound where, what scaling helps, and what back-pressure
//! does. The full-scale numbers live in EXPERIMENTS.md and are produced by
//! `gmh-exp`.

use gmh::core::{GpuConfig, GpuSim, MemoryModel, SimStats};
use gmh::types::trace::Level;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

/// A small GPU: 4 cores, 4 L2 banks, 2 DRAM channels — same clock ratios
/// and per-structure sizes as the baseline, so congestion mechanics are
/// preserved at ~1/4 scale.
fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 400_000;
    c
}

/// Scales the small GPU the way Table III scales the big one.
fn scale_l1(mut c: GpuConfig) -> GpuConfig {
    c.core.l1d.miss_queue_len *= 4;
    c.core.l1d.mshr_entries *= 4;
    c.core.l1d.mshr_merge *= 4;
    c.core.mem_pipeline_width *= 4;
    c
}

fn scale_l2(mut c: GpuConfig) -> GpuConfig {
    c.l2_bank.miss_queue_len *= 4;
    c.l2_response_queue *= 4;
    c.l2_bank.mshr_entries *= 4;
    c.l2_access_queue *= 4;
    c.l2_data_port_bytes *= 4;
    c.icnt.req_flit_bytes *= 4;
    c.icnt.rep_flit_bytes *= 4;
    c
}

fn scale_dram(mut c: GpuConfig) -> GpuConfig {
    c.dram.sched_queue *= 4;
    c.dram.response_queue *= 4;
    c.dram.n_banks *= 4;
    c.dram.bus_bytes_per_cycle *= 4;
    c
}

/// An L2-bandwidth-bound workload (the `mm` archetype): hot set resident
/// in L2 but far larger than L1, very high memory intensity.
fn l2_bound() -> WorkloadSpec {
    WorkloadSpec {
        name: "test-l2bound",
        suite: Suite::Mars,
        full_name: "L2-bandwidth-bound archetype",
        warps_per_core: 16,
        insts_per_warp: 300,
        code_lines: 4,
        mem_fraction: 0.6,
        write_fraction: 0.05,
        ilp: 2,
        alu_latency: 8,
        alu_dep_fraction: 0.1,
        accesses_per_mem: 1,
        mix: AddressMix::new(0.05, 0.9, 0.05),
        hot_lines: 350,
        shared_lines: 512,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 11,
    }
}

/// A DRAM-bandwidth-bound streaming workload (the `lbm`/`nn` archetype).
fn dram_bound() -> WorkloadSpec {
    WorkloadSpec {
        name: "test-drambound",
        suite: Suite::Parboil,
        full_name: "DRAM-bandwidth-bound archetype",
        warps_per_core: 16,
        insts_per_warp: 300,
        code_lines: 4,
        mem_fraction: 0.5,
        write_fraction: 0.1,
        ilp: 4,
        alu_latency: 8,
        alu_dep_fraction: 0.1,
        accesses_per_mem: 1,
        mix: AddressMix::new(0.95, 0.03, 0.02),
        hot_lines: 64,
        shared_lines: 128,
        coherent_stream: true,
        phases: PhaseSpec::STEADY,
        seed: 12,
    }
}

/// A compute-bound workload (the `leukocyte` archetype).
fn compute_bound() -> WorkloadSpec {
    WorkloadSpec {
        mem_fraction: 0.05,
        ilp: 8,
        name: "test-compute",
        ..l2_bound()
    }
}

fn run(cfg: GpuConfig, wl: &WorkloadSpec) -> SimStats {
    let s = GpuSim::new(cfg, wl).run();
    assert!(!s.hit_cycle_cap, "{}: run must drain", wl.name);
    s
}

// ---------------------------------------------------------------------------
// §III / Fig. 1: memory-intensive workloads are congestion-dominated.
// ---------------------------------------------------------------------------

#[test]
fn memory_intensive_workloads_stall_and_congest() {
    // Tracing 1 fetch in 4 is observation only; it yields the per-level
    // latency decomposition the congestion claim is about.
    let mut cfg = small_gpu();
    cfg.trace_sample = 4;
    let s = run(cfg, &dram_bound());
    assert!(
        s.stall_fraction > 0.4,
        "memory-bound slice must stall heavily, got {:.2}",
        s.stall_fraction
    );
    assert!(
        s.aml_core_cycles > 250.0,
        "AML must exceed the uncongested ~220 cycles, got {:.0}",
        s.aml_core_cycles
    );
    assert!(
        s.dram_queue_occupancy.full_fraction() > 0.1,
        "DRAM queues must saturate"
    );
    // Figs. 4/5 per fetch: at the L2 and at DRAM a fetch waits longer in
    // queues than it is serviced — congestion, not raw latency.
    for level in [Level::L2, Level::Dram] {
        let l = &s.trace.levels[&level];
        let (queueing, service) = (l.queueing.sum(), l.service.sum());
        assert!(
            queueing > service,
            "{}: queueing {queueing} ps must exceed service {service} ps",
            level.name()
        );
    }
}

#[test]
fn compute_bound_workloads_do_not() {
    let mem = run(small_gpu(), &dram_bound());
    let cpu = run(small_gpu(), &compute_bound());
    assert!(
        cpu.stall_fraction < mem.stall_fraction,
        "compute-bound ({:.2}) must stall less than memory-bound ({:.2})",
        cpu.stall_fraction,
        mem.stall_fraction
    );
    assert!(cpu.ipc > mem.ipc);
}

// ---------------------------------------------------------------------------
// Table II: P∞ >= P_DRAM >= ~baseline; the gap locates the bottleneck.
// ---------------------------------------------------------------------------

#[test]
fn ideal_memory_hierarchy_ordering() {
    let wl = dram_bound();
    let base = run(small_gpu(), &wl);
    let mut pinf_cfg = small_gpu();
    pinf_cfg.memory_model = MemoryModel::InfiniteBw {
        l2_hit: 120,
        dram: 220,
    };
    let pinf = run(pinf_cfg, &wl);
    let mut pdram_cfg = small_gpu();
    pdram_cfg.memory_model = MemoryModel::InfiniteDram { latency: 100 };
    let pdram = run(pdram_cfg, &wl);

    let p_inf = pinf.speedup_over(&base);
    let p_dram = pdram.speedup_over(&base);
    assert!(
        p_inf > 1.2,
        "P∞ must clearly beat a congested baseline, got {p_inf:.2}"
    );
    assert!(
        p_inf >= p_dram * 0.95,
        "P∞ ({p_inf:.2}) must be at least P_DRAM ({p_dram:.2})"
    );
    assert!(p_dram > 1.0, "infinite DRAM must help a DRAM-bound slice");
}

#[test]
fn l2_bound_workloads_gain_little_from_ideal_dram() {
    // The paper's central Table II observation: for cache-BW-bound apps,
    // P_DRAM ≈ 1 while P∞ is large.
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let mut pdram_cfg = small_gpu();
    pdram_cfg.memory_model = MemoryModel::InfiniteDram { latency: 100 };
    let p_dram = run(pdram_cfg, &wl).speedup_over(&base);
    let mut pinf_cfg = small_gpu();
    pinf_cfg.memory_model = MemoryModel::InfiniteBw {
        l2_hit: 120,
        dram: 220,
    };
    let p_inf = run(pinf_cfg, &wl).speedup_over(&base);
    assert!(
        p_dram < 1.0 + 0.6 * (p_inf - 1.0),
        "ideal DRAM (={p_dram:.2}) must close much less of the gap than P∞ (={p_inf:.2})"
    );
}

// ---------------------------------------------------------------------------
// Fig. 3: the fixed-latency sweep is monotone with a plateau.
// ---------------------------------------------------------------------------

#[test]
fn fixed_latency_sweep_is_monotone() {
    let wl = dram_bound();
    let mut last_ipc = f64::INFINITY;
    for lat in [0u64, 200, 500, 800] {
        let mut cfg = small_gpu();
        cfg.memory_model = MemoryModel::FixedL1MissLatency(lat);
        let s = run(cfg, &wl);
        assert!(
            s.ipc <= last_ipc * 1.02,
            "IPC must not rise with latency: {lat} gave {:.3} after {:.3}",
            s.ipc,
            last_ipc
        );
        last_ipc = s.ipc;
    }
}

#[test]
fn latency_tolerance_plateau_with_ample_tlp() {
    // With plenty of warps, small latencies are hidden: 50 vs 0 cycles
    // should cost little.
    let wl = dram_bound();
    let at = |lat| {
        let mut cfg = small_gpu();
        cfg.memory_model = MemoryModel::FixedL1MissLatency(lat);
        run(cfg, &wl).ipc
    };
    let i0 = at(0);
    let i50 = at(50);
    let i800 = at(800);
    assert!(i50 > 0.8 * i0, "50-cycle latency should be mostly hidden");
    assert!(i800 < 0.6 * i0, "800 cycles must exceed latency tolerance");
}

// ---------------------------------------------------------------------------
// Fig. 10: design-space claims.
// ---------------------------------------------------------------------------

#[test]
fn l2_scaling_beats_dram_scaling_for_l2_bound() {
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let l2 = run(scale_l2(small_gpu()), &wl).speedup_over(&base);
    let dram = run(scale_dram(small_gpu()), &wl).speedup_over(&base);
    assert!(
        l2 > dram,
        "L2 scaling ({l2:.2}) must beat DRAM scaling ({dram:.2}) for an L2-bound app"
    );
    assert!(l2 > 1.1, "L2 scaling must clearly help, got {l2:.2}");
}

#[test]
fn dram_scaling_beats_l1_scaling_for_streaming() {
    let wl = dram_bound();
    let base = run(small_gpu(), &wl);
    let dram = run(scale_dram(small_gpu()), &wl).speedup_over(&base);
    let l1 = run(scale_l1(small_gpu()), &wl).speedup_over(&base);
    assert!(
        dram > l1,
        "DRAM scaling ({dram:.2}) must beat L1 scaling ({l1:.2}) for streaming"
    );
}

#[test]
fn synergistic_scaling_beats_isolated_scaling() {
    // The headline claim: scaling everything together exceeds every
    // standalone scaling.
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let l1 = run(scale_l1(small_gpu()), &wl).speedup_over(&base);
    let l2 = run(scale_l2(small_gpu()), &wl).speedup_over(&base);
    let dram = run(scale_dram(small_gpu()), &wl).speedup_over(&base);
    let all = run(scale_dram(scale_l2(scale_l1(small_gpu()))), &wl).speedup_over(&base);
    assert!(
        all >= l1.max(l2).max(dram) - 0.02,
        "All ({all:.2}) must match or beat L1 ({l1:.2}), L2 ({l2:.2}), DRAM ({dram:.2})"
    );
}

#[test]
fn l1_scaling_alone_can_be_counterproductive_or_neutral() {
    // §VI-A.1: increasing L1 bandwidth without matching L2 bandwidth is at
    // best neutral for cache-bandwidth-bound workloads.
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let l1 = run(scale_l1(small_gpu()), &wl).speedup_over(&base);
    let l1l2 = run(scale_l2(scale_l1(small_gpu())), &wl).speedup_over(&base);
    assert!(
        l1 < 1.1,
        "L1-only scaling must not meaningfully help an L2-bound app, got {l1:.2}"
    );
    assert!(
        l1l2 > l1,
        "L1+L2 ({l1l2:.2}) must beat L1 alone ({l1:.2}): synergy"
    );
}

// ---------------------------------------------------------------------------
// Fig. 12: cost-effective configuration.
// ---------------------------------------------------------------------------

#[test]
fn asymmetric_crossbar_cost_effective_config_helps() {
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let mut ce = small_gpu();
    // The 16+48 recipe applied to the small GPU.
    ce.core.l1d.miss_queue_len = 32;
    ce.core.l1d.mshr_entries = 48;
    ce.core.mem_pipeline_width = 40;
    ce.l2_bank.miss_queue_len = 32;
    ce.l2_response_queue = 32;
    ce.l2_access_queue = 32;
    ce.icnt.req_flit_bytes = 16;
    ce.icnt.rep_flit_bytes = 48;
    let sp = run(ce, &wl).speedup_over(&base);
    assert!(
        sp > 1.05,
        "cost-effective config must help an L2-bound app, got {sp:.2}"
    );
}

// ---------------------------------------------------------------------------
// Fig. 11: core frequency scaling against a fixed memory system.
// ---------------------------------------------------------------------------

#[test]
fn core_overclocking_is_futile_when_memory_bound() {
    let wl = l2_bound();
    let base = run(small_gpu(), &wl);
    let oc = run(small_gpu().with_core_mhz(1600), &wl);
    // Wall-clock performance = IPC x frequency; for a memory-bound app the
    // +14% clock must yield far less than +14%.
    let gain = (oc.ipc * 1600.0) / (base.ipc * 1400.0);
    assert!(
        gain < 1.10,
        "overclocking a memory-bound app must be futile, got {gain:.3}"
    );
}

#[test]
fn core_overclocking_helps_compute_bound() {
    let wl = compute_bound();
    let base = run(small_gpu(), &wl);
    let oc = run(small_gpu().with_core_mhz(1600), &wl);
    let gain = (oc.ipc * 1600.0) / (base.ipc * 1400.0);
    // A +14.3% clock cannot translate fully (instruction fetch still
    // traverses the memory clock domains), but most of it must arrive.
    assert!(
        gain > 1.06,
        "overclocking a compute-bound app must pay off, got {gain:.3}"
    );
}
