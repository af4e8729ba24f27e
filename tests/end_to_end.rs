//! Cross-crate end-to-end behaviour: determinism, conservation, statistics
//! plumbing and the catalog contract.

use gmh::core::{GpuConfig, GpuSim, MemoryModel, SimStats};
use gmh::dram::{DramChannel, DramConfig};
use gmh::types::{AccessKind, FetchAudit, LineAddr, MemFetch, Picos};
use gmh::workloads::catalog;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 3;
    c.n_l2_banks = 6;
    c.n_channels = 3;
    c.dram.n_channels = 3;
    c.l2_bank.set_stride = 6;
    c.l2_bank.size_bytes = 384 * 1024 / 6;
    c.max_core_cycles = 400_000;
    c
}

fn mixed_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "test-mixed",
        suite: Suite::Rodinia,
        full_name: "mixed archetype",
        warps_per_core: 12,
        insts_per_warp: 250,
        code_lines: 6,
        mem_fraction: 0.35,
        write_fraction: 0.2,
        ilp: 3,
        alu_latency: 8,
        alu_dep_fraction: 0.15,
        accesses_per_mem: 2,
        mix: AddressMix::new(0.4, 0.4, 0.2),
        hot_lines: 128,
        shared_lines: 1024,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 99,
    }
}

fn run(cfg: GpuConfig, wl: &WorkloadSpec) -> SimStats {
    let s = GpuSim::new(cfg, wl).run();
    assert!(!s.hit_cycle_cap, "run must drain");
    s
}

#[test]
fn full_run_is_bit_deterministic() {
    let wl = mixed_workload();
    let a = run(small_gpu(), &wl);
    let b = run(small_gpu(), &wl);
    assert_eq!(a.core_cycles, b.core_cycles);
    assert_eq!(a.insts, b.insts);
    assert_eq!(a.issue.total_stalls(), b.issue.total_stalls());
    assert_eq!(a.l1_stalls.total(), b.l1_stalls.total());
    assert_eq!(a.l2_stalls.total(), b.l2_stalls.total());
    assert_eq!(
        a.l2_access_occupancy.buckets(),
        b.l2_access_occupancy.buckets()
    );
    assert_eq!(a.aml_core_cycles, b.aml_core_cycles);
}

#[test]
fn instruction_count_is_conserved() {
    // Every instruction the workload defines is issued exactly once, on
    // every memory model.
    let wl = mixed_workload();
    let expected = wl.total_insts(3);
    for (label, model) in [
        ("full", MemoryModel::Full),
        ("fixed", MemoryModel::FixedL1MissLatency(150)),
        (
            "pinf",
            MemoryModel::InfiniteBw {
                l2_hit: 120,
                dram: 220,
            },
        ),
        ("pdram", MemoryModel::InfiniteDram { latency: 100 }),
    ] {
        let mut cfg = small_gpu();
        cfg.memory_model = model;
        let s = run(cfg, &wl);
        assert_eq!(
            s.insts, expected,
            "{label}: lost or duplicated instructions"
        );
    }
}

#[test]
fn stall_distributions_are_valid() {
    let s = run(small_gpu(), &mixed_workload());
    let issue_sum: f64 = s.issue.distribution().iter().sum();
    assert!((issue_sum - 1.0).abs() < 1e-9 || issue_sum == 0.0);
    let l2_sum: f64 = s.l2_stalls.fractions().iter().sum();
    assert!((l2_sum - 1.0).abs() < 1e-9 || l2_sum == 0.0);
    let [a, b, c] = s.l1_stalls.fractions();
    let l1_sum = a + b + c;
    assert!((l1_sum - 1.0).abs() < 1e-9 || l1_sum == 0.0);
    assert!(s.stall_fraction >= 0.0 && s.stall_fraction <= 1.0);
}

#[test]
fn latency_stats_exceed_physical_floors() {
    let s = run(small_gpu(), &mixed_workload());
    // Any L1 miss must at least traverse the crossbar and the L2 pipeline:
    // physically impossible to return faster than the L2 lookup latency.
    assert!(
        s.l2_ahl_core_cycles > 2.0 * small_gpu().l2_latency as f64,
        "L2-AHL {:.0} below physical floor",
        s.l2_ahl_core_cycles
    );
    // AML (includes DRAM round trips) must exceed L2-AHL.
    assert!(s.aml_core_cycles >= s.l2_ahl_core_cycles);
}

#[test]
fn write_heavy_workload_generates_dram_write_traffic() {
    let mut wl = mixed_workload();
    wl.write_fraction = 0.6;
    wl.mix = AddressMix::new(0.1, 0.8, 0.1);
    // All-hot writes dirty the L2; evictions must write back to DRAM.
    let s = run(small_gpu(), &wl);
    assert!(s.insts > 0);
    // Write-through L1 means stores appear as L2 writes; the L2 absorbs
    // them without read traffic, so the L2 miss rate stays meaningful.
    assert!(s.l2_miss_rate >= 0.0 && s.l2_miss_rate <= 1.0);
}

#[test]
fn catalog_workloads_run_downscaled_on_every_model() {
    // Every catalog entry must be runnable (validated spec, generator
    // terminates) — exercised on a 3-core slice with shortened kernels.
    for mut wl in catalog::all() {
        wl.warps_per_core = wl.warps_per_core.min(6);
        wl.insts_per_warp = 80;
        let s = run(small_gpu(), &wl);
        assert_eq!(s.insts, wl.total_insts(3), "{} lost instructions", wl.name);
    }
}

#[test]
fn bigger_l1_merge_capacity_never_increases_traffic() {
    // Sanity cross-check of MSHR merging: raising merge capacity can only
    // reduce duplicate requests, visible as fewer L2 reads.
    let wl = WorkloadSpec {
        mix: AddressMix::new(0.0, 0.9, 0.1),
        hot_lines: 32, // heavy same-line concurrency
        ..mixed_workload()
    };
    let mut small_merge = small_gpu();
    small_merge.core.l1d.mshr_merge = 1;
    let mut big_merge = small_gpu();
    big_merge.core.l1d.mshr_merge = 16;
    let a = run(small_merge, &wl);
    let b = run(big_merge, &wl);
    assert!(
        b.core_cycles <= a.core_cycles * 11 / 10,
        "more merging must not slow the run: {} vs {}",
        b.core_cycles,
        a.core_cycles
    );
}

#[test]
fn zero_latency_ideal_memory_approaches_issue_limit() {
    let wl = mixed_workload();
    let mut cfg = small_gpu();
    cfg.memory_model = MemoryModel::FixedL1MissLatency(0);
    let s = run(cfg, &wl);
    // With instant memory, IPC per core should approach the issue width
    // (1), discounted by fetch warm-up and dependences.
    assert!(
        s.ipc > 0.5 * 3.0,
        "instant memory should nearly saturate issue, got {:.2}",
        s.ipc
    );
}

/// The run loop stamps `dram_arrive` as a miss leaves its L2 bank and hands
/// the fetch to its channel; the audit can hold that hop to its neighbours
/// only if the stamp comes back out with the response.
#[test]
fn the_audit_sees_the_dram_arrival_hop_of_a_fetch_that_crossed_a_channel() {
    let mut f = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(0), 0);
    f.time.l2_done = Picos(300);
    f.time.dram_arrive = Picos(250); // before it left the bank
    let mut audit = FetchAudit::default();
    audit.emitted(&f);
    let mut ch = DramChannel::new(DramConfig::gtx480(), 0);
    ch.push(f, 0).expect("an empty queue accepts");
    let resp = (0..1_000).find_map(|now| {
        ch.cycle(now);
        ch.pop_response()
    });
    audit.returned(&resp.expect("a response within 1000 cycles"), Picos(10_000));
    let err = audit.finish(true).expect_err("the reversal is reported");
    assert!(err.contains("dram_arrive=250 before l2_done=300"), "{err}");
}
