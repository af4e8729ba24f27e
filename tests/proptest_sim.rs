//! Property-based tests over the full simulator: for arbitrary (small)
//! workload signatures, the simulation drains, conserves instructions, and
//! is deterministic.

use gmh::core::{GpuConfig, GpuSim, MemoryModel, SimStats};
use gmh::exp::chrome_trace_json;
use gmh::types::rng::cases;
use gmh::types::Xoshiro256;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

/// The four memory models, at uncongested latencies.
fn all_models() -> [MemoryModel; 4] {
    [
        MemoryModel::Full,
        MemoryModel::FixedL1MissLatency(80),
        MemoryModel::InfiniteBw {
            l2_hit: 50,
            dram: 150,
        },
        MemoryModel::InfiniteDram { latency: 90 },
    ]
}

fn tiny_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 2;
    c.n_l2_banks = 2;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 2;
    c.l2_bank.size_bytes = 128 * 1024 / 2;
    c.max_core_cycles = 500_000;
    c
}

fn arb_workload(rng: &mut Xoshiro256) -> WorkloadSpec {
    let stream = rng.below(101) as f64 / 100.0;
    let hot = (1.0 - stream) * (rng.below(101) as f64 / 100.0);
    let shared = 1.0 - stream - hot;
    WorkloadSpec {
        name: "prop",
        suite: Suite::Rodinia,
        full_name: "property-generated workload",
        warps_per_core: rng.range(1..8),
        insts_per_warp: rng.range(20..120),
        code_lines: 4,
        mem_fraction: rng.below(71) as f64 / 100.0,
        write_fraction: rng.below(51) as f64 / 100.0,
        ilp: rng.range(0..8),
        alu_latency: 6,
        alu_dep_fraction: 0.1,
        accesses_per_mem: rng.range(1..5),
        mix: AddressMix::new(stream, hot, shared),
        hot_lines: rng.range(8..512),
        shared_lines: rng.range(8..2048),
        coherent_stream: rng.chance(0.5),
        phases: PhaseSpec::STEADY,
        seed: rng.below(1_000_000),
    }
}

/// Every generated workload drains on the full model and issues exactly
/// its declared instruction count.
#[test]
fn full_model_drains_and_conserves() {
    cases("full_model_drains_and_conserves", 24, |rng| {
        let wl = arb_workload(rng);
        let stats = GpuSim::new(tiny_gpu(), &wl).run();
        assert!(!stats.hit_cycle_cap, "must drain");
        assert_eq!(stats.insts, wl.total_insts(2));
        assert!(stats.stall_fraction >= 0.0 && stats.stall_fraction <= 1.0);
    });
}

/// Identical runs produce identical statistics (bit determinism).
#[test]
fn full_model_is_deterministic() {
    cases("full_model_is_deterministic", 24, |rng| {
        let wl = arb_workload(rng);
        let a = GpuSim::new(tiny_gpu(), &wl).run();
        let b = GpuSim::new(tiny_gpu(), &wl).run();
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.issue.total_stalls(), b.issue.total_stalls());
    });
}

/// The ideal models drain too, and P∞ at the uncongested latencies
/// never loses badly to the congestible baseline.
#[test]
fn ideal_models_drain() {
    cases("ideal_models_drain", 24, |rng| {
        let wl = arb_workload(rng);
        let mut fixed = tiny_gpu();
        fixed.memory_model = MemoryModel::FixedL1MissLatency(100);
        let f = GpuSim::new(fixed, &wl).run();
        assert!(!f.hit_cycle_cap);
        assert_eq!(f.insts, wl.total_insts(2));

        let mut pdram = tiny_gpu();
        pdram.memory_model = MemoryModel::InfiniteDram { latency: 100 };
        let p = GpuSim::new(pdram, &wl).run();
        assert!(!p.hit_cycle_cap);
        assert_eq!(p.insts, wl.total_insts(2));
    });
}

/// The fast-forward run loop is an optimization, not a model change:
/// on arbitrary workloads under all four memory models, a run with the
/// scheduler enabled and a run forced down the naive one-tick loop
/// produce identical cycle counts, instruction counts, stall totals and
/// audit ledgers — and byte-identical sampled trace replays.
#[test]
fn fast_forward_matches_naive_loop_on_all_models() {
    cases("fast_forward_matches_naive_loop_on_all_models", 24, |rng| {
        let wl = arb_workload(rng);
        for model in all_models() {
            let mut cfg = tiny_gpu();
            cfg.memory_model = model.clone();
            cfg.trace_sample = 4;
            let mut naive_cfg = cfg.clone();
            naive_cfg.force_naive_loop = true;
            let fast = GpuSim::new(cfg, &wl).run();
            let naive = GpuSim::new(naive_cfg, &wl).run();
            let totals = |s: &SimStats| (s.core_cycles, s.insts, s.issue.total_stalls(), s.audit);
            assert_eq!(totals(&fast), totals(&naive), "totals under {model:?}");
            assert_eq!(
                chrome_trace_json(wl.name, &fast.trace),
                chrome_trace_json(wl.name, &naive.trace),
                "trace replay under {model:?}"
            );
        }
    });
}

/// The fetch-conservation audit holds on arbitrary (config, workload)
/// pairs under all four memory models: `GpuSim::run` panics on any
/// leaked/duplicated/time-reversed fetch, so a clean return IS the
/// audit passing; the exported ledger must also balance exactly.
#[test]
fn audit_passes_under_all_memory_models() {
    cases("audit_passes_under_all_memory_models", 24, |rng| {
        let wl = arb_workload(rng);
        let access_q = rng.range(2..12);
        let response_q = rng.range(2..12);
        let miss_q = rng.range(1..8);
        let fifo = rng.range(2..10);
        for model in all_models() {
            let mut cfg = tiny_gpu();
            cfg.l2_access_queue = access_q;
            cfg.l2_response_queue = response_q;
            cfg.l2_bank.miss_queue_len = miss_q;
            // A fill needs 1 + merged-waiter response slots at once; keep
            // the merge depth below the response queue or the fill can
            // never be delivered (a genuine config-level deadlock, not a
            // conservation bug).
            cfg.l2_bank.mshr_merge = cfg.l2_bank.mshr_merge.min(response_q - 1);
            cfg.core.response_fifo = fifo;
            cfg.memory_model = model.clone();
            // A write-back L2 with one miss-queue slot could never admit a
            // read miss that evicts a dirty line; validation refuses it.
            if miss_q == 1 {
                assert!(cfg.validate().is_err(), "one-slot write-back L2 is refused");
                continue;
            }
            let stats = GpuSim::new(cfg, &wl).run();
            assert!(!stats.hit_cycle_cap, "{model:?} must drain");
            assert_eq!(
                stats.audit.emitted,
                stats.audit.returned + stats.audit.absorbed,
                "ledger must balance under {model:?}"
            );
            assert_eq!(stats.audit.in_flight, 0u64);
            // Memory-bearing workloads must actually exercise the ledger.
            if wl.mem_fraction > 0.0 && wl.insts_per_warp > 30 {
                assert!(stats.audit.emitted > 0);
            }
        }
    });
}
