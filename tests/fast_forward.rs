//! Unit tests pinning down *when* the fast-forward scheduler engages —
//! the equivalence property test (`proptest_sim.rs`) establishes that results
//! never change; these tests establish the engagement behavior itself.

use gmh::core::{GpuConfig, GpuSim, MemoryModel, Stopped};
use gmh::exp::report_json;
use gmh::workloads::catalog;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 2;
    c.n_l2_banks = 2;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 2;
    c.l2_bank.size_bytes = 128 * 1024 / 2;
    c.max_core_cycles = 200_000;
    c
}

fn workload(mem_fraction: f64, warps: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: "ff-unit",
        suite: Suite::Rodinia,
        full_name: "fast-forward engagement probe",
        warps_per_core: warps,
        insts_per_warp: 400,
        code_lines: 4,
        mem_fraction,
        write_fraction: 0.0,
        ilp: 4,
        alu_latency: 6,
        alu_dep_fraction: 0.0,
        accesses_per_mem: 1,
        mix: AddressMix::new(1.0, 0.0, 0.0),
        hot_lines: 64,
        shared_lines: 512,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 77,
    }
}

#[test]
fn compute_bound_workload_takes_the_no_skip_path_unchanged() {
    // mem_fraction 0: no warp ever blocks on memory, so with plenty of
    // warps and no ALU dependences some warp is always issue-ready — a core
    // is always awake and the run must never jump. The
    // exported report must still match the naive loop byte-for-byte.
    let wl = workload(0.0, 16);
    let mut sim = GpuSim::new(small_gpu(), &wl);
    let fast = sim.run();
    assert_eq!(
        sim.ff_stats().jumps,
        0,
        "a compute-bound run must take the no-skip path: {:?}",
        sim.ff_stats()
    );
    assert_eq!(sim.ff_stats().skipped_total(), 0);

    let mut naive_cfg = small_gpu();
    naive_cfg.force_naive_loop = true;
    let naive = GpuSim::new(naive_cfg, &wl).run();
    assert_eq!(
        report_json("small", wl.name, &fast),
        report_json("small", wl.name, &naive),
        "no-skip fast path must be byte-identical to the naive loop"
    );
}

#[test]
fn memory_blocked_workload_actually_jumps() {
    // The counterpart: a single warp per core blocking on a fixed 200-cycle
    // L1 miss latency leaves the whole machine provably idle between the
    // request and its fill — the scheduler must skip those windows (and
    // still match the naive loop byte-for-byte; the property test covers this
    // on random workloads, this pins a guaranteed-idle case).
    let mut cfg = small_gpu();
    cfg.memory_model = MemoryModel::FixedL1MissLatency(200);
    let wl = workload(0.8, 1);
    let mut sim = GpuSim::new(cfg.clone(), &wl);
    let fast = sim.run();
    assert!(
        sim.ff_stats().jumps > 0,
        "a memory-blocked run must fast-forward: {:?}",
        sim.ff_stats()
    );
    assert!(sim.ff_stats().skipped_core > 0);

    let mut naive_cfg = cfg;
    naive_cfg.force_naive_loop = true;
    let naive = GpuSim::new(naive_cfg, &wl).run();
    assert_eq!(
        report_json("small", wl.name, &fast),
        report_json("small", wl.name, &naive),
        "jumping must not change the exported report"
    );
}

#[test]
fn refused_cores_sleep_through_a_saturated_slice() {
    // The memory-bound regime: the L1 refuses the LSU head on most core
    // cycles and the L1 miss queues sit full behind a back-pressured
    // crossbar. A core whose only work is replaying that refusal sleeps,
    // so on a quarter-length `mm` slice the cores sleep through at least
    // half their ticks — and the report does not move.
    let mut wl = gmh::workloads::catalog::by_name("mm").expect("mm is in the catalog");
    wl.insts_per_warp /= 4;
    let cfg = GpuConfig::gtx480_baseline();
    let mut sim = GpuSim::new(cfg.clone(), &wl);
    let fast = sim.run();
    let ff = sim.ff_stats();
    let core_ticks = cfg.n_cores as u64 * fast.core_cycles;
    assert_eq!(ff.ticks[0], core_ticks);
    assert!(
        2 * ff.slept[0] >= core_ticks,
        "cores slept {} of {core_ticks} ticks: {ff:?}",
        ff.slept[0]
    );

    let mut naive_cfg = cfg;
    naive_cfg.force_naive_loop = true;
    let mut naive_sim = GpuSim::new(naive_cfg, &wl);
    let naive = naive_sim.run();
    assert_eq!(
        naive_sim.ff_stats().slept,
        [0; 4],
        "the naive loop never sleeps"
    );
    assert_eq!(
        report_json("gtx480", wl.name, &fast),
        report_json("gtx480", wl.name, &naive),
        "sleeping through refusals must not change the exported report"
    );
}

/// A stop that fires on its `k`-th poll ends the run at once, and the loop
/// polls once every 64 passes, a jump counting as one pass however far it
/// moves the clocks: the stopped run made more than `64 (k - 1)` and at most
/// `64 k` passes (the host profiler counts them) — on `lull`, whose run
/// jumps before the stop, and on saturated `mm`.
#[test]
fn a_stop_ends_the_run_within_64_passes_of_its_poll() {
    for name in ["lull", "mm"] {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.max_core_cycles = 20_000;
        cfg.profile_host = true;
        let wl = catalog::by_name(name).expect("catalog workload");
        let mut whole = GpuSim::new(cfg.clone(), &wl);
        whole.run();
        let whole_passes = whole.take_host_report().expect("profiled").iterations;
        let k = whole_passes / 64 / 2;
        assert!(k > 1, "{name}: {whole_passes} passes");

        let mut polls = 0;
        let mut sim = GpuSim::new(cfg, &wl);
        let stopped = sim.run_until(|| {
            polls += 1;
            polls == k
        });
        assert!(matches!(stopped, Err(Stopped)), "{name}: the run finished");
        assert_eq!(polls, k, "{name}: polled past the stop");
        let passes = sim.take_host_report().expect("profiled").iterations;
        assert!(
            64 * (k - 1) < passes && passes <= 64 * k,
            "{name}: {passes} passes for a stop at poll {k}"
        );
        let ff = sim.ff_stats();
        assert!(name == "mm" || ff.jumps > 0, "{name}: {ff:?}");
    }
}
