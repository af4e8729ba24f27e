//! Golden digests: the simulator's observable output, pinned across
//! commits.
//!
//! Every other equivalence suite compares two runs of the *same* build
//! (naive loop vs event core, traced vs untraced), so a change that moves
//! both sides together passes them all. This file compares against
//! `tests/golden/digests.txt` instead: `StableHasher` digests of the
//! exported report, the Chrome trace, the raw event stream (with its
//! sampled/skipped/dropped counts) and the `FetchAudit` summary, for all
//! four memory models on a steady and a bursty workload at two sampling
//! rates, plus one run per model whose event cap is small enough to be
//! hit (pinning the order of cap refusals and drops).
//!
//! The file was generated on the last commit that had the intra-simulation
//! worker pool, where it was equal at 1, 2 and 8 scheduler threads; it
//! carries that pool's verified output across its removal.
//!
//! After a deliberate model fix, refresh by pasting: a mismatch prints the
//! complete expected file.

use gmh::cache::{CacheConfig, WritePolicy};
use gmh::core::config::MemoryModel;
use gmh::core::{GpuConfig, GpuSim};
use gmh::dram::{DramConfig, DramTiming, SchedPolicy};
use gmh::exp::{chrome_trace_json, report_json};
use gmh::icnt::IcntConfig;
use gmh::simt::scheduler::WarpSchedPolicy;
use gmh::simt::CoreConfig;
use gmh::types::hash::StableHasher;
use gmh::types::trace::{decomposition_of, TraceData};
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

const GOLDEN: &str = include_str!("golden/digests.txt");

fn all_models() -> [(&'static str, MemoryModel); 4] {
    [
        ("full", MemoryModel::Full),
        ("fixed_l1_miss", MemoryModel::FixedL1MissLatency(120)),
        (
            "infinite_bw",
            MemoryModel::InfiniteBw {
                l2_hit: 120,
                dram: 220,
            },
        ),
        ("infinite_dram", MemoryModel::InfiniteDram { latency: 100 }),
    ]
}

/// A 4-core, 4-bank, 2-channel machine: every component class has more
/// than one instance while a run stays fast in a debug build.
///
/// Every field is spelled out rather than derived from a preset, so the
/// digests move only when model code does: recalibrating the baseline
/// preset leaves this machine, and so the golden file, unchanged.
fn small_gpu() -> GpuConfig {
    let l1 = |size_bytes, mshr_entries, miss_queue_len| CacheConfig {
        size_bytes,
        assoc: 4,
        mshr_entries,
        mshr_merge: 8,
        miss_queue_len,
        write_policy: WritePolicy::WriteEvict,
        set_stride: 1,
    };
    GpuConfig {
        n_cores: 4,
        core_mhz: 1400,
        icnt_mhz: 700,
        dram_mhz: 924,
        core: CoreConfig {
            max_warps: 48,
            mem_pipeline_width: 10,
            ibuffer_size: 2,
            response_fifo: 8,
            l1d: l1(16 * 1024, 32, 8),
            l1i: l1(8 * 1024, 8, 4),
            sched_policy: WarpSchedPolicy::Gto,
        },
        icnt: IcntConfig {
            req_flit_bytes: 32,
            rep_flit_bytes: 32,
            input_buffer_flits: 16,
            output_buffer_packets: 8,
            router_latency: 4,
            output_speedup: 1,
        },
        n_l2_banks: 4,
        l2_bank: CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 8,
            mshr_entries: 32,
            mshr_merge: 8,
            miss_queue_len: 8,
            write_policy: WritePolicy::WriteBack,
            set_stride: 4,
        },
        l2_access_queue: 8,
        l2_response_queue: 8,
        l2_data_port_bytes: 32,
        l2_latency: 40,
        n_channels: 2,
        dram: DramConfig {
            n_banks: 16,
            lines_per_row: 32,
            n_channels: 2,
            sched_queue: 16,
            response_queue: 8,
            bus_bytes_per_cycle: 32,
            fixed_latency: 30,
            policy: SchedPolicy::FrFcfs,
            timing: DramTiming {
                ccd: 2,
                rrd: 6,
                rcd: 12,
                ras: 28,
                rp: 12,
                rc: 40,
                cl: 12,
                wl: 4,
                cdlr: 5,
                wr: 12,
            },
        },
        memory_model: MemoryModel::Full,
        max_core_cycles: 200_000,
        telemetry_window: 512,
        trace_sample: 0,
        trace_event_cap: 65_536,
        force_naive_loop: false,
        profile_host: false,
        sim_threads: 0,
    }
}

/// Steady mix exercising every address class (hot-line reuse, streaming,
/// scatter), so every level records queueing, merges and stalls.
fn workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "parallel-mix",
        suite: Suite::Parboil,
        full_name: "mixed archetype for parallel equivalence",
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

/// `tests/event_core.rs`'s bursty workload: storms refill the hierarchy,
/// lulls drain it, so components park and the machine jumps within a run.
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

fn digest_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// The raw event stream in record order plus the admission counters —
/// stricter than the Chrome trace, which shows only paired spans and
/// stalls.
fn digest_events(t: &TraceData) -> u64 {
    let mut h = StableHasher::new();
    for n in [t.sample_denom, t.sampled, t.skipped, t.dropped_events] {
        h.write_u64(n);
    }
    for e in &t.events {
        h.write_str(&format!("{e:?}"));
    }
    for (k, info) in &t.fetches {
        h.write_str(&format!("{k:?}{info:?}"));
    }
    h.finish()
}

/// One golden line: the case's name followed by its four digests.
fn run_case(model: &(&str, MemoryModel), wl: &WorkloadSpec, sample: u64, cap: u64) -> String {
    let mut cfg = small_gpu();
    cfg.memory_model = model.1.clone();
    cfg.trace_sample = sample;
    cfg.trace_event_cap = cap;
    let stats = GpuSim::new(cfg, wl).run();
    if cap < 65_536 {
        assert!(
            stats.trace.dropped_events > 0 && stats.trace.skipped > 0,
            "{} {}: a cap of {cap} must be hit, or the case pins nothing",
            model.0,
            wl.name
        );
    }
    // The digests pin the events; the per-level histograms are kept as the
    // events arrive, so hold them to the reference derivation here, on
    // every case (the cap-hitting ones included).
    assert_eq!(
        stats.trace.levels,
        decomposition_of(&stats.trace.events),
        "{} {} sample={sample} cap={cap}: latency ledger != reference",
        model.0,
        wl.name
    );
    let mut audit = StableHasher::new();
    let a = &stats.audit;
    for n in [a.emitted, a.returned, a.absorbed, a.in_flight] {
        audit.write_u64(n);
    }
    format!(
        "{} {} sample={sample} cap={cap} report={:016x} trace={:016x} events={:016x} audit={:016x}\n",
        model.0,
        wl.name,
        digest_str(&report_json("gtx480_small", wl.name, &stats)),
        digest_str(&chrome_trace_json(wl.name, &stats.trace)),
        digest_events(&stats.trace),
        audit.finish(),
    )
}

#[test]
fn reports_traces_and_audits_match_the_golden_file() {
    let mut actual = String::new();
    for model in &all_models() {
        for wl in [workload(), bursty_workload()] {
            for sample in [1, 4] {
                actual.push_str(&run_case(model, &wl, sample, 65_536));
            }
        }
        actual.push_str(&run_case(model, &workload(), 1, 2_000));
    }
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("first differing line\n  golden: {g}\n  actual: {a}\n"))
            .unwrap_or_else(|| "the files differ in length\n".to_string());
        panic!(
            "simulator output no longer matches tests/golden/digests.txt\n{first}\
             If the change is a deliberate model fix, replace the file with:\n\n{actual}"
        );
    }
}
