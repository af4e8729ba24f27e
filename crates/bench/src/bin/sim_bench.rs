//! `sim-bench`: simulator throughput with lifecycle tracing off vs on,
//! the event core against the naive loop, and a host-side self-profile of
//! the run loop.
//!
//! Runs a small batch of catalog workloads twice — once with tracing
//! disabled (`trace_sample = 0`, the disabled sink costs one branch per
//! call site) and once with 1-in-16 sampling — and reports simulated
//! core-cycles per wall-clock second for each, plus the sampling overhead
//! percentage. The overhead is defined as *throughput loss*,
//! `(1 - on_cps / off_cps) · 100`, so the headline number is directly
//! comparable across machines and batch sizes (wall-seconds ratios are
//! not: they inflate the same slowdown on a slower host).
//!
//! A further pass runs the host span profiler (`profile_host`): its
//! throughput loss against the off pass is the honestly measured profiler
//! overhead, and its spans attribute the wall time to core / interconnect
//! / L2 / DRAM ticks, telemetry sampling, scheduler wakes and fast-forward
//! jumps. With `--profile-host` the pass also prints the per-phase
//! utilization table and writes a Perfetto-loadable host-timeline trace.
//! Every pass must reproduce the same IPCs bit-identically — tracing and
//! profiling are observation, the event core an execution strategy. Two
//! more cross-checks are deterministic and run in every mode, outside the
//! timed sections: the sampled pass's per-level latency histograms (kept
//! as events arrive) must equal the reference derivation from the finished
//! event stream, and the profiled pass's span counts must equal the ticks
//! each clock domain fired (an untimed iteration must still count).
//!
//! Writes `BENCH_sim.json` at the repo root (full mode; `--out PATH`
//! overrides, and also enables the write in `--smoke`/`--quick` so CI can
//! gate on a committed smoke baseline with `bench_diff`).
//!
//! ```text
//! cargo run --release -p gmh-bench --bin sim-bench -- \
//!     [--quick | --smoke] [--profile-host] [--out PATH] [--trace-out PATH]
//! ```

use gmh_core::{GpuConfig, GpuSim};
use gmh_exp::{host_trace_json, utilization_table};
use gmh_types::prof::{HostPhase, HostReport};
use gmh_types::trace::decomposition_of;
use gmh_types::{ClockDomains, DomainId};
use gmh_workloads::catalog;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: &[&str] = &["mm", "lbm", "bfs"];

/// Bursty / idle-phase synthetic workloads (compute-storm alternation and
/// a low-occupancy single-cluster variant): the scenarios where the
/// event-driven core's quiet-component skipping should win big.
const BURSTY_WORKLOADS: &[&str] = &["burst", "lull", "solo"];

/// `sim_cycles_per_sec` (tracing off) recorded before the run-loop
/// overhaul, kept for the speedup line in the report.
const PRE_OVERHAUL_CPS: f64 = 86_849.3;

/// Timing repetitions per measured pass. Every throughput number is the
/// *fastest* of N runs: interference noise (scheduler preemption, page
/// cache, a co-tenant burning the core) is strictly one-sided — it only
/// ever slows a run — so min-of-N converges on the undisturbed cost and
/// keeps the bench_diff gate from tripping on host noise. Simulation
/// results are asserted identical across repetitions, so the choice of
/// rep changes no reported cycle or IPC.
const TIMING_REPS: usize = 3;

/// One pass over a workload batch; returns (elapsed seconds, total core
/// cycles, per-workload IPC). `naive` pins the one-tick oracle loop (event
/// scheduler off).
fn run_batch(
    workloads: &[&str],
    trace_sample: u64,
    max_cycles: u64,
    naive: bool,
) -> (f64, u64, Vec<f64>) {
    let mut seconds = 0.0;
    let mut cycles = 0u64;
    let mut ipcs = Vec::new();
    for name in workloads {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.max_core_cycles = max_cycles;
        cfg.trace_sample = trace_sample;
        cfg.force_naive_loop = naive;
        let wl = catalog::by_name(name).expect("catalog workload");
        let started = Instant::now();
        let stats = GpuSim::new(cfg, &wl).run();
        seconds += started.elapsed().as_secs_f64();
        cycles += stats.core_cycles;
        ipcs.push(stats.ipc);
        assert_eq!(
            stats.trace.levels,
            decomposition_of(&stats.trace.events),
            "{name}: the latency ledger must equal the reference derivation"
        );
    }
    (seconds, cycles, ipcs)
}

/// The standard saturated-trio pass (event core on).
fn run_pass(trace_sample: u64, max_cycles: u64) -> (f64, u64, Vec<f64>) {
    run_batch(WORKLOADS, trace_sample, max_cycles, false)
}

/// Folds one repetition of a timed pass into its best-of-N slot: keeps
/// the fastest wall time, asserting cycles and IPCs identical across
/// repetitions.
fn fold_pass(slot: &mut Option<(f64, u64, Vec<f64>)>, next: (f64, u64, Vec<f64>)) {
    match slot {
        None => *slot = Some(next),
        Some(best) => {
            assert_eq!(best.1, next.1, "repetitions simulate identical work");
            assert_eq!(best.2, next.2, "repetitions reproduce identical IPCs");
            best.0 = best.0.min(next.0);
        }
    }
}

/// A host-profiled pass (`profile_host` on, tracing off).
struct HostPass {
    seconds: f64,
    cycles: u64,
    ipcs: Vec<f64>,
    /// One report per workload.
    reports: Vec<HostReport>,
    /// Fast-forward jumps and ticks skipped, summed over the batch.
    ff_jumps: u64,
    ff_skipped: u64,
}

fn run_host_pass(max_cycles: u64) -> HostPass {
    let mut pass = HostPass {
        seconds: 0.0,
        cycles: 0,
        ipcs: Vec::new(),
        reports: Vec::new(),
        ff_jumps: 0,
        ff_skipped: 0,
    };
    for name in WORKLOADS {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.max_core_cycles = max_cycles;
        cfg.profile_host = true;
        let clocks = ClockDomains::new(cfg.core_mhz, cfg.icnt_mhz, cfg.dram_mhz);
        let wl = catalog::by_name(name).expect("catalog workload");
        let started = Instant::now();
        let mut sim = GpuSim::new(cfg, &wl);
        let stats = sim.run();
        pass.seconds += started.elapsed().as_secs_f64();
        pass.cycles += stats.core_cycles;
        pass.ipcs.push(stats.ipc);
        pass.ff_jumps += sim.ff_stats().jumps;
        pass.ff_skipped += sim.ff_stats().skipped_total();
        let report = sim.take_host_report().expect("profile_host was on");
        assert_counts_are_ticks(name, &report, &sim, clocks, stats.core_cycles);
        pass.reports.push(report);
    }
    pass
}

/// Every tick a domain fired is one span of its phase, timed or only
/// counted: the profiled run's exact counts must equal the ticks up to the
/// run's last instant (core tick `core_cycles`) minus the ticks the loop
/// jumped over.
fn assert_counts_are_ticks(
    name: &str,
    report: &HostReport,
    sim: &GpuSim,
    mut clocks: ClockDomains,
    core_cycles: u64,
) {
    let last_instant = (core_cycles - 1) * clocks.domain(DomainId::Core).period_ps();
    let fired = clocks.fast_forward(last_instant + 1);
    let ff = sim.ff_stats();
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

/// As [`fold_pass`], for the host-profiled pass: the fastest repetition
/// keeps its reports too — the undisturbed run is the one whose
/// attribution reflects the run loop, not the interference.
fn fold_host_pass(slot: &mut Option<HostPass>, next: HostPass) {
    match slot {
        None => *slot = Some(next),
        Some(best) => {
            assert_eq!(
                best.cycles, next.cycles,
                "repetitions simulate identical work"
            );
            assert_eq!(best.ipcs, next.ipcs, "repetitions reproduce identical IPCs");
            if next.seconds < best.seconds {
                *best = next;
            }
        }
    }
}

/// Sums per-workload host reports into one batch-level report: wall times,
/// iteration counts and per-phase totals (each run's own estimate), counts
/// and timed sums add; the per-span timelines are dropped (each report has
/// its own epoch, so concatenating events would interleave unrelated
/// timelines).
fn merge_reports(reports: &[HostReport]) -> HostReport {
    let mut out = reports[0].clone();
    out.events.clear();
    for r in &reports[1..] {
        out.wall_ns += r.wall_ns;
        out.iterations += r.iterations;
        out.timed_iterations += r.timed_iterations;
        for i in 0..out.totals_ns.len() {
            out.totals_ns[i] += r.totals_ns[i];
            out.counts[i] += r.counts[i];
            out.timed_counts[i] += r.timed_counts[i];
            out.timed_ns[i] += r.timed_ns[i];
        }
        out.dropped += r.dropped;
    }
    out
}

struct Args {
    quick: bool,
    smoke: bool,
    profile_host: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        smoke: false,
        profile_host: false,
        out: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--smoke" => args.smoke = true,
            "--profile-host" => args.profile_host = true,
            "--out" => args.out = Some(PathBuf::from(it.next().expect("--out needs a path"))),
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a path")));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let max_cycles: u64 = if args.smoke {
        20_000
    } else if args.quick {
        100_000
    } else {
        500_000
    };
    println!(
        "sim-bench: {} workloads x {max_cycles} core cycles, tracing off vs 1-in-16",
        WORKLOADS.len()
    );

    // Warm-up pass so first-touch costs (page faults, lazy init) hit
    // neither measured pass.
    run_pass(0, max_cycles / 10);

    // Interleaved best-of-N rounds: every timed configuration runs once
    // per round, so host drift (frequency scaling, cache settling, a
    // co-tenant arriving or leaving) hits all of them alike instead of
    // biasing whichever pass happened to run first. The gated numbers are
    // *ratios* between these passes; interleaving is what makes the
    // ratios honest.
    let mut off_slot = None;
    let mut on_slot = None;
    let mut host_slot = None;
    let mut naive_slot = None;
    let mut bursty_slot = None;
    let mut bursty_naive_slot = None;
    for _ in 0..TIMING_REPS {
        fold_pass(&mut off_slot, run_pass(0, max_cycles));
        fold_pass(&mut on_slot, run_pass(16, max_cycles));
        fold_host_pass(&mut host_slot, run_host_pass(max_cycles));
        fold_pass(&mut naive_slot, run_batch(WORKLOADS, 0, max_cycles, true));
        fold_pass(
            &mut bursty_slot,
            run_batch(BURSTY_WORKLOADS, 0, max_cycles, false),
        );
        fold_pass(
            &mut bursty_naive_slot,
            run_batch(BURSTY_WORKLOADS, 0, max_cycles, true),
        );
    }
    let (off_s, off_cycles, off_ipcs) = off_slot.expect("reps >= 1");
    let (on_s, on_cycles, on_ipcs) = on_slot.expect("reps >= 1");
    let (naive_s, naive_cycles, naive_ipcs) = naive_slot.expect("reps >= 1");
    let (bursty_s, bursty_cycles, bursty_ipcs) = bursty_slot.expect("reps >= 1");
    let (bn_s, bn_cycles, bn_ipcs) = bursty_naive_slot.expect("reps >= 1");
    let host = host_slot.expect("reps >= 1");
    let (host_s, host_cycles) = (host.seconds, host.cycles);

    assert_eq!(
        off_ipcs, on_ipcs,
        "tracing must not change simulation results"
    );
    assert_eq!(
        off_ipcs, host.ipcs,
        "host profiler must not change simulation results"
    );
    assert_eq!(
        off_ipcs, naive_ipcs,
        "the event core must not change simulation results"
    );
    assert_eq!(
        bursty_ipcs, bn_ipcs,
        "the event core must not change bursty-workload results"
    );
    assert_eq!(off_cycles, on_cycles, "both passes simulate the same work");
    assert_eq!(off_cycles, host_cycles, "same work under the host profiler");
    assert_eq!(off_cycles, naive_cycles, "same work under the naive oracle");
    assert_eq!(
        bursty_cycles, bn_cycles,
        "same bursty work under the naive oracle"
    );

    let off_cps = off_cycles as f64 / off_s;
    let on_cps = on_cycles as f64 / on_s;
    let host_cps = host_cycles as f64 / host_s;
    let naive_cps = naive_cycles as f64 / naive_s;
    let bursty_cps = bursty_cycles as f64 / bursty_s;
    let bn_cps = bn_cycles as f64 / bn_s;
    let saturated_speedup = off_cps / naive_cps;
    let bursty_speedup = bursty_cps / bn_cps;
    // Throughput loss, not wall-seconds inflation: 1 - on/off cycles/s.
    let overhead_pct = (1.0 - on_cps / off_cps) * 100.0;
    let host_overhead_pct = (1.0 - host_cps / off_cps) * 100.0;
    println!("tracing off: {off_cycles} cycles in {off_s:.3}s = {off_cps:.0} cycles/s");
    println!("1-in-16 on:  {on_cycles} cycles in {on_s:.3}s = {on_cps:.0} cycles/s");
    println!("sampling overhead: {overhead_pct:.1}% throughput loss (results bit-identical)");
    println!(
        "host profiler:   {host_cycles} cycles in {host_s:.3}s = {host_cps:.0} cycles/s \
         ({host_overhead_pct:.1}% throughput loss, results bit-identical)"
    );
    println!(
        "event core vs naive loop (saturated trio): {off_cps:.0} vs {naive_cps:.0} cycles/s \
         = {saturated_speedup:.2}x (results bit-identical)"
    );
    println!(
        "event core vs naive loop (bursty {BURSTY_WORKLOADS:?}): \
         {bursty_cps:.0} vs {bn_cps:.0} cycles/s = {bursty_speedup:.2}x \
         (results bit-identical)"
    );
    println!(
        "speedup vs pre-overhaul baseline ({PRE_OVERHAUL_CPS:.1} cycles/s): {:.2}x",
        off_cps / PRE_OVERHAUL_CPS
    );
    println!(
        "fast-forward: {} jumps, {} ticks skipped",
        host.ff_jumps, host.ff_skipped
    );

    let host_merged = merge_reports(&host.reports);
    if args.profile_host {
        println!();
        println!("host utilization (batch totals):");
        print!("{}", utilization_table(&host_merged));
        let root = repo_root();
        let trace_path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| root.join("target").join("host_trace.json"));
        if let Some(dir) = trace_path.parent() {
            std::fs::create_dir_all(dir).expect("create host-trace directory");
        }
        // One workload's timeline (the first, `mm`): spans from separate
        // runs share no epoch, so a merged timeline would be misleading.
        let trace = host_trace_json(WORKLOADS[0], &host.reports[0]);
        std::fs::write(&trace_path, &trace).expect("write host trace");
        println!(
            "wrote host trace ({} spans, workload {}) to {}",
            host.reports[0].events.len(),
            WORKLOADS[0],
            trace_path.display()
        );
    }

    let out_path = match (&args.out, args.smoke || args.quick) {
        (Some(p), _) => p.clone(),
        (None, true) => {
            println!(
                "{} profile: skipping BENCH_sim.json (pass --out PATH to write)",
                if args.smoke { "smoke" } else { "quick" }
            );
            return;
        }
        (None, false) => repo_root().join("BENCH_sim.json"),
    };

    // Every phase, in fixed order, zero or not: key sets must not depend
    // on which phases happened to fire on this host.
    let host_phase_rows = HostPhase::ALL
        .iter()
        .map(|p| {
            format!(
                "      {{\"phase\": \"{}\", \"total_ns\": {}, \"count\": {}}}",
                p.name(),
                host_merged.phase_total_ns(*p),
                host_merged.phase_count(*p)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let host_profile_json = format!(
        "  \"host_profile\": {{\n    \
         \"overhead_pct\": {host_overhead_pct:.2},\n    \
         \"overhead_definition\": \"throughput loss: (1 - host_cps/off_cps) * 100\",\n    \
         \"serial\": {{\n      \"wall_ns\": {},\n      \
         \"phases\": [\n{host_phase_rows}\n    ]}}\n  }}",
        host_merged.wall_ns,
    );
    // Event-core section. `speedup_vs_naive` (prefix) and `*_speedup`
    // (suffix) both land in bench_diff's Speedup class: same-host ratios
    // between two passes of the same binary, gated on regression only.
    let event_core_json = format!(
        "  \"event_core\": {{\n    \
         \"naive_saturated\": {{\"seconds\": {naive_s:.6}, \"sim_cycles\": {naive_cycles}, \
         \"sim_cycles_per_sec\": {naive_cps:.1}}},\n    \
         \"speedup_vs_naive\": {saturated_speedup:.3},\n    \
         \"bursty_workloads\": [{}],\n    \
         \"bursty_event\": {{\"seconds\": {bursty_s:.6}, \"sim_cycles\": {bursty_cycles}, \
         \"sim_cycles_per_sec\": {bursty_cps:.1}}},\n    \
         \"bursty_naive\": {{\"seconds\": {bn_s:.6}, \"sim_cycles\": {bn_cycles}, \
         \"sim_cycles_per_sec\": {bn_cps:.1}}},\n    \
         \"bursty_speedup\": {bursty_speedup:.3}\n  }}",
        BURSTY_WORKLOADS
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    // Key naming is load-bearing for the bench_diff gate: `*_per_sec`,
    // `speedup*` and `*_overhead_pct` leaves are gated metrics. The
    // pre-overhaul reference is a constant recorded on another machine —
    // comparing it across hosts is meaningless, so its keys
    // (`pre_overhaul_cps`, `vs_pre_overhaul`) deliberately sit outside
    // the gated classes.
    let json = format!(
        "{{\n  \"bench\": \"gmh simulator, lifecycle tracing off vs 1-in-16\",\n  \
         \"workloads\": [{}],\n  \"core_cycles_per_workload\": {max_cycles},\n  \
         \"tracing_off\": {{\n    \"seconds\": {off_s:.6},\n    \
         \"sim_cycles\": {off_cycles},\n    \"sim_cycles_per_sec\": {off_cps:.1}\n  }},\n  \
         \"tracing_1_in_16\": {{\n    \"seconds\": {on_s:.6},\n    \
         \"sim_cycles\": {on_cycles},\n    \"sim_cycles_per_sec\": {on_cps:.1}\n  }},\n  \
         \"host_profiled\": {{\n    \"seconds\": {host_s:.6},\n    \
         \"sim_cycles\": {host_cycles},\n    \"sim_cycles_per_sec\": {host_cps:.1}\n  }},\n  \
         \"sampling_overhead_pct\": {overhead_pct:.2},\n  \
         \"sampling_overhead_definition\": \"throughput loss: (1 - on_cps/off_cps) * 100\",\n  \
         \"host_profile_overhead_pct\": {host_overhead_pct:.2},\n  \
         \"pre_overhaul_cps\": {PRE_OVERHAUL_CPS:.1},\n  \
         \"vs_pre_overhaul\": {:.3},\n\
         {host_profile_json},\n{event_core_json},\n  \
         \"fast_forward\": {{\n    \"jumps\": {},\n    \"ticks_skipped\": {}\n  }},\n  \
         \"results_identical\": true\n}}\n",
        WORKLOADS
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", "),
        off_cps / PRE_OVERHAUL_CPS,
        host.ff_jumps,
        host.ff_skipped,
    );
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    let mut f = std::fs::File::create(&out_path).expect("create bench JSON");
    f.write_all(json.as_bytes()).expect("write bench JSON");
    println!("wrote {}", out_path.display());
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
}
