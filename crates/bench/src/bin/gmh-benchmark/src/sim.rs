//! `saturated` and `bursty`: three kernels back to back on one simulator
//! thread, closed loop. The two use the event scheduler in opposite ways —
//! on `saturated` every component ticks almost every cycle and the
//! scheduler has nothing to skip; on `bursty` probes, skips and machine-wide
//! jumps do most of the work — so a scheduler change that pays for one with
//! the other shows up in one of the two rows.

use crate::inputs::{sim_config, spec, BURSTY, BURSTY_DIV, SATURATED, SATURATED_DIV};
use crate::run::{for_window, stats_failure, vm_hwm_mb, Ctx, Outcome, Round, Tally};
use crate::spans::Recorder;
use crate::stats::median;
use gmh_core::{GpuConfig, GpuSim, SimStats};
use gmh_exp::report_json;
use gmh_types::stable_hash_str;
use gmh_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct Kind {
    pub names: [&'static str; 3],
    pub div: u64,
    /// Untimed event-core passes after the naive-loop oracle pass.
    pub warmups: usize,
}

pub const SATURATED_KIND: Kind = Kind {
    names: SATURATED,
    div: SATURATED_DIV,
    warmups: 1,
};
pub const BURSTY_KIND: Kind = Kind {
    names: BURSTY,
    div: BURSTY_DIV,
    warmups: 5,
};

/// One finished simulation.
struct Done {
    stats: SimStats,
    report: String,
    wall_s: f64,
}

/// `GpuSim::new` + `GpuSim::run` under spans; `report_json` is rendered
/// outside the timed interval (it is the benchmark's check, not the
/// operation). A panic inside the program is a failed operation.
fn simulate(
    cfg: &GpuConfig,
    wl: &WorkloadSpec,
    rec: &mut Recorder,
    op: u64,
) -> Result<Done, String> {
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let s = rec.begin("core.new", op);
        let mut sim = GpuSim::new(cfg.clone(), wl);
        rec.end(s);
        let s = rec.begin("core.run", op);
        let stats = sim.run();
        rec.end(s);
        stats
    }));
    let wall_s = started.elapsed().as_secs_f64();
    let stats = ran.map_err(|_| format!("{}: the simulation panicked", wl.name))?;
    if let Some(why) = stats_failure(&stats) {
        return Err(format!("{}: {why}", wl.name));
    }
    let s = rec.begin("exp.report_json", op);
    let report = report_json("base", wl.name, &stats);
    rec.end(s);
    Ok(Done {
        stats,
        report,
        wall_s,
    })
}

/// State the timed passes compare against: one reference report per kernel.
struct Prepared {
    specs: Vec<WorkloadSpec>,
    reference: Vec<String>,
    /// Wall time of the naive-loop pass and of the first event-core pass.
    naive_s: f64,
    event_s: f64,
}

/// Spec build, the naive-loop oracle pass, the warm-up passes.
fn set_up(kind: &Kind, ctx: &Ctx, out: &mut Outcome) -> Prepared {
    let specs: Vec<WorkloadSpec> = kind.names[..ctx.sizes.sim_kernels]
        .iter()
        .map(|n| spec(n, ctx.seed, kind.div))
        .collect();
    let mut off = Recorder::new(false);
    let mut naive_cfg = sim_config();
    naive_cfg.force_naive_loop = true;
    let mut oracle = Vec::new();
    let mut naive_s = 0.0;
    for wl in &specs {
        match simulate(&naive_cfg, wl, &mut off, 0) {
            Ok(d) => {
                naive_s += d.wall_s;
                oracle.push(d.report);
            }
            Err(why) => {
                out.gate_failures.push(format!("naive-loop oracle: {why}"));
                oracle.push(String::new());
            }
        }
    }
    let mut reference = Vec::new();
    let mut event_s = 0.0;
    for pass in 0..kind.warmups {
        for (i, wl) in specs.iter().enumerate() {
            let done = simulate(&sim_config(), wl, &mut off, 0);
            if let Err(why) = &done {
                out.gate_failures.push(format!("warm-up: {why}"));
            }
            if pass == 0 {
                let (report, wall_s) =
                    done.map_or_else(|_| (String::new(), 0.0), |d| (d.report, d.wall_s));
                event_s += wall_s;
                out.gate(report == oracle[i], || {
                    format!("{}: event core and naive loop reports differ", wl.name)
                });
                reference.push(report);
            }
        }
    }
    Prepared {
        specs,
        reference,
        naive_s,
        event_s,
    }
}

/// One pass over the kernels: each simulation must pass the per-simulation
/// rules and render the same bytes as the pass before (and as the oracle).
/// `None` if any of them failed.
fn pass(
    cfg: &GpuConfig,
    prep: &Prepared,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<Vec<Done>> {
    let mut done = Vec::new();
    for (wl, reference) in prep.specs.iter().zip(&prep.reference) {
        out.attempted += 1;
        match simulate(cfg, wl, rec, out.attempted) {
            Ok(d) if d.report == *reference => done.push(d),
            Ok(_) => {
                println!("FAILED: {}: report differs from the previous pass", wl.name);
                out.failed += 1;
            }
            Err(why) => {
                println!("FAILED: {why}");
                out.failed += 1;
            }
        }
    }
    (done.len() == prep.specs.len()).then_some(done)
}

/// A pass's time is its simulations' (the checks between them are the
/// benchmark's).
fn wall_s(pass: &[Done]) -> f64 {
    pass.iter().map(|d| d.wall_s).sum()
}

pub fn run(kind: &Kind, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..ctx.setup_repeats {
        let started = Instant::now();
        prep = Some(set_up(kind, ctx, &mut out));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prep = prep.expect("set-up runs at least once");

    let cfg = sim_config();
    let mut tally = Tally::default();
    let mut per_kernel = vec![Vec::new(); prep.specs.len()];
    let mut last = Vec::new();
    // A traced run alternates recorded and unrecorded passes, so the
    // recorder's own cost is measured on the same work.
    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(false));
    let mut off = Recorder::new(false);
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut n = 0usize;
    for_window(ctx.timed_window(), || {
        let recorded = ctx.traced && n.is_multiple_of(2);
        n += 1;
        let r = if recorded { &mut rec } else { &mut off };
        let Some(done) = pass(&cfg, &prep, r, &mut out) else {
            return;
        };
        let pass_s = wall_s(&done);
        tally.push_pass(Round {
            wall_s: pass_s,
            ops: done.len() as u64,
            cycles: done.iter().map(|d| d.stats.core_cycles).sum(),
            insts: done.iter().map(|d| d.stats.insts).sum(),
        });
        for (d, walls) in done.iter().zip(&mut per_kernel) {
            walls.push(d.wall_s);
        }
        if recorded {
            &mut traced_s
        } else {
            &mut plain_s
        }
        .push(pass_s);
        last = done;
    });
    out.recorder = rec;
    if tally.unit_s.is_empty() {
        out.gate_failures.push("no pass completed".to_string());
        return out;
    }
    println!("{}", tally.describe());
    if !ctx.traced {
        tally.store(&setup_s, &mut out.metrics);
        return out;
    }

    // --- per-layer figures of this workload ---------------------------------
    // Memory first, before the extra passes below allocate trace buffers.
    out.metrics.set("bench.peak_rss_mb", vm_hwm_mb());
    for (wl, report) in prep.specs.iter().zip(&prep.reference) {
        out.digests.push((
            format!("{}/base/{}", kind.div, wl.name),
            stable_hash_str(report),
        ));
    }
    let n_k = last.len() as f64;
    let mean = |f: &dyn Fn(&SimStats) -> f64| last.iter().map(|d| f(&d.stats)).sum::<f64>() / n_k;
    let total = |f: &dyn Fn(&SimStats) -> u64| last.iter().map(|d| f(&d.stats)).sum::<u64>() as f64;
    let m = &mut out.metrics;
    m.set("core.sim_cycles", total(&|s| s.core_cycles));
    m.set("core.insts", total(&|s| s.insts));
    m.set("core.ipc", mean(&|s| s.ipc));
    m.set("core.aml_cycles", mean(&|s| s.aml_core_cycles));
    m.set(
        "core.l2_queue_full_frac",
        mean(&|s| s.l2_access_occupancy.full_fraction()),
    );
    m.set(
        "core.l2_stall_bp_icnt_frac",
        mean(&|s| s.l2_stalls.fractions()[0]),
    );
    m.set(
        "core.l2_stall_bp_dram_frac",
        mean(&|s| s.l2_stalls.fractions()[4]),
    );
    m.set("simt.stall_frac", mean(&|s| s.stall_fraction));
    m.set("cache.l1_miss_rate", mean(&|s| s.l1_miss_rate));
    m.set("cache.l2_miss_rate", mean(&|s| s.l2_miss_rate));
    m.set(
        "dram.queue_full_frac",
        mean(&|s| s.dram_queue_occupancy.full_fraction()),
    );
    m.set("dram.efficiency", mean(&|s| s.dram_efficiency));
    for (wl, walls) in prep.specs.iter().zip(&per_kernel) {
        m.set(&format!("core.run_s.{}", wl.name), median(walls));
    }
    m.set("core.event_speedup", prep.naive_s / prep.event_s);
    let run_total = out
        .recorder
        .totals()
        .get("core.run")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    m.set("core.run_share", run_total / traced_s.iter().sum::<f64>());
    out.store_span_mean("core.new", "core.new_ms", 1e6);
    out.store_trace_overhead(&traced_s, &plain_s);

    // The program's own observability budgets (ROADMAP: each under 5 %), as
    // throughput loss against the plain passes above. Observation only: the
    // reports must not change, which `pass` checks.
    let base = median(&tally.unit_s);
    // Two passes, or about a second's worth of short ones.
    let reps = if base < 0.25 { 8 } else { 2 };
    let mut loss_pct = |name: &str, tweak: &dyn Fn(&mut GpuConfig)| {
        let mut cfg = sim_config();
        tweak(&mut cfg);
        let walls: Vec<f64> = (0..reps)
            .filter_map(|_| pass(&cfg, &prep, &mut off, &mut out))
            .map(|done| wall_s(&done))
            .collect();
        if !walls.is_empty() {
            out.metrics.set(name, (1.0 - base / median(&walls)) * 100.0);
        }
    };
    loss_pct("types.trace_overhead_pct", &|c| c.trace_sample = 16);
    loss_pct("types.prof_overhead_pct", &|c| c.profile_host = true);
    out
}
