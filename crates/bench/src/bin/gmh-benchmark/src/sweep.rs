//! `sweep`: Fig. 12 as users regenerate it — `base` and the four
//! cost-effective configurations over the 19 Table II workloads, 95 jobs
//! through `Evaluator::eval_batch` into a fresh `DiskCache` with two worker
//! threads. Every job simulates: asymmetric flit widths, HBM timing,
//! compute-bound kernels where `simt` dominates, short jobs where
//! `GpuSim::new`, `report_json` and the cache write show. It is the only
//! workload with paper reference values, so its traced run carries the
//! accuracy figures, from one extra pass at full kernel length.
//!
//! The all-hit regeneration is checked after every cold pass (the warm table
//! must be the cold table, with no simulation) but is timed only in the
//! traced run, as a per-layer figure: two workers and the collecting thread
//! trade the job-queue lock and the result channel, and a 95-hit pass takes
//! anywhere from 0.6 ms (one worker got ahead) to 2.6 ms. The share of each
//! kind swings from 10 % to 60 % of a run's passes with the host's wake-up
//! latency, and the median, mean and rates with it — no end-to-end row
//! with a bound can stand on that.

use crate::inputs::{Sweep, SWEEP_DIV};
use crate::run::{cpu_seconds, for_window, stats_failure, vm_hwm_mb, Ctx, Outcome, Round, Tally};
use crate::spans::Recorder;
use crate::stats::median;
use gmh_core::GpuSim;
use gmh_exp::{job_key, report_json, CachedRun, Candidate, DiskCache, Evaluator};
use gmh_types::stable_hash_str;
use gmh_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

type Jobs<'a> = Vec<(&'a Candidate, &'a WorkloadSpec)>;

/// One `eval_batch` pass; a panic in a worker fails the whole pass.
struct Pass {
    runs: Vec<CachedRun>,
    wall_s: f64,
    cpu_s: f64,
    sims: usize,
}

fn eval_pass(cache: &DiskCache, jobs: &Jobs, rec: &mut Recorder) -> Result<Pass, String> {
    let ev = Evaluator::new(cache);
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let span = rec.begin("exp.eval_batch", 0);
    let runs = catch_unwind(AssertUnwindSafe(|| ev.eval_batch(jobs)));
    rec.end(span);
    let wall_s = started.elapsed().as_secs_f64();
    let runs = runs
        .map_err(|_| "eval_batch panicked".to_string())?
        .map_err(|e| format!("eval_batch failed: {e}"))?;
    Ok(Pass {
        runs,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        sims: ev.sims(),
    })
}

/// A cold pass into a fresh cache directory, checked job by job: every job
/// simulated, passed the per-simulation rules and — given `previous` —
/// rendered the same bytes as the pass before.
fn cold_pass(
    ctx: &Ctx,
    n: usize,
    jobs: &Jobs,
    previous: Option<&[String]>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<(Pass, DiskCache)> {
    let cache = DiskCache::open(ctx.fresh_dir("sweep", n)).expect("scratch cache opens");
    out.attempted += jobs.len() as u64;
    let pass = match eval_pass(&cache, jobs, rec) {
        Ok(p) => p,
        Err(why) => {
            println!("FAILED: {why}");
            out.failed += jobs.len() as u64;
            return None;
        }
    };
    for (i, (run, (cand, wl))) in pass.runs.iter().zip(jobs).enumerate() {
        let why = match &run.stats {
            None => Some("served from a fresh cache".to_string()),
            Some(s) => stats_failure(s),
        }
        .or_else(|| {
            previous
                .is_some_and(|p| p[i] != run.json)
                .then(|| "report differs from the previous pass".to_string())
        });
        if let Some(why) = why {
            println!("FAILED: {}/{}: {why}", cand.label, wl.name);
            out.failed += 1;
        }
    }
    out.gate(pass.sims == jobs.len(), || {
        format!(
            "cold pass ran {} simulations for {} jobs",
            pass.sims,
            jobs.len()
        )
    });
    Some((pass, cache))
}

/// A warm pass over `cache`, checked against the cold reports byte for byte.
fn warm_pass(
    cache: &DiskCache,
    jobs: &Jobs,
    cold: &[String],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<Pass> {
    out.attempted += jobs.len() as u64;
    let pass = match eval_pass(cache, jobs, rec) {
        Ok(p) => p,
        Err(why) => {
            println!("FAILED: {why}");
            out.failed += jobs.len() as u64;
            return None;
        }
    };
    for (run, cold) in pass.runs.iter().zip(cold) {
        if !run.hit || run.json != *cold {
            out.failed += 1;
        }
    }
    out.gate(pass.sims == 0, || {
        format!("warm pass ran {} simulations", pass.sims)
    });
    Some(pass)
}

fn reports(pass: &Pass) -> Vec<String> {
    pass.runs.iter().map(|r| r.json.clone()).collect()
}

fn remove(cache: DiskCache) {
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Warm passes after each cold pass of a traced run.
const WARM_PASSES: usize = 100;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let mut off = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut sweep = None;
    for n in 0..ctx.setup_repeats {
        let started = Instant::now();
        let s = Sweep::new(ctx.seed, SWEEP_DIV);
        // Warm-up: the first few jobs into a throw-away cache.
        let jobs = s.jobs(ctx.sizes.sweep_jobs.min(5));
        if let Some((_, cache)) = cold_pass(ctx, 1000 + n, &jobs, None, &mut off, &mut out) {
            remove(cache);
        }
        setup_s.push(started.elapsed().as_secs_f64());
        sweep = Some(s);
    }
    out.attempted = 0;
    let sweep = sweep.expect("set-up runs at least once");
    let jobs = sweep.jobs(ctx.sizes.sweep_jobs);

    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(false));
    let mut tally = Tally::default();
    let mut previous: Option<Vec<String>> = None;
    let mut cpu_util = Vec::new();
    let mut warm_s = Vec::new();
    // Of the last cold pass and the last warm pass.
    let (mut fresh_sims, mut cache_hits) = (0, 0);
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut n = 0usize;
    for_window(ctx.timed_window(), || {
        let recorded = ctx.traced && n.is_multiple_of(2);
        let r = if recorded { &mut rec } else { &mut off };
        n += 1;
        let Some((pass, cache)) = cold_pass(ctx, n, &jobs, previous.as_deref(), r, &mut out) else {
            return;
        };
        let cold = reports(&pass);
        // The warm table must be the cold table. A traced run repeats the
        // warm pass for its per-layer figure.
        for _ in 0..if ctx.traced { WARM_PASSES } else { 1 } {
            if let Some(warm) = warm_pass(&cache, &jobs, &cold, &mut off, &mut out) {
                warm_s.push(warm.wall_s);
                cache_hits = warm.runs.iter().filter(|r| r.hit).count();
            }
        }
        fresh_sims = pass.sims;
        remove(cache);
        let stats = || pass.runs.iter().filter_map(|r| r.stats.as_ref());
        tally.push_pass(Round {
            wall_s: pass.wall_s,
            ops: jobs.len() as u64,
            cycles: stats().map(|s| s.core_cycles).sum(),
            insts: stats().map(|s| s.insts).sum(),
        });
        cpu_util.push(pass.cpu_s / (2.0 * pass.wall_s));
        if recorded {
            &mut traced_s
        } else {
            &mut plain_s
        }
        .push(pass.wall_s);
        previous = Some(cold);
    });
    out.recorder = rec;
    if tally.unit_s.is_empty() {
        out.gate_failures.push("no cold pass completed".to_string());
        return out;
    }
    println!("{}", tally.describe());
    if !ctx.traced {
        tally.store(&setup_s, &mut out.metrics);
        return out;
    }

    // Memory first, before the shadow and the full-length pass.
    out.metrics.set("bench.peak_rss_mb", vm_hwm_mb());
    out.metrics.set("exp.cpu_util", median(&cpu_util));
    out.metrics.set("exp.fresh_sims", fresh_sims as f64);
    out.metrics.set("exp.cache_hits", cache_hits as f64);
    if !warm_s.is_empty() {
        out.metrics.set(
            "exp.batch_dispatch_us",
            median(&warm_s) * 1e6 / jobs.len() as f64,
        );
    }
    out.store_trace_overhead(&traced_s, &plain_s);
    shadow_cold(ctx, &jobs, &mut out);
    if ctx.sizes.sweep_jobs == 95 {
        full_length(ctx, &mut out);
    }
    out
}

/// The cold job path step by step on one thread, a span around each public
/// call `run_cached` makes, over every fourth job (all workloads, all
/// configurations): where a cold job's time goes.
fn shadow_cold(ctx: &Ctx, jobs: &Jobs, out: &mut Outcome) {
    let cache = DiskCache::open(ctx.fresh_dir("shadow", 0)).expect("scratch cache opens");
    let rec = &mut out.recorder;
    for (op, (cand, wl)) in jobs.iter().step_by(4).enumerate() {
        let op = op as u64;
        let s = rec.begin("exp.job_key", op);
        let key = job_key(&cand.label, &cand.config, wl);
        rec.end(s);
        let s = rec.begin("exp.cache_get", op);
        let miss = cache.get(key).is_none();
        rec.end(s);
        assert!(miss, "the shadow cache starts empty");
        let s = rec.begin("core.new", op);
        let mut sim = GpuSim::new(cand.config.clone(), wl);
        rec.end(s);
        let s = rec.begin("core.run", op);
        let stats = sim.run();
        rec.end(s);
        let s = rec.begin("exp.report_json", op);
        let json = report_json(&cand.label, wl.name, &stats);
        rec.end(s);
        let s = rec.begin("exp.cache_put", op);
        cache
            .put(key, wl, &cand.label, &json)
            .expect("scratch cache is writable");
        rec.end(s);
    }
    remove(cache);
    out.store_span_mean("core.new", "core.new_ms", 1e6);
    let totals = out.recorder.totals();
    let stages = [
        "exp.job_key",
        "exp.cache_get",
        "core.new",
        "core.run",
        "exp.report_json",
        "exp.cache_put",
    ];
    let all: u64 = stages
        .iter()
        .filter_map(|s| totals.get(s))
        .map(|t| t.total_ns)
        .sum();
    out.metrics.set(
        "core.run_share",
        totals.get("core.run").map_or(0.0, |t| t.total_ns as f64) / all as f64,
    );
}

/// One cold pass at full kernel length: the accuracy figures against the
/// paper and, at seed 0, the report digests `golden/` pins.
fn full_length(ctx: &Ctx, out: &mut Outcome) {
    let sweep = Sweep::new(ctx.seed, 1);
    let jobs = sweep.jobs(usize::MAX);
    let mut off = Recorder::new(false);
    let Some((pass, cache)) = cold_pass(ctx, 2000, &jobs, None, &mut off, out) else {
        return;
    };
    remove(cache);
    println!(
        "full-length sweep: {} jobs in {:.3} s",
        jobs.len(),
        pass.wall_s
    );
    for (run, (cand, wl)) in pass.runs.iter().zip(&jobs) {
        out.digests.push((
            format!("1/{}/{}", cand.label, wl.name),
            stable_hash_str(&run.json),
        ));
    }
    let n_cfg = sweep.candidates.len();
    let n_wl = sweep.specs.len() as f64;
    let stats = |w: usize, c: usize| pass.runs[w * n_cfg + c].stats.as_ref();
    // Fig. 12: average speedup of each configuration over `base`, in percent.
    const FIG12_PAPER_PCT: [f64; 4] = [23.4, 29.0, 25.7, 11.0];
    let mut fig12 = Vec::new();
    for (c, paper) in FIG12_PAPER_PCT.iter().enumerate() {
        let mut sum = 0.0;
        for w in 0..sweep.specs.len() {
            if let (Some(cfg), Some(base)) = (stats(w, c + 1), stats(w, 0)) {
                sum += cfg.ipc / base.ipc;
            }
        }
        fig12.push(((sum / n_wl - 1.0) * 100.0 - paper).abs());
    }
    // Fig. 8: mean L2 stall attribution over the 19 `base` runs, in percent.
    const FIG8_PAPER_PCT: [(usize, f64); 3] = [(0, 42.0), (4, 35.0), (1, 12.0)];
    let mut fig8 = Vec::new();
    for (idx, paper) in FIG8_PAPER_PCT {
        let sum: f64 = (0..sweep.specs.len())
            .filter_map(|w| stats(w, 0))
            .map(|s| s.l2_stalls.fractions()[idx])
            .sum();
        fig8.push((sum / n_wl * 100.0 - paper).abs());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m = &mut out.metrics;
    m.set("exp.fig12_err_pp", mean(&fig12));
    m.set("exp.fig8_err_pp", mean(&fig8));
    let all: Vec<f64> = fig12.iter().chain(&fig8).copied().collect();
    m.set("exp.paper_err_pp", mean(&all));
}
