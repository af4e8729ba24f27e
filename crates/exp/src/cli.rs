//! The `gmh-exp` command line: `gmh-exp <artifact>...`, `all`, `list` and
//! the diagnostics, behind one dispatcher that takes its writers so tests
//! drive it without spawning a process.
//!
//! Input that cannot be honoured — an unknown artifact or workload, a number
//! that does not parse, an unreadable or malformed trace file, an output
//! path that cannot be created — is refused: `gmh-exp: <reason>` on stderr,
//! exit code 2, nothing panics. An absent optional argument takes its
//! default.

use crate::cache::{job_key, CachedRun, DiskCache};
use crate::experiments::{config_labels, Artifact, ARTIFACTS};
use crate::prof_export::{host_trace_json, utilization_table};
use crate::runner::Runs;
use crate::scorecard;
use crate::trace_export::{chrome_trace_json, latency_table};
use crate::tune::{frontier_csv, frontier_json, run_search, TuneParams};
use crate::{write_report, Candidate, Evaluator};
use gmh_core::{FastForwardStats, GpuConfig, GpuSim};
use gmh_simt::inst::{InstKind, InstSource};
use gmh_types::json;
use gmh_workloads::{catalog, TraceBundle, WorkloadSpec};
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Why a command line was refused.
struct Refusal(String);

impl From<io::Error> for Refusal {
    fn from(e: io::Error) -> Self {
        Refusal(format!("cannot write output: {e}"))
    }
}

/// `.map_err(cannot("open x"))` turns any error into "cannot open x: <error>".
fn cannot<E: Display>(what: impl Display) -> impl FnOnce(E) -> Refusal {
    move |e| Refusal(format!("cannot {what}: {e}"))
}

type Outcome = Result<(), Refusal>;

type Run = fn(&[String], &mut dyn Write, &mut dyn Write) -> Outcome;

/// Name, the arguments it takes, how many at most, one-line description, body.
struct Command(&'static str, &'static str, usize, &'static str, Run);

#[rustfmt::skip]
const COMMANDS: [Command; 11] = [
    Command("all", "", 0, "every artifact above as one report, the bytes of experiments_report.txt", all),
    Command("list", "", 0, "this listing", list),
    Command("probe", "[workload] [report-dir]", 2, "every statistic of one baseline run (default nn); with a directory, also <workload>.json (the report) and <workload>.csv (its telemetry) in it", probe),
    Command("latency", "[workload] [trace-out.json]", 2, "one baseline run's per-fetch latency per level, queueing vs service, 1 fetch in 4 traced (default lbm); with a path, also those fetches as Chrome trace JSON", latency),
    Command("profile", "[workload] [trace-out.json]", 2, "one baseline run's host time per run-loop phase (default mm); with a path, also its timeline as Chrome trace JSON", profile),
    Command("sweep", "[workload]", 1, "one workload under the baseline and the Fig. 10 + 12 configs, through the result cache", sweep),
    Command("tune", "[SPEC] [frontier.json] [frontier.csv]", 3, "a seeded search of Table III's design space through the result cache; SPEC is the daemon's tune object naming its preset (default {\"preset\":\"paper\"}); the frontier as JSON (stdout or the path) and CSV", tune),
    Command("scorecard", "", 0, "every number of the paper beside this model's, its error and band, then the 19 baselines' statistics", scorecard),
    Command("trace", "[workload] [warp] [count]", 3, "the first instructions one warp's synthetic stream emits", trace),
    Command("record", "[workload] [out.trace] [cores]", 3, "write a workload's instruction stream as a gmh-trace v1 file", record),
    Command("replay", "<file.trace>", 1, "run a gmh-trace v1 file on the baseline and print its statistics", replay),
];

/// Runs one `gmh-exp` command line (`args` without the program name),
/// writing results to `out` and progress and refusals to `err`; returns the
/// process exit code (0, or 2 for refused input).
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    match dispatch(args, out, err) {
        Ok(()) => 0,
        Err(Refusal(reason)) => {
            // Nothing left to tell a caller whose stderr is gone.
            let _ = writeln!(err, "gmh-exp: {reason}");
            2
        }
    }
}

fn dispatch(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let Some((first, rest)) = args.split_first() else {
        return Err(Refusal(
            "usage: gmh-exp <artifact>... | <command> [args]; `gmh-exp list` names them".into(),
        ));
    };
    if let Some(Command(name, usage, max_args, _, run)) = COMMANDS.iter().find(|c| c.0 == first) {
        if rest.len() > *max_args {
            return Err(Refusal(format!("usage: gmh-exp {name} {usage}")));
        }
        return run(rest, out, err);
    }
    let named: Vec<Artifact> = args.iter().map(|a| artifact(a)).collect::<Result<_, _>>()?;
    write!(out, "{}", report(&named, &mut Runs::default(), err)?)?;
    Ok(())
}

fn artifact(name: &str) -> Result<Artifact, Refusal> {
    let found = ARTIFACTS.iter().find(|a| a.name == name);
    found.copied().ok_or_else(|| {
        let valid: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        let valid = valid.join(" ");
        Refusal(format!(
            "unknown artifact or command {name:?}; artifacts: {valid}"
        ))
    })
}

/// Renders `artifacts` in order, a blank line between sections, each from
/// the runs in `runs` and the ones it adds there.
fn report(artifacts: &[Artifact], runs: &mut Runs, err: &mut dyn Write) -> Result<String, Refusal> {
    let mut sections = Vec::new();
    for (i, a) in artifacts.iter().enumerate() {
        writeln!(err, "[{}/{}] {}...", i + 1, artifacts.len(), a.name)?;
        sections.push((a.render)(runs).text);
    }
    Ok(sections.join("\n"))
}

fn all(_: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let t0 = Instant::now();
    let mut runs = Runs::default();
    write!(out, "{}", report(&ARTIFACTS, &mut runs, err)?)?;
    let (wall, sims) = (t0.elapsed().as_secs_f64(), runs.sims());
    writeln!(err, "total wall time: {wall:.1}s, {sims} simulations")?;
    Ok(())
}

/// Argument `i` as an output path, created now — a directory (with its
/// parents) when `dir`, else an empty file — so that one that cannot be
/// created is refused before the run that fills it starts; `None` when
/// absent.
fn output(args: &[String], i: usize, dir: bool) -> Result<Option<&String>, Refusal> {
    let Some(path) = args.get(i) else {
        return Ok(None);
    };
    let created = if dir {
        std::fs::create_dir_all(path)
    } else {
        File::create(path).map(drop)
    };
    created.map_err(cannot(format_args!("create {path}")))?;
    Ok(Some(path))
}

/// Writes `text` to `path`, which [`output`] created.
fn write_file(path: &str, text: &str) -> Outcome {
    std::fs::write(path, text).map_err(cannot(format_args!("write {path}")))
}

fn list(_: &[String], out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    writeln!(out, "artifacts (gmh-exp <artifact>...), in report order:")?;
    for a in &ARTIFACTS {
        writeln!(out, "  {:<10} {}", a.name, a.about)?;
    }
    writeln!(out, "commands:")?;
    for Command(name, usage, _, about, _) in &COMMANDS {
        writeln!(out, "  {:<38} {about}", format!("{name} {usage}"))?;
    }
    Ok(())
}

/// The workload named by the first argument, or `default`.
fn workload(args: &[String], default: &str) -> Result<WorkloadSpec, Refusal> {
    let name = args.first().map_or(default, String::as_str);
    catalog::by_name(name).ok_or_else(|| {
        let valid = catalog::names().join(" ");
        Refusal(format!("unknown workload {name:?}; valid: {valid}"))
    })
}

/// Argument `i` as a count, or `default` when absent.
fn count(args: &[String], i: usize, what: &str, default: usize) -> Result<usize, Refusal> {
    let Some(arg) = args.get(i) else {
        return Ok(default);
    };
    arg.parse()
        .map_err(|_| Refusal(format!("{what} {arg:?} is not a non-negative integer")))
}

fn probe(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let wl = workload(args, "nn")?;
    let dir = output(args, 1, true)?;
    let t0 = Instant::now();
    let stats = GpuSim::new(GpuConfig::gtx480_baseline(), &wl).run();
    let dt = t0.elapsed();
    writeln!(
        out,
        "{}: cycles={} insts={} ipc={:.3} stall={:.1}% aml={:.0} ahl={:.0} l1mr={:.2} l2mr={:.2} dram_eff={:.2} cap={} wall={:.2}s",
        wl.name, stats.core_cycles, stats.insts, stats.ipc,
        100.0 * stats.stall_fraction, stats.aml_core_cycles, stats.l2_ahl_core_cycles,
        stats.l1_miss_rate, stats.l2_miss_rate, stats.dram_efficiency,
        stats.hit_cycle_cap, dt.as_secs_f64()
    )?;
    writeln!(
        out,
        "  aml percentiles: p50={:.0} p90={:.0} p99={:.0} core cycles",
        stats.aml_p50, stats.aml_p90, stats.aml_p99
    )?;
    writeln!(
        out,
        "  l2q_full={:.2} dramq_full={:.2} issue_dist(dM,dA,sM,sA,f)={:?}",
        stats.l2_access_occupancy.full_fraction(),
        stats.dram_queue_occupancy.full_fraction(),
        stats.issue.distribution().map(|x| (x * 100.0).round()),
    )?;
    writeln!(
        out,
        "  l1stalls(c,m,bp)={:?} l2stalls(bpI,p,c,m,bpD)={:?}",
        stats.l1_stalls.fractions().map(|x| (x * 100.0).round()),
        stats.l2_stalls.fractions().map(|x| (x * 100.0).round()),
    )?;
    if let Some(dir) = dir {
        let written = write_report(Path::new(dir), wl.name, "gtx480_baseline", wl.name, &stats);
        let (json, csv) = written.map_err(cannot(format_args!("write the report to {dir}")))?;
        writeln!(err, "wrote {} and {}", json.display(), csv.display())?;
    }
    Ok(())
}

/// The simulated-time twin of `profile`: where a fetch's time goes, level
/// by level — at the L2 and DRAM of a memory-intensive workload, queueing
/// far longer than it is serviced (the paper's Figs. 4/5 congestion).
fn latency(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    /// One fetch in this many is traced: observation only, the run's
    /// statistics are those of an untraced run.
    const SAMPLE: u64 = 4;
    let wl = workload(args, "lbm")?;
    let path = output(args, 1, false)?;
    let mut cfg = GpuConfig::gtx480_baseline();
    cfg.trace_sample = SAMPLE;
    let trace = GpuSim::new(cfg, &wl).run().trace;
    write!(out, "{}", latency_table(wl.name, &trace))?;
    if let Some(path) = path {
        write_file(path, &chrome_trace_json(wl.name, &trace))?;
        writeln!(err, "wrote {} traced fetches to {path}", trace.sampled)?;
    }
    Ok(())
}

fn profile(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let wl = workload(args, "mm")?;
    let path = output(args, 1, false)?;
    let mut cfg = GpuConfig::gtx480_baseline();
    cfg.profile_host = true;
    let mut sim = GpuSim::new(cfg, &wl);
    sim.run();
    // INVARIANT: profile_host was set just above and the report not yet taken.
    let report = sim.take_host_report().expect("profile_host was on");
    write!(out, "{}", utilization_table(&report))?;
    // Which layer the event core parks: each class's share of its
    // component-ticks slept through.
    let ff = sim.ff_stats();
    write!(out, "slept")?;
    for (class, share) in FastForwardStats::CLASSES.iter().zip(ff.slept_shares()) {
        write!(out, "  {class} {:.1}%", share * 100.0)?;
    }
    writeln!(out)?;
    if let Some(path) = path {
        write_file(path, &host_trace_json(wl.name, &report))?;
        let spans = report.events.len();
        writeln!(err, "wrote {spans} timed host spans to {path}")?;
    }
    Ok(())
}

/// Evaluates through the tuner's candidate/evaluator layer and the shared
/// content-addressed result cache (the one `gmh-serve` and `tune`
/// populate): a warm cache prints the whole table with zero simulations.
/// Each machine runs once: a label whose machine an earlier label names
/// (Fig. 12's HBM is Fig. 10's DRAM 4×) prints that label's run.
fn sweep(args: &[String], out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let wl = workload(args, "mm")?;
    let cache = DiskCache::open(DiskCache::default_dir()).map_err(cannot("open result cache"))?;
    let ev = Evaluator::new(&cache);
    let (mut machines, mut rows) = (Vec::<(u64, Candidate)>::new(), Vec::new());
    for (label, cfg) in config_labels() {
        let key = job_key("", &cfg, &wl);
        let run = machines.iter().position(|(k, _)| *k == key);
        let run = run.unwrap_or_else(|| {
            machines.push((key, Candidate::new(label, cfg)));
            machines.len() - 1
        });
        rows.push((label, run));
    }
    let jobs: Vec<(&Candidate, &WorkloadSpec)> = machines.iter().map(|(_, c)| (c, &wl)).collect();
    let runs = ev.eval_batch(&jobs).map_err(cannot("run the configs"))?;
    let metric = |run: &CachedRun, name: &str| {
        let missing = || Refusal(format!("a cached report carries no {name}"));
        run.metric(name).ok_or_else(missing)
    };
    let base_ipc = metric(&runs[0], "ipc")?;
    writeln!(
        out,
        "{}: the baseline and the Fig. 10 + 12 configs",
        wl.name
    )?;
    writeln!(
        out,
        "{:<8} {:>7} {:>8} {:>7} {:>6} {:>9}",
        "config", "IPC", "speedup", "stall%", "AML", "L2q-full%"
    )?;
    for (label, run) in rows {
        let run = &runs[run];
        let ipc = metric(run, "ipc")?;
        writeln!(
            out,
            "{label:<8} {ipc:>7.3} {:>7.2}x {:>7.1} {:>6.0} {:>9.0}{}",
            ipc / base_ipc,
            100.0 * metric(run, "stall_fraction")?,
            metric(run, "aml_core_cycles")?,
            100.0 * metric(run, "l2_access_full_fraction")?,
            if run.hit { "  (cached)" } else { "" }
        )?;
    }
    cache
        .flush_index()
        .map_err(cannot("flush the cache index"))?;
    let (sims, hits) = (ev.sims(), ev.hits());
    writeln!(
        out,
        "[{sims} sims, {hits} hits from {}]",
        cache.dir().display()
    )?;
    Ok(())
}

/// A seeded successive-halving search of the Table III knob space: the
/// frontier JSON is a pure function of SPEC, so a warm cache replays it
/// byte for byte with zero simulations (the stderr summary says how many).
fn tune(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let spec = args.first().map_or(r#"{"preset":"paper"}"#, String::as_str);
    let spec = json::parse(spec).map_err(cannot(format_args!("parse the search spec {spec:?}")))?;
    let params = TuneParams::from_json(&spec).map_err(Refusal)?;
    params.validate().map_err(Refusal)?;
    // The daemon reads an absent preset as smoke, and no SPEC here means
    // paper: a SPEC names its preset, so neither default applies unseen.
    let unnamed = || Refusal("a search spec names its \"preset\"".into());
    spec.get("preset").ok_or_else(unnamed)?;
    let (json_path, csv_path) = (output(args, 1, false)?, output(args, 2, false)?);
    let cache = DiskCache::open(DiskCache::default_dir()).map_err(cannot("open result cache"))?;
    let t0 = Instant::now();
    let run = run_search(&cache, &params).map_err(cannot("run the search"))?;
    let frontier = frontier_json(&params, &run);
    match json_path {
        Some(path) => write_file(path, &frontier)?,
        None => writeln!(out, "{frontier}")?,
    }
    if let Some(path) = csv_path {
        write_file(path, &frontier_csv(&params, &run))?;
    }
    let best = match &run.best {
        Some(b) => format!(
            "; best under {}% area: {} ({:.3}x, {:.2}%)",
            params.max_area_pct, b.label, b.speedup, b.area_pct
        ),
        None => String::new(),
    };
    let cut = if run.complete {
        ""
    } else {
        " [budget exhausted]"
    };
    writeln!(
        err,
        "tune: {} evals ({} sims, {} hits) over {} stages in {} ms; frontier {} points{cut}{best}",
        run.evals,
        run.fresh_sims,
        run.cache_hits,
        run.stages.len(),
        t0.elapsed().as_millis(),
        run.frontier.len(),
    )?;
    Ok(())
}

fn scorecard(_: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let mut runs = Runs::default();
    write!(out, "{}", scorecard::report(&mut runs))?;
    writeln!(err, "scorecard: {} simulations", runs.sims())?;
    Ok(())
}

fn trace(args: &[String], out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let wl = workload(args, "mm")?;
    let warp = count(args, 1, "warp", 0)?;
    let n = count(args, 2, "count", 40)?;
    writeln!(
        out,
        "{} (core 0, warp {warp}), first {n} instructions:",
        wl.name
    )?;
    let mut src = wl.source_for_core(0);
    for i in 0..n {
        let Some(inst) = src.next_inst(warp) else {
            writeln!(out, "{i:>4}: <end of stream>")?;
            break;
        };
        let deps = match (inst.wait_mem, inst.wait_alu) {
            (true, true) => " [waits: mem+alu]",
            (true, false) => " [waits: mem]",
            (false, true) => " [waits: alu]",
            (false, false) => "",
        };
        let (op, lines) = match inst.kind {
            InstKind::Alu { latency } => {
                writeln!(out, "{i:>4}: ALU lat={latency}{deps}")?;
                continue;
            }
            InstKind::Load { lines } => ("LD ", lines),
            InstKind::Store { lines } => ("ST ", lines),
        };
        let lines: Vec<String> = lines.iter().map(|l| format!("{l}")).collect();
        writeln!(out, "{i:>4}: {op} {}{deps}", lines.join(", "))?;
    }
    Ok(())
}

/// Refuses a core count `replay` would refuse before recording: the
/// recording holds every core's whole stream in memory.
fn record(args: &[String], _: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let wl = workload(args, "mm")?;
    let path = args.get(1).map_or("workload.trace", String::as_str);
    let n_cores = GpuConfig::gtx480_baseline().n_cores;
    let cores = count(args, 2, "cores", n_cores)?;
    if !(1..=n_cores).contains(&cores) {
        return Err(Refusal(format!(
            "cores {cores} is not in 1..={n_cores}: the baseline machine has {n_cores} cores"
        )));
    }
    let file = File::create(path).map_err(cannot(format_args!("create {path}")))?;
    let bundle = TraceBundle::record(&wl, cores);
    let written = bundle.write(BufWriter::new(file));
    written.map_err(cannot(format_args!("write {path}")))?;
    let insts = bundle.total_insts();
    writeln!(
        err,
        "recorded {insts} instructions of {} across {cores} cores to {path}",
        wl.name
    )?;
    Ok(())
}

fn replay(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let Some(path) = args.first() else {
        return Err(Refusal("usage: gmh-exp replay <file.trace>".into()));
    };
    let file = File::open(path).map_err(cannot(format_args!("open {path}")))?;
    let parsed = TraceBundle::parse(BufReader::new(file));
    let bundle = parsed.map_err(cannot(format_args!("parse {path}")))?;
    let cfg = GpuConfig::gtx480_baseline();
    let (cores, warps) = (bundle.cores(), bundle.warps_per_core());
    if cores > cfg.n_cores || warps > cfg.core.max_warps {
        return Err(Refusal(format!(
            "{path} needs {cores} cores and {warps} warps per core; \
             the baseline machine has {} cores and {} warps per core",
            cfg.n_cores, cfg.core.max_warps
        )));
    }
    writeln!(
        err,
        "replaying {} ({} insts, {} cores recorded)",
        bundle.name(),
        bundle.total_insts(),
        bundle.cores()
    )?;
    let name = bundle.name().to_string();
    let mut sim = GpuSim::from_sources(cfg, &name, |c| Box::new(bundle.source_for_core(c)));
    let s = sim.run();
    writeln!(
        out,
        "{name}: cycles={} insts={} ipc={:.3} stall={:.1}% aml={:.0} l1mr={:.2} l2mr={:.2} cap={}",
        s.core_cycles,
        s.insts,
        s.ipc,
        100.0 * s.stall_fraction,
        s.aml_core_cycles,
        s.l1_miss_rate,
        s.l2_miss_rate,
        s.hit_cycle_cap
    )?;
    Ok(())
}
