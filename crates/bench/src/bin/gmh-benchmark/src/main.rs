//! `gmh-benchmark`: one command, four workloads, the end-to-end and per-layer
//! numbers every later performance claim is measured with. See `README.md`
//! beside this file for the tables and for what a later issue must name.
//!
//! ```text
//! gmh-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//! gmh-benchmark [--seed N] [--runs R] [--trace 1] [--smoke] [--out FILE]   every workload
//! gmh-benchmark --check A.json B.json   compare two --out files; run from the repository root
//! ```
//!
//! The benchmark only calls the program through public functions; it adds
//! nothing to any other crate. Every workload runs in a child process of
//! its own (a re-exec with `GMH_THREADS=2` and `GMH_SIM_THREADS=1` in its
//! environment), so peak memory and allocator state are per workload and the
//! daemon's per-request log lines go to a file instead of the terminal.

mod check;
mod drivers;
mod inputs;
mod metrics;
mod run;
mod serve;
mod sim;
mod spans;
mod stats;
mod sweep;

use inputs::Sizes;
use run::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["saturated", "bursty", "sweep", "serve"];

/// Length of the timed window of one run, `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Set-up is repeated this often per run and its median reported.
const SETUP_REPEATS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    child: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        child: false,
        seed: 0,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
        dir: None,
        check: None,
    };
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
        let v = value(it, flag)?;
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, &flag)?),
            "--child" => a.child = true,
            "--seed" => a.seed = number(&mut it, &flag)?,
            "--seconds" => a.seconds = number(&mut it, &flag)?,
            "--trace" => a.traced = number(&mut it, &flag)? != 0,
            "--smoke" => a.smoke = true,
            "--runs" => a.runs = number(&mut it, &flag)?.max(1),
            "--out" => a.out = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--dir" => a.dir = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--check" => {
                let first = PathBuf::from(value(&mut it, &flag)?);
                a.check = Some((first, PathBuf::from(value(&mut it, &flag)?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

/// Where run directories and trace files go: inside the build directory,
/// which is inside the checkout and ignored by git.
fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("gmh-benchmark")
}

/// The host a result was measured on; printed with every run because the
/// numbers mean nothing without it.
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

impl Host {
    fn read() -> Host {
        let trimmed = |s: String| s.trim().to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), trimmed),
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), trimmed),
        }
    }

    /// `sweep` and `serve` keep two threads busy; with fewer than two
    /// CPUs their numbers are not comparable (the `scaling_valid` rule).
    pub fn valid_for(&self, workload: &str) -> bool {
        self.nproc >= 2 || matches!(workload, "saturated" | "bursty")
    }
}

// ---- the child: one workload, in this process ------------------------------

fn run_child(a: &Args) -> ExitCode {
    let workload = a
        .workload
        .as_deref()
        .expect("--child comes with --workload");
    let ctx = Ctx {
        seed: a.seed,
        window: if a.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs(a.seconds)
        },
        traced: a.traced,
        sizes: if a.smoke { Sizes::SMOKE } else { Sizes::FULL },
        setup_repeats: if a.smoke { 1 } else { SETUP_REPEATS },
        dir: a.dir.clone().expect("--child comes with --dir"),
    };
    let mut out: Outcome = match workload {
        "saturated" => sim::run(&sim::SATURATED_KIND, &ctx),
        "bursty" => sim::run(&sim::BURSTY_KIND, &ctx),
        "sweep" => sweep::run(&ctx),
        "serve" => serve::run(&ctx),
        other => unreachable!("parse_args admitted {other}"),
    };
    if ctx.traced {
        drivers::run_all(&ctx, ctx.window / 2, &mut out.metrics);
        if workload == "saturated" {
            drivers::store_shares(&mut out.metrics);
        }
        if ctx.seed == 0 && !a.smoke {
            let misses = check::golden_mismatches(&out.digests);
            out.metrics
                .set("core.report_digest_mismatches", misses as f64);
        }
        for (key, digest) in &out.digests {
            println!("digest {key} {digest:016x}");
        }
        for (name, t) in out.recorder.totals() {
            println!(
                "span {name:<16} n {:>6}  total {:>12.3} ms  self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = scratch_root().join(format!("trace-{workload}.json"));
        match std::fs::write(&path, out.recorder.chrome_trace()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out
                .gate_failures
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for why in &out.gate_failures {
        println!("GATE FAILED: {why}");
    }
    println!("peak rss: {:.1} MB (VmHWM)", run::vm_hwm_mb());
    print!("{}", out.metrics.render());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- the parent: children, one per workload run ----------------------------

/// Runs one workload in a child process; returns its standard output (the
/// result is its last line) and whether it exited cleanly.
fn spawn_child(a: &Args, workload: &str, seed: u64, n: u64) -> Result<(String, bool), String> {
    let dir = scratch_root().join(format!("run-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let log_path = dir.join("stderr.log");
    let log = std::fs::File::create(&log_path)
        .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&dir)
        // Job-level parallelism pinned to two workers, each simulation to
        // one thread: what `sweep` and `serve` are defined on.
        .env("GMH_THREADS", "2")
        .env("GMH_SIM_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let ok = output.status.success();
    if ok {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(20).collect();
        for line in tail.into_iter().rev() {
            eprintln!("{line}");
        }
        eprintln!(
            "{workload} exited with {}; its files are kept in {}",
            output.status,
            dir.display()
        );
    }
    Ok((stdout, ok))
}

fn print_host(host: &Host) {
    println!(
        "host: nproc {} · kernel {} · {}",
        host.nproc, host.kernel, host.rustc
    );
}

/// The driver contract: one workload, one run, the child's output passed on.
fn run_one(a: &Args, workload: &str) -> ExitCode {
    let host = Host::read();
    print_host(&host);
    if !host.valid_for(workload) {
        println!(
            "valid: false ({workload} needs 2 CPUs, this host has {})",
            host.nproc
        );
    }
    match spawn_child(a, workload, a.seed, 0) {
        Ok((stdout, ok)) => {
            print!("{stdout}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload, `--runs` times (run r uses seed + r), workloads
/// interleaved so drift over the session spreads over all of them.
fn run_all(a: &Args) -> ExitCode {
    let host = Host::read();
    print_host(&host);
    let mut results = check::Results::new(&host, a.seed, a.runs, a.traced);
    let mut clean = true;
    let mut n = 0;
    for r in 0..a.runs {
        for workload in WORKLOADS {
            n += 1;
            println!(
                "--- {workload} · seed {} · run {}/{}",
                a.seed + r,
                r + 1,
                a.runs
            );
            match spawn_child(a, workload, a.seed + r, n) {
                Ok((stdout, ok)) => {
                    print!("{stdout}");
                    clean &= ok;
                    match stdout.lines().last().map(check::parse_result_line) {
                        Some(Ok(run)) => results.add(workload, &run),
                        Some(Err(why)) => {
                            eprintln!("{workload}: unreadable result: {why}");
                            clean = false;
                        }
                        None => clean = false,
                    }
                }
                Err(why) => {
                    eprintln!("{why}");
                    clean = false;
                }
            }
        }
    }
    println!("=== medians over {} run(s) per workload", a.runs);
    print!("{}", results.render(&host));
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, results.to_json(&host)) {
            eprintln!("cannot write {}: {e}", path.display());
            clean = false;
        } else {
            println!("results written to {}", path.display());
        }
    }
    if clean && results.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("gmh-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, second)) = &a.check {
        return check::run(first, second);
    }
    if a.child {
        return run_child(&a);
    }
    match a.workload.clone() {
        Some(w) => run_one(&a, &w),
        None => run_all(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args("--workload bursty --seed 7 --seconds 3 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("bursty"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3, true));
        assert!(
            !args("--workload saturated --trace 0")
                .expect("parses")
                .traced
        );
        assert!(args("--workload nosuch").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--frobnicate").is_err());
        let c = args("--check a.json b.json").expect("parses");
        assert_eq!(c.check, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn a_one_cpu_host_invalidates_only_the_two_thread_workloads() {
        let host = Host {
            nproc: 1,
            kernel: String::new(),
            rustc: String::new(),
        };
        assert!(host.valid_for("saturated") && host.valid_for("bursty"));
        assert!(!host.valid_for("sweep") && !host.valid_for("serve"));
        let host = Host { nproc: 2, ..host };
        assert!(WORKLOADS.iter().all(|w| host.valid_for(w)));
    }
}
