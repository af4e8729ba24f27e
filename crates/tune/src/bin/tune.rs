//! `tune` — run a design-space search from the command line.
//!
//! ```text
//! tune [--smoke] [--seed N] [--budget N] [--workloads a,b,c]
//!      [--pool N] [--survivors N] [--screen-cycles N] [--full-cycles N]
//!      [--refine N] [--max-area PCT] [--out FILE] [--csv FILE]
//!      [--cache-dir DIR]
//! ```
//!
//! The deterministic frontier JSON goes to `--out` (default stdout); run
//! statistics (fresh sims vs. cache hits, wall time) go to stderr so the
//! JSON stream stays byte-identical between cold and warm runs.

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]

use gmh_exp::cache::DiskCache;
use gmh_tune::{frontier_csv, frontier_json, run_search, TuneParams};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tune [--smoke] [--seed N] [--budget N] [--workloads a,b,c] \
[--pool N] [--survivors N] [--screen-cycles N] [--full-cycles N] [--refine N] \
[--max-area PCT] [--out FILE] [--csv FILE] [--cache-dir DIR]";

struct Cli {
    params: TuneParams,
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Cli, String> {
    let mut params = TuneParams::paper();
    let mut cli = Cli {
        params: TuneParams::paper(),
        out: None,
        csv: None,
        cache_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--smoke" | "--small" => params = TuneParams::smoke(),
            "--seed" => params.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--budget" => params.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--workloads" => {
                params.workloads = value("--workloads")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--pool" => params.pool = value("--pool")?.parse().map_err(|e| format!("{e}"))?,
            "--survivors" => {
                params.survivors = value("--survivors")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--screen-cycles" => {
                params.screen_cycles = value("--screen-cycles")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--full-cycles" => {
                params.full_cycles = value("--full-cycles")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--refine" => params.refine = value("--refine")?.parse().map_err(|e| format!("{e}"))?,
            "--max-area" => {
                params.max_area_pct = value("--max-area")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--csv" => cli.csv = Some(PathBuf::from(value("--csv")?)),
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    cli.params = params;
    Ok(cli)
}

fn write_or_print(path: &Option<PathBuf>, content: &str) -> std::io::Result<()> {
    match path {
        Some(p) => std::fs::write(p, content),
        None => {
            let mut out = std::io::stdout().lock();
            out.write_all(content.as_bytes())?;
            out.write_all(b"\n")
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = (|| -> std::io::Result<()> {
        let dir = cli.cache_dir.clone().unwrap_or_else(DiskCache::default_dir);
        let cache = DiskCache::open(dir)?;
        #[expect(
            clippy::disallowed_types,
            reason = "times the whole search for the one-line run summary on stderr; the timer \
                never feeds the search itself, whose trajectory and frontier are a pure function \
                of (knob space, TuneParams)"
        )]
        let t0 = std::time::Instant::now();
        let out = run_search(&cache, &cli.params)?;
        let json = frontier_json(&cli.params, &out);
        write_or_print(&cli.out, &json)?;
        if cli.csv.is_some() {
            write_or_print(&cli.csv, &frontier_csv(&cli.params, &out))?;
        }
        eprintln!(
            "tune: {} evals ({} sims, {} hits) over {} stages in {} ms; \
             frontier {} points{}{}",
            out.evals,
            out.fresh_sims,
            out.cache_hits,
            out.stages.len(),
            t0.elapsed().as_millis(),
            out.frontier.len(),
            if out.complete {
                ""
            } else {
                " [budget exhausted]"
            },
            match &out.best {
                Some(b) => format!(
                    "; best under {}% area: {} ({:.3}x, {:.2}%)",
                    cli.params.max_area_pct, b.label, b.speedup, b.area_pct
                ),
                None => String::new(),
            }
        );
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tune: {e}");
            ExitCode::FAILURE
        }
    }
}
