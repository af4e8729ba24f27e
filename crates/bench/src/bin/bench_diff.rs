//! `bench_diff` — deterministic comparator of two `BENCH_*.json` files.
//!
//! ```text
//! bench_diff [--tolerance-pct N] [--absolute] BASELINE.json CANDIDATE.json
//! ```
//!
//! Exit codes: `0` pass, `1` throughput regression, `2` schema drift,
//! `3` usage or I/O error. See [`mod@gmh_bench::diff`] for the comparison
//! rules (relative mode normalizes `*_per_sec` by each file's own
//! headline so cross-machine comparisons gate on profile *shape*, not
//! machine speed; `--absolute` compares raw values for same-host A/B).

use gmh_bench::diff::{diff, Verdict, OVERHEAD_ALLOWANCE_POINTS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_diff [--tolerance-pct N] [--absolute] BASELINE.json CANDIDATE.json");
    ExitCode::from(3)
}

fn main() -> ExitCode {
    let mut tolerance_pct = 15.0f64;
    let mut absolute = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance-pct" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                if !(0.0..=100.0).contains(&v) {
                    eprintln!("bench_diff: tolerance must be in [0, 100]");
                    return ExitCode::from(3);
                }
                tolerance_pct = v;
            }
            "--absolute" => absolute = true,
            "--help" | "-h" => {
                println!(
                    "bench_diff: compare two BENCH_*.json files for schema drift and \
                     throughput regressions.\n\
                     usage: bench_diff [--tolerance-pct N] [--absolute] BASELINE CANDIDATE\n\
                     exit:  0 pass, 1 regression, 2 schema drift, 3 error"
                );
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => return usage(),
            _ => files.push(a),
        }
    }
    let [base_path, cand_path] = files.as_slice() else {
        return usage();
    };
    let load = |path: &str| -> Result<gmh_types::json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        gmh_types::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (base, cand) = match (load(base_path), load(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(3);
        }
    };
    let report = diff(&base, &cand, tolerance_pct, absolute);
    let mode = if absolute { "absolute" } else { "relative" };
    println!(
        "bench_diff: {base_path} vs {cand_path} ({mode}, tolerance {tolerance_pct}%, \
         overheads +{OVERHEAD_ALLOWANCE_POINTS} points)"
    );
    for f in &report.findings {
        let tag = if f.fatal { "FAIL" } else { "note" };
        println!("  [{tag}] {}: {}", f.path, f.detail);
    }
    match report.verdict {
        Verdict::Pass => println!("verdict: PASS ({} findings)", report.findings.len()),
        Verdict::Regress => println!("verdict: REGRESS"),
        Verdict::SchemaDrift => println!("verdict: SCHEMA DRIFT"),
    }
    ExitCode::from(u8::try_from(report.exit_code()).unwrap_or(3))
}
