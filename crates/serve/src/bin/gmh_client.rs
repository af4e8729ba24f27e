//! `gmh-client`: command-line client for the `gmh-serve` daemon.
//!
//! ```text
//! gmh-client --addr HOST:PORT submit WORKLOAD [--label L] [--seed N] [--set KEY=N]...
//! gmh-client --addr HOST:PORT trace  WORKLOAD [--label L] [--seed N] [--set KEY=N]...
//! gmh-client --addr HOST:PORT tune   [--preset smoke|paper] [--workloads A,B,C]
//!                                    [--max-area PCT] [--set KEY=N]...
//! gmh-client --addr HOST:PORT metrics
//! gmh-client --addr HOST:PORT ping
//! gmh-client --addr HOST:PORT shutdown
//! gmh-client --addr HOST:PORT smoke
//! ```
//!
//! Exit codes mirror the terminal reply: `0` OK, `2` BUSY, `3` ERR,
//! `4` TIMEOUT. `trace` submits the job with per-fetch lifecycle sampling
//! and prints the Chrome-trace JSON payload bare (redirect it to a file and
//! load it in Perfetto / `chrome://tracing`). `tune` submits a design-space
//! search and prints the frontier JSON payload bare; `--set` accepts the
//! integer search knobs (`seed`, `budget`, `pool`, `survivors`,
//! `screen_cycles`, `full_cycles`, `refine`). `ping` prints the daemon's
//! version and git revision. `smoke` runs the end-to-end self-check CI
//! uses: a tiny job twice (second must hit the cache byte-identically),
//! then verifies the metrics reconcile.

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]

use gmh_serve::metrics::sample;
use gmh_serve::protocol::Reply;
use gmh_serve::Client;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: gmh-client --addr HOST:PORT <submit|trace WORKLOAD [--label L] [--seed N] \
     [--set KEY=N]... | tune [--preset smoke|paper] [--workloads A,B,C] [--max-area PCT] \
     [--set KEY=N]... | metrics | ping | shutdown | smoke>"
}

fn reply_exit(reply: &Reply) -> ExitCode {
    println!("{}", reply.render());
    match reply {
        Reply::Ok(_) => ExitCode::SUCCESS,
        Reply::Busy { .. } => ExitCode::from(2),
        Reply::Err(_) => ExitCode::from(3),
        Reply::Timeout { .. } => ExitCode::from(4),
    }
}

/// A job small enough to finish in well under a second, used by `smoke`.
fn smoke_overrides() -> Vec<(String, u64)> {
    [
        ("n_cores", 1),
        ("max_core_cycles", 50_000),
        ("telemetry_window", 64),
        ("warps_per_core", 2),
        ("insts_per_warp", 40),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn smoke(client: &mut Client) -> Result<(), String> {
    let io = |e: std::io::Error| format!("i/o error: {e}");
    let Reply::Ok(_) = client.ping().map_err(io)? else {
        return Err("PING did not return OK".to_string());
    };
    let ovr = smoke_overrides();
    let cold = client
        .submit("nn", Some("base"), Some(0xC0FFEE), &ovr)
        .map_err(io)?;
    let Reply::Ok(cold_json) = cold else {
        return Err(format!("cold submit not OK: {}", cold.render()));
    };
    let warm = client
        .submit("nn", Some("base"), Some(0xC0FFEE), &ovr)
        .map_err(io)?;
    let Reply::Ok(warm_json) = warm else {
        return Err(format!("warm submit not OK: {}", warm.render()));
    };
    if cold_json != warm_json {
        return Err("cache hit is not byte-identical to the cold run".to_string());
    }
    let bad = client
        .submit_raw("{\"workload\":\"nonesuch\"}")
        .map_err(io)?;
    let Reply::Err(_) = bad else {
        return Err(format!("invalid workload not refused: {}", bad.render()));
    };
    let traced = client
        .submit_traced("nn", Some("base"), Some(0xC0FFEE), &ovr)
        .map_err(io)?;
    let Reply::Ok(trace_json) = traced else {
        return Err(format!("traced submit not OK: {}", traced.render()));
    };
    gmh_serve::json::parse(&trace_json)
        .map_err(|e| format!("trace payload is not valid JSON: {e}"))?;
    if !trace_json.contains("\"traceEvents\"") {
        return Err("trace payload missing traceEvents".to_string());
    }
    let text = client.metrics().map_err(io)?;
    if !text.contains("gmh_build_info{version=") {
        return Err(format!("metrics missing gmh_build_info:\n{text}"));
    }
    if !text.contains("gmh_fetch_queueing_ps_bucket{level=") {
        return Err(format!("metrics missing latency histograms:\n{text}"));
    }
    let get =
        |name: &str| sample(&text, name).ok_or_else(|| format!("metrics missing {name}:\n{text}"));
    let accepted = get("gmh_requests_accepted_total")?;
    let completed = get("gmh_requests_completed_total")?;
    let shed = get("gmh_requests_shed_total")?;
    let errored = get("gmh_requests_errored_total")?;
    let timed_out = get("gmh_requests_timeout_total")?;
    let hits = get("gmh_cache_hits_total")?;
    if accepted != completed + shed + errored + timed_out {
        return Err(format!(
            "metrics do not reconcile: accepted={accepted} != completed={completed} \
             + shed={shed} + errored={errored} + timed_out={timed_out}"
        ));
    }
    if hits == 0 {
        return Err("expected at least one cache hit".to_string());
    }
    println!(
        "smoke ok: accepted={accepted} completed={completed} errored={errored} \
         cache_hits={hits} (counters reconcile, cache byte-identical)"
    );
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            addr = Some(it.next().ok_or("--addr needs a value")?);
        } else {
            rest.push(a);
        }
    }
    let addr = addr.ok_or_else(|| format!("--addr is required\n{}", usage()))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let io = |e: std::io::Error| format!("i/o error: {e}");

    match rest.first().map(String::as_str) {
        Some(cmd @ ("submit" | "trace")) => {
            let workload = rest.get(1).ok_or_else(usage)?;
            let mut label = None;
            let mut seed = None;
            let mut overrides = Vec::new();
            let mut i = 2;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--label" => {
                        label = Some(rest.get(i + 1).ok_or("--label needs a value")?.clone());
                        i += 2;
                    }
                    "--seed" => {
                        seed = Some(
                            rest.get(i + 1)
                                .ok_or("--seed needs a value")?
                                .parse()
                                .map_err(|_| "--seed needs an integer")?,
                        );
                        i += 2;
                    }
                    "--set" => {
                        let kv = rest.get(i + 1).ok_or("--set needs KEY=N")?;
                        let (k, v) = kv.split_once('=').ok_or("--set needs KEY=N")?;
                        overrides.push((
                            k.to_string(),
                            v.parse().map_err(|_| format!("--set {k}: bad integer"))?,
                        ));
                        i += 2;
                    }
                    other => return Err(format!("unknown {cmd} flag {other:?}\n{}", usage())),
                }
            }
            if cmd == "trace" {
                let reply = client
                    .submit_traced(workload, label.as_deref(), seed, &overrides)
                    .map_err(io)?;
                // Print the trace payload bare so the output is a loadable
                // JSON document, not a protocol line.
                if let Reply::Ok(json) = &reply {
                    println!("{json}");
                    return Ok(ExitCode::SUCCESS);
                }
                return Ok(reply_exit(&reply));
            }
            let reply = client
                .submit(workload, label.as_deref(), seed, &overrides)
                .map_err(io)?;
            Ok(reply_exit(&reply))
        }
        Some("tune") => {
            let mut preset = None;
            let mut workloads = Vec::new();
            let mut max_area = None;
            let mut ints = Vec::new();
            let mut i = 1;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--preset" => {
                        preset = Some(rest.get(i + 1).ok_or("--preset needs a value")?.clone());
                        i += 2;
                    }
                    "--workloads" => {
                        let list = rest.get(i + 1).ok_or("--workloads needs A,B,C")?;
                        workloads = list.split(',').map(str::to_string).collect();
                        i += 2;
                    }
                    "--max-area" => {
                        max_area = Some(
                            rest.get(i + 1)
                                .ok_or("--max-area needs a percentage")?
                                .parse()
                                .map_err(|_| "--max-area needs a number")?,
                        );
                        i += 2;
                    }
                    "--set" => {
                        let kv = rest.get(i + 1).ok_or("--set needs KEY=N")?;
                        let (k, v) = kv.split_once('=').ok_or("--set needs KEY=N")?;
                        ints.push((
                            k.to_string(),
                            v.parse().map_err(|_| format!("--set {k}: bad integer"))?,
                        ));
                        i += 2;
                    }
                    other => return Err(format!("unknown tune flag {other:?}\n{}", usage())),
                }
            }
            let reply = client
                .tune(preset.as_deref(), &workloads, max_area, &ints)
                .map_err(io)?;
            // Like `trace`: print the frontier payload bare so the output
            // is a loadable JSON document.
            if let Reply::Ok(json) = &reply {
                println!("{json}");
                return Ok(ExitCode::SUCCESS);
            }
            Ok(reply_exit(&reply))
        }
        Some("metrics") => {
            print!("{}", client.metrics().map_err(io)?);
            Ok(ExitCode::SUCCESS)
        }
        Some("ping") => Ok(reply_exit(&client.ping().map_err(io)?)),
        Some("shutdown") => Ok(reply_exit(&client.shutdown().map_err(io)?)),
        Some("smoke") => {
            smoke(&mut client)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage().to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("gmh-client: {msg}");
            ExitCode::FAILURE
        }
    }
}
