//! The `gmh-serve` daemon binary.
//!
//! ```text
//! gmh-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--timeout-ms N] [--cache-dir PATH]
//! ```
//!
//! Serves until a client sends `SHUTDOWN` (graceful: drains accepted jobs,
//! refuses new ones, flushes the cache index).

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]

use gmh_core::GpuConfig;
use gmh_serve::server::{spawn, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: gmh-serve [--addr HOST:PORT] [--workers N] [--queue N] \
     [--timeout-ms N] [--cache-dir PATH]"
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?.clone(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
            }
            "--queue" => {
                cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue needs a positive integer".to_string())?;
            }
            "--timeout-ms" => {
                cfg.job_timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms needs a positive integer".to_string())?;
            }
            "--cache-dir" => cfg.cache_dir = PathBuf::from(value("--cache-dir")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if cfg.workers == 0 || cfg.queue_capacity == 0 || cfg.job_timeout_ms == 0 {
        return Err("--workers, --queue and --timeout-ms must be positive".to_string());
    }
    // The admission queue is allocated whole at start-up, like a
    // simulator's queues, so it takes their bound; the default of twice the
    // workers is held to it too.
    if cfg.queue_capacity > GpuConfig::MAX_QUEUE_LEN {
        return Err(format!(
            "--queue {} is over the most a queue holds, {}",
            cfg.queue_capacity,
            GpuConfig::MAX_QUEUE_LEN
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let workers = cfg.workers;
    let queue = cfg.queue_capacity;
    let timeout = cfg.job_timeout_ms;
    let cache = cfg.cache_dir.display().to_string();
    match spawn(cfg) {
        Ok(handle) => {
            println!(
                "gmh-serve listening on {} (workers={workers}, queue={queue}, \
                 timeout={timeout}ms, cache={cache})",
                handle.addr
            );
            handle.join();
            println!("gmh-serve: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gmh-serve: cannot start: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let cfg = parse_args(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "5",
            "--timeout-ms",
            "750",
            "--cache-dir",
            "/tmp/c",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 5);
        assert_eq!(cfg.job_timeout_ms, 750);
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/c"));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--workers"])).is_err());
        assert!(parse_args(&s(&["--workers", "zero"])).is_err());
        assert!(parse_args(&s(&["--workers", "0"])).is_err());
        // A queue the daemon would try to allocate whole at start-up.
        assert!(parse_args(&s(&["--queue", "1099511627776"])).is_err());
    }
}
