//! The daemon's ledger, end to end against the `gmh-serve` binary: every
//! request counted in `gmh_requests_accepted_total` writes exactly one
//! `{"gmh_job":…}` line on stderr, whatever its outcome, and each outcome's
//! lines match its counter. A `TIMEOUT` leaves nothing simulating: the
//! daemon is idle once both timed-out jobs have been answered.

use gmh_serve::json::{self, Json};
use gmh_serve::metrics::sample;
use gmh_serve::{Client, Reply, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Small enough to finish in well under a second even in a debug build.
fn tiny() -> Vec<(String, u64)> {
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

/// The whole baseline machine to the run-length cap: seconds even in a
/// release build, so it outlives the daemon's 2 s budget.
fn slow() -> Vec<(String, u64)> {
    vec![("insts_per_warp".to_string(), 1_000_000)]
}

/// CPU seconds process `pid` has used so far (`utime + stime` of
/// `/proc/<pid>/stat`, which counts in USER_HZ = 100 ticks per second).
#[cfg(target_os = "linux")]
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("/proc/<pid>/stat");
    // The fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("(comm)") + 1..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("a tick count");
    (ticks(14 - 3) + ticks(15 - 3)) as f64 / 100.0
}

/// Kills the daemon if the test fails before it shuts the daemon down.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn every_counted_request_writes_one_log_line_and_the_ledger_balances() {
    let dir = std::env::temp_dir().join(format!("gmh-serve-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gmh-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "1"])
        .args(["--timeout-ms", "2000", "--cache-dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gmh-serve starts");
    let mut banner = String::new();
    let mut stdout = BufReader::new(daemon.stdout.take().expect("stdout piped"));
    let mut daemon = Daemon(Some(daemon));
    stdout.read_line(&mut banner).expect("listening banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("gmh-serve listening on ADDR ...")
        .to_string();
    let mut c = Client::connect(&addr).expect("connect");

    // A miss, then its hit.
    for _ in 0..2 {
        let r = c.submit("nn", None, Some(1), &tiny()).expect("reply");
        assert!(matches!(r, Reply::Ok(_)), "{r:?}");
    }
    // Refused before they name a job or a search: malformed, an unknown
    // workload, a search over its cap, a job over the run-length cap.
    let over_cap = format!(
        "{{\"workload\":\"nn\",\"config_overrides\":{{\"max_core_cycles\":{}}}}}",
        gmh_serve::protocol::MAX_RUN_CYCLES + 1
    );
    for line in [
        r#"{"workload":"#,
        r#"{"workload":"nonesuch"}"#,
        r#"{"tune":{"budget":100000}}"#,
        &over_cap,
    ] {
        let r = c.submit_raw(line).expect("reply");
        assert!(matches!(r, Reply::Err(_)), "{line}: {r:?}");
    }
    // A line over the cap is refused and its connection closed.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut refused = String::new();
    s.read_to_string(&mut refused).expect("ERR, then close");
    assert!(refused.starts_with("ERR "), "{refused:?}");

    // One slow job runs, one waits in the one queue slot, a third is shed;
    // the first two outlive the budget.
    let gauge_reaches_one = |name: &str| {
        for _ in 0..1_000 {
            let text = Client::connect(&addr).and_then(|mut m| m.metrics());
            if sample(&text.expect("metrics"), name) == Some(1) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("{name} never reached 1");
    };
    let mut slow_jobs = Vec::new();
    for (seed, gauge) in [(2, "gmh_jobs_inflight"), (3, "gmh_queue_depth")] {
        let addr = addr.clone();
        slow_jobs.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.submit("mm", None, Some(seed), &slow()).expect("reply")
        }));
        gauge_reaches_one(gauge);
    }
    let shed = c.submit("mm", None, Some(4), &slow()).expect("reply");
    assert!(matches!(shed, Reply::Busy { .. }), "{shed:?}");
    for job in slow_jobs {
        let r = job.join().expect("client thread");
        assert!(matches!(r, Reply::Timeout { .. }), "{r:?}");
    }
    // A TIMEOUT stopped its simulation: the idle daemon burns no CPU.
    #[cfg(target_os = "linux")]
    {
        let pid = daemon.0.as_ref().expect("still running").id();
        let before = cpu_seconds(pid);
        std::thread::sleep(Duration::from_secs(1));
        let used = cpu_seconds(pid) - before;
        assert!(used < 0.2, "the daemon used {used:.2} CPU-s while idle");
    }

    let text = c.metrics().expect("metrics");
    assert_eq!(sample(&text, "gmh_jobs_inflight"), Some(0), "{text}");
    let counter = |name: &str| sample(&text, name).unwrap_or_else(|| panic!("{name}:\n{text}"));
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    let daemon = daemon.0.take().expect("still running");
    let out = daemon.wait_with_output().expect("gmh-serve exits");
    assert!(out.status.success(), "{:?}", out.status);
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let lines: Vec<Json> = stderr
        .lines()
        .filter(|l| l.contains("\"gmh_job\""))
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    let count = |key: &str, value: &str| {
        let matches = |l: &&Json| l.get(key).and_then(Json::as_str) == Some(value);
        lines.iter().filter(matches).count() as u64
    };
    let accepted = counter("gmh_requests_accepted_total");
    let outcomes = [
        ("ok", "gmh_requests_completed_total", 2),
        ("busy", "gmh_requests_shed_total", 1),
        ("err", "gmh_requests_errored_total", 5),
        ("timeout", "gmh_requests_timeout_total", 2),
    ];
    assert_eq!(
        lines.len() as u64,
        accepted,
        "one log line per request:\n{stderr}"
    );
    let mut total = 0;
    for (outcome, name, expected) in outcomes {
        assert_eq!(
            count("outcome", outcome),
            counter(name),
            "{outcome}:\n{stderr}"
        );
        assert_eq!(counter(name), expected, "{name}:\n{text}");
        total += counter(name);
    }
    assert_eq!(accepted, total, "the ledger balances:\n{text}");
    assert_eq!(count("kind", "invalid"), 5, "{stderr}");
    assert_eq!(count("cache", "hit"), 1, "{stderr}");
}
