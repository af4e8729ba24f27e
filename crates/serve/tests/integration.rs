//! End-to-end service behavior over real loopback sockets: bounded
//! admission sheds with `BUSY` under concurrent load, repeats are served
//! byte-identically from the result cache, slow jobs draw `TIMEOUT`,
//! shutdown drains in-flight work, and the metrics ledger reconciles
//! (`accepted = completed + shed + errored + timed_out`).

use gmh_exp::cache::DiskCache;
use gmh_exp::tune::{frontier_json, run_search, TuneParams};
use gmh_serve::metrics::sample;
use gmh_serve::protocol::{tune_line, Reply};
use gmh_serve::server::{spawn, ServerConfig, ServerHandle};
use gmh_serve::Client;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gmh-serve-itest-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn boot(tag: &str, workers: usize, queue: usize, timeout_ms: u64) -> (ServerHandle, PathBuf) {
    let dir = temp_cache_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        job_timeout_ms: timeout_ms,
        cache_dir: dir.clone(),
    })
    .expect("spawn test server");
    (handle, dir)
}

/// Small enough to complete in well under a second even in debug builds.
fn tiny_overrides() -> Vec<(String, u64)> {
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

/// Runs long enough (hundreds of ms in debug builds) to hold a worker while
/// other clients pile into the admission queue.
fn slow_overrides() -> Vec<(String, u64)> {
    [
        ("n_cores", 1),
        ("max_core_cycles", 1_500_000),
        ("telemetry_window", 4096),
        ("warps_per_core", 8),
        ("insts_per_warp", 1_000_000),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

#[test]
fn concurrent_clients_all_get_terminal_replies_and_queue_full_sheds_busy() {
    // One worker, one queue slot: of 8 simultaneous clients — six distinct
    // slow jobs, one duplicate of a slow job, one invalid request — at most
    // a couple of jobs can be admitted before the queue fills; the rest of
    // the valid traffic must shed, and the invalid request draws ERR.
    let (handle, dir) = boot("busy", 1, 1, 120_000);
    let addr = handle.addr;
    let n = 8;
    let barrier = Barrier::new(n);
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..n {
            let barrier = &barrier;
            joins.push(scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                match i {
                    // Invalid: unknown workload, refused outright.
                    6 => c.submit_raw(r#"{"workload":"xyzzy"}"#),
                    // Duplicate of client 0's job (same key).
                    7 => c.submit("mm", Some("base"), Some(9000), &slow_overrides()),
                    _ => c.submit("mm", Some("base"), Some(9000 + i as u64), &slow_overrides()),
                }
                .expect("terminal reply")
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });

    let ok = replies.iter().filter(|r| matches!(r, Reply::Ok(_))).count();
    let busy = replies
        .iter()
        .filter(|r| matches!(r, Reply::Busy { .. }))
        .count();
    let err = replies
        .iter()
        .filter(|r| matches!(r, Reply::Err(_)))
        .count();
    assert_eq!(
        ok + busy + err,
        n,
        "every client got a terminal reply: {replies:?}"
    );
    assert!(ok >= 1, "at least the first admitted job completes");
    assert!(busy >= 1, "a full queue must shed with BUSY: {replies:?}");
    assert_eq!(err, 1, "exactly the invalid request errors: {replies:?}");
    for r in &replies {
        if let Reply::Busy { retry_after_ms } = r {
            assert!(*retry_after_ms > 0, "retry hint must be positive");
        }
    }

    let text = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .expect("metrics");
    let get = |name: &str| sample(&text, name).unwrap_or_else(|| panic!("missing {name}"));
    assert_eq!(get("gmh_requests_accepted_total"), n as u64);
    assert_eq!(get("gmh_requests_completed_total"), ok as u64);
    assert_eq!(get("gmh_requests_shed_total"), busy as u64);
    assert_eq!(get("gmh_requests_errored_total"), err as u64);

    let mut c = Client::connect(addr).expect("connect");
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_server_sheds_with_the_explicit_default_retry_hint() {
    use gmh_serve::metrics::DEFAULT_RETRY_AFTER_MS;
    // Regression (wire level): the BUSY hint derives from mean completed-
    // job wall time, which is undefined exactly when shedding is most
    // likely — a cold daemon hit by its first burst has zero completed
    // fresh runs. The shed reply must carry the explicit default, not 0
    // (an instruction to hammer the queue) and not division-by-zero
    // garbage.
    let (handle, dir) = boot("coldbusy", 1, 1, 120_000);
    let addr = handle.addr;

    // Occupy the single worker, then the single queue slot, with slow
    // jobs — staggered, because two simultaneous submissions can race into
    // the one queue slot before the worker pops the first (the second
    // would then itself shed and the server would never saturate). The
    // gauge polls go through the metrics endpoint, i.e. also over the
    // wire.
    let wait_for = |gauge: &str| {
        for _ in 0..600 {
            let text = Client::connect(addr)
                .and_then(|mut c| c.metrics())
                .expect("metrics");
            if sample(&text, gauge) == Some(1) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("{gauge} never reached 1");
    };
    // A fifth of a slow job: still seconds in a debug build — orders of
    // magnitude longer than the saturation-confirmed probe below needs —
    // without making the post-shutdown drain dominate the test.
    let occupier_overrides = || {
        let mut o = slow_overrides();
        for (k, v) in &mut o {
            if k == "max_core_cycles" {
                *v = 300_000;
            }
        }
        o
    };
    let mut occupiers = Vec::new();
    for (i, gauge) in [(0u64, "gmh_jobs_inflight"), (1, "gmh_queue_depth")] {
        occupiers.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.submit("mm", Some("base"), Some(7700 + i), &occupier_overrides())
                .expect("terminal reply")
        }));
        wait_for(gauge);
    }

    let mut c = Client::connect(addr).expect("connect");
    let reply = c
        .submit("mm", Some("base"), Some(7777), &slow_overrides())
        .expect("terminal reply");
    match reply {
        Reply::Busy { retry_after_ms } => assert_eq!(
            retry_after_ms, DEFAULT_RETRY_AFTER_MS,
            "cold-server shed must carry the explicit default hint"
        ),
        other => panic!("expected BUSY from a saturated cold server, got {other:?}"),
    }

    let mut c = Client::connect(addr).expect("connect");
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    for j in occupiers {
        assert!(
            matches!(j.join().expect("client thread"), Reply::Ok(_)),
            "occupying jobs drain through shutdown"
        );
    }
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_job_is_byte_identical_from_cache_and_metrics_reconcile() {
    let (handle, dir) = boot("cache", 2, 4, 120_000);
    let addr = handle.addr;
    let mut c = Client::connect(addr).expect("connect");
    let ovr = tiny_overrides();

    let Reply::Ok(first) = c
        .submit("nn", Some("base"), Some(42), &ovr)
        .expect("submit")
    else {
        panic!("cold run must succeed");
    };
    let Reply::Ok(second) = c
        .submit("nn", Some("base"), Some(42), &ovr)
        .expect("submit")
    else {
        panic!("warm run must succeed");
    };
    assert_eq!(first, second, "cache hit must be byte-identical");

    // A different seed is a different key — no false sharing.
    let Reply::Ok(third) = c
        .submit("nn", Some("base"), Some(43), &ovr)
        .expect("submit")
    else {
        panic!("distinct-seed run must succeed");
    };
    assert_ne!(first, third, "distinct seeds must not collide in the cache");

    // Mix in some refused traffic, then check the ledger.
    assert!(matches!(
        c.submit_raw(r#"{"workload":"nope"}"#).expect("reply"),
        Reply::Err(_)
    ));
    let text = c.metrics().expect("metrics");
    let get = |name: &str| sample(&text, name).unwrap_or_else(|| panic!("missing {name}"));
    assert_eq!(get("gmh_cache_hits_total"), 1);
    assert_eq!(get("gmh_cache_misses_total"), 2);
    assert_eq!(
        get("gmh_requests_accepted_total"),
        get("gmh_requests_completed_total")
            + get("gmh_requests_shed_total")
            + get("gmh_requests_errored_total")
            + get("gmh_requests_timeout_total"),
        "accepted must reconcile with terminal outcomes:\n{text}"
    );

    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_job_returns_chrome_trace_and_histograms_go_live() {
    let (handle, dir) = boot("trace", 2, 4, 120_000);
    let mut c = Client::connect(handle.addr).expect("connect");
    let ovr = tiny_overrides();

    // PING carries the build metadata.
    let Reply::Ok(pong) = c.ping().expect("ping") else {
        panic!("ping must return OK");
    };
    assert!(pong.contains("\"version\""), "{pong}");
    assert!(pong.contains("\"git_sha\""), "{pong}");

    // A traced job answers with Chrome-trace JSON, not a report.
    let Reply::Ok(trace_json) = c
        .submit_traced("nn", Some("base"), Some(42), &ovr)
        .expect("traced submit")
    else {
        panic!("traced run must succeed");
    };
    let doc = gmh_serve::json::parse(&trace_json).expect("trace payload parses");
    assert!(
        matches!(
            doc.get("traceEvents"),
            Some(gmh_serve::json::Json::Arr(a)) if !a.is_empty()
        ),
        "traceEvents must be a non-empty array"
    );
    assert!(
        doc.get("workload").is_none(),
        "trace payload must not be the report"
    );

    // Tracing is observation only: the same job submitted untraced still
    // produces (and caches) the ordinary report.
    let Reply::Ok(report) = c
        .submit("nn", Some("base"), Some(42), &ovr)
        .expect("submit")
    else {
        panic!("untraced run must succeed");
    };
    assert!(report.contains("\"workload\":\"nn\""));

    // Both fresh runs fed the live latency histograms; build info renders.
    let text = c.metrics().expect("metrics");
    assert!(text.contains("gmh_build_info{version="), "{text}");
    assert!(
        text.contains("# TYPE gmh_fetch_queueing_ps histogram"),
        "{text}"
    );
    for level in ["l1", "icnt", "l2", "dram"] {
        assert!(
            text.contains(&format!("gmh_fetch_queueing_ps_count{{level=\"{level}\"}}")),
            "missing queueing count for {level}:\n{text}"
        );
    }
    let l1_count = text
        .lines()
        .find_map(|l| l.strip_prefix("gmh_fetch_queueing_ps_count{level=\"l1\"}"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("l1 queueing count present");
    assert!(l1_count > 0, "fresh runs must populate the histograms");

    // The ledger still reconciles with the trace path in the mix.
    let get = |name: &str| sample(&text, name).unwrap_or_else(|| panic!("missing {name}"));
    assert_eq!(
        get("gmh_requests_accepted_total"),
        get("gmh_requests_completed_total")
            + get("gmh_requests_shed_total")
            + get("gmh_requests_errored_total")
            + get("gmh_requests_timeout_total"),
        "accepted must reconcile with terminal outcomes:\n{text}"
    );

    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_server_restart() {
    let dir = temp_cache_dir("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |d: &PathBuf| ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 2,
        job_timeout_ms: 120_000,
        cache_dir: d.clone(),
    };
    let ovr = tiny_overrides();

    let handle = spawn(cfg(&dir)).expect("first server");
    let mut c = Client::connect(handle.addr).expect("connect");
    let Reply::Ok(first) = c.submit("mm", Some("base"), Some(7), &ovr).expect("submit") else {
        panic!("cold run must succeed");
    };
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();

    // A fresh process-equivalent: new server, same cache directory.
    let handle = spawn(cfg(&dir)).expect("second server");
    let mut c = Client::connect(handle.addr).expect("connect");
    let Reply::Ok(again) = c.submit("mm", Some("base"), Some(7), &ovr).expect("submit") else {
        panic!("warm run must succeed");
    };
    assert_eq!(first, again, "restart must serve the stored bytes");
    let text = c.metrics().expect("metrics");
    assert_eq!(sample(&text, "gmh_cache_hits_total"), Some(1));
    assert_eq!(sample(&text, "gmh_cache_misses_total"), Some(0));
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_job_draws_timeout() {
    let (handle, dir) = boot("timeout", 1, 2, 25);
    let addr = handle.addr;
    let mut c = Client::connect(addr).expect("connect");
    let r = c
        .submit("mm", Some("base"), Some(77), &slow_overrides())
        .expect("terminal reply");
    let Reply::Timeout { after_ms } = r else {
        panic!("a 25ms budget must expire: {r:?}");
    };
    assert_eq!(after_ms, 25);
    // A search past its budget is stopped too: TIMEOUT, never ERR, and
    // never the frontier of the stages it happened to finish.
    let r = c
        .tune(Some("paper"), &[], None, &[("seed".to_string(), 3)])
        .expect("terminal reply");
    assert_eq!(r, Reply::Timeout { after_ms: 25 }, "a stopped search");
    let text = c.metrics().expect("metrics");
    assert_eq!(sample(&text, "gmh_requests_timeout_total"), Some(2));
    assert_eq!(
        sample(&text, "gmh_tune_evals_total"),
        Some(0),
        "no search completed"
    );
    assert_eq!(
        sample(&text, "gmh_requests_accepted_total"),
        Some(2),
        "timeout is a terminal outcome, accounted once"
    );
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One spec, two front doors: the daemon's `"tune"` job writes the frontier
/// the library search writes for SPEC, as `gmh-exp tune SPEC` does (that
/// half is in `tests/exp_cli.rs`); over the daemon's cache directory the
/// library replays the daemon's entries.
#[test]
fn the_daemon_and_the_cli_answer_one_tune_spec_identically() {
    const SPEC: &str = r#"{"preset":"smoke","seed":5}"#;
    let (handle, dir) = boot("doors", 1, 2, 120_000);
    let mut c = Client::connect(handle.addr).expect("connect");
    let seed = [("seed".to_string(), 5)];
    let line = tune_line(Some("smoke"), &[], None, &seed);
    assert_eq!(line, format!("{{\"tune\":{SPEC}}}"));
    let Reply::Ok(served) = c.tune(Some("smoke"), &[], None, &seed).expect("reply") else {
        panic!("the daemon's search must complete");
    };
    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();

    let spec = gmh_serve::json::parse(SPEC).expect("SPEC is JSON");
    let params = TuneParams::from_json(&spec).expect("SPEC is a search spec");
    let cache = DiskCache::open(&dir).expect("the daemon's cache opens");
    let run = run_search(&cache, &params).expect("the search runs");
    assert_eq!(run.fresh_sims, 0, "a replay of the daemon's entries");
    assert_eq!(frontier_json(&params, &run), served);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_jobs_run_reuse_the_cache_and_reconcile_metrics() {
    let (handle, dir) = boot("tune", 2, 4, 120_000);
    let addr = handle.addr;
    let mut c = Client::connect(addr).expect("connect");

    // Cold search: the smoke preset, small enough for a debug build.
    let cold = c
        .tune(Some("smoke"), &[], None, &[("seed".to_string(), 11)])
        .expect("terminal reply");
    let Reply::Ok(cold_json) = cold else {
        panic!("cold tune must complete: {cold:?}");
    };
    assert!(cold_json.contains("\"complete\":true"), "{cold_json}");
    assert!(cold_json.contains("\"frontier\":[{"), "{cold_json}");

    let text = c.metrics().expect("metrics");
    let get = |t: &str, name: &str| sample(t, name).unwrap_or_else(|| panic!("missing {name}"));
    let cold_sims = get(&text, "gmh_tune_fresh_sims_total");
    assert!(cold_sims > 0, "a cold search must simulate");

    // Warm repeat: byte-identical frontier, zero fresh simulations — the
    // search replays entirely from the shared result cache.
    let warm = c
        .tune(Some("smoke"), &[], None, &[("seed".to_string(), 11)])
        .expect("terminal reply");
    let Reply::Ok(warm_json) = warm else {
        panic!("warm tune must complete: {warm:?}");
    };
    assert_eq!(cold_json, warm_json, "warm search must be byte-identical");
    let text = c.metrics().expect("metrics");
    assert_eq!(
        get(&text, "gmh_tune_fresh_sims_total"),
        cold_sims,
        "a warm search must not simulate"
    );
    assert!(get(&text, "gmh_tune_cache_hits_total") > 0);

    // A budget too small to even score the baseline still gets a terminal
    // OK, marked incomplete.
    let tiny = c
        .tune(
            Some("smoke"),
            &[],
            None,
            &[("seed".to_string(), 11), ("budget".to_string(), 3)],
        )
        .expect("terminal reply");
    let Reply::Ok(tiny_json) = tiny else {
        panic!("budget-starved tune must still answer OK: {tiny:?}");
    };
    assert!(tiny_json.contains("\"complete\":false"), "{tiny_json}");

    // Over-cap and invalid requests draw ERR without touching a worker.
    let over = c
        .tune(Some("smoke"), &[], None, &[("budget".to_string(), 100_000)])
        .expect("terminal reply");
    assert!(
        matches!(over, Reply::Err(ref e) if e.contains("cap")),
        "{over:?}"
    );

    let text = c.metrics().expect("metrics");
    // Three searches reached admission; the over-cap one was refused at
    // parse time (counted accepted + errored, not as a search).
    assert_eq!(get(&text, "gmh_tune_requests_total"), 3);
    assert!(get(&text, "gmh_tune_evals_total") > 0);
    let accepted = get(&text, "gmh_requests_accepted_total");
    let completed = get(&text, "gmh_requests_completed_total");
    let shed = get(&text, "gmh_requests_shed_total");
    let errored = get(&text, "gmh_requests_errored_total");
    let timed_out = get(&text, "gmh_requests_timeout_total");
    assert_eq!(
        accepted,
        completed + shed + errored + timed_out,
        "ledger must reconcile with tune traffic in the mix"
    );

    assert!(matches!(c.shutdown().expect("shutdown"), Reply::Ok(_)));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_in_flight_work_then_refuses_connections() {
    let (handle, dir) = boot("drain", 1, 2, 120_000);
    let addr = handle.addr;

    // A slow job occupies the worker...
    let job = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.submit("mm", Some("base"), Some(5150), &slow_overrides())
            .expect("terminal reply")
    });
    // ...give it a moment to be admitted...
    std::thread::sleep(std::time::Duration::from_millis(100));

    // ...then ask for shutdown: the reply arrives only after the drain.
    let mut c = Client::connect(addr).expect("connect");
    let r = c.shutdown().expect("shutdown reply");
    assert!(matches!(r, Reply::Ok(_)), "graceful shutdown: {r:?}");

    let job_reply = job.join().expect("client thread");
    assert!(
        matches!(job_reply, Reply::Ok(_)),
        "in-flight job must be drained, not dropped: {job_reply:?}"
    );

    handle.join();
    // The listener is gone; new connections must fail.
    assert!(
        Client::connect(addr).is_err(),
        "a drained server must not accept new connections"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
