//! The daemon: bounded admission, worker pool, cache, graceful shutdown.
//!
//! ## Request path
//!
//! ```text
//! conn thread:  read line → parse/validate → cache lookup
//!                 hit  → OK (byte-identical stored report)
//!                 miss → try_push(admission queue)
//!                          full → BUSY{retry_after_ms}     (load shed)
//!                          ok   → block on reply channel
//! worker:       pop → simulate on a helper thread → recv_timeout
//!                 done    → report_json → cache.put → OK
//!                 expired → TIMEOUT (helper is abandoned; the cycle cap
//!                           bounds how long it lingers)
//! ```
//!
//! The admission queue is a [`gmh_types::BoundedQueue`] — the same
//! back-pressure primitive the simulator itself is built on. When it fills,
//! the server *sheds* with an explicit `BUSY` instead of buffering
//! unboundedly: the paper's thesis (bounded queues + back-pressure decide
//! sustained throughput) applied to the service layer.
//!
//! Wall-clock time (`Instant`), locks and channels are used here
//! deliberately — job timeouts and service latency are *operational* time,
//! not model time, and the shared state decides which jobs run, never how
//! one simulates. `clippy.toml` bans all three in model crates; each use
//! below carries an `#[expect]` giving its reason.

use crate::metrics::{render_build_info, render_histograms, Gauges, Metrics};
use crate::protocol::{parse_request, JobRequest, Reply, Request, MAX_LINE_BYTES};
use gmh_core::GpuSim;
use gmh_exp::cache::{job_key, DiskCache};
use gmh_exp::{chrome_trace_json, report_json};
use gmh_tune::{frontier_json, run_search, TuneParams};
use gmh_types::{BoundedQueue, Level, LevelLatency};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port (tests).
    pub addr: String,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds with `BUSY`.
    pub queue_capacity: usize,
    /// Per-job wall-clock budget before the run is abandoned with
    /// `TIMEOUT`.
    pub job_timeout_ms: u64,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = gmh_exp::runner::threads();
        ServerConfig {
            addr: "127.0.0.1:7700".to_string(),
            workers,
            queue_capacity: 2 * workers,
            job_timeout_ms: 120_000,
            cache_dir: DiskCache::default_dir(),
        }
    }
}

/// The unit of work a worker executes.
enum Work {
    /// One simulation job (already past the cache fast path).
    Sim { job: Box<JobRequest>, key: u64 },
    /// One design-space search; its candidate evaluations fan out through
    /// the result cache (`run_search` reads and writes the same entries
    /// the sim path serves).
    Tune(Box<TuneParams>),
}

/// One admitted job waiting for a worker.
struct QueuedJob {
    id: u64,
    #[expect(
        clippy::disallowed_types,
        reason = "per-job wall-clock timeout and gmh_sim_wall_ms_total metric are service-layer \
            time, orthogonal to the simulation clock; results remain a pure function of (config, \
            seed)"
    )]
    enqueued_at: std::time::Instant,
    work: Work,
    #[expect(
        clippy::disallowed_types,
        reason = "the per-connection reply channel carries exactly one terminal reply by protocol \
            (every accepted request gets one reply, then the channel is dropped); occupancy is \
            bounded at 1 by construction"
    )]
    reply_tx: mpsc::Sender<Reply>,
}

/// The per-job structured log line: one JSON object, written to stderr at
/// every terminal outcome so operators can grep/parse the job history
/// without scraping METRICS. `queue_wait_ms` is admission-queue residency
/// (0 for jobs that never queue: cache hits, sheds, refusals); `run_ms` is
/// worker wall time (0 for the same). `dropped` is what the always-on
/// observers lost of a fresh run — `(trace events past trace_event_cap,
/// timed host spans past the timeline cap)`, `(0, 0)` wherever nothing was
/// observed — so a run whose live histograms cover only its head says so
/// somewhere an operator reads; the daemon renders neither table that
/// prints these counts.
fn job_log_line(
    id: u64,
    kind: &str,
    outcome: &str,
    cache: &str,
    queue_wait_ms: u64,
    run_ms: u64,
    (events_dropped, spans_dropped): (u64, u64),
) -> String {
    format!(
        "{{\"gmh_job\":{id},\"kind\":\"{kind}\",\"outcome\":\"{outcome}\",\
         \"cache\":\"{cache}\",\"queue_wait_ms\":{queue_wait_ms},\
         \"run_ms\":{run_ms},\"events_dropped\":{events_dropped},\
         \"spans_dropped\":{spans_dropped}}}"
    )
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Admission state guarded by one mutex.
struct Admission {
    queue: BoundedQueue<QueuedJob>,
    in_flight: usize,
    draining: bool,
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    metrics: Metrics,
    cache: DiskCache,
    #[expect(
        clippy::disallowed_types,
        reason = "the admission queue and in-flight count are service-layer shared state (which \
            jobs run, never how a job simulates); each job's GpuSim lives entirely on one worker \
            thread, so simulation results stay a pure function of (config, seed)"
    )]
    state: std::sync::Mutex<Admission>,
    /// Per-level queueing/service histograms merged from the sampled
    /// per-fetch trace of every fresh run (cache hits contribute nothing:
    /// they never simulate).
    #[expect(
        clippy::disallowed_types,
        reason = "the METRICS latency histograms are service-layer shared state, merged after \
            each fresh run and read only by METRICS; no simulation reads them, so results stay a \
            pure function of (config, seed)"
    )]
    latency: std::sync::Mutex<BTreeMap<Level, LevelLatency>>,
    #[expect(
        clippy::disallowed_types,
        reason = "work_ready/drained signal service-layer scheduling (worker wake-up, graceful \
            drain); no model state is shared across the wait"
    )]
    work_ready: std::sync::Condvar,
    #[expect(
        clippy::disallowed_types,
        reason = "work_ready/drained signal service-layer scheduling (worker wake-up, graceful \
            drain); no model state is shared across the wait"
    )]
    drained: std::sync::Condvar,
    stop_accept: AtomicBool,
}

/// A running server: its bound address plus the thread handles to join.
pub struct ServerHandle {
    /// The actual bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Blocks until the server has fully shut down (accept loop and all
    /// workers exited). Threads never panic in normal operation; a panic
    /// there is a bug we surface.
    pub fn join(self) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: server threads catch their own I/O errors; a panic is a \
                simulator bug and must fail loudly."
        )]
        self.accept.join().expect("accept thread panicked");
        for w in self.workers {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: a worker panics only on a simulator bug, which must fail \
                    loudly."
            )]
            w.join().expect("worker thread panicked");
        }
    }

    /// Snapshot of the metrics exposition (used by the bench harness).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }
}

/// Binds, spawns the worker pool and accept loop, and returns immediately.
///
/// # Errors
///
/// Propagates failures to bind the listener or open the cache directory.
pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let cache = DiskCache::open(&cfg.cache_dir)?;
    let shared = Arc::new(Shared {
        #[expect(
            clippy::disallowed_types,
            reason = "the admission queue and in-flight count are service-layer shared state \
                (which jobs run, never how a job simulates); each job's GpuSim lives entirely on \
                one worker thread, so simulation results stay a pure function of (config, seed)"
        )]
        state: std::sync::Mutex::new(Admission {
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            in_flight: 0,
            draining: false,
        }),
        metrics: Metrics::default(),
        cache,
        addr,
        cfg,
        #[expect(
            clippy::disallowed_types,
            reason = "the METRICS latency histograms are service-layer shared state, merged after \
                each fresh run and read only by METRICS; no simulation reads them, so results \
                stay a pure function of (config, seed)"
        )]
        latency: std::sync::Mutex::new(Level::ALL.map(|l| (l, LevelLatency::default())).into()),
        #[expect(
            clippy::disallowed_types,
            reason = "work_ready/drained signal service-layer scheduling (worker wake-up, \
                graceful drain); no model state is shared across the wait"
        )]
        work_ready: std::sync::Condvar::new(),
        #[expect(
            clippy::disallowed_types,
            reason = "work_ready/drained signal service-layer scheduling (worker wake-up, \
                graceful drain); no model state is shared across the wait"
        )]
        drained: std::sync::Condvar::new(),
        stop_accept: AtomicBool::new(false),
    });

    let mut workers = Vec::new();
    for i in 0..shared.cfg.workers.max(1) {
        let sh = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("gmh-worker-{i}"))
                .spawn(move || worker_loop(&sh))?,
        );
    }
    let sh = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("gmh-accept".to_string())
        .spawn(move || accept_loop(&sh, listener))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept,
        workers,
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stop_accept.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => {
                let sh = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("gmh-conn".to_string())
                    .spawn(move || {
                        if let Err(e) = handle_connection(&sh, s) {
                            eprintln!("gmh-serve: connection error: {e}");
                        }
                    });
                if let Err(e) = spawned {
                    eprintln!("gmh-serve: cannot spawn connection thread: {e}");
                }
            }
            Err(e) => eprintln!("gmh-serve: accept error: {e}"),
        }
    }
}

/// Outcome of reading one request line under the size cap.
enum LineRead {
    Eof,
    Line(String),
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// [`MAX_LINE_BYTES`]; the remainder of an oversized line is left for the
/// caller, which refuses, drains (bounded), and closes.
fn read_line_capped(r: &mut impl BufRead) -> io::Result<LineRead> {
    let mut out: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&out).into_owned())
            });
        }
        let (chunk, found_nl) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (&buf[..nl], true),
            None => (buf, false),
        };
        if out.len() + chunk.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
        out.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(found_nl);
        r.consume(consumed);
        if found_nl {
            return Ok(LineRead::Line(String::from_utf8_lossy(&out).into_owned()));
        }
    }
}

/// Consumes and discards input until EOF or `cap` bytes, whichever first.
fn drain_until_eof(r: &mut impl BufRead, cap: usize) -> io::Result<()> {
    let mut drained = 0usize;
    loop {
        let n = r.fill_buf()?.len();
        if n == 0 {
            return Ok(());
        }
        r.consume(n);
        drained += n;
        if drained > cap {
            return Ok(());
        }
    }
}

fn write_reply(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_line_capped(&mut reader)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                // A terminal reply even for unparseable-by-size requests.
                Metrics::inc(&shared.metrics.accepted);
                Metrics::inc(&shared.metrics.errored);
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                write_reply(&mut writer, &Reply::Err(msg).render())?;
                // Drain (bounded) what the client already sent before
                // closing: closing with unread bytes in the receive buffer
                // resets the connection and can destroy the ERR reply in
                // flight. Past the drain cap we close anyway — an abusive
                // sender gets the reset.
                drain_until_eof(&mut reader, 4 * MAX_LINE_BYTES)?;
                return Ok(());
            }
            LineRead::Line(l) => l,
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(msg) => {
                Metrics::inc(&shared.metrics.accepted);
                Metrics::inc(&shared.metrics.errored);
                write_reply(&mut writer, &Reply::Err(msg).render())?;
            }
            Ok(Request::Ping) => {
                let line = format!(
                    "OK {{\"pong\":true,\"version\":\"{}\",\"git_sha\":\"{}\"}}",
                    env!("CARGO_PKG_VERSION"),
                    env!("GMH_GIT_SHA"),
                );
                write_reply(&mut writer, &line)?;
            }
            Ok(Request::Metrics) => {
                let text = shared.metrics_text();
                writer.write_all(b"METRICS\n")?;
                writer.write_all(text.as_bytes())?;
                writer.write_all(b"END\n")?;
            }
            Ok(Request::Shutdown) => {
                shared.begin_shutdown();
                // Reply before releasing the accept loop: once it exits the
                // daemon process may terminate, and this thread (not joined)
                // would die with the OK still unwritten.
                let sent = write_reply(
                    &mut writer,
                    "OK {\"shutdown\":\"complete\",\"drained\":true}",
                );
                shared.stop_accepting();
                return sent;
            }
            Ok(Request::Job(job)) => {
                let reply = submit_job(shared, job);
                write_reply(&mut writer, &reply.render())?;
            }
            Ok(Request::Tune(params)) => {
                let reply = submit_tune(shared, params);
                write_reply(&mut writer, &reply.render())?;
            }
        }
    }
}

/// Admits (or refuses/sheds) one validated job and waits for its terminal
/// reply.
fn submit_job(shared: &Arc<Shared>, job: Box<JobRequest>) -> Reply {
    Metrics::inc(&shared.metrics.accepted);
    let id = shared.metrics.next_job_id();
    let key = job_key(&job.label, &job.config, &job.workload);

    // Cache first: a hit bypasses admission entirely — repeats are free and
    // byte-identical, even while the queue is saturated. Traced jobs skip
    // the cache both ways: it stores reports, not traces.
    let cache = if job.trace { "bypass" } else { "miss" };
    if !job.trace {
        if let Some(json) = shared.cache.get(key) {
            Metrics::inc(&shared.metrics.cache_hits);
            Metrics::inc(&shared.metrics.completed);
            eprintln!("{}", job_log_line(id, "sim", "ok", "hit", 0, 0, (0, 0)));
            return Reply::Ok(json);
        }
        Metrics::inc(&shared.metrics.cache_misses);
    }
    enqueue(shared, id, "sim", cache, Work::Sim { job, key })
}

/// Admits (or refuses/sheds) one validated tune search. Searches go
/// through the same bounded admission queue as simulation jobs: one search
/// occupies one worker slot, and its internal fan-out is budget-limited by
/// the protocol caps.
fn submit_tune(shared: &Arc<Shared>, params: Box<TuneParams>) -> Reply {
    Metrics::inc(&shared.metrics.accepted);
    Metrics::inc(&shared.metrics.tune_requests);
    let id = shared.metrics.next_job_id();
    enqueue(shared, id, "tune", "none", Work::Tune(params))
}

/// Pushes one unit of work through bounded admission and waits for its
/// terminal reply. `kind`/`cache` only feed the structured log
/// line (refusals and sheds log here; admitted work logs from the worker).
fn enqueue(shared: &Arc<Shared>, id: u64, kind: &str, cache: &str, work: Work) -> Reply {
    #[expect(
        clippy::disallowed_methods,
        reason = "the per-connection reply channel carries exactly one terminal reply by protocol \
            (every accepted request gets one reply, then the channel is dropped); occupancy is \
            bounded at 1 by construction"
    )]
    let (reply_tx, reply_rx) = mpsc::channel();
    {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                poisoned."
        )]
        let mut st = shared.state.lock().expect("admission lock");
        if st.draining {
            Metrics::inc(&shared.metrics.errored);
            eprintln!("{}", job_log_line(id, kind, "err", cache, 0, 0, (0, 0)));
            return Reply::Err("server is shutting down".to_string());
        }
        let queued = QueuedJob {
            id,
            #[expect(
                clippy::disallowed_types,
                reason = "per-job wall-clock timeout and gmh_sim_wall_ms_total metric are \
                    service-layer time, orthogonal to the simulation clock; results remain a pure \
                    function of (config, seed)"
            )]
            enqueued_at: std::time::Instant::now(),
            work,
            reply_tx,
        };
        if st.queue.push(queued).is_err() {
            // Back-pressure: shed explicitly instead of buffering.
            Metrics::inc(&shared.metrics.shed);
            eprintln!("{}", job_log_line(id, kind, "busy", cache, 0, 0, (0, 0)));
            return Reply::Busy {
                retry_after_ms: shared.metrics.avg_job_ms(),
            };
        }
    }
    shared.work_ready.notify_one();
    // The worker always sends exactly one terminal reply; a closed channel
    // means the server is tearing down mid-job.
    reply_rx
        .recv()
        .unwrap_or_else(|_| Reply::Err("server dropped the job (shutdown?)".to_string()))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let next = {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                    poisoned."
            )]
            let st = shared.state.lock().expect("admission lock");
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: wait_while() fails only on a poisoned admission mutex, and \
                    its holders never panic."
            )]
            let mut st = shared
                .work_ready
                .wait_while(st, |st| st.queue.is_empty() && !st.draining)
                .expect("admission lock");
            // Woken with work queued, or draining with none left.
            let next = st.queue.pop();
            if next.is_some() {
                st.in_flight += 1;
            }
            next
        };
        let Some(QueuedJob {
            id,
            enqueued_at,
            work,
            reply_tx,
        }) = next
        else {
            // Draining and the queue is dry: this worker is done. Wake any
            // drain waiter in case we were the last.
            shared.drained.notify_all();
            return;
        };
        let queue_wait_ms = millis(enqueued_at.elapsed());
        let reply = match work {
            Work::Sim { job, key } => execute_job(shared, *job, key, id, queue_wait_ms),
            Work::Tune(params) => execute_tune(shared, *params, id, queue_wait_ms),
        };
        reply_tx.send(reply).ok(); // client may have disconnected
        {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                    poisoned."
            )]
            let mut st = shared.state.lock().expect("admission lock");
            st.in_flight -= 1;
            if st.queue.is_empty() && st.in_flight == 0 {
                shared.drained.notify_all();
            }
        }
    }
}

/// Runs `f` on a helper thread named `gmh-{kind}` under the per-job
/// wall-clock budget. A failed spawn counts `errored`, logs `err` and
/// answers `ERR`; an expired budget counts `timed_out`, logs `timeout` and
/// answers `TIMEOUT`. `log(outcome, run_ms)` writes the job's log line.
fn run_budgeted<T: Send + 'static>(
    shared: &Shared,
    kind: &str,
    log: impl Fn(&str, u64),
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Reply> {
    #[expect(
        clippy::disallowed_types,
        reason = "per-job wall-clock timeout and gmh_sim_wall_ms_total metric are service-layer \
            time, orthogonal to the simulation clock; results remain a pure function of (config, \
            seed)"
    )]
    let started = std::time::Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "the helper's result channel carries exactly one value, the job's result, and is \
            then dropped; occupancy is bounded at 1 by construction"
    )]
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::Builder::new()
        .name(format!("gmh-{kind}"))
        .spawn(move || {
            tx.send(f()).ok();
        });
    if helper.is_err() {
        Metrics::inc(&shared.metrics.errored);
        log("err", 0);
        let what = if kind == "sim" { "simulation" } else { kind };
        return Err(Reply::Err(format!("cannot spawn {what} thread")));
    }
    let timeout = Duration::from_millis(shared.cfg.job_timeout_ms);
    rx.recv_timeout(timeout).map_err(|_| {
        // The helper is abandoned, not killed: the simulator's cycle cap
        // (`max_core_cycles`) or the search's evaluation budget bounds how
        // long it can linger, and its eventual result is discarded. The
        // worker moves on immediately.
        Metrics::inc(&shared.metrics.timed_out);
        log("timeout", millis(started.elapsed()));
        Reply::Timeout {
            after_ms: shared.cfg.job_timeout_ms,
        }
    })
}

/// Runs one job under the wall-clock budget.
fn execute_job(
    shared: &Arc<Shared>,
    job: JobRequest,
    key: u64,
    id: u64,
    queue_wait_ms: u64,
) -> Reply {
    #[expect(
        clippy::disallowed_types,
        reason = "per-job wall-clock timeout and gmh_sim_wall_ms_total metric are service-layer \
            time, orthogonal to the simulation clock; results remain a pure function of (config, \
            seed)"
    )]
    let started = std::time::Instant::now();
    let mut config = job.config.clone();
    // Every fresh run samples its fetch lifecycles so the METRICS
    // histograms stay live, and self-profiles the host scheduler so the
    // gmh_host_* series stay live; both are read-only observation (the
    // report is bit-identical with them on or off) and `job_key` hashes
    // the client's config, so cached repeats stay byte-identical too.
    if config.trace_sample == 0 {
        config.trace_sample = 16;
    }
    config.profile_host = true;
    let cache = if job.trace { "bypass" } else { "miss" };
    let log = |outcome: &str, run_ms: u64, dropped: (u64, u64)| {
        eprintln!(
            "{}",
            job_log_line(id, "sim", outcome, cache, queue_wait_ms, run_ms, dropped)
        );
    };
    let workload = job.workload.clone();
    let run = run_budgeted(
        shared,
        "sim",
        |outcome, run_ms| log(outcome, run_ms, (0, 0)),
        move || {
            let mut sim = GpuSim::new(config, &workload);
            let stats = sim.run();
            (stats, sim.take_host_report())
        },
    );
    let (stats, host_report) = match run {
        Ok(done) => done,
        Err(reply) => return reply,
    };
    shared.merge_latency(&stats.trace.levels);
    if let Some(hr) = &host_report {
        shared.metrics.record_host_profile(hr);
    }
    let dropped = (
        stats.trace.dropped_events,
        host_report.as_ref().map_or(0, |hr| hr.dropped),
    );
    let json = if job.trace {
        chrome_trace_json(job.workload.name, &stats.trace)
    } else {
        let json = report_json(&job.label, job.workload.name, &stats);
        if let Err(e) = shared.cache.put(key, &job.workload, &job.label, &json) {
            eprintln!("gmh-serve: cache write failed (serving anyway): {e}");
        }
        json
    };
    let wall_ms = millis(started.elapsed());
    Metrics::add(&shared.metrics.sim_cycles, stats.core_cycles);
    Metrics::add(&shared.metrics.sim_wall_ms, wall_ms);
    shared.metrics.record_job_rate(stats.core_cycles, wall_ms);
    Metrics::inc(&shared.metrics.completed);
    log("ok", wall_ms, dropped);
    Reply::Ok(json)
}

/// Runs one design-space search under the wall-clock budget.
///
/// The helper thread opens its own handle on the server's cache directory:
/// `DiskCache::get` reads entry files straight from disk, so every
/// simulation the search triggers lands in (and is served from) the same
/// store the plain job path uses — a warm repeat of a search is pure cache
/// hits.
fn execute_tune(shared: &Arc<Shared>, params: TuneParams, id: u64, queue_wait_ms: u64) -> Reply {
    #[expect(
        clippy::disallowed_types,
        reason = "per-job wall-clock timeout and gmh_sim_wall_ms_total metric are service-layer \
            time, orthogonal to the simulation clock; results remain a pure function of (config, \
            seed)"
    )]
    let started = std::time::Instant::now();
    let log = |outcome: &str, run_ms: u64| {
        eprintln!(
            "{}",
            job_log_line(id, "tune", outcome, "none", queue_wait_ms, run_ms, (0, 0))
        );
    };
    let cache_dir = shared.cfg.cache_dir.clone();
    let p = params.clone();
    let run = run_budgeted(shared, "tune", log, move || {
        DiskCache::open(cache_dir).and_then(|cache| run_search(&cache, &p))
    });
    match run {
        Ok(Ok(out)) => {
            // Searches are charged to their own counters, not to
            // `sim_wall_ms`: the BUSY retry hint must stay an average over
            // single simulation jobs.
            Metrics::add(
                &shared.metrics.tune_evals,
                u64::try_from(out.evals).unwrap_or(u64::MAX),
            );
            Metrics::add(
                &shared.metrics.tune_fresh_sims,
                u64::try_from(out.fresh_sims).unwrap_or(u64::MAX),
            );
            Metrics::add(
                &shared.metrics.tune_cache_hits,
                u64::try_from(out.cache_hits).unwrap_or(u64::MAX),
            );
            Metrics::inc(&shared.metrics.completed);
            log("ok", millis(started.elapsed()));
            Reply::Ok(frontier_json(&params, &out))
        }
        Ok(Err(e)) => {
            Metrics::inc(&shared.metrics.errored);
            log("err", millis(started.elapsed()));
            Reply::Err(format!("tune failed: {e}"))
        }
        Err(reply) => reply,
    }
}

impl Shared {
    fn metrics_text(&self) -> String {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                poisoned."
        )]
        let st = self.state.lock().expect("admission lock");
        let gauges = Gauges {
            queue_depth: st.queue.len(),
            queue_capacity: st.queue.capacity(),
            in_flight: st.in_flight,
        };
        drop(st);
        let mut text = self.metrics.render(gauges);
        text.push_str(&render_build_info(
            env!("CARGO_PKG_VERSION"),
            env!("GMH_GIT_SHA"),
        ));
        {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: latency-lock holders never panic, so the mutex is never \
                    poisoned."
            )]
            let latency = self.latency.lock().expect("latency lock");
            text.push_str(&render_histograms(&latency));
        }
        text
    }

    /// Folds one finished run's per-level decomposition into the live
    /// histograms behind METRICS.
    fn merge_latency(&self, levels: &BTreeMap<Level, LevelLatency>) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: latency-lock holders never panic, so the mutex is never \
                poisoned."
        )]
        let mut latency = self.latency.lock().expect("latency lock");
        for (level, lat) in levels {
            let agg = latency.entry(*level).or_default();
            agg.queueing.merge(&lat.queueing);
            agg.service.merge(&lat.service);
        }
    }

    /// Graceful shutdown, phase 1: refuse new jobs, drain accepted ones,
    /// flush the cache index. Blocks until drained. Idempotent. The caller
    /// sends the shutdown reply, then calls [`Shared::stop_accepting`].
    fn begin_shutdown(&self) {
        {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                    poisoned."
            )]
            let mut st = self.state.lock().expect("admission lock");
            st.draining = true;
            self.work_ready.notify_all();
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: wait_while() fails only on a poisoned admission mutex, and \
                    its holders never panic."
            )]
            let _drained = self
                .drained
                .wait_while(st, |st| !(st.queue.is_empty() && st.in_flight == 0))
                .expect("admission lock");
        }
        if let Err(e) = self.cache.flush_index() {
            eprintln!("gmh-serve: cache index flush failed: {e}");
        }
    }

    /// Graceful shutdown, phase 2: release the accept loop (after which the
    /// daemon process may exit).
    fn stop_accepting(&self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect_timeout(&self.addr, Duration::from_millis(500)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_capped_basics() {
        let mut r = BufReader::new(io::Cursor::new(b"hello\nworld".to_vec()));
        let LineRead::Line(l) = read_line_capped(&mut r).unwrap() else {
            panic!("expected a line");
        };
        assert_eq!(l, "hello");
        let LineRead::Line(l) = read_line_capped(&mut r).unwrap() else {
            panic!("expected the unterminated tail");
        };
        assert_eq!(l, "world");
        assert!(matches!(read_line_capped(&mut r).unwrap(), LineRead::Eof));
    }

    #[test]
    fn read_line_capped_refuses_oversize() {
        let big = vec![b'x'; MAX_LINE_BYTES + 10];
        let mut r = BufReader::new(io::Cursor::new(big));
        assert!(matches!(
            read_line_capped(&mut r).unwrap(),
            LineRead::TooLong
        ));
    }

    #[test]
    fn job_log_line_is_one_parseable_json_object() {
        let line = job_log_line(42, "sim", "ok", "miss", 3, 128, (7, 9));
        assert!(!line.contains('\n'), "must stay a single stderr line");
        let doc = crate::json::parse(&line).expect("log line parses");
        assert_eq!(
            doc.get("gmh_job").and_then(crate::json::Json::as_u64),
            Some(42)
        );
        assert_eq!(
            doc.get("kind").and_then(crate::json::Json::as_str),
            Some("sim")
        );
        assert_eq!(
            doc.get("outcome").and_then(crate::json::Json::as_str),
            Some("ok")
        );
        assert_eq!(
            doc.get("cache").and_then(crate::json::Json::as_str),
            Some("miss")
        );
        assert_eq!(
            doc.get("queue_wait_ms").and_then(crate::json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("run_ms").and_then(crate::json::Json::as_u64),
            Some(128)
        );
        assert_eq!(
            doc.get("events_dropped")
                .and_then(crate::json::Json::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("spans_dropped").and_then(crate::json::Json::as_u64),
            Some(9)
        );
        // Lines for work that was never observed carry explicit zeros.
        let shed = job_log_line(43, "sim", "busy", "miss", 0, 0, (0, 0));
        assert!(shed.ends_with("\"events_dropped\":0,\"spans_dropped\":0}"));
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= c.workers);
        assert!(c.job_timeout_ms > 0);
    }
}
