//! The daemon: bounded admission, cache, graceful shutdown.
//!
//! ## Request path
//!
//! ```text
//! conn thread:  read line → parse/validate
//!                 refused  → ERR   (oversized, malformed, over a cap)
//!               cache lookup
//!                 hit  → OK (byte-identical stored report)
//!                 miss → admit: push the job's id on the admission queue
//!                          draining → ERR
//!                          full     → BUSY{retry_after_ms}   (load shed)
//!                          ok       → wait until first in line with a
//!                                     free slot, then pop
//!               run:  simulate on this thread, polling the deadline
//!                          done    → report_json → cache.put → OK
//!                          expired → the run stops → TIMEOUT
//!                          panic   → ERR
//!               free the slot (nothing is left simulating) → wake the line
//!               the reply → its outcome counter + its one log line
//! ```
//!
//! Every request counted in `accepted` ends in `Shared::answer`, which
//! counts the one outcome its reply names and writes its one log line, so
//! `accepted = completed + shed + errored + timed_out` and one log line per
//! counted request hold by construction.
//!
//! The connection thread that read a job runs it, so a job crosses no
//! thread hand-off. [`ServerConfig::workers`] slots bound how many jobs run
//! at once, and a slot is freed only once its run has returned, so
//! `gmh_jobs_inflight` counts every job that is simulating. A job that
//! finds a free slot and nobody in line pops in the critical section it
//! pushed in, so it never holds a queue slot.
//!
//! The admission queue is a [`gmh_types::BoundedQueue`] — the same
//! back-pressure primitive the simulator itself is built on. When it fills,
//! the server *sheds* with an explicit `BUSY` instead of buffering
//! unboundedly: the paper's thesis (bounded queues + back-pressure decide
//! sustained throughput) applied to the service layer.
//!
//! Wall-clock time (`Instant`) and locks are used here deliberately — job
//! timeouts and service latency are *operational* time, not model time, and
//! the shared state decides which jobs run, never how one simulates.
//! `clippy.toml` bans both in model crates; each use below carries an
//! `#[expect]` giving its reason.

use crate::metrics::{render_build_info, render_histograms, Gauges, Metrics};
use crate::protocol::{parse_request, JobRequest, Reply, Request, MAX_LINE_BYTES};
use gmh_core::{GpuSim, Stopped};
use gmh_exp::cache::{job_key, DiskCache};
use gmh_exp::tune::{frontier_json, run_search_until, TuneParams};
use gmh_exp::{chrome_trace_json, report_json};
use gmh_types::{BoundedQueue, Level, LevelLatency};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::Duration;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port (tests).
    pub addr: String,
    /// Jobs that may simulate at once; an admitted job past this many
    /// waits its turn in the admission queue.
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds with `BUSY`.
    pub queue_capacity: usize,
    /// Per-job wall-clock budget before the run is stopped and answered
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
            queue_capacity: workers.saturating_mul(2),
            job_timeout_ms: 120_000,
            cache_dir: DiskCache::default_dir(),
        }
    }
}

/// What a counted request's structured log line says besides its outcome,
/// filled in as the request moves; the line is one JSON object on stderr, so
/// operators can grep/parse the job history without scraping METRICS.
/// `queue_wait_ms` is admission-queue residency and `run_ms` run wall time,
/// both 0 for a request that never queues or runs (cache hits, sheds,
/// refusals). `dropped` is what the always-on observers lost of a fresh run —
/// `(trace events past trace_event_cap, timed host spans past the timeline
/// cap)`, `(0, 0)` wherever nothing was observed — so a run whose live
/// histograms cover only its head says so somewhere an operator reads; the
/// daemon renders neither table that prints these counts.
#[derive(Debug)]
struct JobLog {
    id: u64,
    /// `sim`, `tune`, or `invalid` for a line refused before it named either.
    kind: &'static str,
    /// `hit`, `miss`, `bypass` (a traced job) or `none` (searches, refusals).
    cache: &'static str,
    queue_wait_ms: u64,
    run_ms: u64,
    dropped: (u64, u64),
}

impl JobLog {
    /// The log line of a request that ended as `outcome`.
    fn line(&self, outcome: &str) -> String {
        let JobLog {
            id,
            kind,
            cache,
            queue_wait_ms,
            run_ms,
            dropped: (events_dropped, spans_dropped),
        } = self;
        format!(
            "{{\"gmh_job\":{id},\"kind\":\"{kind}\",\"outcome\":\"{outcome}\",\
             \"cache\":\"{cache}\",\"queue_wait_ms\":{queue_wait_ms},\
             \"run_ms\":{run_ms},\"events_dropped\":{events_dropped},\
             \"spans_dropped\":{spans_dropped}}}"
        )
    }
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Why [`Admission::admit`] turned a job away.
#[derive(Debug, PartialEq)]
enum Refused {
    /// The server is draining for shutdown: `ERR`.
    Draining,
    /// The line is full: `BUSY`.
    Full,
}

/// Admission state guarded by one mutex: the ids of the jobs waiting their
/// turn, in arrival order, and how many run. A job starts when it is first
/// in line and fewer than `slots` run.
struct Admission {
    queue: BoundedQueue<u64>,
    in_flight: usize,
    slots: usize,
    draining: bool,
}

impl Admission {
    fn new(slots: usize, capacity: usize) -> Admission {
        Admission {
            queue: BoundedQueue::new(capacity.max(1)),
            in_flight: 0,
            slots: slots.max(1),
            draining: false,
        }
    }

    /// Puts job `id` at the back of the line.
    fn admit(&mut self, id: u64) -> Result<(), Refused> {
        if self.draining {
            return Err(Refused::Draining);
        }
        self.queue.push(id).map_err(|_| Refused::Full)
    }

    /// Starts job `id` — pops it and counts it running — when it is first
    /// in line and a slot is free; otherwise changes nothing.
    fn try_start(&mut self, id: u64) -> bool {
        let start = self.queue.front() == Some(&id) && self.in_flight < self.slots;
        if start {
            self.queue.pop();
            self.in_flight += 1;
        }
        start
    }

    /// Frees the slot of a job that has finished.
    fn finish(&mut self) {
        self.in_flight -= 1;
    }
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    metrics: Metrics,
    cache: DiskCache,
    #[expect(
        clippy::disallowed_types,
        reason = "the admission queue and in-flight count are service-layer shared state (which \
            jobs run, never how a job simulates); each job's GpuSim lives entirely on the connection \
            thread that runs it, so simulation results stay a pure function of (config, seed)"
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
    /// Signalled whenever a job starts or finishes: the jobs in line wait
    /// on it for their turn, and a shutdown for the drain.
    #[expect(
        clippy::disallowed_types,
        reason = "the admission condvar signals service-layer scheduling (a job's turn, graceful \
            drain); no model state is shared across the wait"
    )]
    turn: std::sync::Condvar,
    stop_accept: AtomicBool,
}

/// A running server: its bound address plus the accept thread to join.
pub struct ServerHandle {
    /// The actual bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Blocks until the server has shut down: the accept loop exits once a
    /// `SHUTDOWN` has drained every admitted job. The accept thread never
    /// panics in normal operation; a panic there is a bug we surface.
    pub fn join(self) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: server threads catch their own I/O errors; a panic is a \
                simulator bug and must fail loudly."
        )]
        self.accept.join().expect("accept thread panicked");
    }

    /// Snapshot of the metrics exposition (used by the bench harness).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }
}

/// Binds, spawns the accept loop, and returns immediately.
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
                the connection thread that runs it, so simulation results stay a pure function of \
                (config, seed)"
        )]
        state: std::sync::Mutex::new(Admission::new(cfg.workers, cfg.queue_capacity)),
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
            reason = "the admission condvar signals service-layer scheduling (a job's turn, \
                graceful drain); no model state is shared across the wait"
        )]
        turn: std::sync::Condvar::new(),
        stop_accept: AtomicBool::new(false),
    });

    let sh = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("gmh-accept".to_string())
        .spawn(move || accept_loop(&sh, listener))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept,
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

fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_line_capped(&mut reader)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                // A terminal reply even for unparseable-by-size requests.
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let reply = shared.answer("invalid", |_| Reply::Err(msg));
                write_reply(&mut writer, &reply.render())?;
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
        let reply = match parse_request(&line) {
            Err(msg) => shared.answer("invalid", |_| Reply::Err(msg)),
            Ok(Request::Ping) => {
                let line = format!(
                    "OK {{\"pong\":true,\"version\":\"{}\",\"git_sha\":\"{}\"}}",
                    env!("CARGO_PKG_VERSION"),
                    env!("GMH_GIT_SHA"),
                );
                write_reply(&mut writer, &line)?;
                continue;
            }
            Ok(Request::Metrics) => {
                let text = shared.metrics_text();
                writer.write_all(b"METRICS\n")?;
                writer.write_all(text.as_bytes())?;
                writer.write_all(b"END\n")?;
                continue;
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
            Ok(Request::Job(job)) => shared.answer("sim", |log| submit_job(shared, *job, log)),
            Ok(Request::Tune(params)) => shared.answer("tune", |log| {
                // One search holds one slot, and its internal fan-out is
                // budget-limited by the protocol caps.
                Metrics::inc(&shared.metrics.tune_requests);
                admit_and_run(shared, log, "tune", |_, stop| {
                    execute_tune(shared, &params, stop)
                })
            }),
        };
        write_reply(&mut writer, &reply.render())?;
    }
}

/// Answers one validated job: from the cache, or by running it through
/// admission.
fn submit_job(shared: &Shared, job: JobRequest, log: &mut JobLog) -> Reply {
    let key = job_key(&job.label, &job.config, &job.workload);
    // Cache first: a hit bypasses admission entirely — repeats are free and
    // byte-identical, even while the queue is saturated. Traced jobs skip
    // the cache both ways: it stores reports, not traces.
    if job.trace {
        log.cache = "bypass";
    } else if let Some(json) = shared.cache.get(key) {
        Metrics::inc(&shared.metrics.cache_hits);
        log.cache = "hit";
        return Reply::Ok(json);
    } else {
        Metrics::inc(&shared.metrics.cache_misses);
        log.cache = "miss";
    }
    admit_and_run(shared, log, "simulation", |log, stop| {
        execute_job(shared, job, key, log, stop)
    })
}

/// Puts the request in line (or refuses or sheds it), waits for its turn,
/// runs `run` on this thread and frees the slot once `run` has returned;
/// `log` takes the queue wait and the run time. `run` polls `stop`, which
/// fires once the per-job wall-clock budget has passed: a run it stopped
/// answers `TIMEOUT` and one that panicked `ERR`, so a freed slot never
/// leaves a simulation running.
#[expect(
    clippy::disallowed_types,
    reason = "the queue wait, the per-job wall-clock deadline and the run time are service-layer \
        time, orthogonal to the simulation clock: the deadline only decides whether a run is \
        stopped, so a finished run remains a pure function of (config, seed)"
)]
fn admit_and_run(
    shared: &Shared,
    log: &mut JobLog,
    what: &str,
    run: impl FnOnce(&mut JobLog, &(dyn Fn() -> bool + Sync)) -> Result<Reply, Stopped>,
) -> Reply {
    let enqueued_at = std::time::Instant::now();
    {
        let mut st = shared.admission();
        match st.admit(log.id) {
            Ok(()) => {}
            Err(Refused::Draining) => return Reply::Err("server is shutting down".to_string()),
            // Back-pressure: shed explicitly instead of buffering.
            Err(Refused::Full) => {
                let retry_after_ms = shared.metrics.avg_job_ms();
                return Reply::Busy { retry_after_ms };
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: wait_while() fails only on a poisoned admission mutex, and its \
                holders never panic."
        )]
        let st = shared
            .turn
            .wait_while(st, |st| !st.try_start(log.id))
            .expect("admission lock");
        // The pop moved the line up: its new head may fit a free slot too.
        if !st.queue.is_empty() && st.in_flight < st.slots {
            shared.turn.notify_all();
        }
    }
    let waited = enqueued_at.elapsed();
    log.queue_wait_ms = millis(waited);
    let budget_ms = shared.cfg.job_timeout_ms;
    let deadline = (enqueued_at + waited).checked_add(Duration::from_millis(budget_ms));
    let expired = || deadline.is_some_and(|d| std::time::Instant::now() >= d);
    let reply = match catch_unwind(AssertUnwindSafe(|| run(log, &expired))) {
        Ok(Ok(reply)) => reply,
        Ok(Err(Stopped)) => Reply::Timeout {
            after_ms: budget_ms,
        },
        Err(_) => Reply::Err(format!("{what} failed")),
    };
    log.run_ms = millis(enqueued_at.elapsed() - waited);
    shared.admission().finish();
    shared.turn.notify_all();
    reply
}

/// Runs one job until it finishes or `stop` fires; `log` takes what its
/// observers dropped.
fn execute_job(
    shared: &Shared,
    job: JobRequest,
    key: u64,
    log: &mut JobLog,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<Reply, Stopped> {
    #[expect(
        clippy::disallowed_types,
        reason = "the gmh_sim_wall_ms_total metric is service-layer time, orthogonal to the \
            simulation clock; results remain a pure function of (config, seed)"
    )]
    let started = std::time::Instant::now();
    let JobRequest {
        workload,
        label,
        mut config,
        trace,
    } = job;
    // Every fresh run samples its fetch lifecycles so the METRICS
    // histograms stay live, and self-profiles the host scheduler so the
    // gmh_host_* series stay live; both are read-only observation (the
    // report is bit-identical with them on or off) and `job_key` hashes
    // the client's config, so cached repeats stay byte-identical too.
    if config.trace_sample == 0 {
        config.trace_sample = 16;
    }
    config.profile_host = true;
    let mut sim = GpuSim::new(config, &workload);
    let stats = sim.run_until(stop)?;
    let host_report = sim.take_host_report();
    shared.merge_latency(&stats.trace.levels);
    if let Some(hr) = &host_report {
        shared.metrics.record_host_profile(hr);
    }
    log.dropped = (
        stats.trace.dropped_events,
        host_report.as_ref().map_or(0, |hr| hr.dropped),
    );
    let json = if trace {
        chrome_trace_json(workload.name, &stats.trace)
    } else {
        let json = report_json(&label, workload.name, &stats);
        if let Err(e) = shared.cache.put(key, &workload, &label, &json) {
            eprintln!("gmh-serve: cache write failed (serving anyway): {e}");
        }
        json
    };
    let wall_ms = millis(started.elapsed());
    Metrics::add(&shared.metrics.sim_cycles, stats.core_cycles);
    Metrics::add(&shared.metrics.sim_wall_ms, wall_ms);
    shared.metrics.record_job_rate(stats.core_cycles, wall_ms);
    Ok(Reply::Ok(json))
}

/// Runs one design-space search until it finishes or `stop` fires.
///
/// The search runs through the server's own cache, so every simulation it
/// triggers lands in (and is served from) the same store the plain job path
/// uses — a warm repeat of a search is pure cache hits — and is listed in
/// the index the shutdown flushes.
fn execute_tune(
    shared: &Shared,
    params: &TuneParams,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<Reply, Stopped> {
    let out = match run_search_until(&shared.cache, params, stop)? {
        Ok(out) => out,
        Err(e) => return Ok(Reply::Err(format!("tune failed: {e}"))),
    };
    // Searches are charged to their own counters, not to `sim_wall_ms`: the
    // BUSY retry hint must stay an average over single simulation jobs.
    let m = &shared.metrics;
    for (counter, n) in [
        (&m.tune_evals, out.evals),
        (&m.tune_fresh_sims, out.fresh_sims),
        (&m.tune_cache_hits, out.cache_hits),
    ] {
        Metrics::add(counter, u64::try_from(n).unwrap_or(u64::MAX));
    }
    Metrics::inc(&m.tune_completed);
    Ok(Reply::Ok(frontier_json(params, &out)))
}

impl Shared {
    /// The one terminal path of a request counted in `accepted`: counts it,
    /// gives it a job id, lets `run` answer it (filling in its log facts),
    /// then counts the one outcome the reply names and writes the request's
    /// one log line with that outcome.
    fn answer(&self, kind: &'static str, run: impl FnOnce(&mut JobLog) -> Reply) -> Reply {
        Metrics::inc(&self.metrics.accepted);
        let mut log = JobLog {
            id: self.metrics.next_job_id(),
            kind,
            cache: "none",
            queue_wait_ms: 0,
            run_ms: 0,
            dropped: (0, 0),
        };
        let reply = run(&mut log);
        let (outcome, counter) = match &reply {
            Reply::Ok(_) => ("ok", &self.metrics.completed),
            Reply::Busy { .. } => ("busy", &self.metrics.shed),
            Reply::Err(_) => ("err", &self.metrics.errored),
            Reply::Timeout { .. } => ("timeout", &self.metrics.timed_out),
        };
        Metrics::inc(counter);
        eprintln!("{}", log.line(outcome));
        reply
    }

    fn admission(&self) -> MutexGuard<'_, Admission> {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: admission-lock holders never panic, so the mutex is never \
                poisoned."
        )]
        self.state.lock().expect("admission lock")
    }

    fn metrics_text(&self) -> String {
        let st = self.admission();
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
            let mut st = self.admission();
            st.draining = true;
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: wait_while() fails only on a poisoned admission mutex, and \
                    its holders never panic."
            )]
            let _drained = self
                .turn
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
        let mut log = JobLog {
            id: 42,
            kind: "sim",
            cache: "miss",
            queue_wait_ms: 3,
            run_ms: 128,
            dropped: (7, 9),
        };
        let line = log.line("ok");
        assert!(!line.contains('\n'), "must stay a single stderr line");
        let doc = crate::json::parse(&line).expect("log line parses");
        let field = |k: &str| doc.get(k).expect(k).clone();
        for (k, v) in [("kind", "sim"), ("outcome", "ok"), ("cache", "miss")] {
            assert_eq!(field(k).as_str(), Some(v), "{k}");
        }
        for (k, v) in [
            ("gmh_job", 42),
            ("queue_wait_ms", 3),
            ("run_ms", 128),
            ("events_dropped", 7),
            ("spans_dropped", 9),
        ] {
            assert_eq!(field(k).as_u64(), Some(v), "{k}");
        }
        // Lines for work that was never observed carry explicit zeros.
        (log.run_ms, log.dropped) = (0, (0, 0));
        let shed = log.line("busy");
        assert!(shed.ends_with("\"events_dropped\":0,\"spans_dropped\":0}"));
    }

    #[test]
    fn admission_starts_jobs_in_arrival_order() {
        let mut line = Admission::new(1, 2);
        assert_eq!(line.admit(1), Ok(()));
        assert!(line.try_start(1), "a free slot and an empty line: 1 starts");
        for id in [2, 3] {
            assert_eq!(line.admit(id), Ok(()));
            assert!(!line.try_start(id), "{id} waits for the one slot");
        }
        assert_eq!(
            line.admit(4),
            Err(Refused::Full),
            "1 never held a queue slot"
        );
        line.finish();
        assert!(!line.try_start(3), "3 is behind 2");
        assert!(line.try_start(2));
        assert!(!line.try_start(3), "2 holds the slot");
        line.draining = true;
        assert_eq!(line.admit(5), Err(Refused::Draining));
    }

    /// A run that panics is caught on the thread that ran it: the job is
    /// answered `ERR` at once, counted `errored`, not `timed_out`, and its
    /// slot is freed (the shutdown below drains).
    #[test]
    fn a_panicking_job_is_answered_err_not_timeout() {
        let dir = std::env::temp_dir().join(format!("gmh-serve-panic-{}", std::process::id()));
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 1,
            job_timeout_ms: 60_000,
            cache_dir: dir.clone(),
        })
        .unwrap();
        let shared = &handle.shared;
        let reply = shared.answer("sim", |log| {
            admit_and_run(shared, log, "simulation", |_, _| panic!("a model bug"))
        });
        assert_eq!(reply, Reply::Err("simulation failed".into()));
        assert_eq!(shared.metrics.errored.load(Ordering::SeqCst), 1);
        assert_eq!(shared.metrics.timed_out.load(Ordering::SeqCst), 0);
        shared.begin_shutdown();
        shared.stop_accepting();
        handle.join();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= c.workers);
        assert!(c.job_timeout_ms > 0);
    }
}
