//! `serve`: an in-process daemon on a loopback port, two workers, a fresh
//! cache directory, two client connections in a closed loop (each waits for
//! its reply before sending the next request). Every timed request is a
//! distinct job — parse, admit, simulate, encode, cache write — so the
//! simulation and the worker hand-off are the cost and the request path is
//! a rounding error.
//!
//! The warm path (the same lines resubmitted: parse plus one cache read) is
//! checked after the cold phase — every payload byte-identical to its cold
//! one — but timed only in the traced run, as per-layer figures. Two clients
//! and two connection threads share two CPUs, and a 30 µs round trip is
//! mostly scheduling: its p95 moves by a third and its throughput by a fifth
//! from run to run on the reference host, which no bound can stand on.

use crate::inputs::{serve_jobs, serve_overrides, ServeJob};
use crate::run::{cpu_seconds, report_work, vm_hwm_mb, Ctx, Outcome, Round, Tally};
use crate::spans::Recorder;
use crate::stats::{median, tail};
use gmh_core::GpuSim;
use gmh_exp::cache::metric_in_json;
use gmh_exp::report_json;
use gmh_serve::metrics::sample;
use gmh_serve::protocol::{job_line, parse_request, Reply, Request};
use gmh_serve::{spawn, Client, ServerConfig, ServerHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

/// Cold jobs whose payloads are kept: the first two rounds, every workload
/// twice. The warm phase resubmits exactly these lines and the shadow
/// pipeline rebuilds them.
const KEPT: usize = 38;

struct Server {
    handle: ServerHandle,
    addr: String,
}

impl Server {
    /// A daemon on a fresh cache directory, every client connection proven
    /// live with a `PING`.
    fn start(ctx: &Ctx, n: usize) -> (Server, Vec<Client>) {
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 4,
            cache_dir: ctx.fresh_dir("serve", n),
            ..ServerConfig::default()
        })
        .expect("the daemon binds a loopback port");
        let addr = handle.addr.to_string();
        let clients = (0..CLIENTS)
            .map(|_| {
                let mut c = Client::connect(&addr).expect("connect to the in-process daemon");
                assert!(
                    matches!(c.ping(), Ok(Reply::Ok(_))),
                    "the daemon answers PING"
                );
                c
            })
            .collect();
        (Server { handle, addr }, clients)
    }

    fn metrics(&self) -> String {
        Client::connect(&self.addr)
            .and_then(|mut c| c.metrics())
            .expect("the daemon answers METRICS")
    }

    /// Graceful shutdown; waits for the accept loop and both workers.
    fn stop(self) {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .expect("the daemon shuts down");
        self.handle.join();
    }
}

/// One answered request.
#[derive(Clone, Copy)]
struct Sample {
    job: usize,
    rtt_s: f64,
    /// When the reply arrived, since the phase began.
    done_s: f64,
    /// Its simulated work.
    cycles: u64,
    insts: u64,
    recorded: bool,
}

/// What one closed-loop phase produced.
#[derive(Default)]
struct Phase {
    /// The requests that passed their check.
    samples: Vec<Sample>,
    /// `OK` payloads of the jobs below [`KEPT`], by job index.
    kept: Vec<(usize, String)>,
    failures: Vec<String>,
    wall_s: f64,
}

/// Judges an `OK` payload: its simulated work, or why it fails.
type Check<'a> = &'a (dyn Fn(usize, &str) -> Result<(u64, u64), String> + Sync);

/// A fresh report passes the per-simulation rules (cycle cap,
/// fetch-conservation identity) and states its work.
fn check_report(_job: usize, json: &str) -> Result<(u64, u64), String> {
    if !json.contains("\"hit_cycle_cap\":false") {
        return Err("hit the cycle cap".to_string());
    }
    let n = |name| metric_in_json(json, name);
    match (n("emitted"), n("returned"), n("absorbed"), n("in_flight")) {
        (Some(e), Some(r), Some(a), Some(i)) if e == r + a && i == 0.0 => {}
        _ => return Err("fetch audit broken".to_string()),
    }
    report_work(json).ok_or_else(|| "the report has no summary".to_string())
}

/// The closed loop: each client takes the next ticket, submits that job and
/// waits for the reply, until the window closes or — unless tickets `cycle`
/// around the list — the list ends. Replies are judged on the spot by
/// `check` and dropped, except the payloads of jobs below `keep`.
fn drive(
    clients: &mut [Client],
    jobs: &[ServeJob],
    window: Duration,
    cycle: bool,
    check: Check,
    keep: usize,
    rec: &mut Recorder,
) -> Phase {
    let overrides = serve_overrides();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut lanes: Vec<Recorder> = (1u32..).take(clients.len()).map(|l| rec.lane(l)).collect();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes.iter_mut())
            .map(|(client, lane)| {
                let (next, overrides) = (&next, &overrides);
                s.spawn(move || {
                    let mut mine = Phase::default();
                    let mut off = Recorder::new(false);
                    loop {
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        if !cycle && ticket >= jobs.len() {
                            break;
                        }
                        let idx = ticket % jobs.len();
                        let job = &jobs[idx];
                        // Every other request of a traced run is recorded,
                        // so the recorder's cost shows against its twin.
                        let recorded = lane.enabled() && ticket.is_multiple_of(2);
                        let r = if recorded { &mut *lane } else { &mut off };
                        let sent = Instant::now();
                        let span = r.begin("serve.request", ticket as u64);
                        let reply =
                            client.submit(job.workload, Some("base"), Some(job.seed), overrides);
                        r.end(span);
                        let rtt_s = sent.elapsed().as_secs_f64();
                        let verdict = match reply {
                            Ok(Reply::Ok(json)) => {
                                let verdict = check(idx, &json);
                                if verdict.is_ok() && idx < keep {
                                    mine.kept.push((idx, json));
                                }
                                verdict
                            }
                            Ok(other) => Err(other.render()),
                            Err(e) => Err(format!("socket error: {e}")),
                        };
                        match verdict {
                            Ok((cycles, insts)) => mine.samples.push(Sample {
                                job: idx,
                                rtt_s,
                                done_s: started.elapsed().as_secs_f64(),
                                cycles,
                                insts,
                                recorded,
                            }),
                            Err(why) => mine
                                .failures
                                .push(format!("{}#{}: {why}", job.workload, job.seed)),
                        }
                        if started.elapsed() >= window {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for lane in lanes {
        rec.absorb(lane);
    }
    for part in parts {
        phase.samples.extend(part.samples);
        phase.kept.extend(part.kept);
        phase.failures.extend(part.failures);
    }
    phase.kept.sort_by_key(|k| k.0);
    phase
}

impl Phase {
    /// Adds the phase's requests to the outcome's operation counts.
    fn count(&self, out: &mut Outcome) {
        out.attempted += (self.samples.len() + self.failures.len()) as u64;
        out.failed += self.failures.len() as u64;
        for why in &self.failures {
            println!("FAILED: {why}");
        }
    }

    fn rtts(&self, scale: f64) -> Vec<f64> {
        self.samples.iter().map(|s| s.rtt_s * scale).collect()
    }

    /// The answered requests in the order they completed, cut into rounds
    /// of `len`; a round lasts from the reply before its first to its last.
    /// Tickets go out in job order and every `len` consecutive jobs are the
    /// same mix, so the rounds are about the same work.
    fn rounds(&self, len: usize) -> Vec<Round> {
        let mut done: Vec<&Sample> = self.samples.iter().collect();
        done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let mut from_s = 0.0;
        done.chunks_exact(len.min(done.len()).max(1))
            .map(|chunk| {
                let until_s = chunk[chunk.len() - 1].done_s;
                let round = Round {
                    wall_s: until_s - from_s,
                    ops: chunk.len() as u64,
                    cycles: chunk.iter().map(|s| s.cycles).sum(),
                    insts: chunk.iter().map(|s| s.insts).sum(),
                };
                from_s = until_s;
                round
            })
            .collect()
    }
}

/// `accepted = completed + shed + errored + timed_out` once nothing is in
/// flight.
fn check_metrics(text: &str, out: &mut Outcome) {
    let n = |name| sample(text, name).unwrap_or(u64::MAX);
    let accepted = n("gmh_requests_accepted_total");
    let (completed, shed, errored, timed_out) = (
        n("gmh_requests_completed_total"),
        n("gmh_requests_shed_total"),
        n("gmh_requests_errored_total"),
        n("gmh_requests_timeout_total"),
    );
    let settled = completed
        .saturating_add(shed)
        .saturating_add(errored)
        .saturating_add(timed_out);
    out.gate(accepted == settled, || {
        format!(
            "METRICS identity broken: accepted {accepted} ≠ completed {completed} + shed {shed} \
             + errored {errored} + timed out {timed_out}"
        )
    });
    if out.recorder.enabled() {
        let hits = n("gmh_cache_hits_total") as f64;
        let misses = n("gmh_cache_misses_total") as f64;
        let m = &mut out.metrics;
        m.set("serve.cache_hit_ratio", hits / (hits + misses));
        m.set("serve.shed", shed as f64);
        m.set("serve.errored", errored as f64);
        m.set("serve.timed_out", timed_out as f64);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx);
    let jobs = serve_jobs(ctx.seed, ctx.sizes.serve_jobs);
    // Warm-up: every workload once, from a stream of its own.
    let warmup = serve_jobs(ctx.seed ^ 0x7761_726d, 19);

    let mut setup_s = Vec::new();
    let mut live: Option<(Server, Vec<Client>)> = None;
    for n in 0..ctx.setup_repeats {
        if let Some((server, clients)) = live.take() {
            drop(clients);
            server.stop();
        }
        let started = Instant::now();
        let (server, mut clients) = Server::start(ctx, n);
        let warmed = drive(
            &mut clients,
            &warmup,
            Duration::MAX,
            false,
            &check_report,
            0,
            &mut Recorder::new(false),
        );
        setup_s.push(started.elapsed().as_secs_f64());
        for why in &warmed.failures {
            out.gate_failures
                .push(format!("warm-up request failed: {why}"));
        }
        live = Some((server, clients));
    }
    let (server, mut clients) = live.expect("set-up runs at least once");

    // The cold phase. `--smoke` (a window of zero) serves its whole list.
    let window = if ctx.window.is_zero() {
        Duration::MAX
    } else {
        ctx.timed_window()
    };
    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(false));
    let cpu0 = cpu_seconds();
    let cold = drive(
        &mut clients,
        &jobs,
        window,
        false,
        &check_report,
        KEPT,
        &mut rec,
    );
    let cpu_util = (cpu_seconds() - cpu0) / (2.0 * cold.wall_s);
    cold.count(&mut out);
    // Every 19 consecutive jobs hold each catalog workload once.
    let tally = Tally {
        unit_s: cold.rtts(1.0),
        rounds: cold.rounds(warmup.len()),
    };

    // The warm phase: the kept lines again, each payload byte-identical to
    // its cold one. One round untraced (the check); a second's worth traced
    // (the per-layer figures).
    let kept_jobs: Vec<ServeJob> = cold.kept.iter().map(|(i, _)| jobs[*i].clone()).collect();
    let identical = |job: usize, json: &str| {
        if json == cold.kept[job].1 {
            report_work(json).ok_or_else(|| "the report has no summary".to_string())
        } else {
            Err("the warm payload differs from the cold payload".to_string())
        }
    };
    let warm = if kept_jobs.is_empty() {
        Phase::default()
    } else if ctx.traced {
        drive(
            &mut clients,
            &kept_jobs,
            Duration::from_secs(1),
            true,
            &identical,
            0,
            &mut rec,
        )
    } else {
        drive(
            &mut clients,
            &kept_jobs,
            Duration::MAX,
            false,
            &identical,
            0,
            &mut rec,
        )
    };
    warm.count(&mut out);
    out.recorder = rec;

    if tally.unit_s.is_empty() {
        out.gate_failures.push("no request completed".to_string());
    } else {
        println!("{}", tally.describe());
        if !ctx.traced {
            tally.store(&setup_s, &mut out.metrics);
        } else {
            let m = &mut out.metrics;
            // Memory first, before the shadow pipeline and the tune search.
            m.set("bench.peak_rss_mb", vm_hwm_mb());
            m.set("serve.cpu_util", cpu_util);
            m.set("serve.cold_p95_ms", tail(&cold.rtts(1e3)).0);
            if !warm.samples.is_empty() {
                let us = warm.rtts(1e6);
                m.set("serve.warm_p50_us", median(&us));
                m.set("serve.warm_p95_us", tail(&us).0);
                m.set(
                    "serve.warm_req_per_s",
                    warm.samples.len() as f64 / warm.wall_s,
                );
            }
            let rtts = |recorded: bool| -> Vec<f64> {
                cold.samples
                    .iter()
                    .filter(|s| s.recorded == recorded)
                    .map(|s| s.rtt_s)
                    .collect()
            };
            out.store_trace_overhead(&rtts(true), &rtts(false));
            shadow(&jobs, &cold, &mut out);
            control_rtts(&mut clients[0], &mut out);
            tune(&mut clients[0], &server, &mut out);
        }
    }
    check_metrics(&server.metrics(), &mut out);
    drop(clients);
    server.stop();
    out
}

/// The daemon's cold pipeline rebuilt by the benchmark from public calls,
/// on the request lines the daemon just served: parse, build, run, encode,
/// render. A cold round trip minus these stages is what queueing, hand-off,
/// the socket and the daemon's always-on sampling cost.
fn shadow(jobs: &[ServeJob], cold: &Phase, out: &mut Outcome) {
    let overrides = serve_overrides();
    let (mut total_ms, mut run_ms, mut rtt_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, served) in &cold.kept {
        let job = &jobs[*idx];
        let op = *idx as u64;
        let line = job_line(
            job.workload,
            Some("base"),
            Some(job.seed),
            &overrides,
            false,
        );
        let rec = &mut out.recorder;
        let started = Instant::now();
        let span = rec.begin("serve.parse", op);
        let parsed = parse_request(&line);
        rec.end(span);
        let Ok(Request::Job(req)) = parsed else {
            out.gate_failures
                .push(format!("the shadow pipeline could not parse {line}"));
            return;
        };
        let span = rec.begin("core.new", op);
        let mut sim = GpuSim::new(req.config.clone(), &req.workload);
        rec.end(span);
        let span = rec.begin("core.run", op);
        let run_started = Instant::now();
        let stats = sim.run();
        run_ms.push(run_started.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        let span = rec.begin("exp.report_json", op);
        let json = report_json(&req.label, req.workload.name, &stats);
        rec.end(span);
        let span = rec.begin("serve.render", op);
        let back = Reply::parse(&Reply::Ok(json).render());
        rec.end(span);
        total_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = cold.samples.iter().find(|s| s.job == *idx) {
            rtt_ms.push(s.rtt_s * 1e3);
        }
        // The daemon's payload is the report the public calls produce.
        let same = matches!(&back, Ok(Reply::Ok(a)) if a == served);
        out.gate(same, || {
            format!(
                "{}#{}: the daemon's payload differs from report_json",
                job.workload, job.seed
            )
        });
    }
    if total_ms.is_empty() {
        return;
    }
    let m = &mut out.metrics;
    m.set(
        "serve.cold_overhead_ms",
        median(&rtt_ms) - median(&total_ms),
    );
    m.set("serve.cold_sim_share", median(&run_ms) / median(&rtt_ms));
    out.store_span_mean("core.new", "core.new_ms", 1e6);
}

/// Median round trip of `PING` and of `METRICS`, in microseconds.
fn control_rtts(client: &mut Client, out: &mut Outcome) {
    let time = |n: usize, call: &mut dyn FnMut()| -> f64 {
        let mut us = Vec::new();
        for _ in 0..n {
            let t = Instant::now();
            call();
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&us)
    };
    let ping = time(200, &mut || {
        client.ping().expect("the daemon answers PING");
    });
    let metrics = time(50, &mut || {
        client.metrics().expect("the daemon answers METRICS");
    });
    out.metrics.set("serve.ping_rtt_us", ping);
    out.metrics.set("serve.metrics_rtt_us", metrics);
}

/// One smoke-preset design-space search through the daemon, cold then warm.
fn tune(client: &mut Client, server: &Server, out: &mut Outcome) {
    let mut ms = Vec::new();
    for _ in 0..2 {
        let started = Instant::now();
        let reply = client.tune(Some("smoke"), &[], None, &[]);
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.gate(matches!(reply, Ok(Reply::Ok(_))), || {
            format!("TUNE failed: {reply:?}")
        });
    }
    out.metrics.set("tune.smoke_cold_ms", ms[0]);
    out.metrics.set("tune.smoke_warm_ms", ms[1]);
    let fresh = sample(&server.metrics(), "gmh_tune_fresh_sims_total").unwrap_or(0);
    out.metrics.set("tune.fresh_sims", fresh as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_follow_completion_order_and_drop_the_partial_one() {
        let sample = |done_s: f64, cycles: u64| Sample {
            job: 0,
            rtt_s: 0.0,
            done_s,
            cycles,
            insts: 2 * cycles,
            recorded: false,
        };
        let phase = Phase {
            samples: vec![
                sample(3.0, 30),
                sample(1.0, 10),
                sample(2.0, 20),
                sample(4.5, 40),
                sample(9.0, 90),
            ],
            ..Phase::default()
        };
        let rounds = phase.rounds(2);
        assert_eq!(rounds.len(), 2);
        assert_eq!((rounds[0].wall_s, rounds[0].ops), (2.0, 2));
        assert_eq!((rounds[0].cycles, rounds[0].insts), (30, 60));
        assert_eq!((rounds[1].wall_s, rounds[1].cycles), (2.5, 70));
        // Fewer answers than a round holds are one round.
        assert_eq!(phase.rounds(19).len(), 1);
        assert!(Phase::default().rounds(19).is_empty());
    }

    #[test]
    fn check_report_reads_cap_audit_and_work() {
        let ok = r#"{"summary":{"core_cycles":9,"insts":4,"hit_cycle_cap":false},"audit":{"emitted":5,"returned":3,"absorbed":2,"in_flight":0}}"#;
        assert_eq!(check_report(0, ok), Ok((9, 4)));
        let capped = ok.replace("\"hit_cycle_cap\":false", "\"hit_cycle_cap\":true");
        assert!(check_report(0, &capped).is_err());
        let leaked = ok.replace("\"in_flight\":0", "\"in_flight\":1");
        assert!(check_report(0, &leaked).is_err());
        let lost = ok.replace("\"returned\":3", "\"returned\":2");
        assert!(check_report(0, &lost).is_err());
    }
}
