//! Service counters and their Prometheus-style text rendering.
//!
//! The accounting identity the integration tests (and operators) rely on:
//!
//! ```text
//! accepted = completed + shed + errored + timed_out   (+ in-flight, transiently)
//! ```
//!
//! `accepted` counts every request that gets a terminal reply: jobs,
//! searches, and lines refused before they named either. The daemon's one
//! terminal path (`server::Shared::answer`) counts a request in `accepted`,
//! then counts the one outcome counter its reply names, so the identity
//! holds by construction. While a job waits in the admission queue or runs,
//! the identity is short by the in-flight amount — the
//! `gmh_jobs_inflight`/`gmh_queue_depth` gauges make that visible.

use gmh_types::prof::{HostPhase, HostReport, N_HOST_PHASES, TIMED_STRIDE};
use gmh_types::{Histogram, Level, LevelLatency};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic service counters. All loads/stores are `Relaxed`: each counter
/// is independently meaningful and nothing synchronizes *through* them.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Job requests received (terminal reply guaranteed).
    pub accepted: AtomicU64,
    /// Jobs shed with `BUSY` because the admission queue was full.
    pub shed: AtomicU64,
    /// Jobs answered with `OK` (fresh runs and cache hits).
    pub completed: AtomicU64,
    /// Jobs refused with `ERR` (validation failures, draining server, a run
    /// that failed).
    pub errored: AtomicU64,
    /// Jobs stopped at their wall-clock budget and answered `TIMEOUT`.
    pub timed_out: AtomicU64,
    /// Result-cache hits (served without simulating).
    pub cache_hits: AtomicU64,
    /// Result-cache lookups that missed.
    pub cache_misses: AtomicU64,
    /// Total simulated core cycles across completed fresh runs
    /// (from [`gmh_core::SimStats::core_cycles`]).
    pub sim_cycles: AtomicU64,
    /// Total wall-clock milliseconds spent simulating fresh runs.
    pub sim_wall_ms: AtomicU64,
    /// Design-space search requests received (a subset of `accepted`).
    pub tune_requests: AtomicU64,
    /// Candidate evaluations attempted across completed searches
    /// (cache hits included — the search budget counts both).
    pub tune_evals: AtomicU64,
    /// Fresh simulations those searches ran.
    pub tune_fresh_sims: AtomicU64,
    /// Search evaluations served from the result cache.
    pub tune_cache_hits: AtomicU64,
    /// Searches answered `OK` (a subset of `completed`; not rendered). The
    /// `BUSY` retry hint leaves them out of its average, as it leaves out
    /// cache hits: neither adds to `sim_wall_ms`.
    pub tune_completed: AtomicU64,
    /// EWMA of simulated cycles per wall second over completed fresh runs
    /// (f64 bits; 0 until the first completion). Updated via
    /// [`Metrics::record_job_rate`].
    sim_cps_ewma: AtomicU64,
    /// Monotonic job-id source for the per-job structured log line.
    job_ids: AtomicU64,
    /// Host wall nanoseconds per [`HostPhase`] (indexed by
    /// [`HostPhase::index`]), accumulated over every completed fresh run.
    host_phase_ns: [AtomicU64; N_HOST_PHASES],
}

/// EWMA smoothing factor for [`Metrics::record_job_rate`]: each completed
/// job contributes 20%, so the gauge settles within a handful of jobs but
/// one outlier (cold cache, tiny workload) cannot swing it.
const CPS_EWMA_ALPHA: f64 = 0.2;

/// `BUSY{retry_after_ms}` hint before the first fresh run completes.
///
/// The hint normally derives from the mean completed-job wall time, which
/// is undefined exactly when shedding is most likely: a cold daemon hit by
/// its first burst has `completed - cache_hits == 0` and would otherwise
/// divide by zero (or, with naive arithmetic, hand clients a 0 ms hint —
/// an instruction to hammer the queue harder). 100 ms is a deliberate
/// middle ground: longer than any cache hit, shorter than any plausible
/// fresh run, so early retries neither stampede nor stall.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Bounds for the `BUSY` retry hint once real completions exist: one
/// pathological job (instant or hour-long) cannot poison the hint.
pub const RETRY_AFTER_CLAMP_MS: (u64, u64) = (25, 60_000);

/// Point-in-time gauges sampled under the admission lock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    /// Jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently running (at most `ServerConfig::workers`).
    pub in_flight: usize,
}

impl Metrics {
    /// Increments a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Folds one completed fresh run into the simulated-throughput EWMA.
    /// Zero-duration runs are counted as 1 ms so the rate stays finite.
    ///
    /// The read-modify-write is not atomic; racing workers may lose an
    /// update. That is fine for a smoothed operational gauge — every
    /// surviving update still moves toward the true rate.
    pub fn record_job_rate(&self, cycles: u64, wall_ms: u64) {
        let rate = cycles as f64 / (wall_ms.max(1) as f64 / 1000.0);
        let prev = f64::from_bits(self.sim_cps_ewma.load(Ordering::Relaxed));
        let next = if prev == 0.0 {
            rate
        } else {
            CPS_EWMA_ALPHA * rate + (1.0 - CPS_EWMA_ALPHA) * prev
        };
        self.sim_cps_ewma.store(next.to_bits(), Ordering::Relaxed);
    }

    /// The simulated-throughput EWMA (cycles per wall second; 0 before the
    /// first completed fresh run).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        f64::from_bits(self.sim_cps_ewma.load(Ordering::Relaxed))
    }

    /// Hands out the next job id for the structured per-job log line.
    pub fn next_job_id(&self) -> u64 {
        self.job_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Folds one completed fresh run's host self-profile into the
    /// exposition: per-phase wall time (the profiler's estimate)
    /// accumulates.
    pub fn record_host_profile(&self, r: &HostReport) {
        for phase in HostPhase::ALL {
            Self::add(&self.host_phase_ns[phase.index()], r.phase_total_ns(phase));
        }
    }

    /// Mean wall time of a completed fresh run, for the `BUSY` retry hint:
    /// `sim_wall_ms` over the completions that added to it, which are
    /// neither cache hits nor searches. Zero completed fresh runs (a cold
    /// daemon shedding its first burst) yields [`DEFAULT_RETRY_AFTER_MS`] —
    /// never 0, never a division by zero; real averages are clamped to
    /// [`RETRY_AFTER_CLAMP_MS`].
    pub fn avg_job_ms(&self) -> u64 {
        let done = Self::get(&self.completed)
            .saturating_sub(Self::get(&self.cache_hits))
            .saturating_sub(Self::get(&self.tune_completed));
        match Self::get(&self.sim_wall_ms).checked_div(done) {
            None => DEFAULT_RETRY_AFTER_MS,
            Some(avg) => avg.clamp(RETRY_AFTER_CLAMP_MS.0, RETRY_AFTER_CLAMP_MS.1),
        }
    }

    /// Renders the Prometheus-style text exposition.
    pub fn render(&self, g: Gauges) -> String {
        let mut out = String::new();
        #[rustfmt::skip]
        let counters = [
            ("gmh_requests_accepted_total", "Job requests received (each gets exactly one terminal reply).", &self.accepted),
            ("gmh_requests_completed_total", "Job requests answered OK (fresh runs and cache hits).", &self.completed),
            ("gmh_requests_shed_total", "Job requests shed with BUSY at admission (queue full).", &self.shed),
            ("gmh_requests_errored_total", "Job requests refused with ERR.", &self.errored),
            ("gmh_requests_timeout_total", "Job requests stopped with TIMEOUT.", &self.timed_out),
            ("gmh_cache_hits_total", "Result-cache hits.", &self.cache_hits),
            ("gmh_cache_misses_total", "Result-cache misses.", &self.cache_misses),
            ("gmh_sim_cycles_total", "Simulated core cycles across completed fresh runs.", &self.sim_cycles),
            ("gmh_sim_wall_ms_total", "Wall-clock milliseconds spent simulating fresh runs.", &self.sim_wall_ms),
            ("gmh_tune_requests_total", "Design-space search requests received.", &self.tune_requests),
            ("gmh_tune_evals_total", "Candidate evaluations attempted across completed searches.", &self.tune_evals),
            ("gmh_tune_fresh_sims_total", "Fresh simulations run by searches.", &self.tune_fresh_sims),
            ("gmh_tune_cache_hits_total", "Search evaluations served from the result cache.", &self.tune_cache_hits),
        ];
        for (name, help, counter) in counters {
            let v = Self::get(counter);
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        }
        // One TYPE for the family, one `phase`-labeled series per host
        // phase — zero or not, so the label set is stable.
        out.push_str(&format!(
            "# HELP gmh_host_phase_ns_total Host-scheduler wall nanoseconds \
             per run-loop phase, accumulated over completed fresh runs; an \
             estimate: 1 in {TIMED_STRIDE} run-loop iterations is timed, and a phase \
             gets its share of their wall times the loop's, so one run's phases never \
             add up past its wall.\n\
             # TYPE gmh_host_phase_ns_total counter\n",
        ));
        for phase in HostPhase::ALL {
            out.push_str(&format!(
                "gmh_host_phase_ns_total{{phase=\"{}\"}} {}\n",
                phase.name(),
                Self::get(&self.host_phase_ns[phase.index()])
            ));
        }
        let mut gauge = |name: &str, help: &str, v: usize| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "gmh_queue_depth",
            "Jobs waiting in the admission queue.",
            g.queue_depth,
        );
        gauge(
            "gmh_queue_capacity",
            "Admission-queue capacity.",
            g.queue_capacity,
        );
        gauge(
            "gmh_jobs_inflight",
            "Jobs currently running (at most --workers at once).",
            g.in_flight,
        );
        out.push_str(&format!(
            "# HELP gmh_sim_cycles_per_sec EWMA of simulated cycles per wall \
             second over completed fresh runs.\n\
             # TYPE gmh_sim_cycles_per_sec gauge\n\
             gmh_sim_cycles_per_sec {:.1}\n",
            self.sim_cycles_per_sec()
        ));
        out
    }
}

/// Renders the `gmh_build_info` gauge: a constant-1 series whose labels
/// carry the daemon's version and git revision (the standard Prometheus
/// idiom for exposing build metadata).
pub fn render_build_info(version: &str, git_sha: &str) -> String {
    format!(
        "# HELP gmh_build_info Daemon build metadata (constant 1).\n\
         # TYPE gmh_build_info gauge\n\
         gmh_build_info{{version=\"{version}\",git_sha=\"{git_sha}\"}} 1\n"
    )
}

/// Appends one Prometheus histogram series (`_bucket`/`_sum`/`_count`)
/// with a `level` label. Buckets are cumulative with `le` upper bounds;
/// empty trailing buckets are elided (the mandatory `+Inf` bucket closes
/// the series).
fn histogram_series(out: &mut String, name: &str, level: Level, h: &Histogram) {
    let counts = h.counts();
    let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().take(last).enumerate() {
        cumulative += c;
        out.push_str(&format!(
            "{name}_bucket{{level=\"{}\",le=\"{}\"}} {cumulative}\n",
            level.name(),
            Histogram::bucket_upper(i)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{level=\"{}\",le=\"+Inf\"}} {}\n",
        level.name(),
        h.count()
    ));
    out.push_str(&format!(
        "{name}_sum{{level=\"{}\"}} {}\n",
        level.name(),
        h.sum()
    ));
    out.push_str(&format!(
        "{name}_count{{level=\"{}\"}} {}\n",
        level.name(),
        h.count()
    ));
}

/// Renders the per-level queueing/service latency decomposition as two
/// Prometheus histogram families, `gmh_fetch_queueing_ps` and
/// `gmh_fetch_service_ps`, one `level`-labeled series each per hierarchy
/// level. Values are picoseconds from the sampled per-fetch trace of every
/// fresh (non-cached) run the daemon has completed.
pub fn render_histograms(levels: &BTreeMap<Level, LevelLatency>) -> String {
    let mut out = String::new();
    for (name, help, pick) in [
        (
            "gmh_fetch_queueing_ps",
            "Sampled per-fetch queue residency per hierarchy level, picoseconds.",
            true,
        ),
        (
            "gmh_fetch_service_ps",
            "Sampled per-fetch service time per hierarchy level, picoseconds.",
            false,
        ),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (&level, lat) in levels {
            let h = if pick { &lat.queueing } else { &lat.service };
            histogram_series(&mut out, name, level, h);
        }
    }
    out
}

/// Extracts `name value` from a metrics text block (client/test helper).
pub fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_sample_round_trip() {
        let m = Metrics::default();
        Metrics::add(&m.accepted, 5);
        Metrics::inc(&m.completed);
        Metrics::add(&m.sim_cycles, 123_456);
        let text = m.render(Gauges {
            queue_depth: 2,
            queue_capacity: 8,
            in_flight: 1,
        });
        assert_eq!(sample(&text, "gmh_requests_accepted_total"), Some(5));
        assert_eq!(sample(&text, "gmh_requests_completed_total"), Some(1));
        assert_eq!(sample(&text, "gmh_sim_cycles_total"), Some(123_456));
        assert_eq!(sample(&text, "gmh_queue_depth"), Some(2));
        assert_eq!(sample(&text, "gmh_queue_capacity"), Some(8));
        assert_eq!(sample(&text, "gmh_jobs_inflight"), Some(1));
        assert_eq!(sample(&text, "gmh_nonexistent"), None);
        assert_eq!(sample(&text, "gmh_tune_requests_total"), Some(0));
        // Exposition hygiene: HELP/TYPE precede every series.
        assert_eq!(text.matches("# TYPE").count(), 18);
    }

    /// The whole exposition for fixed counter values, byte for byte: every
    /// family, its HELP text and its place in the order.
    #[test]
    fn render_is_pinned_byte_for_byte() {
        let m = Metrics::default();
        let counters = [
            &m.accepted,
            &m.completed,
            &m.shed,
            &m.errored,
            &m.timed_out,
            &m.cache_hits,
            &m.cache_misses,
            &m.sim_cycles,
            &m.sim_wall_ms,
            &m.tune_requests,
            &m.tune_evals,
            &m.tune_fresh_sims,
            &m.tune_cache_hits,
        ];
        for (i, c) in (1..).zip(counters) {
            Metrics::add(c, 101 * i);
        }
        for (i, c) in (1..).zip(&m.host_phase_ns) {
            Metrics::add(c, 7 * i);
        }
        m.record_job_rate(1_234_567, 1_000);
        let text = m.render(Gauges {
            queue_depth: 3,
            queue_capacity: 8,
            in_flight: 2,
        });
        assert_eq!(text, EXPOSITION);
    }

    const EXPOSITION: &str = r#"# HELP gmh_requests_accepted_total Job requests received (each gets exactly one terminal reply).
# TYPE gmh_requests_accepted_total counter
gmh_requests_accepted_total 101
# HELP gmh_requests_completed_total Job requests answered OK (fresh runs and cache hits).
# TYPE gmh_requests_completed_total counter
gmh_requests_completed_total 202
# HELP gmh_requests_shed_total Job requests shed with BUSY at admission (queue full).
# TYPE gmh_requests_shed_total counter
gmh_requests_shed_total 303
# HELP gmh_requests_errored_total Job requests refused with ERR.
# TYPE gmh_requests_errored_total counter
gmh_requests_errored_total 404
# HELP gmh_requests_timeout_total Job requests stopped with TIMEOUT.
# TYPE gmh_requests_timeout_total counter
gmh_requests_timeout_total 505
# HELP gmh_cache_hits_total Result-cache hits.
# TYPE gmh_cache_hits_total counter
gmh_cache_hits_total 606
# HELP gmh_cache_misses_total Result-cache misses.
# TYPE gmh_cache_misses_total counter
gmh_cache_misses_total 707
# HELP gmh_sim_cycles_total Simulated core cycles across completed fresh runs.
# TYPE gmh_sim_cycles_total counter
gmh_sim_cycles_total 808
# HELP gmh_sim_wall_ms_total Wall-clock milliseconds spent simulating fresh runs.
# TYPE gmh_sim_wall_ms_total counter
gmh_sim_wall_ms_total 909
# HELP gmh_tune_requests_total Design-space search requests received.
# TYPE gmh_tune_requests_total counter
gmh_tune_requests_total 1010
# HELP gmh_tune_evals_total Candidate evaluations attempted across completed searches.
# TYPE gmh_tune_evals_total counter
gmh_tune_evals_total 1111
# HELP gmh_tune_fresh_sims_total Fresh simulations run by searches.
# TYPE gmh_tune_fresh_sims_total counter
gmh_tune_fresh_sims_total 1212
# HELP gmh_tune_cache_hits_total Search evaluations served from the result cache.
# TYPE gmh_tune_cache_hits_total counter
gmh_tune_cache_hits_total 1313
# HELP gmh_host_phase_ns_total Host-scheduler wall nanoseconds per run-loop phase, accumulated over completed fresh runs; an estimate: 1 in 17 run-loop iterations is timed, and a phase gets its share of their wall times the loop's, so one run's phases never add up past its wall.
# TYPE gmh_host_phase_ns_total counter
gmh_host_phase_ns_total{phase="core_tick"} 7
gmh_host_phase_ns_total{phase="icnt_tick"} 14
gmh_host_phase_ns_total{phase="l2_tick"} 21
gmh_host_phase_ns_total{phase="dram_tick"} 28
gmh_host_phase_ns_total{phase="ff_probe"} 35
gmh_host_phase_ns_total{phase="ff_jump"} 42
gmh_host_phase_ns_total{phase="telemetry"} 49
gmh_host_phase_ns_total{phase="sched_pop"} 56
gmh_host_phase_ns_total{phase="sched_resched"} 63
# HELP gmh_queue_depth Jobs waiting in the admission queue.
# TYPE gmh_queue_depth gauge
gmh_queue_depth 3
# HELP gmh_queue_capacity Admission-queue capacity.
# TYPE gmh_queue_capacity gauge
gmh_queue_capacity 8
# HELP gmh_jobs_inflight Jobs currently running (at most --workers at once).
# TYPE gmh_jobs_inflight gauge
gmh_jobs_inflight 2
# HELP gmh_sim_cycles_per_sec EWMA of simulated cycles per wall second over completed fresh runs.
# TYPE gmh_sim_cycles_per_sec gauge
gmh_sim_cycles_per_sec 1234567.0
"#;

    #[test]
    fn host_profile_metrics_accumulate_and_render() {
        use gmh_types::prof::HostProfiler;
        use std::time::Duration;

        let m = Metrics::default();
        let text = m.render(Gauges::default());
        assert!(text.contains("gmh_host_phase_ns_total{phase=\"core_tick\"} 0"));

        // A synthetic profiled run: 1 ms of core tick.
        let mut hp = HostProfiler::new();
        let e = hp.epoch();
        hp.record_span(HostPhase::CoreTick, e, e + Duration::from_micros(1_000));
        let report = hp.finish();
        m.record_host_profile(&report);
        let text = m.render(Gauges::default());
        assert!(
            text.contains("gmh_host_phase_ns_total{phase=\"core_tick\"} 1000000"),
            "core tick nanoseconds accumulate:\n{text}"
        );
        // A second run doubles the counters (they accumulate).
        m.record_host_profile(&report);
        let text = m.render(Gauges::default());
        assert!(text.contains("gmh_host_phase_ns_total{phase=\"core_tick\"} 2000000"));
        assert!(
            text.contains("an estimate: 1 in 17 run-loop iterations is timed"),
            "the family says how it is measured:\n{text}"
        );
    }

    #[test]
    fn job_ids_are_monotonic_from_one() {
        let m = Metrics::default();
        assert_eq!(m.next_job_id(), 1);
        assert_eq!(m.next_job_id(), 2);
    }

    #[test]
    fn throughput_ewma_seeds_then_smooths() {
        let m = Metrics::default();
        let text = m.render(Gauges::default());
        assert!(
            text.contains("gmh_sim_cycles_per_sec 0.0"),
            "gauge renders 0 before the first completion:\n{text}"
        );
        // First job seeds the EWMA directly: 500k cycles in 2 s.
        m.record_job_rate(1_000_000, 2_000);
        assert_eq!(m.sim_cycles_per_sec(), 500_000.0);
        // Second at 100k/s moves it 20% of the way: 0.2*1e5 + 0.8*5e5.
        m.record_job_rate(100_000, 1_000);
        assert_eq!(m.sim_cycles_per_sec(), 420_000.0);
        // A zero-duration run is clamped to 1 ms, not a division by zero.
        m.record_job_rate(1_000, 0);
        assert!(m.sim_cycles_per_sec().is_finite());
    }

    #[test]
    fn retry_hint_tracks_average_and_clamps() {
        let m = Metrics::default();
        assert_eq!(
            m.avg_job_ms(),
            DEFAULT_RETRY_AFTER_MS,
            "explicit default before first completion"
        );
        Metrics::add(&m.completed, 4);
        Metrics::add(&m.sim_wall_ms, 4 * 180);
        assert_eq!(m.avg_job_ms(), 180);
        let fast = Metrics::default();
        Metrics::add(&fast.completed, 100);
        Metrics::add(&fast.sim_wall_ms, 100);
        assert_eq!(fast.avg_job_ms(), RETRY_AFTER_CLAMP_MS.0, "clamped below");
    }

    #[test]
    fn retry_hint_defaults_when_all_completions_are_cache_hits() {
        // `completed` > 0 but every one was a cache hit: still no fresh-run
        // wall time to average, so the explicit default must hold (not 0,
        // not a division by zero).
        let m = Metrics::default();
        Metrics::add(&m.completed, 7);
        Metrics::add(&m.cache_hits, 7);
        assert_eq!(m.avg_job_ms(), DEFAULT_RETRY_AFTER_MS);
        assert!(m.avg_job_ms() > 0, "a 0 ms hint tells clients to hammer");
    }

    #[test]
    fn build_info_renders_labels() {
        let text = render_build_info("0.1.0", "abc123");
        assert!(text.contains("# TYPE gmh_build_info gauge"));
        assert!(text.contains("gmh_build_info{version=\"0.1.0\",git_sha=\"abc123\"} 1"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_with_inf() {
        let mut levels: BTreeMap<Level, LevelLatency> = BTreeMap::new();
        let mut lat = LevelLatency::default();
        lat.queueing.record(0); // bucket le="0"
        lat.queueing.record(3); // bucket le="3"
        lat.queueing.record(3);
        lat.service.record(100);
        levels.insert(Level::L2, lat);
        levels.insert(Level::Dram, LevelLatency::default());
        let text = render_histograms(&levels);
        // One TYPE per family, not per level.
        assert_eq!(text.matches("# TYPE").count(), 2);
        assert!(text.contains("# TYPE gmh_fetch_queueing_ps histogram"));
        assert!(text.contains("gmh_fetch_queueing_ps_bucket{level=\"l2\",le=\"0\"} 1"));
        assert!(text.contains("gmh_fetch_queueing_ps_bucket{level=\"l2\",le=\"3\"} 3"));
        assert!(text.contains("gmh_fetch_queueing_ps_bucket{level=\"l2\",le=\"+Inf\"} 3"));
        assert!(text.contains("gmh_fetch_queueing_ps_sum{level=\"l2\"} 6"));
        assert!(text.contains("gmh_fetch_queueing_ps_count{level=\"l2\"} 3"));
        assert!(text.contains("gmh_fetch_service_ps_count{level=\"l2\"} 1"));
        // An empty level still closes its series with the +Inf bucket.
        assert!(text.contains("gmh_fetch_service_ps_bucket{level=\"dram\",le=\"+Inf\"} 0"));
        assert!(text.contains("gmh_fetch_service_ps_count{level=\"dram\"} 0"));
    }

    #[test]
    fn cache_hits_excluded_from_average() {
        let m = Metrics::default();
        // 2 fresh runs at 200 ms plus 8 instant cache hits.
        Metrics::add(&m.completed, 10);
        Metrics::add(&m.cache_hits, 8);
        Metrics::add(&m.sim_wall_ms, 400);
        assert_eq!(m.avg_job_ms(), 200);
    }

    #[test]
    fn searches_excluded_from_average() {
        // A search completes without adding to `sim_wall_ms`; counted as a
        // fresh run of 0 ms, it would pull the hint to the clamp floor.
        let m = Metrics::default();
        Metrics::inc(&m.completed);
        Metrics::inc(&m.tune_completed);
        assert_eq!(m.avg_job_ms(), DEFAULT_RETRY_AFTER_MS);
        // One 300 ms fresh run beside it: the average is that run's.
        Metrics::inc(&m.completed);
        Metrics::add(&m.sim_wall_ms, 300);
        assert_eq!(m.avg_job_ms(), 300);
    }
}
