//! What every workload shares: the run's parameters, its result, the
//! per-simulation failure rules and the host readings from `/proc`.

use crate::inputs::Sizes;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, tail};
use gmh_core::SimStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of one workload run (one process).
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed window. Zero (`--smoke`) times exactly one unit.
    pub window: Duration,
    pub traced: bool,
    pub sizes: Sizes,
    /// How often set-up is repeated; its median is `setup_s`.
    pub setup_repeats: usize,
    /// Scratch directory of this run (cache dirs); removed by the parent.
    pub dir: PathBuf,
}

impl Ctx {
    /// The part of the window the workload times; a traced run leaves the
    /// other half to the layer drivers.
    pub fn timed_window(&self) -> Duration {
        if self.traced {
            self.window / 2
        } else {
            self.window
        }
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, tag: &str, n: usize) -> PathBuf {
        let dir = self.dir.join(format!("{tag}-{n}"));
        // A leftover from a crashed run of the same pid would leak cache hits.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Gate failures beyond per-operation ones (oracle mismatch, warm ≠ cold,
    /// metrics identity); any entry makes the run incorrect.
    pub gate_failures: Vec<String>,
    pub metrics: Metrics,
    /// Host-independent digests of this run's reports, for `golden/`.
    pub digests: Vec<(String, u64)>,
    pub recorder: Recorder,
}

impl Outcome {
    pub fn new(ctx: &Ctx) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            metrics: Metrics::new(if ctx.traced { PER_LAYER } else { END_TO_END }),
            digests: Vec::new(),
            recorder: Recorder::new(ctx.traced),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }

    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// Stores `bench.trace_overhead_pct`: the median recorded unit against the
    /// median unrecorded unit of the same run.
    pub fn store_trace_overhead(&mut self, recorded: &[f64], plain: &[f64]) {
        if !recorded.is_empty() && !plain.is_empty() {
            self.metrics.set(
                "bench.trace_overhead_pct",
                (median(recorded) / median(plain) - 1.0) * 100.0,
            );
        }
    }

    /// Stores the mean duration of the spans called `span` as `metric`, in
    /// units of `unit_ns` nanoseconds.
    pub fn store_span_mean(&mut self, span: &str, metric: &str, unit_ns: f64) {
        if let Some(t) = self.recorder.totals().get(span) {
            self.metrics
                .set(metric, t.total_ns as f64 / t.count as f64 / unit_ns);
        }
    }
}

/// A stretch of timed work: one pass (`saturated`, `bursty`, `sweep`) or one
/// round of consecutive cold requests (`serve`).
pub struct Round {
    pub wall_s: f64,
    pub ops: u64,
    pub cycles: u64,
    pub insts: u64,
}

/// The timed units and rounds of one run, folded into the end-to-end
/// metrics every workload reports.
#[derive(Default)]
pub struct Tally {
    /// Wall time of each timed unit, in seconds: the rounds' own, except on
    /// `serve`, where a unit is one request's round trip.
    pub unit_s: Vec<f64>,
    /// Rates are the median over rounds of work over wall time, not all work
    /// over all time: on a shared host a slow stretch lengthens some rounds,
    /// and must not move a rate more than it moves the median.
    pub rounds: Vec<Round>,
}

impl Tally {
    /// Adds a round that is also a timed unit.
    pub fn push_pass(&mut self, round: Round) {
        self.unit_s.push(round.wall_s);
        self.rounds.push(round);
    }

    pub fn store(&self, setup_s: &[f64], m: &mut Metrics) {
        let ms: Vec<f64> = self.unit_s.iter().map(|s| s * 1e3).collect();
        println!("set-up s: {setup_s:.4?}");
        m.set("setup_s", median(setup_s));
        m.set("unit_p50_ms", median(&ms));
        let per_s = |work: &dyn Fn(&Round) -> u64| {
            let rates: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| work(r) as f64 / r.wall_s)
                .collect();
            median(&rates)
        };
        m.set("ops_per_s", per_s(&|r| r.ops));
        m.set("sim_cycles_per_s", per_s(&|r| r.cycles));
        m.set("sim_insts_per_s", per_s(&|r| r.insts));
    }

    pub fn describe(&self) -> String {
        let mut ms: Vec<f64> = self.unit_s.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let at = |pct: usize| ms[(ms.len() * pct / 100).min(ms.len() - 1)];
        format!(
            "{} timed units (tail = p{:.2}), {} operations in {} rounds of {:.3} s together\n\
             unit ms: min {:.4} p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} max {:.4}",
            ms.len(),
            tail(&ms).1,
            self.rounds.iter().map(|r| r.ops).sum::<u64>(),
            self.rounds.len(),
            self.rounds.iter().map(|r| r.wall_s).sum::<f64>(),
            ms[0],
            at(10),
            at(25),
            at(50),
            at(75),
            at(90),
            at(95),
            at(99),
            ms[ms.len() - 1]
        )
    }
}

/// Runs `f` until the window closes, at least once.
pub fn for_window(window: Duration, mut f: impl FnMut()) {
    let started = Instant::now();
    loop {
        f();
        if started.elapsed() >= window {
            break;
        }
    }
}

/// The per-simulation failure rules that need only the statistics: the
/// cycle cap and the fetch-conservation identity.
pub fn stats_failure(s: &SimStats) -> Option<String> {
    if s.hit_cycle_cap {
        return Some("hit the cycle cap".to_string());
    }
    let a = &s.audit;
    if a.emitted != a.returned + a.absorbed || a.in_flight != 0 {
        return Some(format!(
            "fetch audit broken: emitted {} returned {} absorbed {} in flight {}",
            a.emitted, a.returned, a.absorbed, a.in_flight
        ));
    }
    None
}

/// `core_cycles` and `insts` out of a report's summary (what a cache hit
/// or a daemon reply carries instead of `SimStats`).
pub fn report_work(json: &str) -> Option<(u64, u64)> {
    let field = |name: &str| -> Option<u64> {
        let v = gmh_exp::cache::metric_in_json(json, name)?;
        // Both are integer counts below 2^53, so the float is exact.
        format!("{v:.0}").parse().ok()
    };
    Some((field("core_cycles")?, field("insts")?))
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s — the
/// fixed `USER_HZ` Linux exposes to user space).
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_work_reads_the_summary() {
        let json =
            r#"{"workload":"mm","summary":{"core_cycles":481728,"insts":864000,"ipc":1.79}}"#;
        assert_eq!(report_work(json), Some((481_728, 864_000)));
        assert_eq!(report_work("{}"), None);
    }

    #[test]
    fn audit_identity_and_cycle_cap_fail_a_simulation() {
        let mut s = SimStats::default();
        assert_eq!(stats_failure(&s), None);
        s.audit.emitted = 3;
        s.audit.returned = 2;
        assert!(stats_failure(&s).expect("broken").contains("fetch audit"));
        s.audit.absorbed = 1;
        assert_eq!(stats_failure(&s), None);
        s.hit_cycle_cap = true;
        assert!(stats_failure(&s).expect("capped").contains("cycle cap"));
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        assert!(vm_hwm_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn window_of_zero_runs_once() {
        let mut n = 0;
        for_window(Duration::ZERO, || n += 1);
        assert_eq!(n, 1);
    }
}
