//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats these tables (a unit test holds the
//! two together); the `bound` of an end-to-end metric lives only there.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// Reported by every workload with tracing off. An *operation* is one
/// simulation (`saturated`, `bursty`), one job (`sweep`) or one request
/// (`serve`); a *unit* is what is timed as a whole — a pass over the trio,
/// one `eval_batch` pass, one request round trip.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("unit_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("sim_insts_per_s", "1/s", "higher"),
];

/// Reported by every workload with tracing on. A value a workload does not
/// exercise is 0 there. The simulated ones repeat exactly for a given seed;
/// see [`EXACT`].
pub const PER_LAYER: &[Def] = &[
    // simt
    ("simt.tick_ns.busy", "ns", "lower"),
    ("simt.tick_ns.memstall", "ns", "lower"),
    ("simt.probe_ns", "ns", "lower"),
    ("simt.est_share", "ratio", "lower"),
    ("simt.stall_frac", "ratio", "lower"),
    // workloads
    ("workloads.next_inst_ns", "ns", "lower"),
    ("workloads.trace_record_ms", "ms", "lower"),
    ("workloads.trace_parse_ms", "ms", "lower"),
    // cache
    ("cache.hit_ns", "ns", "lower"),
    ("cache.miss_fill_ns", "ns", "lower"),
    ("cache.mshr_ns", "ns", "lower"),
    ("cache.l1_miss_rate", "ratio", "lower"),
    ("cache.l2_miss_rate", "ratio", "lower"),
    // icnt
    ("icnt.tick_ns.loaded", "ns", "lower"),
    ("icnt.tick_ns.asym", "ns", "lower"),
    ("icnt.tick_ns.idle", "ns", "lower"),
    ("icnt.probe_ns", "ns", "lower"),
    ("icnt.flits_per_tick", "count", "higher"),
    ("icnt.est_share", "ratio", "lower"),
    // core
    ("core.l2bank_tick_ns.loaded", "ns", "lower"),
    ("core.l2bank_tick_ns.idle", "ns", "lower"),
    ("core.l2bank_probe_ns", "ns", "lower"),
    ("core.l2bank_est_share", "ratio", "lower"),
    ("core.new_ms", "ms", "lower"),
    ("core.run_share", "ratio", "higher"),
    ("core.run_s.mm", "s", "lower"),
    ("core.run_s.lbm", "s", "lower"),
    ("core.run_s.bfs", "s", "lower"),
    ("core.run_s.burst", "s", "lower"),
    ("core.run_s.lull", "s", "lower"),
    ("core.run_s.solo", "s", "lower"),
    ("core.event_speedup", "ratio", "higher"),
    ("core.ledger_coverage", "ratio", "higher"),
    ("core.sim_cycles", "count", "lower"),
    ("core.insts", "count", "higher"),
    ("core.ipc", "ratio", "higher"),
    ("core.aml_cycles", "count", "lower"),
    ("core.l2_queue_full_frac", "ratio", "lower"),
    ("core.l2_stall_bp_icnt_frac", "ratio", "lower"),
    ("core.l2_stall_bp_dram_frac", "ratio", "lower"),
    ("core.report_digest_mismatches", "count", "lower"),
    // dram
    ("dram.tick_ns.stream", "ns", "lower"),
    ("dram.tick_ns.random", "ns", "lower"),
    ("dram.tick_ns.idle", "ns", "lower"),
    ("dram.probe_ns", "ns", "lower"),
    ("dram.est_share", "ratio", "lower"),
    ("dram.queue_full_frac", "ratio", "lower"),
    ("dram.efficiency", "ratio", "higher"),
    // types
    ("types.queue_op_ns", "ns", "lower"),
    ("types.trace_overhead_pct", "%", "lower"),
    ("types.prof_overhead_pct", "%", "lower"),
    // exp
    ("exp.job_key_ns", "ns", "lower"),
    ("exp.report_json_us", "us", "lower"),
    ("exp.cache_put_us", "us", "lower"),
    ("exp.cache_get_us", "us", "lower"),
    ("exp.metric_scan_ns", "ns", "lower"),
    ("exp.batch_dispatch_us", "us", "lower"),
    ("exp.cpu_util", "ratio", "higher"),
    ("exp.fresh_sims", "count", "lower"),
    ("exp.cache_hits", "count", "higher"),
    ("exp.fig12_err_pp", "pp", "lower"),
    ("exp.fig8_err_pp", "pp", "lower"),
    ("exp.paper_err_pp", "pp", "lower"),
    // serve
    ("serve.parse_us", "us", "lower"),
    ("serve.render_us", "us", "lower"),
    ("serve.json_parse_mb_per_s", "MB/s", "higher"),
    ("serve.ping_rtt_us", "us", "lower"),
    ("serve.metrics_rtt_us", "us", "lower"),
    ("serve.cold_p95_ms", "ms", "lower"),
    ("serve.cold_overhead_ms", "ms", "lower"),
    ("serve.cold_sim_share", "ratio", "higher"),
    ("serve.warm_p50_us", "us", "lower"),
    ("serve.warm_p95_us", "us", "lower"),
    ("serve.warm_req_per_s", "1/s", "higher"),
    ("serve.cpu_util", "ratio", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errored", "count", "lower"),
    ("serve.timed_out", "count", "lower"),
    // tune
    ("tune.smoke_cold_ms", "ms", "lower"),
    ("tune.smoke_warm_ms", "ms", "lower"),
    ("tune.fresh_sims", "count", "lower"),
    // bench
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.peak_rss_mb", "MB", "lower"),
];

/// Simulated (not host-clock) per-layer values: for one seed they repeat
/// exactly, so `--check` requires them equal and a simulator-speed change
/// must leave them untouched.
pub const EXACT: &[&str] = &[
    "simt.stall_frac",
    "cache.l1_miss_rate",
    "cache.l2_miss_rate",
    "icnt.flits_per_tick",
    "core.sim_cycles",
    "core.insts",
    "core.ipc",
    "core.aml_cycles",
    "core.l2_queue_full_frac",
    "core.l2_stall_bp_icnt_frac",
    "core.l2_stall_bp_dram_frac",
    "core.report_digest_mismatches",
    "dram.queue_full_frac",
    "dram.efficiency",
    "exp.fresh_sims",
    "exp.cache_hits",
    "exp.fig12_err_pp",
    "exp.fig8_err_pp",
    "exp.paper_err_pp",
    "serve.shed",
    "serve.errored",
    "serve.timed_out",
    "tune.fresh_sims",
];

/// Per-layer rows `--check` holds to a bound, as a share of the first
/// file's median: what a user of the system would notice but the end-to-end
/// list cannot carry, because every workload must report every end-to-end
/// metric and none may read 0. With `exp.paper_err_pp` (exact) and the
/// `failed` count these are the issue's remaining end-to-end names:
/// `peak_rss_mb`, `cold_p95_ms`, `warm_p50_us`, `warm_req_per_s` and
/// `warm_sweep_ms` (as time per job).
pub const PER_LAYER_BOUNDS: &[(&str, f64)] = &[
    ("bench.peak_rss_mb", 0.10),
    ("serve.cold_p95_ms", 0.25),
    ("serve.warm_p50_us", 0.25),
    ("serve.warm_req_per_s", 0.25),
    ("exp.batch_dispatch_us", 0.25),
];

pub fn is_exact(name: &str) -> bool {
    EXACT.contains(&name)
}

/// The values of one run, keyed by metric name.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `defs` at 0 until measured.
    pub fn new(defs: &'static [Def]) -> Self {
        Metrics {
            defs,
            values: defs.iter().map(|d| (d.0, 0.0)).collect(),
        }
    }

    /// # Panics
    ///
    /// Panics on a name outside the table: a typo must not grow the output.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `{"name":{"value":v,"unit":"u"},...}` in table order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, _)) in self.defs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(self.values[name])
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }

    /// One aligned `name value unit` line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, unit, _) in self.defs {
            writeln!(out, "  {name:<32} {:>16.4} {unit}", self.values[name])
                .expect("writing to a String cannot fail");
        }
        out
    }
}

/// A float as JSON, with all its digits (`gmh_types::telemetry::json_num`
/// rounds to six decimals, and a measured time must not); non-finite values
/// (a ratio over zero work) become 0 so the line always parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_serve::json::{self, Json};

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn defs_of(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_parses_back_and_matches_the_tables() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let owned = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect()
        };
        assert_eq!(defs_of(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(defs_of(&doc, "per_layer"), owned(PER_LAYER));
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end is an array");
        };
        for m in e2e {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::RUN_SECONDS)
        );
    }

    /// The settings under `[profile.release]` in a manifest.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// Cargo reads profiles from the workspace root only, so this package
    /// repeats the repository's; the benchmark must measure the build users run.
    #[test]
    fn release_profile_is_the_repository_s() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(
            ours,
            release_profile(include_str!("../../../../../../Cargo.toml"))
        );
    }

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(matches!(*better, "lower" | "higher"));
        }
        for exact in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.0 == *exact), "{exact}");
        }
        for (name, bound) in PER_LAYER_BOUNDS {
            assert!(PER_LAYER.iter().any(|d| d.0 == *name), "{name}");
            assert!(!is_exact(name) && *bound > 0.0 && *bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|d| d.0 == "setup_s" && d.1 == "s"));
    }

    #[test]
    fn metrics_round_trip_through_the_json_parser() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.812_734_5);
        m.set("ops_per_s", f64::NAN);
        let doc = json::parse(&m.to_json()).expect("valid JSON");
        let v = doc.get("setup_s").expect("setup_s");
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(0.812_734_5));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            doc.get("ops_per_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(doc.as_obj().expect("object").len(), END_TO_END.len());
    }
}
