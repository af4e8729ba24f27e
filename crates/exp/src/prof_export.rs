//! Exporters for host-side self-profiles ([`HostReport`]).
//!
//! Two views of the same report, mirroring [`crate::trace_export`] for the
//! *simulated* machine:
//!
//! * [`host_trace_json`] — Chrome `trace_event` JSON of the host timeline
//!   (one track: a simulation runs on one thread), loadable in Perfetto
//!   next to the simulated-time trace.
//! * [`utilization_table`] — a fixed-width attribution table: per-phase
//!   wall share and mean span cost.
//!
//! Both are deterministic functions of the report (the report itself is
//! wall-clock data, so two runs differ; two exports of one report do not).
//! The profiler times one run-loop iteration in [`TIMED_STRIDE`], so the
//! timeline shows those iterations only and the table's totals are
//! estimates scaled from them; both exports say so.

use gmh_types::prof::{HostPhase, HostReport, TIMED_STRIDE};
use gmh_types::telemetry::{json_escape, json_num};

/// Nanoseconds to the microsecond `ts`/`dur` fields of the Chrome trace
/// format (1 ns = 1e-3 µs, so three decimal places are exact).
fn micros(ns: u64) -> String {
    json_num(ns as f64 / 1e3)
}

/// Serializes a host profile as single-line Chrome `trace_event` JSON.
///
/// Layout: one process (`pid` 0) named `"gmh host: <label>"`, labelled
/// with the timing stride, with one thread (`tid` 1, `"run loop"`). Every
/// timed span becomes a complete (`"X"`) event named for its phase — the
/// gaps between timed iterations are iterations that were only counted;
/// nested phases (e.g. `l2_tick` inside `icnt_tick`) nest by time
/// containment, which Perfetto renders as stacked slices.
pub fn host_trace_json(label: &str, report: &HostReport) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"gmh host: {}\"}}}}",
        json_escape(label)
    ));
    events.push(format!(
        "{{\"name\":\"process_labels\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"labels\":\"1 in {TIMED_STRIDE} run-loop iterations timed \
         ({} of {}); {} timed spans beyond the timeline cap\"}}}}",
        report.timed_iterations, report.iterations, report.dropped
    ));
    events.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\
         \"args\":{\"name\":\"run loop\"}}"
            .to_string(),
    );
    for e in &report.events {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":0,\
             \"tid\":1,\"ts\":{},\"dur\":{}}}",
            e.phase.name(),
            micros(e.start_ns),
            micros(e.dur_ns),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Renders the attribution table: a header with the wall time, the share
/// of it attributed to any phase (an estimate, and the header says from
/// what; it can pass 100 %, because a timed span carries a clock read the
/// untimed majority did not pay — see [`gmh_types::prof`]) and the timed
/// spans that did not fit the timeline cap, then one row per phase that
/// occurred — exact counts, estimated totals.
pub fn utilization_table(report: &HostReport) -> String {
    let wall = report.wall_ns.max(1) as f64;
    let mut out = format!(
        "# host profile: wall {} s, attributed {:.1}%, estimated from 1 in {TIMED_STRIDE} \
         iterations; {} timed spans beyond the timeline cap\n",
        json_num(report.wall_ns as f64 / 1e9),
        report.busy_ns() as f64 / wall * 100.0,
        report.dropped,
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>12} {:>9} {:>12}\n",
        "phase", "count", "est_total_s", "wall_pct", "mean_us"
    ));
    for (name, total_ns, count) in phase_rows(report) {
        let mean_us = if count == 0 {
            0.0
        } else {
            total_ns as f64 / count as f64 / 1e3
        };
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>8.1}% {:>12}\n",
            name,
            count,
            json_num(total_ns as f64 / 1e9),
            total_ns as f64 / wall * 100.0,
            json_num(mean_us),
        ));
    }
    out
}

/// Convenience for JSON rows: per-phase `(name, estimated total_ns, count)`
/// triples for every phase that occurred, in fixed [`HostPhase::ALL`]
/// order.
pub fn phase_rows(report: &HostReport) -> Vec<(&'static str, u64, u64)> {
    HostPhase::ALL
        .iter()
        .map(|p| (p.name(), report.phase_total_ns(*p), report.phase_count(*p)))
        .filter(|(_, t, c)| *t > 0 || *c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::prof::HostProfiler;
    use std::time::Duration;

    /// Three timed spans and three more that were only counted, so every
    /// total is an estimate of twice its timed span; 1 ms of wall.
    fn synthetic_report() -> HostReport {
        let mut p = HostProfiler::new();
        let epoch = p.epoch();
        for (phase, start_us, dur_us) in [
            (HostPhase::IcntTick, 0, 200),
            (HostPhase::L2Tick, 50, 100),
            (HostPhase::CoreTick, 200, 150),
        ] {
            let start = epoch + Duration::from_micros(start_us);
            p.record_span(phase, start, start + Duration::from_micros(dur_us));
            p.count(phase);
        }
        let mut r = p.finish();
        r.wall_ns = 1_000_000;
        r
    }

    #[test]
    fn trace_json_has_one_track_with_every_span() {
        let json = host_trace_json("mm", &synthetic_report());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(!json.contains('\n'), "single-line JSON");
        assert!(json.contains("\"name\":\"gmh host: mm\""));
        assert!(json.contains("\"name\":\"run loop\""));
        assert!(json.contains("\"name\":\"icnt_tick\""));
        assert!(json.contains("\"name\":\"l2_tick\""));
        assert!(
            json.contains("\"labels\":\"1 in 17 run-loop iterations timed"),
            "the timeline says what it leaves out: {json}"
        );
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        gmh_types::json::parse(&json).expect("well-formed JSON");
    }

    #[test]
    fn trace_json_is_deterministic_per_report() {
        let r = synthetic_report();
        assert_eq!(host_trace_json("mm", &r), host_trace_json("mm", &r));
    }

    #[test]
    fn table_lists_phases_that_occurred() {
        let table = utilization_table(&synthetic_report());
        assert!(table.contains("icnt_tick"));
        assert!(table.contains("l2_tick"));
        assert!(table.contains("core_tick"));
        assert!(!table.contains("ff_probe"), "absent phases are omitted");
        // Top-level estimates: 400µs + 300µs of 1 ms wall; the nested
        // l2_tick is not counted twice.
        assert!(
            table.contains("attributed 70.0%, estimated from 1 in 17 iterations; 0 timed spans"),
            "{table}"
        );
    }

    #[test]
    fn phase_rows_skip_empty_phases() {
        let rows = phase_rows(&synthetic_report());
        assert!(rows
            .iter()
            .any(|(n, t, c)| *n == "icnt_tick" && *t == 400_000 && *c == 2));
        assert!(rows.iter().all(|(n, _, _)| *n != "ff_jump"));
    }

    #[test]
    fn profiled_run_exports_end_to_end() {
        use gmh_core::{GpuConfig, GpuSim};
        use gmh_workloads::catalog;
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.n_cores = 2;
        cfg.max_core_cycles = 20_000;
        cfg.profile_host = true;
        let mut wl = catalog::by_name("nn").unwrap();
        wl.insts_per_warp = 40;
        wl.warps_per_core = 4;
        let mut sim = GpuSim::new(cfg, &wl);
        let _ = sim.run();
        let report = sim.take_host_report().expect("profile_host was on");
        assert!(report.wall_ns > 0);
        assert!(report.phase_count(HostPhase::CoreTick) > 0);
        let json = host_trace_json("nn", &report);
        assert!(json.contains("\"name\":\"core_tick\""));
        let table = utilization_table(&report);
        assert!(table.contains("core_tick"));
        assert!(sim.take_host_report().is_none(), "report is taken once");
    }
}
