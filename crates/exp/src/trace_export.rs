//! Exporters for sampled per-fetch lifecycle traces ([`TraceData`]).
//!
//! Two views of the same event stream:
//!
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto or `chrome://tracing`. One track (thread) per hierarchy
//!   level; queue residency and service time render as complete (`"X"`)
//!   spans, stall episodes as instant (`"i"`) markers.
//! * [`latency_table`] — a plain-text per-level queueing-vs-service
//!   decomposition table, the per-fetch counterpart of the paper's
//!   congestion argument (queueing at L2/DRAM dwarfing service time under
//!   memory-intensive load).
//!
//! Both are deterministic functions of the trace: same `(config, seed)`
//! run, byte-identical export (ordered maps only, as in the model crates).

use crate::chrome::{quoted, ChromeTrace};
use gmh_types::telemetry::json_num;
use gmh_types::trace::{Level, TraceData, TraceEventKind};
use gmh_types::{AccessKind, Picos};

/// Track (Chrome `tid`) of a hierarchy level: hierarchy order, 1-based.
fn tid_of(level: Level) -> usize {
    // INVARIANT: Level::ALL contains every variant.
    1 + Level::ALL
        .iter()
        .position(|&l| l == level)
        .expect("level in Level::ALL")
}

/// Stable lowercase label for an access kind.
fn kind_label(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Load => "load",
        AccessKind::Store => "store",
        AccessKind::InstFetch => "inst_fetch",
        AccessKind::L2WriteBack => "l2_writeback",
    }
}

/// Picoseconds to the microsecond `ts`/`dur` fields of the Chrome trace
/// format (1 ps = 1e-6 µs, so six decimal places are exact).
fn micros(ps: Picos) -> f64 {
    ps.as_u64() as f64 / 1e6
}

/// Serializes a trace as single-line Chrome `trace_event` JSON
/// (`{"displayTimeUnit":…,"traceEvents":[…]}`).
///
/// Layout: one process (`pid` 0) named for the workload, one thread per
/// [`Level`] in hierarchy order. Every derived span (see
/// [`TraceData::spans`]) becomes a complete event named
/// `"<level> queue"` / `"<level> service"` carrying the fetch's core, id,
/// line address, warp and access kind in `args`; every `StalledAt` event
/// becomes a thread-scoped instant named `"stall:<cause>"`.
pub fn chrome_trace_json(workload: &str, trace: &TraceData) -> String {
    let mut out = ChromeTrace::new();
    out.metadata("process_name", 0, "name", &quoted(workload));
    for level in Level::ALL {
        let tid = tid_of(level);
        out.metadata("thread_name", tid, "name", &quoted(level.name()));
        out.metadata("thread_sort_index", tid, "sort_index", &tid.to_string());
    }
    for s in trace.spans() {
        let component = if s.is_queue { "queue" } else { "service" };
        let mut args = format!("\"core\":{},\"fetch\":{}", s.core, s.fetch);
        if let Some(info) = trace.fetches.get(&(s.core, s.fetch)) {
            args.push_str(&format!(
                ",\"line\":{},\"warp\":{},\"kind\":\"{}\"",
                info.line,
                info.warp,
                kind_label(info.kind)
            ));
        }
        out.complete(
            &format!("{} {component}", s.level.name()),
            component,
            tid_of(s.level),
            micros(s.start_ps),
            micros(s.end_ps.saturating_sub(s.start_ps)),
            &args,
        );
    }
    for e in &trace.events {
        if let TraceEventKind::StalledAt(level, cause) = e.kind {
            out.instant(
                &format!("stall:{}", cause.name()),
                "stall",
                tid_of(level),
                micros(e.at_ps),
                &format!("\"core\":{},\"fetch\":{}", e.core, e.fetch),
            );
        }
    }
    out.finish()
}

/// Renders the per-level queueing-vs-service decomposition as a
/// fixed-width text table (times in microseconds; `share` is each
/// component's fraction of total decomposed latency).
///
/// This is the single-workload Fig. 4/5 companion: for memory-intensive
/// workloads the L2/DRAM *queueing* rows dominate their *service* rows.
pub fn latency_table(workload: &str, trace: &TraceData) -> String {
    let mut out = format!(
        "# {workload}: per-fetch latency decomposition \
         (1-in-{} sampling: {} fetches sampled, {} skipped, {} events dropped)\n",
        trace.sample_denom.max(1),
        trace.sampled,
        trace.skipped,
        trace.dropped_events
    );
    out.push_str(&format!(
        "{:<6} {:<10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>7}\n",
        "level", "component", "count", "mean_us", "p50_us", "p90_us", "p99_us", "share"
    ));
    let total: u64 = trace
        .levels
        .values()
        .map(|l| l.queueing.sum().saturating_add(l.service.sum()))
        .sum();
    for (level, lat) in &trace.levels {
        for (component, h) in [("queueing", &lat.queueing), ("service", &lat.service)] {
            let share = if total == 0 {
                0.0
            } else {
                h.sum() as f64 / total as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<6} {:<10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>6.1}%\n",
                level.name(),
                component,
                h.count(),
                json_num(h.mean() / 1e6),
                json_num(h.quantile(0.5) / 1e6),
                json_num(h.quantile(0.9) / 1e6),
                json_num(h.quantile(0.99) / 1e6),
                share
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_core::SimStats;

    fn traced_run() -> SimStats {
        use gmh_core::{GpuConfig, GpuSim};
        use gmh_workloads::catalog;
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.n_cores = 2;
        cfg.max_core_cycles = 50_000;
        cfg.trace_sample = 4;
        cfg.trace_event_cap = 1 << 16;
        let mut wl = catalog::by_name("nn").unwrap();
        wl.insts_per_warp = 40;
        wl.warps_per_core = 4;
        GpuSim::new(cfg, &wl).run()
    }

    #[test]
    fn chrome_trace_has_a_track_per_level_and_spans() {
        let stats = traced_run();
        let json = chrome_trace_json("nn", &stats.trace);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(!json.contains('\n'), "single-line JSON");
        for level in Level::ALL {
            assert!(
                json.contains(&format!("\"args\":{{\"name\":\"{}\"}}", level.name())),
                "missing thread_name track for {}",
                level.name()
            );
        }
        assert!(json.contains("\"ph\":\"X\""), "no spans exported");
        assert!(json.contains("l1 queue"), "missing L1 queue spans");
        assert!(json.contains("\"kind\":\"load\""), "fetch labels missing");
        gmh_types::json::parse(&json).expect("well-formed JSON");
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let a = traced_run();
        let b = traced_run();
        assert_eq!(
            chrome_trace_json("nn", &a.trace),
            chrome_trace_json("nn", &b.trace)
        );
    }

    #[test]
    fn latency_table_lists_every_level_component() {
        let stats = traced_run();
        let table = latency_table("nn", &stats.trace);
        for level in Level::ALL {
            assert!(table.contains(level.name()), "missing {}", level.name());
        }
        assert!(table.contains("queueing"));
        assert!(table.contains("service"));
        assert!(table.contains("1-in-4 sampling"));
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = TraceData::default();
        let json = chrome_trace_json("empty", &trace);
        assert!(json.contains("\"traceEvents\":["));
        let table = latency_table("empty", &trace);
        assert!(table.contains("0 fetches sampled"));
    }
}
