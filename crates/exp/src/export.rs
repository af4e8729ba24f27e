//! Machine-readable export of run statistics and telemetry.
//!
//! Serializes a [`SimStats`] — summary scalars, stall attribution at all
//! three levels, the fetch-conservation audit and the per-level telemetry
//! time series — as a single JSON document, and the telemetry alone as
//! CSV. No external serialization crate is used; the format is stable and
//! documented in `EXPERIMENTS.md`.

use gmh_core::SimStats;
use gmh_types::telemetry::{json_escape, json_num};
use std::io;
use std::path::{Path, PathBuf};

fn obj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Serializes one run as a self-contained JSON report:
///
/// ```json
/// {
///   "workload": "...", "config": "...",
///   "summary": { "core_cycles": ..., "ipc": ..., ... },
///   "issue_stalls": { "data_mem": ..., ... },
///   "l1_stalls": { "cache": ..., "mshr": ..., "bp_l2": ... },
///   "l2_stalls": { "bp_icnt": ..., "port": ..., ... },
///   "occupancy": { "l2_access_full_fraction": ..., ... },
///   "audit": { "emitted": ..., "returned": ..., ... },
///   "telemetry": { "window_cycles": ..., "series": [...] }
/// }
/// ```
///
/// Stall values are fractions of that level's total stall cycles;
/// telemetry series are per-window means (see
/// [`gmh_types::TelemetrySnapshot`]).
pub fn report_json(config_name: &str, workload: &str, stats: &SimStats) -> String {
    let d = stats.issue.distribution();
    let (l1c, l1m, l1bp) = stats.l1_stalls.fractions();
    let l2 = stats.l2_stalls.fractions();
    let summary = obj(&[
        ("core_cycles", stats.core_cycles.to_string()),
        ("insts", stats.insts.to_string()),
        ("ipc", json_num(stats.ipc)),
        ("stall_fraction", json_num(stats.stall_fraction)),
        ("aml_core_cycles", json_num(stats.aml_core_cycles)),
        ("aml_p50", json_num(stats.aml_p50)),
        ("aml_p90", json_num(stats.aml_p90)),
        ("aml_p99", json_num(stats.aml_p99)),
        ("l2_ahl_core_cycles", json_num(stats.l2_ahl_core_cycles)),
        ("l1_miss_rate", json_num(stats.l1_miss_rate)),
        ("l2_miss_rate", json_num(stats.l2_miss_rate)),
        ("dram_efficiency", json_num(stats.dram_efficiency)),
        ("hit_cycle_cap", stats.hit_cycle_cap.to_string()),
    ]);
    let issue = obj(&[
        ("data_mem", json_num(d[0])),
        ("data_alu", json_num(d[1])),
        ("str_mem", json_num(d[2])),
        ("str_alu", json_num(d[3])),
        ("fetch", json_num(d[4])),
    ]);
    let l1 = obj(&[
        ("cache", json_num(l1c)),
        ("mshr", json_num(l1m)),
        ("bp_l2", json_num(l1bp)),
    ]);
    let l2 = obj(&[
        ("bp_icnt", json_num(l2[0])),
        ("port", json_num(l2[1])),
        ("cache", json_num(l2[2])),
        ("mshr", json_num(l2[3])),
        ("bp_dram", json_num(l2[4])),
    ]);
    let occupancy = obj(&[
        (
            "l2_access_full_fraction",
            json_num(stats.l2_access_occupancy.full_fraction()),
        ),
        (
            "dram_queue_full_fraction",
            json_num(stats.dram_queue_occupancy.full_fraction()),
        ),
    ]);
    let audit = obj(&[
        ("emitted", stats.audit.emitted.to_string()),
        ("returned", stats.audit.returned.to_string()),
        ("absorbed", stats.audit.absorbed.to_string()),
        ("in_flight", stats.audit.in_flight.to_string()),
    ]);
    obj(&[
        ("workload", format!("\"{}\"", json_escape(workload))),
        ("config", format!("\"{}\"", json_escape(config_name))),
        ("summary", summary),
        ("issue_stalls", issue),
        ("l1_stalls", l1),
        ("l2_stalls", l2),
        ("occupancy", occupancy),
        ("audit", audit),
        ("telemetry", stats.telemetry.to_json()),
    ])
}

/// Writes `<base>.json` (the full report) and `<base>.csv` (the telemetry
/// series alone) under `dir`, returning the two paths.
///
/// # Errors
///
/// Propagates filesystem errors from creating `dir` or writing the files.
pub fn write_report(
    dir: &Path,
    base: &str,
    config_name: &str,
    workload: &str,
    stats: &SimStats,
) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{base}.json"));
    let csv_path = dir.join(format!("{base}.csv"));
    std::fs::write(&json_path, report_json(config_name, workload, stats))?;
    std::fs::write(&csv_path, stats.telemetry.to_csv())?;
    Ok((json_path, csv_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_stats() -> SimStats {
        use gmh_core::{GpuConfig, GpuSim};
        use gmh_workloads::catalog;
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.n_cores = 2;
        cfg.max_core_cycles = 50_000;
        cfg.telemetry_window = 64;
        let mut wl = catalog::by_name("nn").unwrap();
        wl.insts_per_warp = 40;
        wl.warps_per_core = 4;
        GpuSim::new(cfg, &wl).run()
    }

    #[test]
    fn report_is_valid_json_shape() {
        let stats = tiny_stats();
        let json = report_json("gtx480_baseline", "nn", &stats);
        gmh_types::json::parse(&json).expect("well-formed JSON");
        for key in [
            "\"workload\":\"nn\"",
            "\"config\":\"gtx480_baseline\"",
            "\"summary\":{",
            "\"l2_stalls\":{\"bp_icnt\":",
            "\"audit\":{\"emitted\":",
            "\"telemetry\":{\"window_cycles\":64",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn write_report_creates_both_files() {
        let stats = tiny_stats();
        let dir = std::env::temp_dir().join("gmh_export_test");
        let (j, c) = write_report(&dir, "nn_base", "gtx480_baseline", "nn", &stats).unwrap();
        let json = std::fs::read_to_string(&j).unwrap();
        let csv = std::fs::read_to_string(&c).unwrap();
        assert!(json.contains("\"telemetry\""));
        assert!(csv.starts_with("window,"));
        assert!(csv.lines().count() > 1, "csv has data rows");
        std::fs::remove_dir_all(&dir).ok();
    }
}
