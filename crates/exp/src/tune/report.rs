//! Frontier reports: deterministic single-line JSON and CSV.
//!
//! The JSON report is the tuner's contract with its callers (`gmh-exp
//! tune`, the serve `"tune"` job, tests): it is newline-free (one report
//! fits one line of the serve protocol) and a pure function of
//! `(params, outcome)` — it deliberately excludes the fresh-sim /
//! cache-hit split, which differs between a cold and a warm run of the
//! same search.

use super::pareto::FrontierPoint;
use super::search::{TuneOutcome, TuneParams};
use gmh_types::telemetry::{json_escape, json_num};

fn point_json(p: &FrontierPoint) -> String {
    let per: Vec<String> = p
        .per_workload
        .iter()
        .map(|(wl, s)| format!("\"{}\":{}", json_escape(wl), json_num(*s)))
        .collect();
    format!(
        "{{\"label\":\"{}\",\"speedup\":{},\"area_pct\":{},\"area_mm2\":{},\"per_workload\":{{{}}}}}",
        json_escape(&p.label),
        json_num(p.speedup),
        json_num(p.area_pct),
        json_num(p.area_mm2),
        per.join(",")
    )
}

/// Serializes a search outcome as one line of JSON.
///
/// Two runs of the same search (any cache state, any thread width)
/// produce byte-identical output.
pub fn frontier_json(p: &TuneParams, out: &TuneOutcome) -> String {
    let stages: Vec<String> = out
        .stages
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cycles\":{},\"candidates\":{},\"evals\":{}}}",
                json_escape(&s.name),
                s.cycles,
                s.candidates,
                s.evals
            )
        })
        .collect();
    let frontier: Vec<String> = out.frontier.iter().map(point_json).collect();
    let best = match &out.best {
        Some(b) => point_json(b),
        None => "null".to_string(),
    };
    format!(
        "{{\"tune\":{},\"space_size\":{},\"stages\":[{}],\"evals\":{},\"complete\":{},\
         \"frontier\":[{}],\"best\":{}}}",
        p.to_json(),
        out.space_size,
        stages.join(","),
        out.evals,
        out.complete,
        frontier.join(","),
        best
    )
}

/// Serializes the frontier as CSV: one row per point, per-workload
/// speedup columns in mix order.
pub fn frontier_csv(p: &TuneParams, out: &TuneOutcome) -> String {
    let mut csv = String::from("label,speedup,area_pct,area_mm2");
    for w in &p.workloads {
        csv.push_str(&format!(",speedup_{w}"));
    }
    csv.push('\n');
    for pt in &out.frontier {
        csv.push_str(&format!(
            "{},{},{},{}",
            pt.label,
            json_num(pt.speedup),
            json_num(pt.area_pct),
            json_num(pt.area_mm2)
        ));
        for (_, s) in &pt.per_workload {
            csv.push_str(&format!(",{}", json_num(*s)));
        }
        csv.push('\n');
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tune::StageSummary;

    fn outcome() -> (TuneParams, TuneOutcome) {
        let p = TuneParams::smoke();
        let out = TuneOutcome {
            space_size: 1296,
            stages: vec![StageSummary {
                name: "screen".into(),
                cycles: 8_000,
                candidates: 4,
                evals: 5,
            }],
            frontier: vec![FrontierPoint {
                label: "base".into(),
                speedup: 1.0,
                area_pct: 0.0,
                area_mm2: 0.0,
                per_workload: vec![("mm".into(), 1.0)],
            }],
            best: None,
            evals: 5,
            complete: true,
            fresh_sims: 5,
            cache_hits: 0,
        };
        (p, out)
    }

    #[test]
    fn json_is_single_line_and_parseable_shape() {
        let (p, out) = outcome();
        let json = frontier_json(&p, &out);
        assert!(!json.contains('\n'), "must fit one protocol line");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"space_size\":1296"));
        assert!(json.contains("\"complete\":true"));
        assert!(json.contains("\"best\":null"));
        assert!(!json.contains("fresh_sims"), "cache accounting excluded");
    }

    #[test]
    fn json_excludes_cache_accounting() {
        let (p, out) = outcome();
        let mut warm = out.clone();
        warm.fresh_sims = 0;
        warm.cache_hits = 5;
        assert_eq!(
            frontier_json(&p, &out),
            frontier_json(&p, &warm),
            "cold and warm searches must serialize identically"
        );
    }

    #[test]
    fn csv_has_header_and_mix_columns() {
        let (p, out) = outcome();
        let csv = frontier_csv(&p, &out);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("label,speedup,area_pct,area_mm2,speedup_mm")
        );
        assert_eq!(lines.next(), Some("base,1,0,0,1"));
    }
}
