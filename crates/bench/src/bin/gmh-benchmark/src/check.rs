//! Result files and `--check`: two sets of runs compared metric by metric
//! against the bounds in `BENCHMARK.json`, plus the `golden/` digests.

use crate::metrics::{is_exact, json_num, END_TO_END, PER_LAYER, PER_LAYER_BOUNDS};
use crate::stats::quartiles;
use crate::Host;
use gmh_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Seed-0 `report_json` digests (FNV-1a of the report bytes), one
/// `<kernel-length divisor>/<config>/<workload> <hex>` per line.
const GOLDEN: &str = include_str!("../golden/seed0.txt");

/// How many of `digests` differ from (or are missing in) `golden/`.
/// Informational: a model fix changes digests legitimately; a change that
/// only makes the simulator faster must report 0.
pub fn golden_mismatches(digests: &[(String, u64)]) -> usize {
    let golden: BTreeMap<&str, &str> = GOLDEN.lines().filter_map(|l| l.split_once(' ')).collect();
    digests
        .iter()
        .filter(|(key, digest)| {
            golden.get(key.as_str()) != Some(&format!("{digest:016x}").as_str())
        })
        .count()
}

/// The last line of one run.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("missing metrics")?;
    // The parser's map is sorted by name; restore table order.
    let mut ordered = Vec::new();
    for (name, _, _) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(m) = metrics.get(*name) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("missing value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("missing unit")?;
            ordered.push((name.to_string(), value, unit.to_string()));
        }
    }
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: ordered,
    })
}

/// One `(workload, metric)` row of a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub valid: bool,
    /// Every run's value in run order (run r used seed + r), kept for the
    /// metrics that repeat exactly for a seed; empty for timings.
    pub values: Vec<f64>,
}

impl Row {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The runs of one invocation, folded into rows when rendered or saved.
pub struct Results {
    seed: u64,
    runs: u64,
    traced: bool,
    pub attempted: u64,
    pub failed: u64,
    samples: Vec<(String, String, String, Vec<f64>)>,
    nproc: usize,
}

impl Results {
    pub fn new(host: &Host, seed: u64, runs: u64, traced: bool) -> Self {
        Results {
            seed,
            runs,
            traced,
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            nproc: host.nproc,
        }
    }

    pub fn add(&mut self, workload: &str, run: &RunResult) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        for (name, value, unit) in &run.metrics {
            match self
                .samples
                .iter_mut()
                .find(|s| s.0 == workload && s.1 == *name)
            {
                Some(s) => s.3.push(*value),
                None => self.samples.push((
                    workload.to_string(),
                    name.clone(),
                    unit.clone(),
                    vec![*value],
                )),
            }
        }
    }

    fn rows(&self, host: &Host) -> Vec<Row> {
        self.samples
            .iter()
            .map(|(workload, metric, unit, values)| {
                let (q1, median, q3) = quartiles(values);
                Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    unit: unit.clone(),
                    n: values.len(),
                    q1,
                    median,
                    q3,
                    valid: host.valid_for(workload),
                    values: if is_exact(metric) {
                        values.clone()
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect()
    }

    pub fn render(&self, host: &Host) -> String {
        let mut out = String::new();
        for r in self.rows(host) {
            writeln!(
                out,
                "{:<11} {:<32} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}{}",
                r.workload,
                r.metric,
                r.median,
                r.unit,
                r.q1,
                r.q3,
                r.n,
                if r.valid { "" } else { "  valid: false" }
            )
            .expect("writing to a String cannot fail");
        }
        writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        out
    }

    pub fn to_json(&self, host: &Host) -> String {
        let esc = |s: &str| Json::Str(s.to_string()).encode();
        let mut out = format!(
            "{{\"host\":{{\"nproc\":{},\"kernel\":{},\"rustc\":{}}},\"seed\":{},\"runs\":{},\"traced\":{},\"attempted\":{},\"failed\":{},\"rows\":[\n",
            self.nproc,
            esc(&host.kernel),
            esc(&host.rustc),
            self.seed,
            self.runs,
            self.traced,
            self.attempted,
            self.failed
        );
        for (i, r) in self.rows(host).iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let values: Vec<String> = r.values.iter().map(|v| json_num(*v)).collect();
            write!(
                out,
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"n\":{},\"q1\":{},\"median\":{},\"q3\":{},\"valid\":{},\"values\":[{}]}}",
                esc(&r.workload),
                esc(&r.metric),
                esc(&r.unit),
                r.n,
                json_num(r.q1),
                json_num(r.median),
                json_num(r.q3),
                r.valid,
                values.join(",")
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A result file read back.
struct ResultFile {
    rows: Vec<Row>,
    failed: u64,
    /// First seed and number of runs: run r used seed + r.
    seeds: (u64, u64),
}

fn read_results(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: missing {key}", path.display()))
    };
    let Some(Json::Arr(items)) = doc.get("rows") else {
        return Err(format!("{}: no rows", path.display()));
    };
    let mut rows = Vec::new();
    for item in items {
        let text = |k: &str| {
            item.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row without {k}"))
        };
        let num = |k: &str| {
            item.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row without {k}"))
        };
        rows.push(Row {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            n: item
                .get("n")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("row without n")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            valid: item.get("valid").and_then(Json::as_bool).unwrap_or(true),
            values: match item.get("values") {
                Some(Json::Arr(vs)) => vs.iter().filter_map(Json::as_f64).collect(),
                _ => Vec::new(),
            },
        });
    }
    Ok(ResultFile {
        rows,
        failed: count("failed")?,
        seeds: (count("seed")?, count("runs")?),
    })
}

/// `name → (bound, higher is better)`: the end-to-end metrics as
/// `BENCHMARK.json` bounds them, and the per-layer rows of
/// [`PER_LAYER_BOUNDS`].
fn read_bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end", path.display()));
    };
    let mut bounds = BTreeMap::new();
    for m in items {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let higher = m.get("better").and_then(Json::as_str) == Some("higher");
        bounds.insert(name.to_string(), (bound, higher));
    }
    for (name, bound) in PER_LAYER_BOUNDS {
        let def = PER_LAYER.iter().find(|d| d.0 == *name);
        let higher = def.is_some_and(|d| d.2 == "higher");
        bounds.insert((*name).to_string(), (*bound, higher));
    }
    Ok(bounds)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse than the first file by more than the bound.
    Regressed,
    /// The run-to-run spread of either file is wider than the bound, so the
    /// comparison cannot tell.
    Unresolved,
    /// A value that repeats exactly for a seed, equal on every seed.
    Equal,
    /// A value that repeats exactly for a seed, different on some seed.
    Differs,
    /// A per-layer timing without a bound, or a row the workload does not
    /// exercise: shown, never judged.
    Info,
}

/// `bound`: `Some((share, higher_is_better))` for a metric held to one.
pub fn judge(a: &Row, b: &Row, bound: Option<(f64, bool)>) -> Verdict {
    if is_exact(&a.metric) {
        // Seed by seed: a median over runs would hide a count that moved on
        // one seed only.
        return if a.values == b.values {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let Some((bound, higher)) = bound else {
        return Verdict::Info;
    };
    if a.median == 0.0 && b.median == 0.0 {
        return Verdict::Info;
    }
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Compares two result files against the bounds of the `BENCHMARK.json` in
/// the working directory (the repository root).
pub fn run(first: &Path, second: &Path) -> ExitCode {
    let loaded = read_results(first).and_then(|a| {
        let b = read_results(second)?;
        if a.seeds != b.seeds {
            return Err(format!(
                "the files hold different runs (seed {} × {} and seed {} × {}): nothing to compare seed by seed",
                a.seeds.0, a.seeds.1, b.seeds.0, b.seeds.1
            ));
        }
        Ok((a, b, read_bounds(Path::new("BENCHMARK.json"))?))
    });
    let (a_file, b_file, bounds) = match loaded {
        Ok(v) => v,
        Err(why) => {
            eprintln!("gmh-benchmark --check: {why}");
            return ExitCode::from(2);
        }
    };
    let (a_failed, b_failed) = (a_file.failed, b_file.failed);
    let mut bad = 0usize;
    for a in &a_file.rows {
        let Some(b) = b_file
            .rows
            .iter()
            .find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            println!(
                "{:<11} {:<32} missing from {}",
                a.workload,
                a.metric,
                second.display()
            );
            bad += 1;
            continue;
        };
        let verdict = judge(a, b, bounds.get(&a.metric).copied());
        let change = if a.median == 0.0 {
            0.0
        } else {
            (b.median / a.median - 1.0) * 100.0
        };
        println!(
            "{:<11} {:<32} {:>16.4} -> {:>16.4} {:<6} {:>+8.2}%  spread {:.2}% / {:.2}%  {}{}",
            a.workload,
            a.metric,
            a.median,
            b.median,
            a.unit,
            change,
            a.spread() * 100.0,
            b.spread() * 100.0,
            match verdict {
                Verdict::Within => "within",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
                Verdict::Equal => "equal",
                Verdict::Differs => "DIFFERS",
                Verdict::Info => "",
            },
            if a.valid && b.valid {
                ""
            } else {
                "  valid: false"
            }
        );
        // A per-layer row too noisy to resolve is reported and does not
        // fail the comparison; an end-to-end row must resolve.
        let end_to_end = END_TO_END.iter().any(|d| d.0 == a.metric);
        if matches!(verdict, Verdict::Regressed | Verdict::Differs)
            || (verdict == Verdict::Unresolved && end_to_end)
        {
            bad += 1;
        }
    }
    println!("failed operations: {a_failed} and {b_failed}");
    if bad == 0 && a_failed == 0 && b_failed == 0 {
        println!("agree: no row regressed, every end-to-end row resolved, every exact value equal");
        ExitCode::SUCCESS
    } else {
        println!("{bad} row(s) regressed, unresolved end to end, or different");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metric: &str, q1: f64, median: f64, q3: f64) -> Row {
        Row {
            workload: "saturated".to_string(),
            metric: metric.to_string(),
            unit: "x".to_string(),
            n: 10,
            q1,
            median,
            q3,
            valid: true,
            values: Vec::new(),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lower = Some((0.05, false));
        let higher = Some((0.05, true));
        let a = row("unit_p50_ms", 99.0, 100.0, 101.0);
        assert_eq!(
            judge(&a, &row("unit_p50_ms", 103.0, 104.0, 105.0), lower),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &row("unit_p50_ms", 105.0, 106.0, 107.0), lower),
            Verdict::Regressed
        );
        // Much better is never a regression.
        assert_eq!(
            judge(&a, &row("unit_p50_ms", 49.0, 50.0, 51.0), lower),
            Verdict::Within
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            judge(&a, &row("ops_per_s", 93.0, 94.0, 95.0), higher),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &row("ops_per_s", 105.0, 106.0, 107.0), higher),
            Verdict::Within
        );
        // A spread wider than the bound cannot resolve anything.
        assert_eq!(
            judge(&a, &row("unit_p50_ms", 95.0, 100.0, 103.0), lower),
            Verdict::Unresolved
        );
        // Exact values must be equal on every seed: one seed that moved
        // leaves the median of three where it was, and still differs.
        let exact = |values: &[f64]| Row {
            values: values.to_vec(),
            ..row("core.sim_cycles", 5.0, 5.0, 5.0)
        };
        let c = exact(&[4.0, 5.0, 6.0]);
        assert_eq!(judge(&c, &c.clone(), None), Verdict::Equal);
        assert_eq!(judge(&c, &exact(&[4.0, 5.0, 7.0]), None), Verdict::Differs);
        assert_eq!(judge(&c, &exact(&[4.0, 5.0]), None), Verdict::Differs);
        // Per-layer timings without a bound are only shown, and so is a row
        // the workload does not exercise.
        assert_eq!(
            judge(&a, &row("icnt.tick_ns.loaded", 1.0, 2.0, 3.0), None),
            Verdict::Info
        );
        let idle = row("serve.cold_p95_ms", 0.0, 0.0, 0.0);
        assert_eq!(judge(&idle, &idle.clone(), lower), Verdict::Info);
    }

    #[test]
    fn result_line_and_result_file_round_trip() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"},"ops_per_s":{"value":3.25,"unit":"1/s"},"core.sim_cycles":{"value":7,"unit":"count"}}}"#;
        let run = parse_result_line(line).expect("parses");
        assert_eq!((run.attempted, run.failed), (12, 0));
        assert_eq!(
            run.metrics[0],
            ("setup_s".to_string(), 1.5, "s".to_string())
        );
        assert_eq!(run.metrics[1].0, "ops_per_s");
        assert!(parse_result_line("{}").is_err());

        let host = Host {
            nproc: 2,
            kernel: "k \"quoted\"".to_string(),
            rustc: "rustc 1".to_string(),
        };
        let mut results = Results::new(&host, 0, 2, false);
        results.add("bursty", &run);
        results.add("bursty", &run);
        let path =
            std::env::temp_dir().join(format!("gmh-benchmark-check-{}.json", std::process::id()));
        std::fs::write(&path, results.to_json(&host)).expect("temp file");
        let file = read_results(&path).expect("reads back");
        std::fs::remove_file(&path).ok();
        assert_eq!((file.failed, file.seeds), (0, (0, 2)));
        assert_eq!(file.rows, results.rows(&host));
        assert_eq!(file.rows[0].n, 2);
        assert_eq!(file.rows[0].median, 1.5);
        // Only the exact row keeps its per-seed values.
        assert!(file.rows[0].values.is_empty());
        assert_eq!(file.rows[2].values, [7.0, 7.0]);
    }

    #[test]
    fn golden_counts_changed_and_unknown_digests() {
        let (key, hex) = GOLDEN
            .lines()
            .find_map(|l| l.split_once(' '))
            .expect("golden/ is not empty");
        let good = u64::from_str_radix(hex, 16).expect("hex digest");
        assert_eq!(golden_mismatches(&[(key.to_string(), good)]), 0);
        assert_eq!(golden_mismatches(&[(key.to_string(), good ^ 1)]), 1);
        assert_eq!(golden_mismatches(&[("9/none/none".to_string(), 0)]), 1);
    }
}
