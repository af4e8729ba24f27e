//! The wire protocol: line-delimited requests, single-line replies.
//!
//! ## Grammar (one request per line, `\n`-terminated)
//!
//! ```text
//! request  = job-object | tune-object | "METRICS" | "SHUTDOWN" | "PING"
//! job      = '{' "workload": string
//!                [, "config_label": string]          ; default "base"
//!                [, "config_overrides": { key: int }]
//!                [, "seed": int]
//!                [, "trace": bool] '}'               ; default false
//! tune     = '{' "tune": '{'
//!                [ "preset": "smoke" | "paper" ]     ; default "smoke"
//!                [, "workloads": [string, ...]]
//!                [, "seed": int] [, "budget": int]
//!                [, "pool": int] [, "survivors": int]
//!                [, "screen_cycles": int] [, "full_cycles": int]
//!                [, "refine": int] [, "max_area_pct": number]
//!                [, "shrink": bool] '}' '}'
//! reply    = "OK " json | "BUSY " json | "ERR " json | "TIMEOUT " json
//!          | "METRICS" NL *(metric-line NL) "END"
//! ```
//!
//! A job is validated *before* admission: the workload must exist in
//! [`gmh_workloads::catalog`], the label must name a known configuration
//! (baseline, the Fig. 10 scalings, or the Fig. 12 cost-effective points),
//! every override key must be recognized, the run length and telemetry
//! window must sit inside [`MAX_RUN_CYCLES`] and [`MIN_TELEMETRY_WINDOW`],
//! and the resulting
//! [`GpuConfig`]/[`WorkloadSpec`] pair must pass its own `validate()`.
//! Anything else is refused with `ERR` — the simulator never sees an
//! ill-formed job.

use crate::json::{self, Json};
use gmh_core::GpuConfig;
use gmh_exp::experiments::config_labels;
use gmh_exp::tune::TuneParams;
use gmh_types::telemetry::json_escape;
use gmh_workloads::{catalog, WorkloadSpec};

/// Hard cap on one request line. Longer lines are refused with `ERR` and
/// the connection is closed (the bytes beyond the cap are never buffered).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A fully validated job: ready to hash, admit, and execute.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The (possibly seed/size-overridden) workload.
    pub workload: WorkloadSpec,
    /// Presentation label of the configuration (embedded in the report).
    pub label: String,
    /// The (possibly overridden) validated GPU configuration.
    pub config: GpuConfig,
    /// When set, the `OK` payload is the Chrome-trace JSON of the sampled
    /// per-fetch lifecycle trace instead of the report (and the result
    /// cache is bypassed — the cache stores reports only).
    pub trace: bool,
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// A simulation job.
    Job(Box<JobRequest>),
    /// A design-space search (validated, caps applied).
    Tune(Box<TuneParams>),
    /// Metrics snapshot.
    Metrics,
    /// Graceful shutdown: drain, refuse, flush, exit.
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// One terminal reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Completed; the payload is the exact report JSON.
    Ok(String),
    /// Shed at admission: the queue was full. Retry after the hint.
    Busy {
        /// Suggested client back-off, derived from recent job wall times.
        retry_after_ms: u64,
    },
    /// Refused (validation failure, parse error, or draining server).
    Err(String),
    /// The job exceeded the server's wall-clock budget: its run was
    /// stopped, and nothing of it was kept.
    Timeout {
        /// The budget that was exceeded, in milliseconds.
        after_ms: u64,
    },
}

impl Reply {
    /// Renders the single reply line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Reply::Ok(json) => format!("OK {json}"),
            Reply::Busy { retry_after_ms } => {
                format!("BUSY {{\"retry_after_ms\":{retry_after_ms}}}")
            }
            Reply::Err(msg) => format!("ERR {{\"error\":\"{}\"}}", json_escape(msg)),
            Reply::Timeout { after_ms } => format!("TIMEOUT {{\"after_ms\":{after_ms}}}"),
        }
    }

    /// Parses a reply line (the client side of [`Reply::render`]).
    ///
    /// # Errors
    ///
    /// Returns a description when the line matches no reply form.
    pub fn parse(line: &str) -> Result<Reply, String> {
        if let Some(payload) = line.strip_prefix("OK ") {
            return Ok(Reply::Ok(payload.to_string()));
        }
        if let Some(payload) = line.strip_prefix("BUSY ") {
            let v = json::parse(payload)?;
            let ms = v
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .ok_or("BUSY payload missing retry_after_ms")?;
            return Ok(Reply::Busy { retry_after_ms: ms });
        }
        if let Some(payload) = line.strip_prefix("ERR ") {
            let v = json::parse(payload)?;
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .ok_or("ERR payload missing error")?;
            return Ok(Reply::Err(msg.to_string()));
        }
        if let Some(payload) = line.strip_prefix("TIMEOUT ") {
            let v = json::parse(payload)?;
            let ms = v
                .get("after_ms")
                .and_then(Json::as_u64)
                .ok_or("TIMEOUT payload missing after_ms")?;
            return Ok(Reply::Timeout { after_ms: ms });
        }
        Err(format!("unrecognized reply line: {line:?}"))
    }
}

fn config_by_label(label: &str) -> Option<GpuConfig> {
    config_labels()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, c)| c)
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns the message to send back as `ERR` — every failure names the
/// offending field or value.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    match line {
        "METRICS" => return Ok(Request::Metrics),
        "SHUTDOWN" => return Ok(Request::Shutdown),
        "PING" => return Ok(Request::Ping),
        _ => {}
    }
    if !line.starts_with('{') {
        return Err(format!(
            "expected a JSON job object or METRICS/SHUTDOWN/PING, got {:?}",
            truncate(line, 40)
        ));
    }
    let doc = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let obj = doc.as_obj().ok_or("job must be a JSON object")?;

    if obj.contains_key("tune") {
        for key in obj.keys() {
            if key != "tune" {
                return Err(format!("unknown field {key:?} alongside \"tune\""));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: contains_key(\"tune\") checked above."
        )]
        let spec = obj.get("tune").expect("tune key present");
        return parse_tune(spec).map(|p| Request::Tune(Box::new(p)));
    }

    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "workload" | "config_label" | "config_overrides" | "seed" | "trace"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }

    let name = obj
        .get("workload")
        .ok_or("missing required field \"workload\"")?
        .as_str()
        .ok_or("\"workload\" must be a string")?;
    let mut workload = catalog::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {}",
            name,
            catalog::names().join(", ")
        )
    })?;

    let label = match obj.get("config_label") {
        None => "base".to_string(),
        Some(v) => {
            let l = v.as_str().ok_or("\"config_label\" must be a string")?;
            l.to_string()
        }
    };
    let mut config = config_by_label(&label).ok_or_else(|| {
        let known: Vec<&str> = config_labels().iter().map(|(l, _)| *l).collect();
        format!(
            "unknown config_label {:?}; known: {}",
            label,
            known.join(", ")
        )
    })?;

    if let Some(seed) = obj.get("seed") {
        workload.seed = seed
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?;
    }

    let trace = match obj.get("trace") {
        None => false,
        Some(v) => v.as_bool().ok_or("\"trace\" must be a boolean")?,
    };

    if let Some(ovr) = obj.get("config_overrides") {
        let map = ovr
            .as_obj()
            .ok_or("\"config_overrides\" must be an object")?;
        for (key, val) in map {
            let v = val
                .as_u64()
                .filter(|&v| v > 0)
                .ok_or_else(|| format!("override {key:?} must be a positive integer"))?;
            let (_, set) = OVERRIDES.iter().find(|(k, _)| k == key).ok_or_else(|| {
                let known: Vec<&str> = OVERRIDES.iter().map(|(k, _)| *k).collect();
                format!("unknown override {key:?}; known: {}", known.join(", "))
            })?;
            if !set(&mut config, &mut workload, v) {
                return Err(format!("override {key:?}={v} is out of range"));
            }
        }
    }
    if config.max_core_cycles > MAX_RUN_CYCLES {
        return Err(format!(
            "max_core_cycles = {} is over the service cap of {MAX_RUN_CYCLES}",
            config.max_core_cycles
        ));
    }
    if config.telemetry_window < MIN_TELEMETRY_WINDOW {
        return Err(format!(
            "telemetry_window = {} is under the service floor of {MIN_TELEMETRY_WINDOW}",
            config.telemetry_window
        ));
    }

    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    workload
        .validate()
        .map_err(|e| format!("invalid workload: {e}"))?;

    Ok(Request::Job(Box::new(JobRequest {
        workload,
        label,
        config,
        trace,
    })))
}

/// The most core cycles one job, or one full run of a search, may simulate:
/// the baseline's own cap, so every named configuration runs unmodified.
/// It bounds how long a run can hold its slot inside the wall-clock budget,
/// and how large its report can grow.
pub const MAX_RUN_CYCLES: u64 = 3_000_000;

/// The narrowest telemetry window a job may ask for, in interconnect
/// cycles: a run of [`MAX_RUN_CYCLES`] on the baseline then records under
/// 25,000 windows, which go into both the reply and the cache entry.
pub const MIN_TELEMETRY_WINDOW: u64 = 64;

/// Service-side caps on a `"tune"` request: a search fans out into many
/// simulations, so the daemon bounds what one request may ask for. These
/// are admission limits, not search parameters — a request over a cap is
/// refused with `ERR`, never silently clamped.
pub const TUNE_CAPS: TuneCaps = TuneCaps {
    budget: 512,
    pool: 128,
    survivors: 32,
    refine: 8,
    full_cycles: MAX_RUN_CYCLES,
    workloads: 8,
};

/// The cap set for `"tune"` requests (see [`TUNE_CAPS`]).
#[derive(Clone, Copy, Debug)]
pub struct TuneCaps {
    /// Maximum evaluations one search may attempt.
    pub budget: usize,
    /// Maximum candidate pool size.
    pub pool: usize,
    /// Maximum survivors per stage.
    pub survivors: usize,
    /// Maximum refinement rounds.
    pub refine: usize,
    /// Maximum full-run cycle budget.
    pub full_cycles: u64,
    /// Maximum workloads in the mix.
    pub workloads: usize,
}

/// Parses and validates the `"tune"` payload: [`TuneParams::from_json`],
/// caps applied, then [`TuneParams::validate`].
fn parse_tune(spec: &Json) -> Result<TuneParams, String> {
    let p = TuneParams::from_json(spec)?;
    let caps = TUNE_CAPS;
    if p.budget > caps.budget {
        return Err(format!(
            "budget {} exceeds the cap {}",
            p.budget, caps.budget
        ));
    }
    if p.pool > caps.pool {
        return Err(format!("pool {} exceeds the cap {}", p.pool, caps.pool));
    }
    if p.survivors > caps.survivors {
        return Err(format!(
            "survivors {} exceeds the cap {}",
            p.survivors, caps.survivors
        ));
    }
    if p.refine > caps.refine {
        return Err(format!(
            "refine {} exceeds the cap {}",
            p.refine, caps.refine
        ));
    }
    if p.full_cycles > caps.full_cycles {
        return Err(format!(
            "full_cycles {} exceeds the cap {}",
            p.full_cycles, caps.full_cycles
        ));
    }
    if p.workloads.len() > caps.workloads {
        return Err(format!(
            "{} workloads exceeds the cap {}",
            p.workloads.len(),
            caps.workloads
        ));
    }
    p.validate()?;
    Ok(p)
}

/// Builds the JSON request line for a `"tune"` submission (the client side
/// of the tune branch of [`parse_request`]).
pub fn tune_line(
    preset: Option<&str>,
    workloads: &[String],
    max_area_pct: Option<f64>,
    ints: &[(String, u64)],
) -> String {
    let mut body = Vec::new();
    if let Some(p) = preset {
        body.push(format!("\"preset\":\"{}\"", json_escape(p)));
    }
    if !workloads.is_empty() {
        let names: Vec<String> = workloads
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect();
        body.push(format!("\"workloads\":[{}]", names.join(",")));
    }
    if let Some(a) = max_area_pct {
        body.push(format!("\"max_area_pct\":{a}"));
    }
    for (k, v) in ints {
        body.push(format!("\"{}\":{v}", json_escape(k)));
    }
    format!("{{\"tune\":{{{}}}}}", body.join(","))
}

/// The keys `config_overrides` accepts (documented in DESIGN.md §8), each
/// with its setter, which says whether the value fits the field; ergonomic
/// knobs for scaling a job down (tests, smoke runs) or resizing
/// service-relevant queues.
#[rustfmt::skip]
const OVERRIDES: [(&str, SetOverride); 7] = [
    ("n_cores", |c, _, v| set(&mut c.n_cores, v)),
    ("max_core_cycles", |c, _, v| set(&mut c.max_core_cycles, v)),
    ("telemetry_window", |c, _, v| set(&mut c.telemetry_window, v)),
    ("l2_access_queue", |c, _, v| set(&mut c.l2_access_queue, v)),
    ("l2_response_queue", |c, _, v| set(&mut c.l2_response_queue, v)),
    ("warps_per_core", |_, w, v| set(&mut w.warps_per_core, v)),
    ("insts_per_warp", |_, w, v| set(&mut w.insts_per_warp, v)),
];

/// Stores an override's value when it fits its field.
type SetOverride = fn(&mut GpuConfig, &mut WorkloadSpec, u64) -> bool;

/// Stores `v` in `field` when it fits.
fn set<T: TryFrom<u64>>(field: &mut T, v: u64) -> bool {
    T::try_from(v).map(|v| *field = v).is_ok()
}

/// Builds the JSON request line for a job submission (the client side of
/// [`parse_request`]). With `trace` set the daemon replies with Chrome-trace
/// JSON instead of the report.
pub fn job_line(
    workload: &str,
    label: Option<&str>,
    seed: Option<u64>,
    overrides: &[(String, u64)],
    trace: bool,
) -> String {
    let mut s = format!("{{\"workload\":\"{}\"", json_escape(workload));
    if let Some(l) = label {
        s.push_str(&format!(",\"config_label\":\"{}\"", json_escape(l)));
    }
    if let Some(seed) = seed {
        s.push_str(&format!(",\"seed\":{seed}"));
    }
    if !overrides.is_empty() {
        let body: Vec<String> = overrides
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
            .collect();
        s.push_str(&format!(",\"config_overrides\":{{{}}}", body.join(",")));
    }
    if trace {
        s.push_str(",\"trace\":true");
    }
    s.push('}');
    s
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::rng::{cases, Xoshiro256};

    #[test]
    fn keywords_parse() {
        assert!(matches!(parse_request("METRICS"), Ok(Request::Metrics)));
        assert!(matches!(parse_request(" SHUTDOWN "), Ok(Request::Shutdown)));
        assert!(matches!(parse_request("PING"), Ok(Request::Ping)));
    }

    #[test]
    fn minimal_job_parses_with_defaults() {
        let Ok(Request::Job(job)) = parse_request(r#"{"workload":"mm"}"#) else {
            panic!("minimal job should parse");
        };
        assert_eq!(job.workload.name, "mm");
        assert_eq!(job.label, "base");
        assert_eq!(job.config.n_cores, GpuConfig::gtx480_baseline().n_cores);
    }

    #[test]
    fn seed_and_overrides_apply() {
        let line = job_line(
            "nn",
            Some("L2"),
            Some(7),
            &[("n_cores".into(), 2), ("insts_per_warp".into(), 50)],
            false,
        );
        let Ok(Request::Job(job)) = parse_request(&line) else {
            panic!("round-trip job should parse: {line}");
        };
        assert_eq!(job.workload.seed, 7);
        assert_eq!(job.workload.insts_per_warp, 50);
        assert_eq!(job.config.n_cores, 2);
        assert_eq!(job.label, "L2");
        assert!(!job.trace, "trace defaults to off");
        // The L2 label is the ×4-scaled config of Fig. 10.
        let base = GpuConfig::gtx480_baseline();
        assert_eq!(job.config.l2_access_queue, 4 * base.l2_access_queue);
    }

    #[test]
    fn sim_threads_is_no_longer_an_override() {
        // A simulation runs on one thread; the key draws the standard
        // unknown-override refusal, which names it.
        let line = job_line("mm", None, None, &[("sim_threads".into(), 4)], false);
        let e = parse_request(&line).unwrap_err();
        assert!(e.contains("unknown override \"sim_threads\""), "{e}");
    }

    #[test]
    fn trace_flag_round_trips() {
        let line = job_line("nn", None, None, &[], true);
        let Ok(Request::Job(job)) = parse_request(&line) else {
            panic!("traced job should parse: {line}");
        };
        assert!(job.trace);
        assert!(parse_request(r#"{"workload":"mm","trace":1}"#)
            .unwrap_err()
            .contains("must be a boolean"));
    }

    #[test]
    fn unknown_workload_refused() {
        let e = parse_request(r#"{"workload":"xyzzy"}"#).unwrap_err();
        assert!(e.contains("unknown workload"), "{e}");
        assert!(e.contains("mm"), "error should list known workloads: {e}");
    }

    #[test]
    fn unknown_label_override_and_field_refused() {
        assert!(parse_request(r#"{"workload":"mm","config_label":"turbo"}"#)
            .unwrap_err()
            .contains("unknown config_label"));
        assert!(
            parse_request(r#"{"workload":"mm","config_overrides":{"frobnicate":3}}"#)
                .unwrap_err()
                .contains("unknown override")
        );
        assert!(parse_request(r#"{"workload":"mm","color":"red"}"#)
            .unwrap_err()
            .contains("unknown field"));
    }

    #[test]
    fn invalid_values_refused() {
        assert!(parse_request(r#"{"workload":"mm","seed":-1}"#).is_err());
        assert!(parse_request(r#"{"workload":"mm","seed":1.5}"#).is_err());
        assert!(parse_request(r#"{"workload":"mm","config_overrides":{"n_cores":0}}"#).is_err());
        // More cores than a crossbar side has ports: refused, not a panic.
        let e =
            parse_request(r#"{"workload":"mm","config_overrides":{"n_cores":65}}"#).unwrap_err();
        assert!(e.contains("n_cores = 65"), "{e}");
        // A cycle cap whose last core tick is past the last picosecond.
        let e = parse_request(
            r#"{"workload":"mm","config_overrides":{"max_core_cycles":18446744073709551615}}"#,
        )
        .unwrap_err();
        assert!(e.contains("max_core_cycles = 18446744073709551615"), "{e}");
        // A queue length the simulator would try to allocate whole.
        for key in ["l2_access_queue", "l2_response_queue"] {
            let line =
                format!(r#"{{"workload":"mm","config_overrides":{{"{key}":1099511627776}}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(e.contains(&format!("{key} = 1099511627776")), "{e}");
        }
        // warps_per_core > 48 fails WorkloadSpec::validate.
        let e = parse_request(r#"{"workload":"mm","config_overrides":{"warps_per_core":64}}"#)
            .unwrap_err();
        assert!(e.contains("invalid workload"), "{e}");
    }

    /// A job's run length and telemetry width are bounded like a search's:
    /// each bound holds at its limit and refuses one past it, naming the
    /// field.
    #[test]
    fn run_length_and_telemetry_window_are_bounded() {
        let line = |key: &str, v: u64| job_line("mm", None, None, &[(key.into(), v)], false);
        let cycles = line("max_core_cycles", MAX_RUN_CYCLES);
        assert!(
            matches!(parse_request(&cycles), Ok(Request::Job(_))),
            "{cycles}"
        );
        let e = parse_request(&line("max_core_cycles", MAX_RUN_CYCLES + 1)).unwrap_err();
        assert!(e.contains("max_core_cycles = 3000001"), "{e}");
        let window = line("telemetry_window", MIN_TELEMETRY_WINDOW);
        assert!(
            matches!(parse_request(&window), Ok(Request::Job(_))),
            "{window}"
        );
        let e = parse_request(&line("telemetry_window", MIN_TELEMETRY_WINDOW - 1)).unwrap_err();
        assert!(e.contains("telemetry_window = 63"), "{e}");
        // Every named configuration runs inside both bounds unmodified, and
        // a search's full run takes the same cap.
        for (label, cfg) in config_labels() {
            assert!(cfg.max_core_cycles <= MAX_RUN_CYCLES, "{label}");
            assert!(cfg.telemetry_window >= MIN_TELEMETRY_WINDOW, "{label}");
        }
        assert_eq!(GpuConfig::gtx480_baseline().max_core_cycles, MAX_RUN_CYCLES);
        assert_eq!(TUNE_CAPS.full_cycles, MAX_RUN_CYCLES);
    }

    #[test]
    fn malformed_json_refused() {
        assert!(parse_request(r#"{"workload":"#)
            .unwrap_err()
            .contains("malformed JSON"));
        assert!(parse_request("BOGUS").unwrap_err().contains("expected"));
    }

    #[test]
    fn reply_round_trips() {
        for r in [
            Reply::Ok("{\"a\":1}".into()),
            Reply::Busy {
                retry_after_ms: 120,
            },
            Reply::Err("queue on fire".into()),
            Reply::Timeout { after_ms: 30000 },
        ] {
            assert_eq!(Reply::parse(&r.render()).unwrap(), r);
        }
        assert!(Reply::parse("GARBAGE").is_err());
    }

    #[test]
    fn all_config_labels_validate() {
        for (label, cfg) in config_labels() {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn tune_presets_parse() {
        let Ok(Request::Tune(p)) = parse_request(r#"{"tune":{}}"#) else {
            panic!("empty tune spec should parse as the smoke preset");
        };
        assert_eq!(p.budget, TuneParams::smoke().budget);
        let Ok(Request::Tune(p)) = parse_request(r#"{"tune":{"preset":"smoke","seed":9}}"#) else {
            panic!("smoke preset with a seed should parse");
        };
        assert_eq!(p.seed, 9);
        assert!(parse_request(r#"{"tune":{"preset":"turbo"}}"#)
            .unwrap_err()
            .contains("preset"));
    }

    #[test]
    fn tune_unknown_and_sibling_fields_refused() {
        assert!(parse_request(r#"{"tune":{"frobnicate":3}}"#)
            .unwrap_err()
            .contains("unknown tune field"));
        assert!(parse_request(r#"{"tune":{},"workload":"mm"}"#)
            .unwrap_err()
            .contains("alongside"));
    }

    #[test]
    fn tune_caps_refuse_not_clamp() {
        let over = TUNE_CAPS.budget + 1;
        let e = parse_request(&format!("{{\"tune\":{{\"budget\":{over}}}}}")).unwrap_err();
        assert!(e.contains("exceeds the cap"), "{e}");
        let e = parse_request(
            r#"{"tune":{"workloads":["mm","lbm","bfs","nn","spmv","stencil","reduce","transpose","mm"]}}"#,
        )
        .unwrap_err();
        assert!(e.contains("workloads exceeds the cap"), "{e}");
        // Both presets fit under the caps unmodified.
        assert!(matches!(
            parse_request(r#"{"tune":{"preset":"paper"}}"#),
            Ok(Request::Tune(_))
        ));
    }

    #[test]
    fn tune_line_round_trips() {
        let line = tune_line(
            Some("smoke"),
            &["mm".to_string(), "bfs".to_string()],
            Some(1.5),
            &[("seed".to_string(), 42), ("budget".to_string(), 12)],
        );
        let Ok(Request::Tune(p)) = parse_request(&line) else {
            panic!("round-trip tune should parse: {line}");
        };
        assert_eq!(p.workloads, vec!["mm".to_string(), "bfs".to_string()]);
        assert_eq!(p.seed, 42);
        assert_eq!(p.budget, 12);
        assert!((p.max_area_pct - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_non_finite_area_is_refused_by_the_client_as_the_daemon_refuses_it() {
        use std::io::Read;
        let daemon = parse_request(r#"{"tune":{"max_area_pct":1e999}}"#).unwrap_err();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = crate::Client::connect(listener.local_addr().unwrap()).unwrap();
        for area in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let reply = client.tune(Some("smoke"), &[], Some(area), &[]).unwrap();
            assert_eq!(reply, Reply::Err(daemon.clone()), "{area}");
        }
        drop(client);
        let mut sent = Vec::new();
        listener.accept().unwrap().0.read_to_end(&mut sent).unwrap();
        assert!(sent.is_empty(), "{}", String::from_utf8_lossy(&sent));
    }

    #[test]
    fn tune_invalid_params_refused() {
        // Passes field parsing and caps, fails TuneParams::validate.
        assert!(parse_request(r#"{"tune":{"pool":0}}"#).is_err());
        assert!(parse_request(r#"{"tune":{"workloads":["xyzzy"]}}"#).is_err());
    }

    /// Every top-level field name of [`GpuConfig`], read off its `Debug`
    /// form so a new field joins the fuzz keys without an edit here.
    fn gpu_config_fields() -> Vec<String> {
        format!("{:#?}", GpuConfig::gtx480_baseline())
            .lines()
            .filter_map(|l| l.strip_prefix("    ")?.split_once(": ").map(|(k, _)| k))
            .filter(|k| !k.starts_with(' '))
            .map(str::to_string)
            .collect()
    }

    /// A 20-digit integer: past `u64::MAX` about four times in five.
    fn twenty_digits(rng: &mut Xoshiro256) -> String {
        format!("{}{:019}", rng.range(1..10u64), rng.below(10u64.pow(19)))
    }

    /// A well-formed request line: a job with overrides drawn from every
    /// `GpuConfig` field and the override keys, a tune request, or a
    /// keyword.
    fn seed_line(rng: &mut Xoshiro256, fields: &[String]) -> String {
        let names = catalog::names();
        let labels = config_labels();
        match rng.below(3) {
            0 => {
                let overrides: Vec<(String, u64)> = (0..rng.below(4))
                    .map(|_| {
                        let key = if rng.chance(0.5) {
                            fields[rng.range(0..fields.len())].clone()
                        } else {
                            OVERRIDES[rng.range(0..OVERRIDES.len())].0.to_string()
                        };
                        let bits = rng.range(1..64u32);
                        (key, rng.below(1 << bits))
                    })
                    .collect();
                job_line(
                    names[rng.range(0..names.len())],
                    rng.chance(0.5)
                        .then(|| labels[rng.range(0..labels.len())].0),
                    rng.chance(0.5).then(|| rng.next_u64()),
                    &overrides,
                    rng.chance(0.3),
                )
            }
            1 => {
                let keys = [
                    "budget",
                    "pool",
                    "survivors",
                    "refine",
                    "seed",
                    "full_cycles",
                ];
                let ints: Vec<(String, u64)> = (0..rng.below(4))
                    .map(|_| (keys[rng.range(0..keys.len())].to_string(), rng.below(1000)))
                    .collect();
                let workloads: Vec<String> = (0..rng.below(3))
                    .map(|_| names[rng.range(0..names.len())].to_string())
                    .collect();
                tune_line(
                    ["smoke", "paper", "other"].get(rng.range(0..4)).copied(),
                    &workloads,
                    rng.chance(0.5).then(|| rng.unit_f64() * 200.0 - 50.0),
                    &ints,
                )
            }
            _ => ["PING", "METRICS", "SHUTDOWN"][rng.range(0..3)].to_string(),
        }
    }

    /// One random edit: truncation, a replaced or inserted character, a
    /// 20-digit integer in place of a digit, or a splice of `line`'s
    /// prefix onto `other`'s suffix.
    fn mutate(line: &str, other: &str, rng: &mut Xoshiro256) -> String {
        const CHARS: &[u8] = b"{}[]\":,\\-.0123456789eE";
        let mut chars: Vec<char> = line.chars().collect();
        let at = rng.range(0..chars.len() + 1);
        let c = char::from(CHARS[rng.range(0..CHARS.len())]);
        match rng.below(5) {
            0 => chars.truncate(at),
            1 if at < chars.len() => chars[at] = c,
            1 | 2 => chars.insert(at, c),
            3 => {
                let digit = chars.iter().skip(at).position(char::is_ascii_digit);
                let at = digit.map_or(at, |d| at + d);
                if at < chars.len() {
                    chars.remove(at);
                }
                chars.splice(at..at, twenty_digits(rng).chars());
            }
            _ => {
                let from = rng.range(0..other.chars().count() + 1);
                chars.truncate(at);
                chars.extend(other.chars().skip(from));
            }
        }
        chars.into_iter().collect()
    }

    /// The parser's contract on hostile lines: a request or a refusal that
    /// says what is wrong, never a panic.
    #[test]
    fn parse_request_never_panics() {
        let fields = gpu_config_fields();
        assert!(fields.len() > 15 && fields.iter().any(|f| f == "max_core_cycles"));
        cases("parse_request_never_panics", 2048, |rng| {
            let mut line = seed_line(rng, &fields);
            if rng.chance(0.3) {
                // A known key with an arbitrary integer, spelled as text so
                // values past u64::MAX reach the parser.
                let key = OVERRIDES[rng.range(0..OVERRIDES.len())].0;
                let value = if rng.chance(0.5) {
                    twenty_digits(rng)
                } else {
                    rng.next_u64().to_string()
                };
                line =
                    format!("{{\"workload\":\"mm\",\"config_overrides\":{{\"{key}\":{value}}}}}");
            }
            for _ in 0..rng.below(4) {
                let other = seed_line(rng, &fields);
                line = mutate(&line, &other, rng);
            }
            if let Err(reason) = parse_request(&line) {
                assert!(!reason.is_empty(), "empty refusal for {line:?}");
            }
        });
    }
}
