//! The `gmh-exp` command line, driven in-process through
//! `gmh::exp::cli::run` with in-memory writers, and the freshness of the
//! committed `experiments_report.txt`.
//!
//! Nothing here runs a long simulation: refused input is refused before any
//! work starts, only the simulation-free artifacts are rendered, and the
//! commands that do simulate (`probe`, `latency`, `profile`) are given the
//! short `solo` workload.

use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::cache::DiskCache;
use gmh::exp::experiments::{self, ARTIFACTS};
use gmh::exp::tune::{frontier_json, run_search, TuneParams};
use gmh::exp::{cli, report_json};
use gmh::types::json::{self, Json};
use gmh::types::trace::Level;
use gmh::workloads::catalog;
use std::path::PathBuf;

/// Runs one command line; returns (exit code, stdout, stderr).
fn gmh_exp(args: &[&str]) -> (u8, String, String) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = cli::run(&args, &mut out, &mut err);
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (code, text(out), text(err))
}

/// Asserts the one refusal path: exit 2, nothing on stdout, the reason on
/// stderr behind the program name. (A panic would fail the test by itself.)
fn refused(args: &[&str]) -> String {
    let (code, out, err) = gmh_exp(args);
    assert_eq!(code, 2, "{args:?} was not refused: {err}");
    assert_eq!(out, "", "{args:?} printed despite the refusal");
    assert!(err.starts_with("gmh-exp: "), "{args:?}: {err}");
    err
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gmh-exp-cli-{}-{tag}", std::process::id()))
}

/// Asserts `args` followed by an output path nobody can create, root
/// included, is refused for it: the path's parent is a regular file, so
/// creating it fails with `ENOTDIR`.
fn refused_to_create(args: &[&str]) {
    let file = temp_path(&format!("{}-not-a-dir", args[0]));
    std::fs::write(&file, "").unwrap();
    let path = file.join("x");
    let err = refused(&[args, &[path.to_str().unwrap()]].concat());
    std::fs::remove_file(file).unwrap();
    assert!(err.contains("cannot create"), "{args:?}: {err}");
}

#[test]
fn list_names_every_artifact_and_diagnostic() {
    let (code, out, _) = gmh_exp(&["list"]);
    assert_eq!(code, 0);
    assert_eq!(ARTIFACTS.len(), 16);
    for a in &ARTIFACTS {
        let line = format!("  {:<10} {}", a.name, a.about);
        assert!(out.contains(&line), "list lacks {line:?}:\n{out}");
    }
    for diagnostic in [
        "probe",
        "latency",
        "profile",
        "sweep",
        "tune",
        "scorecard",
        "trace",
        "record",
        "replay",
    ] {
        let listed = out.lines().any(|l| l.trim_start().starts_with(diagnostic));
        assert!(listed, "list lacks {diagnostic}:\n{out}");
    }
}

#[test]
fn named_artifacts_print_in_argument_order() {
    let (code, out, _) = gmh_exp(&["table3", "table1"]);
    assert_eq!(code, 0);
    let expected = format!("{}\n{}", experiments::table3(), experiments::table1());
    assert_eq!(out, expected);
}

#[test]
fn artifact_names_are_unique_and_in_report_order() {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let report_order = [
        "table1", "fig1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "table3", "overhead", "ablation",
    ];
    assert_eq!(names, report_order);
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len());
}

#[test]
fn unknown_names_are_refused_with_the_valid_ones() {
    let err = refused(&["nope"]);
    for a in &ARTIFACTS {
        assert!(err.contains(a.name), "refusal lacks {}: {err}", a.name);
    }
    // One bad name refuses the whole line before anything is rendered.
    refused(&["table1", "nope"]);
    for diagnostic in ["probe", "latency", "profile", "sweep", "trace", "record"] {
        let err = refused(&[diagnostic, "nope"]);
        assert!(err.contains("lbm") && err.contains("leukocyte"), "{err}");
    }
}

#[test]
fn unparsable_arguments_are_refused_not_defaulted() {
    let trace = temp_path("refused.trace");
    let err = refused(&["record", "mm", trace.to_str().unwrap(), "abc"]);
    assert!(err.contains("\"abc\""), "{err}");
    assert!(!trace.exists(), "a refused record still wrote {trace:?}");
    refused(&["trace", "mm", "x"]);
    refused(&["trace", "mm", "0", "-4"]);
    // `all` takes no arguments: its stdout is the report.
    refused(&["table1", "--write-md", "x"]);
    refused(&["all", "--write-md"]);
    refused(&["probe", "mm", "dir", "extra"]);
    refused(&["scorecard", "extra"]);
    // A search spec is the daemon's: whole JSON, known fields, valid values.
    refused(&["tune", "{\"preset\":"]);
    refused(&["tune", "{\"frobnicate\":3}"]);
    refused(&["tune", "{\"pool\":0}"]);
    // With no SPEC the search is the paper's; a SPEC names its preset, so
    // it never falls back to the daemon's smoke without saying so.
    let err = refused(&["tune", "{\"seed\":7}"]);
    assert!(err.contains("\"preset\""), "{err}");
    refused(&[]);
}

#[test]
fn uncreatable_outputs_are_refused_before_any_work() {
    refused_to_create(&["probe", "solo"]);
    refused_to_create(&["latency", "solo"]);
    refused_to_create(&["profile", "solo"]);
    refused_to_create(&["tune", "{\"preset\":\"smoke\"}"]);
    refused_to_create(&["record", "solo"]);
}

/// `record` refuses a core count `replay` would refuse, before it records
/// every core's stream in memory and before it creates the file.
#[test]
fn core_counts_replay_would_refuse_are_refused_before_recording() {
    for cores in ["0", "16"] {
        let trace = temp_path(&format!("{cores}-cores.trace"));
        let err = refused(&["record", "solo", trace.to_str().unwrap(), cores]);
        assert!(err.contains("15 cores"), "{err}");
        assert!(!trace.exists(), "a refused record still wrote {trace:?}");
    }
}

/// The CLI half of one spec, two front doors (the daemon's half is in the
/// serve crate's integration tests): `gmh-exp tune SPEC path` writes the
/// frontier the library search writes for SPEC, over the default cache.
#[test]
fn tune_writes_the_frontier_the_library_search_writes() {
    const SPEC: &str = r#"{"preset":"smoke","seed":5}"#;
    let path = temp_path("frontier.json");
    let (code, _, err) = gmh_exp(&["tune", SPEC, path.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    let params = TuneParams::from_json(&json::parse(SPEC).unwrap()).unwrap();
    let run = run_search(&DiskCache::open(DiskCache::default_dir()).unwrap(), &params).unwrap();
    assert_eq!(run.fresh_sims, 0, "the library replays the CLI's entries");
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(path).unwrap();
    assert_eq!(written, frontier_json(&params, &run));
}

#[test]
fn unreadable_and_malformed_traces_are_refused() {
    refused(&["replay"]);
    let missing = temp_path("missing.trace");
    let err = refused(&["replay", missing.to_str().unwrap()]);
    assert!(err.contains("cannot open"), "{err}");

    let garbage = temp_path("garbage.trace");
    std::fs::write(&garbage, "#gmh-trace v1\nname mm\nthis is not a trace\n").unwrap();
    let err = refused(&["replay", garbage.to_str().unwrap()]);
    std::fs::remove_file(&garbage).unwrap();
    assert!(err.contains("cannot parse"), "{err}");
}

#[test]
fn traces_wider_than_the_baseline_are_refused_before_replay() {
    let write = |tag: &str, line: &str| {
        let path = temp_path(tag);
        std::fs::write(&path, format!("#gmh-trace v1\n{line}\n")).unwrap();
        path
    };
    for (tag, line, shape) in [
        ("16-cores.trace", "c15 w0 A - 1", "16 cores and 1 warps"),
        ("49-warps.trace", "c0 w48 A - 1", "1 cores and 49 warps"),
    ] {
        let path = write(tag, line);
        let err = refused(&["replay", path.to_str().unwrap()]);
        std::fs::remove_file(&path).unwrap();
        assert!(
            err.contains(shape) && err.contains("15 cores and 48 warps"),
            "{err}"
        );
    }
    // The widest trace the baseline holds still replays.
    let path = write("15-cores.trace", "c14 w47 A - 1");
    let (code, out, err) = gmh_exp(&["replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("insts=1 "), "{out}");
}

#[test]
fn profile_prints_every_tick_phase_and_writes_a_loadable_timeline() {
    let (code, out, _) = gmh_exp(&["profile", "solo"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("# host profile:"), "{out}");
    for phase in [
        "core_tick",
        "icnt_tick",
        "l2_tick",
        "dram_tick",
        "telemetry",
    ] {
        let row = out.lines().any(|l| l.starts_with(phase));
        assert!(row, "no {phase} row:\n{out}");
    }
    // One line names each class's slept share.
    let slept = out.lines().find(|l| l.starts_with("slept"));
    let slept = slept.unwrap_or_else(|| panic!("no slept line:\n{out}"));
    for class in ["cores", "banks", "channels", "nets"] {
        assert!(slept.contains(&format!(" {class} ")), "{slept}");
    }

    let path = temp_path("host-trace.json");
    let (code, _, err) = gmh_exp(&["profile", "solo", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let trace = json::parse(&written).expect("the timeline is JSON");
    assert!(trace.get("traceEvents").is_some(), "{written:.200}");
    refused(&["profile", "solo", "x.json", "extra"]);
}

#[test]
fn latency_prints_every_level_and_writes_a_loadable_trace() {
    let path = temp_path("fetch-trace.json");
    let (code, out, err) = gmh_exp(&["latency", "solo", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(
        out.starts_with("# solo: per-fetch latency decomposition (1-in-4 sampling"),
        "{out}"
    );
    for level in Level::ALL {
        let row = out.lines().any(|l| l.starts_with(level.name()));
        assert!(row, "no {} row:\n{out}", level.name());
    }

    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let doc = json::parse(&written).expect("the trace is JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array: {written:.200}");
    };
    fn field<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Json::as_str)
    }
    for level in Level::ALL {
        let track = events.iter().any(|e| {
            field(e, "name") == Some("thread_name")
                && e.get("args").and_then(|a| field(a, "name")) == Some(level.name())
        });
        assert!(track, "no thread_name track for {}", level.name());
    }
    assert!(
        events.iter().any(|e| field(e, "ph") == Some("X")),
        "no spans"
    );
    refused(&["latency", "solo", "x.json", "extra"]);
}

#[test]
fn probe_writes_the_report_and_its_telemetry() {
    let dir = temp_path("report");
    let (code, out, err) = gmh_exp(&["probe", "solo", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(out.starts_with("solo: cycles="), "{out}");
    let json = std::fs::read_to_string(dir.join("solo.json")).unwrap();
    let csv = std::fs::read_to_string(dir.join("solo.csv")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let wl = catalog::by_name("solo").unwrap();
    let stats = GpuSim::new(GpuConfig::gtx480_baseline(), &wl).run();
    assert_eq!(json, report_json("gtx480_baseline", "solo", &stats));
    assert_eq!(csv, stats.telemetry.to_csv());
}

/// `experiments_report.txt` is the committed stdout of `gmh-exp all`. This
/// catches drift of its *format* and *order*: every simulation-free
/// artifact, rendered live, appears in it verbatim, and its section titles
/// are the artifact table's, in table order. Drift of the simulated
/// *numbers* is what `tests/golden_digests.rs` is for.
#[test]
fn committed_report_has_the_current_format_and_order() {
    let report = include_str!("../experiments_report.txt");
    for name in ["table1", "fig6", "table3", "overhead"] {
        let (code, section, _) = gmh_exp(&[name]);
        assert_eq!(code, 0);
        assert!(
            report.contains(&section),
            "{name} is stale in experiments_report.txt; regenerate it with \
             `gmh-exp all > experiments_report.txt`. Live:\n{section}"
        );
    }
    let committed: Vec<&str> = report.lines().filter(|l| l.starts_with("== ")).collect();
    let table: Vec<String> = ARTIFACTS
        .iter()
        .map(|a| format!("== {} ==", a.about))
        .collect();
    assert_eq!(committed, table);
}
