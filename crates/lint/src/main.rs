//! CLI for the gmh static-analysis pass.
//!
//! Usage: `cargo run -p gmh-lint -- --workspace [--root PATH] [--json]`
//!
//! `--workspace` runs the rules plus the suppression audit (the
//! audit is the default; `--audit-allows` names it explicitly). `--json`
//! streams one JSON object per finding to stdout (line-delimited) while
//! the human rendering goes to stderr, so CI can archive the machine
//! output and still show readable logs.
//!
//! Exits 0 when the tree is clean, 1 when there are findings, 2 on usage
//! or configuration errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            // The suppression audit always runs with --workspace; the flag
            // exists so invocations can state the intent explicitly.
            "--audit-allows" => {}
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage("pass --workspace to lint the tree");
    }
    // `cargo run -p gmh-lint` runs from the workspace root; fall back to
    // walking up from the crate dir when invoked from elsewhere.
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("lint.toml").exists() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .unwrap_or(cwd)
        }
    });

    match gmh_lint::run_workspace(&root) {
        Ok((findings, files_scanned)) => {
            let human = gmh_lint::render(&findings, files_scanned);
            if json {
                print!("{}", gmh_lint::render_json(&root, &findings));
                eprint!("{human}");
            } else {
                print!("{human}");
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gmh-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: gmh-lint --workspace [--root PATH] [--json] [--audit-allows]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("gmh-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
