//! `gmh-lint`: in-tree static analysis enforcing the simulator's
//! accounting invariants.
//!
//! The paper's methodology (Dublish et al., ISPASS 2017) stands on two
//! bookkeeping properties — every stall cycle charged to exactly one cause
//! in a fixed priority order, and every fetch flowing through bounded
//! queues that exert back-pressure. PR 1 added the *runtime* audit
//! (fetch conservation); this crate is the *static* layer that catches
//! violations at review time. Six rules:
//!
//! - **R1 determinism** — no `HashMap`/`HashSet`, wall-clock time,
//!   unseeded RNG, locks, `thread::spawn` or `static mut` in model crates
//!   ([`rules::determinism`]);
//! - **R2 bounded queues** — no raw `VecDeque` outside
//!   `gmh_types::queue` ([`rules::queues`]);
//! - **R4 panic hygiene** — `.unwrap()`/`.expect()` need an
//!   `// INVARIANT:` comment ([`rules::panics`]);
//! - **R5 stall-attribution exhaustiveness** — every stall variant
//!   attributed exactly once, in paper-precedence order
//!   ([`rules::stalls`]);
//! - **R6 zero-allocation hot loops** — no `vec![..]`, `Vec::new()`,
//!   `Box::new()` or `.collect()` inside the per-cycle functions of model
//!   crates ([`rules::alloc`]);
//! - **R8 time-unit consistency** — `_ps`/`_cycles`/`_ticks` unit classes
//!   never mix without a sanctioned `ClockDomains` conversion, and magic
//!   time literals stay in config files ([`rules::units`]).
//!
//! (There is no R7: it policed the intra-simulation worker pool, which
//! is gone; its two pool-independent checks — no `thread::spawn`, no
//! `static mut` — are R1 bans now. There is no R9 either: it matched text
//! to check that a file with a `next_event_bound` probe also had a skip
//! hook, which `gmh_types::Component` now makes a compile error. There is
//! no R3 either: it flagged narrowing `as` casts, lossless ones included;
//! clippy's `cast_possible_truncation` (denied workspace-wide in CI) is the
//! one narrowing-cast check. Rule ids are stable, so R4-R8 keep theirs.)
//!
//! R8 resolves bindings: it runs a per-function dataflow pass
//! ([`dataflow::FnFlow`] — `let` bindings with their ascribed types and
//! initializers), still built on the masked lexical view.
//!
//! On top of the rules sits the suppression audit ([`audit`]): the rules
//! run unfiltered first, and every `[[allow]]` entry or inline directive
//! that no longer suppresses a real finding is itself reported (rule
//! `AUDIT`, unsuppressable).
//!
//! Deliberately dependency-free (no `syn`, no `toml`): the build
//! environment is offline, so the scanner works on a masked lexical view
//! of the source ([`source::SourceFile`]) and a hand-rolled TOML subset
//! ([`config::LintConfig`]). Suppression is always written down: inline
//! `// lint: allow(Rn): reason` for single sites, `[[allow]]` entries in
//! `lint.toml` (with a mandatory `reason`) for structural exceptions.

pub mod audit;
pub mod config;
pub mod dataflow;
pub mod rules;
pub mod source;

use std::fmt;
use std::path::{Path, PathBuf};

pub use config::LintConfig;
pub use source::SourceFile;

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (one of [`rules::IDS`], or `"AUDIT"`).
    pub rule: &'static str,
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "{}:{}: [{}] {}\n    fix: {}",
            self.path, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Whether `path` lies in one of the configured model crates.
pub(crate) fn in_model_crate(cfg: &LintConfig, path: &str) -> bool {
    cfg.model_crates
        .iter()
        .any(|c| path.contains(&format!("crates/{c}/src/")))
}

/// Runs all rules over already-parsed files with **no suppression
/// applied** — the raw findings the audit measures allowlists against.
/// (R5 is the one exception: it honors inline directives while collecting
/// stall mentions, because a suppressed mention must not count toward its
/// single-site and ordering checks.)
pub fn run_raw(cfg: &LintConfig, files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        rules::determinism::check(cfg, f, &mut findings);
        rules::queues::check(cfg, f, &mut findings);
        rules::panics::check(cfg, f, &mut findings);
        rules::alloc::check(cfg, f, &mut findings);
        rules::units::check(cfg, f, &mut findings);
    }
    rules::stalls::check(cfg, files, &mut findings);
    findings
}

/// Runs all rules over already-parsed files and applies both suppression
/// layers (inline directives, then the `lint.toml` allowlist). This is
/// the engine the fixture tests drive directly.
pub fn run(cfg: &LintConfig, files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = run_raw(cfg, files);
    apply_suppressions(cfg, files, &mut findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Drops findings covered by an inline `lint: allow(Rn)` directive or a
/// `lint.toml` `[[allow]]` entry. Centralized (rather than per-rule) so
/// [`run_raw`] can observe what each suppression actually suppresses.
fn apply_suppressions(cfg: &LintConfig, files: &[SourceFile], findings: &mut Vec<Finding>) {
    findings.retain(|fd| {
        let file = files.iter().find(|f| f.path == fd.path);
        let inline = file.is_some_and(|f| f.allowed_inline(fd.line.saturating_sub(1), fd.rule));
        let text = file.map_or("", |f| f.line(fd.line.saturating_sub(1)));
        !(inline || cfg.is_allowed(fd.rule, &fd.path, text))
    });
}

/// Loads `lint.toml` at `root`, scans the workspace sources, runs the
/// rules, and audits every suppression against the raw findings. Returns
/// the findings (rule violations plus `AUDIT` entries for stale allows)
/// and the number of files scanned.
///
/// # Errors
///
/// I/O failures and config parse errors are reported as strings; a missing
/// `lint.toml` is an error (the linter refuses to run unconfigured).
pub fn run_workspace(root: &Path) -> Result<(Vec<Finding>, usize), String> {
    let cfg_path = root.join("lint.toml");
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = LintConfig::parse(&cfg_text)?;

    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    for entry in read_dir_sorted(&crates_dir)? {
        let src = entry.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    // The root `gmh` facade crate.
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut paths)?;
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(&rel, &text));
    }
    let n = files.len();

    let raw = run_raw(&cfg, &files);
    let mut findings = raw.clone();
    apply_suppressions(&cfg, &files, &mut findings);
    audit::check(&cfg, &files, &raw, &mut findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((findings, n))
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries = Vec::new();
    let iter =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in iter {
        entries.push(
            entry
                .map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?
                .path(),
        );
    }
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for p in read_dir_sorted(dir)? {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Renders findings plus a one-line summary.
#[must_use]
pub fn render(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "gmh-lint: clean — {files_scanned} files, {} rules + suppression audit, 0 findings\n",
            rules::IDS.len()
        ));
    } else {
        out.push_str(&format!(
            "gmh-lint: {} finding(s) across {files_scanned} files\n",
            findings.len()
        ));
    }
    out
}

/// Renders findings as line-delimited JSON (one RFC 8259 object per
/// finding: `rule`, `path`, `line`, `snippet`, `reason`, `hint`), for CI
/// artifacts and problem matchers. Snippets are read back from `root`;
/// a file that has vanished since the scan yields an empty snippet.
#[must_use]
pub fn render_json(root: &Path, findings: &[Finding]) -> String {
    use gmh_types::json::Json;
    use std::collections::BTreeMap;

    let mut cache: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut out = String::new();
    for fd in findings {
        let lines = cache.entry(fd.path.as_str()).or_insert_with(|| {
            std::fs::read_to_string(root.join(&fd.path))
                .map(|t| t.lines().map(str::to_string).collect())
                .unwrap_or_default()
        });
        let snippet = lines
            .get(fd.line.saturating_sub(1))
            .map_or("", |l| l.trim());
        let obj: BTreeMap<String, Json> = [
            ("rule".to_string(), Json::Str(fd.rule.to_string())),
            ("path".to_string(), Json::Str(fd.path.clone())),
            ("line".to_string(), Json::Num(fd.line.to_string())),
            ("snippet".to_string(), Json::Str(snippet.to_string())),
            ("reason".to_string(), Json::Str(fd.message.clone())),
            ("hint".to_string(), Json::Str(fd.hint.clone())),
        ]
        .into_iter()
        .collect();
        out.push_str(&Json::Obj(obj).encode());
        out.push('\n');
    }
    out
}
