//! Tier-1 gate: the workspace must be lint-clean.
//!
//! Runs the in-tree static-analysis pass (`gmh-lint`, configured by
//! `lint.toml`) over every model crate and fails with the full findings
//! report if any invariant is violated. This is the same check CI runs via
//! `cargo run -p gmh-lint -- --workspace`.

use std::path::Path;

#[test]
fn lint_config_enables_the_structural_rules() {
    // The workspace-green assertion below is only meaningful if lint.toml
    // actually switches on the opt-in section: R5's stall-cause enums.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml is readable");
    let cfg = gmh_lint::LintConfig::parse(&text).expect("lint.toml parses");
    let enums: Vec<&str> = cfg.stall_enums.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        enums,
        ["L2StallKind", "L1StallKind", "IssueStallKind"],
        "R5 cross-checks every stall-cause enum"
    );
}

#[test]
fn workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (findings, scanned) =
        gmh_lint::run_workspace(root).expect("lint.toml parses and workspace sources are readable");
    assert!(
        scanned > 50,
        "expected to scan the whole workspace, scanned only {scanned} files"
    );
    assert!(
        findings.is_empty(),
        "gmh-lint found {} violation(s):\n{}",
        findings.len(),
        gmh_lint::render(&findings, scanned)
    );
}
