//! Engine tests: each fixture under `tests/fixtures/` contains exactly the
//! violations its name advertises, and the clean fixtures produce none.
//!
//! Fixtures are plain `.rs` files that are never compiled — the linter is
//! lexical, so the tests parse them with [`SourceFile::parse`] under a
//! model-crate path label and drive [`gmh_lint::run`] directly.

use gmh_lint::{run, Finding, LintConfig, SourceFile};

const CONFIG_BASE: &str = r#"
[lint]
model_crates = ["types", "cache", "simt"]
queue_impl = ["crates/types/src/queue.rs"]
"#;

const CONFIG_R5: &str = r#"
[lint]
model_crates = ["types", "cache", "simt"]
queue_impl = ["crates/types/src/queue.rs"]

[r5.enums.DemoStall]
file = "crates/cache/src/demo_stall.rs"
order = ["First", "Second", "Third"]
"#;

fn base_cfg() -> LintConfig {
    LintConfig::parse(CONFIG_BASE).expect("fixture config parses")
}

fn r5_cfg() -> LintConfig {
    LintConfig::parse(CONFIG_R5).expect("fixture config parses")
}

/// `(rule, line)` pairs, in the engine's sorted order.
fn rule_lines(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn r1_flags_hash_map_static_mut_and_spawn_in_model_code() {
    let f = SourceFile::parse(
        "crates/cache/src/r1_determinism.rs",
        include_str!("fixtures/r1_determinism.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    assert_eq!(
        rule_lines(&findings),
        vec![("R1", 3), ("R1", 5), ("R1", 8)],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("HashMap"));
    assert!(findings[1].message.contains("static mut"));
    assert!(findings[2].message.contains("thread::spawn"));
}

#[test]
fn r2_flags_raw_vecdeque() {
    let f = SourceFile::parse(
        "crates/cache/src/r2_queues.rs",
        include_str!("fixtures/r2_queues.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    assert_eq!(rule_lines(&findings), vec![("R2", 3)], "{findings:#?}");
}

#[test]
fn r2_exempts_the_queue_implementation_itself() {
    let f = SourceFile::parse(
        "crates/types/src/queue.rs",
        include_str!("fixtures/r2_queues.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn rules_ignore_files_outside_model_crates() {
    let cfg = base_cfg();
    for fixture in [
        include_str!("fixtures/r1_determinism.rs"),
        include_str!("fixtures/r2_queues.rs"),
        include_str!("fixtures/r4_panics.rs"),
    ] {
        let f = SourceFile::parse("crates/exp/src/tool.rs", fixture);
        let findings = run(&cfg, &[f]);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}

#[test]
fn r4_flags_unjustified_unwrap() {
    let f = SourceFile::parse(
        "crates/cache/src/r4_panics.rs",
        include_str!("fixtures/r4_panics.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    assert_eq!(rule_lines(&findings), vec![("R4", 4)], "{findings:#?}");
}

#[test]
fn r6_flags_allocation_in_hot_loop_only() {
    let f = SourceFile::parse(
        "crates/cache/src/r6_alloc.rs",
        include_str!("fixtures/r6_alloc.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    // The vec![..] and .collect() inside `cycle` and the Vec::new() inside
    // `tick` (the justified site and everything in the cold `reset` stays
    // silent).
    assert_eq!(
        rule_lines(&findings),
        vec![("R6", 12), ("R6", 14), ("R6", 22)],
        "{findings:#?}"
    );
    assert!(findings[2].message.contains("`tick`"));
    assert!(findings[0].message.contains("vec![..]"));
    assert!(findings[0].message.contains("`cycle`"));
    assert!(findings[1].message.contains(".collect()"));
}

#[test]
fn clean_fixture_has_no_findings() {
    let f = SourceFile::parse(
        "crates/cache/src/clean.rs",
        include_str!("fixtures/clean.rs"),
    );
    let findings = run(&base_cfg(), &[f]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn r5_flags_order_attribution_and_funnel_violations() {
    let files = [
        SourceFile::parse(
            "crates/cache/src/demo_stall.rs",
            include_str!("fixtures/r5_bad_def.rs"),
        ),
        SourceFile::parse(
            "crates/cache/src/demo_attr.rs",
            include_str!("fixtures/r5_bad_attr.rs"),
        ),
    ];
    let findings = run(&r5_cfg(), &files);
    // Sorted by (path, line): the attribution file first, then the
    // defining file.
    let expected = vec![
        ("R5", 9),  // First checked after Second in classify
        ("R5", 16), // First attributed from two functions
        ("R5", 18), // direct `.first.inc()` bypasses record()
        ("R5", 4),  // declaration order inverts the canonical order
        ("R5", 7),  // Third is never attributed
    ];
    assert_eq!(rule_lines(&findings), expected, "{findings:#?}");
    assert!(findings[0].message.contains("inverting the paper"));
    assert!(findings[1].message.contains("2 functions"));
    assert!(findings[2].message.contains("bypassing"));
    assert!(findings[3].message.contains("precedence order"));
    assert!(findings[4].message.contains("never attributed"));
}

#[test]
fn r5_accepts_canonical_single_site_attribution() {
    let files = [
        SourceFile::parse(
            "crates/cache/src/demo_stall.rs",
            include_str!("fixtures/r5_ok_def.rs"),
        ),
        SourceFile::parse(
            "crates/cache/src/demo_attr.rs",
            include_str!("fixtures/r5_ok_attr.rs"),
        ),
    ];
    let findings = run(&r5_cfg(), &files);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn allowlist_entries_suppress_matching_findings() {
    let cfg_text = format!(
        "{CONFIG_BASE}\n[[allow]]\nrule = \"R1\"\nfile = \"r1_determinism.rs\"\n\
         contains = \"HashMap\"\nreason = \"fixture test of the allowlist\"\n"
    );
    let cfg = LintConfig::parse(&cfg_text).expect("config with allow parses");
    let f = SourceFile::parse(
        "crates/cache/src/r1_determinism.rs",
        include_str!("fixtures/r1_determinism.rs"),
    );
    let findings = run(&cfg, &[f]);
    // Only the line the entry names is suppressed.
    assert_eq!(
        rule_lines(&findings),
        vec![("R1", 5), ("R1", 8)],
        "{findings:#?}"
    );
}
