//! Suppression audit. Allowlists rot: the code a `[[allow]]` entry or an
//! inline `// lint: allow(Rn)` directive was written for gets refactored
//! away, and the suppression lingers — a standing invitation to
//! reintroduce the violation silently. The audit closes that hole by
//! running the rules *unfiltered* and checking that every suppression
//! still earns its keep: a `lint.toml` entry must match at least one raw
//! finding, and an inline directive must sit on (or directly above) a
//! line that raises one. Anything stale is itself a finding, under the
//! pseudo-rule `AUDIT` — which no allowlist can suppress.
//!
//! One rule needs special treatment: R5 filters inline directives while
//! *collecting* stall-attribution mentions (a suppressed mention must not
//! count toward the single-site or ordering checks), so a directive it
//! honors leaves no raw finding behind. An inline `allow(R5)` is
//! therefore judged live when its guarded line actually mentions a
//! registered stall variant or bumps a stall counter.

use crate::config::LintConfig;
use crate::rules;
use crate::source::SourceFile;
use crate::Finding;

pub const RULE: &str = "AUDIT";

/// Audits every suppression against the unfiltered findings `raw`.
pub fn check(cfg: &LintConfig, files: &[SourceFile], raw: &[Finding], out: &mut Vec<Finding>) {
    audit_toml_allows(cfg, files, raw, out);
    for f in files {
        audit_inline_directives(cfg, f, raw, out);
    }
}

/// A `[[allow]]` entry is live iff at least one raw finding matches its
/// (rule, file-suffix, contains) triple.
fn audit_toml_allows(
    cfg: &LintConfig,
    files: &[SourceFile],
    raw: &[Finding],
    out: &mut Vec<Finding>,
) {
    for a in &cfg.allows {
        let live = raw.iter().any(|fd| {
            fd.rule == a.rule
                && (a.file.is_empty() || fd.path.ends_with(&a.file))
                && (a.contains.is_empty() || {
                    let text = files
                        .iter()
                        .find(|f| f.path == fd.path)
                        .map_or("", |f| f.line(fd.line.saturating_sub(1)));
                    text.contains(&a.contains)
                })
        });
        if !live {
            out.push(Finding {
                rule: RULE,
                path: "lint.toml".to_string(),
                line: a.line,
                message: format!(
                    "stale [[allow]] entry: no current {} finding matches file `{}` contains \
                     `{}`",
                    a.rule, a.file, a.contains
                ),
                hint: "the code this suppression covered has moved or been fixed; delete the \
                       entry (or update its file/contains) so the allowlist only documents \
                       real exceptions"
                    .to_string(),
            });
        }
    }
}

/// An inline directive at 0-indexed line `d` guards code lines `d` and
/// `d+1` (same-line and next-line placement); it is live iff a raw
/// finding of its rule lands on one of those lines.
fn audit_inline_directives(
    cfg: &LintConfig,
    f: &SourceFile,
    raw: &[Finding],
    out: &mut Vec<Finding>,
) {
    for (d, comment) in f.comments.iter().enumerate() {
        // Doc comments (`///`, `//!`) talk *about* directives — rule docs,
        // examples in hints — they never are one.
        let line_text = f.line(d).trim_start();
        if line_text.starts_with("///") || line_text.starts_with("//!") {
            continue;
        }
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            rest = &rest[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else {
                break;
            };
            let rule = rest[..close].trim().to_string();
            rest = &rest[close + 1..];

            // Only rule-shaped ids (`R` + digits) are directives; prose
            // placeholders like `Rn` are not.
            if !(rule.len() > 1
                && rule.starts_with('R')
                && rule[1..].chars().all(|c| c.is_ascii_digit()))
            {
                continue;
            }
            if !rules::IDS.contains(&rule.as_str()) {
                out.push(Finding {
                    rule: RULE,
                    path: f.path.clone(),
                    line: d + 1,
                    message: format!("inline directive names unknown rule `{rule}`"),
                    hint: format!("known rules are {}", rules::IDS.join(", ")),
                });
                continue;
            }
            let live = if rule == "R5" {
                r5_directive_live(cfg, f, d)
            } else {
                raw.iter().any(|fd| {
                    fd.rule == rule && fd.path == f.path && (fd.line == d + 1 || fd.line == d + 2)
                })
            };
            if !live {
                out.push(Finding {
                    rule: RULE,
                    path: f.path.clone(),
                    line: d + 1,
                    message: format!(
                        "stale inline directive: `lint: allow({rule})` suppresses nothing here"
                    ),
                    hint: "the guarded line no longer violates the rule; remove the directive \
                           so surviving ones keep meaning something"
                        .to_string(),
                });
            }
        }
    }
}

/// R5 honors inline directives during mention collection, so a live one
/// leaves no raw finding. It is live iff its guarded line mentions a
/// registered stall variant (`Enum::Variant`) or bumps a stall counter
/// (`.snake_case.inc(`).
fn r5_directive_live(cfg: &LintConfig, f: &SourceFile, d: usize) -> bool {
    let hi = (d + 1).min(f.code.len().saturating_sub(1));
    for i in d..=hi {
        let code = &f.code[i];
        for e in &cfg.stall_enums {
            for v in &e.order {
                if crate::source::find_token(code, &format!("{}::{}", e.name, v)).is_some() {
                    return true;
                }
                if code.contains(&format!(".{}.inc(", snake_case(v))) {
                    return true;
                }
            }
        }
    }
    false
}

/// `BpIcnt` -> `bp_icnt`, mirroring the counter-field convention R5 uses.
fn snake_case(v: &str) -> String {
    let mut out = String::new();
    for (i, c) in v.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Allow;

    fn cfg_with_allow(rule: &str, file: &str, contains: &str) -> LintConfig {
        LintConfig {
            model_crates: vec!["core".to_string()],
            allows: vec![Allow {
                rule: rule.to_string(),
                file: file.to_string(),
                contains: contains.to_string(),
                reason: "test".to_string(),
                line: 10,
            }],
            ..LintConfig::default()
        }
    }

    fn finding(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: String::new(),
            hint: String::new(),
        }
    }

    #[test]
    fn live_toml_entry_passes_stale_entry_flagged() {
        let f = SourceFile::parse("crates/core/src/sim.rs", "let m = Instant::now();\n");
        let cfg = cfg_with_allow("R1", "sim.rs", "Instant");
        let raw = vec![finding("R1", "crates/core/src/sim.rs", 1)];
        let mut out = Vec::new();
        check(&cfg, std::slice::from_ref(&f), &raw, &mut out);
        assert!(out.is_empty(), "matching entry is live: {out:?}");

        let mut out = Vec::new();
        check(&cfg, std::slice::from_ref(&f), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "AUDIT");
        assert_eq!(out[0].path, "lint.toml");
        assert_eq!(out[0].line, 10);
    }

    #[test]
    fn stale_inline_directive_flagged_live_one_not() {
        let src = "// lint: allow(R4): checked\nlet a = b.unwrap();\nlet c = 1;\n// lint: allow(R4): x\nlet d = 2;\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let cfg = LintConfig {
            model_crates: vec!["core".to_string()],
            ..LintConfig::default()
        };
        // R4 fires on line 2 (guarded by the directive on line 1); nothing
        // fires near the R4 directive on line 4.
        let raw = vec![finding("R4", "crates/core/src/x.rs", 2)];
        let mut out = Vec::new();
        check(&cfg, std::slice::from_ref(&f), &raw, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("allow(R4)"));
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn unknown_rule_in_directive_flagged() {
        let f = SourceFile::parse("crates/core/src/x.rs", "// lint: allow(R99): huh\n");
        let cfg = LintConfig {
            model_crates: vec!["core".to_string()],
            ..LintConfig::default()
        };
        let mut out = Vec::new();
        check(&cfg, std::slice::from_ref(&f), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("R99"));
    }

    #[test]
    fn r5_directive_live_when_variant_mentioned() {
        use crate::config::StallEnum;
        let src = "// lint: allow(R5): double mention is the funnel itself\n\
                   let k = L2StallKind::Port;\n";
        let f = SourceFile::parse("crates/cache/src/x.rs", src);
        let cfg = LintConfig {
            model_crates: vec!["cache".to_string()],
            stall_enums: vec![StallEnum {
                name: "L2StallKind".to_string(),
                file: "crates/cache/src/stall.rs".to_string(),
                order: vec!["BpIcnt".to_string(), "Port".to_string()],
            }],
            ..LintConfig::default()
        };
        let mut out = Vec::new();
        check(&cfg, std::slice::from_ref(&f), &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
