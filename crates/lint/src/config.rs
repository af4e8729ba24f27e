//! `lint.toml` configuration.
//!
//! The linter cannot use the `toml` crate (offline build environment), so
//! this module reads the small TOML subset the config actually uses: string
//! and string-array values, `[dotted.table]` headers and `[[allow]]`
//! array-of-tables. Anything outside that subset is a hard error — better
//! to fail loudly than to silently drop an allowlist entry.

use std::collections::BTreeMap;

/// One allowlist entry: suppresses findings of `rule` on lines of `file`
/// whose raw text contains `contains`. Empty `file`/`contains` match
/// everything; `reason` is mandatory documentation.
#[derive(Clone, Debug, Default)]
pub struct Allow {
    /// Rule id, e.g. `"R2"`.
    pub rule: String,
    /// Repo-relative path suffix the entry applies to (empty = any file).
    pub file: String,
    /// Substring of the raw source line (empty = any line).
    pub contains: String,
    /// Why the violation is acceptable. Required.
    pub reason: String,
    /// 1-indexed `lint.toml` line of the `[[allow]]` header, for the
    /// suppression audit's findings.
    pub line: usize,
}

/// One stall-cause enum the exhaustiveness rule (R5) tracks.
#[derive(Clone, Debug)]
pub struct StallEnum {
    /// Enum name, e.g. `"L2StallKind"`.
    pub name: String,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Canonical attribution-precedence order (must match declaration
    /// order; highest priority first).
    pub order: Vec<String>,
}

/// R8 time-unit-consistency configuration.
#[derive(Clone, Debug, Default)]
pub struct R8Config {
    /// Sanctioned conversion functions: a statement calling one of these
    /// may mix unit classes (e.g. `ps_to_core_cycles`).
    pub convert_fns: Vec<String>,
    /// Files (path suffixes) exempt from mixing checks entirely — the
    /// clock-domain implementation where conversion lives.
    pub conversion_home: Vec<String>,
    /// Files (path suffixes) where bare numeric literals may initialize
    /// unit-tagged fields: configs and presets.
    pub literal_files: Vec<String>,
    /// Type names carrying the picosecond class (e.g. `Picos`), so a
    /// `let x: Picos = ..` binding joins the `ps` unit class by type.
    pub ps_types: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Crate directory names under `crates/` whose `src/` trees carry the
    /// model invariants.
    pub model_crates: Vec<String>,
    /// Files (path suffixes) R2 exempts: the bounded-queue implementation
    /// itself.
    pub queue_impl: Vec<String>,
    /// Stall enums R5 cross-checks.
    pub stall_enums: Vec<StallEnum>,
    /// R8 time-unit settings (rule skipped when absent).
    pub r8: Option<R8Config>,
    /// Allowlist entries.
    pub allows: Vec<Allow>,
}

impl LintConfig {
    /// Parses the `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside
    /// the supported subset.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        // Current table context.
        enum Ctx {
            None,
            Lint,
            Enum(usize),
            R8,
            Allow(usize),
        }
        let mut ctx = Ctx::None;
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lint.toml:{}: {msg}: `{raw}`", ln + 1);
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                if header.trim() != "allow" {
                    return Err(err("unsupported array-of-tables"));
                }
                cfg.allows.push(Allow {
                    line: ln + 1,
                    ..Allow::default()
                });
                ctx = Ctx::Allow(cfg.allows.len() - 1);
            } else if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let header = header.trim();
                if header == "lint" {
                    ctx = Ctx::Lint;
                } else if header == "r8" {
                    cfg.r8 = Some(R8Config::default());
                    ctx = Ctx::R8;
                } else if let Some(name) = header.strip_prefix("r5.enums.") {
                    cfg.stall_enums.push(StallEnum {
                        name: name.to_string(),
                        file: String::new(),
                        order: Vec::new(),
                    });
                    ctx = Ctx::Enum(cfg.stall_enums.len() - 1);
                } else {
                    return Err(err("unsupported table"));
                }
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim();
                let value = value.trim();
                match ctx {
                    Ctx::Lint => match key {
                        "model_crates" => cfg.model_crates = parse_str_array(value, &err)?,
                        "queue_impl" => cfg.queue_impl = parse_str_array(value, &err)?,
                        _ => return Err(err("unknown [lint] key")),
                    },
                    Ctx::Enum(i) => match key {
                        "file" => cfg.stall_enums[i].file = parse_str(value, &err)?,
                        "order" => cfg.stall_enums[i].order = parse_str_array(value, &err)?,
                        _ => return Err(err("unknown [r5.enums.*] key")),
                    },
                    Ctx::R8 => {
                        // INVARIANT: Ctx::R8 is only entered after cfg.r8
                        // is set to Some above.
                        let r8 = cfg.r8.as_mut().expect("[r8] context set");
                        match key {
                            "convert_fns" => r8.convert_fns = parse_str_array(value, &err)?,
                            "conversion_home" => {
                                r8.conversion_home = parse_str_array(value, &err)?;
                            }
                            "literal_files" => r8.literal_files = parse_str_array(value, &err)?,
                            "ps_types" => r8.ps_types = parse_str_array(value, &err)?,
                            _ => return Err(err("unknown [r8] key")),
                        }
                    }
                    Ctx::Allow(i) => {
                        let a = &mut cfg.allows[i];
                        match key {
                            "rule" => a.rule = parse_str(value, &err)?,
                            "file" => a.file = parse_str(value, &err)?,
                            "contains" => a.contains = parse_str(value, &err)?,
                            "reason" => a.reason = parse_str(value, &err)?,
                            _ => return Err(err("unknown [[allow]] key")),
                        }
                    }
                    Ctx::None => return Err(err("key outside any table")),
                }
            } else {
                return Err(err("unparseable line"));
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), String> {
        if self.model_crates.is_empty() {
            return Err("lint.toml: [lint] model_crates must be non-empty".into());
        }
        for a in &self.allows {
            if a.rule.is_empty() {
                return Err("lint.toml: [[allow]] entry missing `rule`".into());
            }
            if a.reason.is_empty() {
                return Err(format!(
                    "lint.toml: [[allow]] entry for {} (file `{}`) missing `reason` — \
                     every suppression must be justified",
                    a.rule, a.file
                ));
            }
        }
        let mut seen = BTreeMap::new();
        for e in &self.stall_enums {
            if e.file.is_empty() || e.order.is_empty() {
                return Err(format!(
                    "lint.toml: [r5.enums.{}] needs both `file` and `order`",
                    e.name
                ));
            }
            if seen.insert(e.name.clone(), ()).is_some() {
                return Err(format!("lint.toml: duplicate enum {}", e.name));
            }
        }
        Ok(())
    }

    /// Whether a finding of `rule` at `path`:`line_text` is allowlisted.
    pub fn is_allowed(&self, rule: &str, path: &str, line_text: &str) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule
                && (a.file.is_empty() || path.ends_with(&a.file))
                && (a.contains.is_empty() || line_text.contains(&a.contains))
        })
    }
}

fn strip_comment(line: &str) -> &str {
    // The config subset has no `#` inside strings except in reasons we
    // never re-read; cut at the first `#` outside quotes.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_str(v: &str, err: &impl Fn(&str) -> String) -> Result<String, String> {
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| err("expected a quoted string"))
}

fn parse_str_array(v: &str, err: &impl Fn(&str) -> String) -> Result<Vec<String>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err("expected a string array"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_str(item, err)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[lint]
model_crates = ["types", "cache"]
queue_impl = ["crates/types/src/queue.rs"]

[r5.enums.L2StallKind]
file = "crates/cache/src/stall.rs"
order = ["BpIcnt", "Port"]

[[allow]]
rule = "R2"
file = "crates/core/src/sim.rs"
contains = "VecDeque"
reason = "ideal queues are unbounded by construction"
"#;

    #[test]
    fn parses_sample() {
        let c = LintConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.model_crates, vec!["types", "cache"]);
        assert_eq!(c.stall_enums.len(), 1);
        assert_eq!(c.stall_enums[0].order, vec!["BpIcnt", "Port"]);
        assert_eq!(c.allows.len(), 1);
    }

    #[test]
    fn allow_matching_uses_file_suffix_and_substring() {
        let c = LintConfig::parse(SAMPLE).unwrap();
        assert!(c.is_allowed("R2", "crates/core/src/sim.rs", "x: VecDeque<u8>"));
        assert!(!c.is_allowed("R2", "crates/core/src/sim.rs", "x: Vec<u8>"));
        assert!(!c.is_allowed("R2", "crates/icnt/src/network.rs", "VecDeque"));
        assert!(!c.is_allowed("R1", "crates/core/src/sim.rs", "VecDeque"));
    }

    #[test]
    fn missing_reason_is_rejected() {
        let bad = "[lint]\nmodel_crates = [\"a\"]\n[[allow]]\nrule = \"R1\"\n";
        assert!(LintConfig::parse(bad).unwrap_err().contains("reason"));
    }

    #[test]
    fn unknown_tables_are_rejected() {
        let bad = "[lint]\nmodel_crates = [\"a\"]\n[mystery]\nx = \"1\"\n";
        assert!(LintConfig::parse(bad).is_err());
    }

    #[test]
    fn empty_model_crates_rejected() {
        assert!(LintConfig::parse("[lint]\nmodel_crates = []\n").is_err());
    }
}
