//! Per-function intraprocedural dataflow over the masked lexical view:
//! local bindings.
//!
//! This is not a type checker — it recovers exactly the facts R8 needs and
//! nothing more: `let` bindings with their ascribed type and initializer
//! text (multi-line initializers are collapsed up to the terminating `;`).
//!
//! The pass is line-based and conservative: shadowing rebinds a name at
//! its `let` line, and a use is attributed to the latest binding of that
//! name at or above the use line.

use crate::source::{find_token, SourceFile};

/// One `let` binding in a function body.
#[derive(Clone, Debug)]
pub struct Binding {
    /// Bound name.
    pub name: String,
    /// 0-indexed line of the `let`.
    pub line: usize,
    /// Ascribed type text (`let x: Picos = ..`), if any.
    pub ty: Option<String>,
    /// Initializer text, collapsed across lines up to the `;`.
    pub init: String,
}

/// Dataflow facts for one function span.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// All `let` bindings, in source order.
    pub bindings: Vec<Binding>,
    /// First line of the span.
    pub start: usize,
    /// Last line of the span (inclusive).
    pub end: usize,
}

impl FnFlow {
    /// Builds the facts for the function spanning `start..=end` in `f`.
    pub fn build(f: &SourceFile, start: usize, end: usize) -> FnFlow {
        let mut flow = FnFlow {
            start,
            end: end.min(f.code.len().saturating_sub(1)),
            ..FnFlow::default()
        };
        let mut i = start;
        while i <= flow.end {
            let line = &f.code[i];
            if let Some(pos) = find_token(line, "let") {
                let (stmt, last) = collapse_statement(&f.code, i, flow.end);
                parse_let(&stmt, &line[pos..], i, &mut flow);
                // Step one line (not past the statement) so nested `let`s
                // inside multi-line initializers are still seen.
                let _ = last;
            }
            i += 1;
        }
        flow
    }

    /// The latest binding of `name` declared at or before `line`, if any.
    pub fn binding_at(&self, name: &str, line: usize) -> Option<&Binding> {
        self.bindings
            .iter()
            .rfind(|b| b.name == name && b.line <= line)
    }
}

/// Collapses the statement starting at line `i` through its terminating
/// `;` (bounded by `end`); returns the text and the last line consumed.
fn collapse_statement(code: &[String], i: usize, end: usize) -> (String, usize) {
    let mut out = String::new();
    for (k, line) in code.iter().enumerate().take(end + 1).skip(i) {
        out.push_str(line);
        out.push(' ');
        if line.trim_end().ends_with(';') {
            return (out, k);
        }
    }
    (out, end)
}

/// Parses one `let` statement (already collapsed) into bindings.
/// `from_let` is the statement text starting at the `let` keyword.
fn parse_let(stmt: &str, from_let: &str, line: usize, flow: &mut FnFlow) {
    // Pattern and the rest: split at the first top-level `=` of the
    // statement (type ascriptions cannot contain `=`).
    let Some(let_pos) = find_token(stmt, "let") else {
        return;
    };
    let after_let = &stmt[let_pos + 3..];
    let Some(eq) = top_level_eq(after_let) else {
        return;
    };
    let (pat_and_ty, init) = after_let.split_at(eq);
    let init = init[1..].trim().trim_end_matches(';').trim().to_string();
    let (pat, ty) = split_ascription(pat_and_ty);
    let names = pattern_names(&pat);
    for name in names {
        flow.bindings.push(Binding {
            name,
            line,
            ty: ty.clone(),
            init: init.clone(),
        });
    }
    let _ = from_let;
}

/// Byte offset of the first `=` at bracket depth 0 that is not part of
/// `==`, `<=`, `>=`, `!=`, `+=` etc.
fn top_level_eq(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i64;
    for (k, &b) in bytes.iter().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b'=' if depth <= 0 => {
                let prev = if k > 0 { bytes[k - 1] } else { b' ' };
                let next = bytes.get(k + 1).copied().unwrap_or(b' ');
                if next != b'=' && !matches!(prev, b'=' | b'<' | b'>' | b'!' | b'+' | b'-') {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits `pat: Type` into the pattern and the ascription.
fn split_ascription(s: &str) -> (String, Option<String>) {
    // A `:` outside parens is an ascription (tuple patterns keep their
    // inner structure intact).
    let mut depth = 0i64;
    for (k, c) in s.char_indices() {
        match c {
            '(' | '<' | '[' => depth += 1,
            ')' | '>' | ']' => depth -= 1,
            ':' if depth == 0 => {
                return (
                    s[..k].trim().to_string(),
                    Some(s[k + 1..].trim().to_string()),
                );
            }
            _ => {}
        }
    }
    (s.trim().to_string(), None)
}

/// Bound names of a pattern: `x`, `mut x`, `(a, mut b)`, `(a, _)`.
fn pattern_names(pat: &str) -> Vec<String> {
    let inner = pat
        .trim()
        .strip_prefix('(')
        .and_then(|p| p.strip_suffix(')'))
        .unwrap_or(pat);
    inner
        .split(',')
        .map(|p| {
            p.trim()
                .strip_prefix("mut ")
                .unwrap_or(p.trim())
                .trim()
                .to_string()
        })
        .filter(|n| {
            !n.is_empty()
                && *n != "_"
                && n.chars().all(|c| c.is_alphanumeric() || c == '_')
                && n.chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn flow_of(src: &str) -> (FnFlow, SourceFile) {
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let (_, start, end) = f.functions[0].clone();
        (FnFlow::build(&f, start, end), f)
    }

    #[test]
    fn bindings_record_type_and_init() {
        let (flow, _) = flow_of("fn f() {\n    let mut t: Picos = base + 1;\n    let u = t;\n}\n");
        assert_eq!(flow.bindings.len(), 2);
        assert_eq!(flow.bindings[0].name, "t");
        assert_eq!(flow.bindings[0].ty.as_deref(), Some("Picos"));
        assert!(flow.bindings[0].init.contains("base + 1"));
        assert_eq!(flow.bindings[1].init, "t");
    }

    #[test]
    fn shadowing_attributes_uses_to_latest_binding() {
        let (flow, _) = flow_of("fn f() {\n    let x = a();\n    let x = b();\n    g(x);\n}\n");
        assert_eq!(flow.binding_at("x", 3).unwrap().init, "b()");
        assert_eq!(flow.binding_at("x", 1).unwrap().init, "a()");
    }

    #[test]
    fn multiline_initializer_collapses() {
        let (flow, _) = flow_of("fn f() {\n    let v = foo(\n        bar,\n    );\n}\n");
        assert!(flow.bindings[0].init.contains("foo("));
        assert!(flow.bindings[0].init.contains("bar"));
    }
}
