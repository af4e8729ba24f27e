//! Lexical model of one Rust source file.
//!
//! The linter is deliberately dependency-free (no `syn`), so it works on a
//! *masked* view of the source: a single-pass state machine blanks out
//! comments and string/char literals (preserving byte positions and line
//! structure), yielding one buffer in which only code tokens survive and a
//! second in which only comment text survives. Rules match tokens against
//! the code view and directives (`lint: allow(...)`, `INVARIANT:`) against
//! the comment view, so a rule name inside a string literal or a `HashMap`
//! mentioned in prose can never trigger or suppress a finding.
//!
//! On top of the masked view the file computes:
//! - *test regions*: lines belonging to a `#[cfg(test)]` item (brace-matched,
//!   not "rest of file"), which every rule skips;
//! - *function spans*: `(name, start, end)` for each `fn` with a body, used
//!   by the stall-attribution rule to scope its ordering checks.

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in findings (repo-relative, `/`-separated).
    pub path: String,
    /// Raw source lines (for finding snippets and allowlist matching).
    pub lines: Vec<String>,
    /// Code view: comments and literals blanked with spaces.
    pub code: Vec<String>,
    /// Comment view: everything except comment text blanked with spaces.
    pub comments: Vec<String>,
    /// `in_test[i]` is true when line `i` belongs to a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Brace-matched `fn` bodies: `(name, first_line, last_line)`,
    /// 0-indexed inclusive.
    pub functions: Vec<(String, usize, usize)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    /// Parses `text` into the masked views.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let (code, comments) = mask(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let in_test = test_regions(&code);
        let functions = function_spans(&code);
        SourceFile {
            path: path.to_string(),
            lines,
            code,
            comments,
            in_test,
            functions,
        }
    }

    /// The raw text of line `i` (0-indexed), or `""` past the end.
    pub fn line(&self, i: usize) -> &str {
        self.lines.get(i).map_or("", String::as_str)
    }

    /// Whether any comment on lines `lo..=hi` (0-indexed, clamped)
    /// contains `needle`.
    pub fn comment_in_range(&self, lo: usize, hi: usize, needle: &str) -> bool {
        let hi = hi.min(self.comments.len().saturating_sub(1));
        self.comments[lo.min(hi)..=hi]
            .iter()
            .any(|c| c.contains(needle))
    }

    /// Whether line `i` carries (or the previous line carries) an inline
    /// `lint: allow(RULE)` directive for `rule` (e.g. `"R4"`).
    pub fn allowed_inline(&self, i: usize, rule: &str) -> bool {
        let needle = format!("lint: allow({rule})");
        self.comment_in_range(i.saturating_sub(1), i, &needle)
    }

    /// Name of the innermost function containing line `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.functions
            .iter()
            .filter(|(_, lo, hi)| (*lo..=*hi).contains(&i))
            .min_by_key(|(_, lo, hi)| hi - lo)
            .map(|(name, _, _)| name.as_str())
    }
}

/// Blanks comments+literals (code view) and code+literals (comment view).
fn mask(text: &str) -> (Vec<String>, Vec<String>) {
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = Lex::Code;

    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or('\0');
        if c == '\n' {
            if state == Lex::LineComment {
                state = Lex::Code;
            }
            code_lines.push(std::mem::take(&mut code_line));
            comment_lines.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match state {
            Lex::Code => match c {
                '/' if next == '/' => {
                    state = Lex::LineComment;
                    code_line.push_str("  ");
                    comment_line.push_str("  ");
                    i += 2;
                }
                '/' if next == '*' => {
                    state = Lex::BlockComment(1);
                    code_line.push_str("  ");
                    comment_line.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = Lex::Str;
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
                'r' if next == '"' || (next == '#' && raw_str_hashes(&bytes, i + 1).is_some()) => {
                    let hashes = if next == '"' {
                        0
                    } else {
                        raw_str_hashes(&bytes, i + 1).unwrap_or(0)
                    };
                    state = Lex::RawStr(hashes);
                    let skip = 2 + hashes as usize; // r, hashes, quote
                    for _ in 0..skip {
                        code_line.push(' ');
                        comment_line.push(' ');
                    }
                    i += skip;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars (`'x'`, `'\n'`, `'\u{1F}'`); a lifetime
                    // never closes. Look ahead for a closing quote before
                    // the next non-escape boundary.
                    if is_char_literal(&bytes, i) {
                        state = Lex::Char;
                    }
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
                _ => {
                    code_line.push(c);
                    comment_line.push(' ');
                    i += 1;
                }
            },
            Lex::LineComment => {
                code_line.push(' ');
                comment_line.push(c);
                i += 1;
            }
            Lex::BlockComment(depth) => {
                if c == '*' && next == '/' {
                    state = if depth == 1 {
                        Lex::Code
                    } else {
                        Lex::BlockComment(depth - 1)
                    };
                    code_line.push_str("  ");
                    comment_line.push_str("  ");
                    i += 2;
                } else if c == '/' && next == '*' {
                    state = Lex::BlockComment(depth + 1);
                    code_line.push_str("  ");
                    comment_line.push_str("  ");
                    i += 2;
                } else {
                    code_line.push(' ');
                    comment_line.push(c);
                    i += 1;
                }
            }
            Lex::Str => {
                if c == '\\' {
                    code_line.push(' ');
                    comment_line.push(' ');
                    if next != '\n' {
                        code_line.push(' ');
                        comment_line.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else {
                    if c == '"' {
                        state = Lex::Code;
                    }
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
            }
            Lex::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes, i, hashes) {
                    let skip = 1 + hashes as usize;
                    for _ in 0..skip {
                        code_line.push(' ');
                        comment_line.push(' ');
                    }
                    i += skip;
                    state = Lex::Code;
                } else {
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
            }
            Lex::Char => {
                if c == '\\' && next != '\n' {
                    code_line.push(' ');
                    code_line.push(' ');
                    comment_line.push(' ');
                    comment_line.push(' ');
                    i += 2;
                } else {
                    if c == '\'' {
                        state = Lex::Code;
                    }
                    code_line.push(' ');
                    comment_line.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code_line.is_empty() || !comment_line.is_empty() {
        code_lines.push(code_line);
        comment_lines.push(comment_line);
    }
    (code_lines, comment_lines)
}

/// At `bytes[start] == '#'`: counts hashes of a raw-string opener `r#*"`,
/// or `None` if no quote follows the hashes.
fn raw_str_hashes(bytes: &[char], start: usize) -> Option<u32> {
    let mut n = 0;
    let mut j = start;
    while bytes.get(j) == Some(&'#') {
        n += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&'"')).then_some(n)
}

/// Whether the `"` at `bytes[i]` is followed by `hashes` `#`s.
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Whether the `'` at `bytes[i]` opens a char literal (vs a lifetime).
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true, // escape: always a literal
        Some(_) => {
            // `'x'` closes right away; `'\u{...}'` was handled above;
            // a lifetime (`'a`, `'static`) never has a quote after one
            // char. `'_'` is also a literal-like token we can mask.
            bytes.get(i + 2) == Some(&'\'')
        }
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)]` items (attribute through the matched
/// closing brace of the item that follows).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            let end = item_end(code, i);
            for flag in in_test.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Line of the matched `}` closing the item starting at (or after) `start`;
/// falls back to the last line when braces never balance.
fn item_end(code: &[String], start: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    for (i, line) in code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened && depth == 0 => return i, // braceless item
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return i;
        }
    }
    code.len().saturating_sub(1)
}

/// Extracts `(name, start, end)` spans for every `fn` with a body.
fn function_spans(code: &[String]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(name) = fn_name(line) else { continue };
        let end = item_end(code, i);
        spans.push((name, i, end));
    }
    spans
}

/// The identifier after a `fn ` keyword token on `line`, if any.
fn fn_name(line: &str) -> Option<String> {
    let mut rest = line;
    let mut offset = 0;
    while let Some(pos) = rest.find("fn ") {
        let abs = offset + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            let after = line[abs + 3..].trim_start();
            let name: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        offset = abs + 3;
        rest = &line[offset..];
    }
    None
}

/// Whether `hay` contains `needle` as a whole word (identifier-boundary
/// delimited on both sides).
pub fn contains_token(hay: &str, needle: &str) -> bool {
    find_token(hay, needle).is_some()
}

/// Byte offset of the first whole-word occurrence of `needle` in `hay`.
pub fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let abs = from + pos;
        let left_ok = abs == 0
            || !hay[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = abs + needle.len();
        let right_ok = end >= hay.len()
            || !hay[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return Some(abs);
        }
        from = abs + needle.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"HashMap\"; // HashMap here\nlet b = HashMap::new();\n",
        );
        assert!(!contains_token(&f.code[0], "HashMap"));
        assert!(f.comments[0].contains("HashMap here"));
        assert!(contains_token(&f.code[1], "HashMap"));
    }

    #[test]
    fn masks_block_comments_and_chars() {
        let f = SourceFile::parse("x.rs", "let c = '\"'; /* VecDeque */ let d = 1;\n");
        assert!(!f.code[0].contains("VecDeque"));
        assert!(f.code[0].contains("let d = 1;"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) { x.unwrap() }\n");
        assert!(f.code[0].contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_masked() {
        let f = SourceFile::parse("x.rs", "let s = r#\"a \" HashMap \"#; let t = 2;\n");
        assert!(!f.code[0].contains("HashMap"));
        assert!(f.code[0].contains("let t = 2;"));
    }

    #[test]
    fn test_region_is_brace_matched() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5], "lines after the tests mod are live again");
    }

    #[test]
    fn function_spans_nest() {
        let src = "impl X {\n  fn outer(&self) {\n    let y = 1;\n  }\n  fn second() {}\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.enclosing_fn(2), Some("outer"));
        assert_eq!(f.enclosing_fn(4), Some("second"));
        assert_eq!(f.enclosing_fn(0), None);
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("let MyHashMapLike = 1;", "HashMap"));
        assert!(!contains_token("hash_map()", "HashMap"));
    }

    #[test]
    fn inline_allow_matches_current_and_previous_line() {
        let src = "// lint: allow(R4): checked\nlet a = b.unwrap();\nlet c = d.unwrap();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allowed_inline(1, "R4"));
        assert!(!f.allowed_inline(2, "R4"));
    }
}
