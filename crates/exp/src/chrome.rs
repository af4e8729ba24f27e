//! The one Chrome `trace_event` JSON writer, behind both
//! [`crate::chrome_trace_json`] (the simulated machine) and
//! [`crate::host_trace_json`] (the host running it): a single line
//! `{"displayTimeUnit":"ns","traceEvents":[…]}` whose events all belong to
//! process (`pid`) 0, with times in microseconds.

use gmh_types::telemetry::{json_escape, json_num};

/// A trace being written: events append in call order, and
/// [`ChromeTrace::finish`] closes the document.
pub(crate) struct ChromeTrace(String);

impl ChromeTrace {
    pub(crate) fn new() -> Self {
        ChromeTrace(String::from(r#"{"displayTimeUnit":"ns","traceEvents":["#))
    }

    /// Appends one event: its name, `head` and `tail` (each field led by a
    /// comma) around `pid` 0 and track `tid`, then the body of its `args`
    /// object, left out when empty.
    fn event(&mut self, name: &str, head: &str, tid: usize, tail: &str, args: &str) {
        // Only the envelope ends in `[`; every event ends in `}`.
        if !self.0.ends_with('[') {
            self.0.push(',');
        }
        let name = json_escape(name);
        self.0.push_str(&format!(
            r#"{{"name":"{name}"{head},"pid":0,"tid":{tid}{tail}"#
        ));
        if !args.is_empty() {
            self.0.push_str(&format!(r#","args":{{{args}}}"#));
        }
        self.0.push('}');
    }

    /// A metadata (`"M"`) event naming or ordering track `tid` (0: the
    /// process): one argument `key` with the JSON value `value`.
    pub(crate) fn metadata(&mut self, name: &str, tid: usize, key: &str, value: &str) {
        let args = format!(r#""{key}":{value}"#);
        self.event(name, r#","ph":"M""#, tid, "", &args);
    }

    /// A complete (`"X"`) event of category `cat` on track `tid`, starting
    /// at `ts` and lasting `dur` microseconds; `args` is the body of its
    /// `args` object.
    pub(crate) fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: usize,
        ts: f64,
        dur: f64,
        args: &str,
    ) {
        let head = format!(r#","cat":"{cat}","ph":"X""#);
        let tail = format!(r#","ts":{},"dur":{}"#, json_num(ts), json_num(dur));
        self.event(name, &head, tid, &tail, args);
    }

    /// An instant (`"i"`) event scoped to track `tid`, at `ts`
    /// microseconds.
    pub(crate) fn instant(&mut self, name: &str, cat: &str, tid: usize, ts: f64, args: &str) {
        let head = format!(r#","cat":"{cat}","ph":"i","s":"t""#);
        let tail = format!(r#","ts":{}"#, json_num(ts));
        self.event(name, &head, tid, &tail, args);
    }

    /// The finished document.
    pub(crate) fn finish(mut self) -> String {
        self.0.push_str("]}");
        self.0
    }
}

/// `s` as a JSON string.
pub(crate) fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}
