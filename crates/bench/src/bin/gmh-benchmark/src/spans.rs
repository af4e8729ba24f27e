//! Benchmark-side span recorder.
//!
//! Spans wrap the benchmark's own calls into a layer's public functions;
//! nothing inside the program is instrumented. One recorder belongs to one
//! thread (its open-span stack is the parent chain), spans stay in memory
//! until the run ends, and a disabled recorder — every untraced run — costs
//! one branch per call and never reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The operation (simulation, job, request) this span belongs to.
    pub op_id: u64,
    /// Recorder lane (one per thread), the Chrome-trace `tid`.
    pub lane: u32,
}

/// Handle returned by [`Recorder::begin`]; `None` when recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals over all spans of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct child spans.
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            lane: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's epoch and switch.
    pub fn lane(&self, lane: u32) -> Self {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
            lane: self.lane,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Moves another lane's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        totals(&self.spans)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, microsecond timestamps.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Span names are identifiers from this crate: nothing to escape.
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}

/// Per-name count, total and self time. A span's self time is its duration
/// minus its direct children's; children of one parent run on one thread,
/// one after the other, so their durations add up to the covered interval.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // request [0,100) ⊃ parse [5,15), run [20,90) ⊃ new [20,30); a
        // second top-level request [100,130) has no children.
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("run", 20, 90, Some(0)),
            span("new", 20, 30, Some(2)),
            span("request", 100, 130, None),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["request"],
            Total {
                count: 2,
                total_ns: 130,
                // 100 − (10 + 70) siblings, grandchild not subtracted twice; + 30.
                self_ns: 50
            }
        );
        assert_eq!(t["run"].self_ns, 60);
        assert_eq!(t["parse"].self_ns, 10);
        assert_eq!(t["new"].self_ns, 10);
        // Self times partition the top-level wall time.
        let all_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all_self, 130);
    }

    #[test]
    fn recorder_links_parents_and_survives_absorb() {
        let mut main = Recorder::new(true);
        let outer = main.begin("outer", 7);
        let inner = main.begin("inner", 7);
        main.end(inner);
        main.end(outer);
        let mut other = main.lane(1);
        let a = other.begin("outer", 8);
        let b = other.begin("inner", 8);
        other.end(b);
        other.end(a);
        main.absorb(other);
        assert_eq!(main.spans.len(), 4);
        assert_eq!(main.spans[1].parent, Some(0));
        assert_eq!(main.spans[3].parent, Some(2));
        assert_eq!(main.spans[3].lane, 1);
        let t = main.totals();
        assert_eq!(t["outer"].count, 2);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert!(main
            .chrome_trace()
            .starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.begin("x", 1);
        r.end(o);
        assert!(r.totals().is_empty());
        assert_eq!(r.chrome_trace(), "{\"traceEvents\":[]}");
    }
}
