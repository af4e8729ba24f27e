//! Instruction-trace recording and replay.
//!
//! The synthetic models in this crate stand in for the paper's CUDA
//! benchmarks, but the simulator itself is trace-agnostic: any per-warp
//! instruction stream can drive it. This module defines a small text trace
//! format so streams can be recorded once and replayed — or produced by
//! external tools (e.g. converted from a real GPU trace) and fed to
//! `gmh-core`-style simulators without writing Rust.
//!
//! ## Format (`gmh-trace v1`)
//!
//! ```text
//! #gmh-trace v1
//! #name mm
//! #cores 2
//! #warps 4
//! #code_lines 8
//! c0 w0 L - 123 456      // load of lines 123 and 456, no dependences
//! c0 w0 A m 8            // ALU (latency 8) waiting on an earlier load
//! c0 w1 S - 77           // store of line 77
//! ```
//!
//! One instruction per line: `c<core> w<warp> <L|S|A> <flags> <args...>`
//! where flags are `-` (none), `m` (waits on a pending load), `a` (waits on
//! a pending ALU result) or `ma`. `A`'s argument is its latency; `L`/`S`
//! arguments are line indices. `#` lines are headers/comments. Instructions
//! for one `(core, warp)` replay in file order. Core and warp indices are
//! below [`gmh_types::bits::CAP`]: no machine holds more.

use crate::spec::WorkloadSpec;
use gmh_simt::inst::{Inst, InstKind, InstSource};
use gmh_types::bits;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Errors produced while parsing a trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first line is not the `#gmh-trace v1` magic.
    BadMagic,
    /// A malformed instruction or header line (1-based line number, reason).
    BadLine(usize, String),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ParseTraceError::BadMagic => write!(f, "missing #gmh-trace v1 header"),
            ParseTraceError::BadLine(n, why) => write!(f, "trace line {n}: {why}"),
        }
    }
}

impl std::error::Error for ParseTraceError {}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// A fully-recorded multi-core instruction trace, replayable through
/// [`TraceBundle::source_for_core`].
#[derive(Clone, Debug)]
pub struct TraceBundle {
    name: String,
    code_lines: u64,
    /// `per_core[core][warp]` = that warp's program.
    per_core: Vec<Vec<Vec<Inst>>>,
}

impl TraceBundle {
    /// Records `cores` cores' worth of `spec`'s synthetic stream.
    pub fn record(spec: &WorkloadSpec, cores: usize) -> Self {
        let per_core = (0..cores)
            .map(|c| {
                let mut src = spec.source_for_core(c);
                (0..spec.warps_per_core)
                    .map(|w| {
                        let mut prog = Vec::new();
                        while let Some(i) = src.next_inst(w) {
                            prog.push(i);
                        }
                        prog
                    })
                    .collect()
            })
            .collect();
        TraceBundle {
            name: spec.name.to_string(),
            code_lines: spec.code_lines,
            per_core,
        }
    }

    /// The recorded workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Warps per core in the trace: the widest core's.
    pub fn warps_per_core(&self) -> usize {
        self.per_core.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Kernel code footprint carried in the header.
    pub fn code_lines(&self) -> u64 {
        self.code_lines
    }

    /// Total recorded instructions.
    pub fn total_insts(&self) -> u64 {
        self.per_core
            .iter()
            .flat_map(|c| c.iter())
            .map(|w| w.len() as u64)
            .sum()
    }

    /// Serializes the trace in `gmh-trace v1` format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write(&self, mut out: impl Write) -> io::Result<()> {
        writeln!(out, "#gmh-trace v1")?;
        writeln!(out, "#name {}", self.name)?;
        writeln!(out, "#cores {}", self.per_core.len())?;
        writeln!(out, "#warps {}", self.warps_per_core())?;
        writeln!(out, "#code_lines {}", self.code_lines)?;
        for (c, warps) in self.per_core.iter().enumerate() {
            for (w, prog) in warps.iter().enumerate() {
                for inst in prog {
                    let flags = match (inst.wait_mem, inst.wait_alu) {
                        (false, false) => "-",
                        (true, false) => "m",
                        (false, true) => "a",
                        (true, true) => "ma",
                    };
                    match &inst.kind {
                        InstKind::Alu { latency } => {
                            writeln!(out, "c{c} w{w} A {flags} {latency}")?;
                        }
                        InstKind::Load { lines } => {
                            write!(out, "c{c} w{w} L {flags}")?;
                            for l in lines {
                                write!(out, " {}", l.index())?;
                            }
                            writeln!(out)?;
                        }
                        InstKind::Store { lines } => {
                            write!(out, "c{c} w{w} S {flags}")?;
                            for l in lines {
                                write!(out, " {}", l.index())?;
                            }
                            writeln!(out)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses a `gmh-trace v1` stream.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on I/O failure, a missing magic line, or
    /// any malformed instruction line, including a core or warp index of
    /// [`bits::CAP`] or more.
    pub fn parse(reader: impl BufRead) -> Result<Self, ParseTraceError> {
        let mut lines = reader.lines();
        let magic = lines
            .next()
            .ok_or(ParseTraceError::BadMagic)?
            .map_err(ParseTraceError::Io)?;
        if magic.trim() != "#gmh-trace v1" {
            return Err(ParseTraceError::BadMagic);
        }
        let mut name = String::from("trace");
        let mut code_lines = 8u64;
        let mut per_core: Vec<Vec<Vec<Inst>>> = Vec::new();
        for (idx, line) in lines.enumerate() {
            let n = idx + 2; // 1-based, after the magic
            let line = line.map_err(ParseTraceError::Io)?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let mut it = rest.split_whitespace();
                match it.next() {
                    Some("name") => name = it.next().unwrap_or("trace").to_string(),
                    Some("code_lines") => {
                        code_lines = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| ParseTraceError::BadLine(n, "bad code_lines".into()))?;
                    }
                    _ => {} // cores/warps headers are advisory; comments pass
                }
                continue;
            }
            let mut tok = line.split_whitespace();
            let bad = |why: &str| ParseTraceError::BadLine(n, why.to_string());
            let core: usize = tok
                .next()
                .and_then(|t| t.strip_prefix('c'))
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("expected c<core>"))?;
            let warp: usize = tok
                .next()
                .and_then(|t| t.strip_prefix('w'))
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("expected w<warp>"))?;
            if core >= bits::CAP || warp >= bits::CAP {
                let cap = bits::CAP;
                return Err(bad(&format!(
                    "c{core} w{warp}: no machine holds more than {cap} cores or {cap} warps a core"
                )));
            }
            let op = tok.next().ok_or_else(|| bad("missing opcode"))?;
            let flags = tok.next().ok_or_else(|| bad("missing flags"))?;
            let (wait_mem, wait_alu) = match flags {
                "-" => (false, false),
                "m" => (true, false),
                "a" => (false, true),
                "ma" | "am" => (true, true),
                other => return Err(bad(&format!("unknown flags {other:?}"))),
            };
            let kind = match op {
                "A" => {
                    let lat: u32 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("ALU needs a latency"))?;
                    InstKind::Alu { latency: lat }
                }
                "L" | "S" => {
                    let mut addrs = Vec::new();
                    for t in tok.by_ref() {
                        let v: u64 = t
                            .parse()
                            .map_err(|_| bad(&format!("bad line index {t:?}")))?;
                        addrs.push(gmh_types::LineAddr::new(v));
                    }
                    if addrs.is_empty() {
                        return Err(bad("memory op needs at least one line"));
                    }
                    if op == "L" {
                        InstKind::Load { lines: addrs }
                    } else {
                        InstKind::Store { lines: addrs }
                    }
                }
                other => return Err(bad(&format!("unknown opcode {other:?}"))),
            };
            if per_core.len() <= core {
                per_core.resize_with(core + 1, Vec::new);
            }
            if per_core[core].len() <= warp {
                per_core[core].resize_with(warp + 1, Vec::new);
            }
            per_core[core][warp].push(Inst {
                kind,
                wait_mem,
                wait_alu,
            });
        }
        Ok(TraceBundle {
            name,
            code_lines,
            per_core,
        })
    }

    /// Builds the replay source for `core`. Cores beyond the trace replay
    /// nothing (all warps finish immediately).
    pub fn source_for_core(&self, core: usize) -> ReplaySource {
        ReplaySource {
            programs: self.per_core.get(core).cloned().unwrap_or_default(),
            pos: vec![0; self.per_core.get(core).map_or(0, |c| c.len())],
            code_lines: self.code_lines,
        }
    }
}

/// An [`InstSource`] replaying one core's slice of a [`TraceBundle`].
#[derive(Clone, Debug)]
pub struct ReplaySource {
    programs: Vec<Vec<Inst>>,
    pos: Vec<usize>,
    code_lines: u64,
}

impl InstSource for ReplaySource {
    fn next_inst(&mut self, warp: usize) -> Option<Inst> {
        let prog = self.programs.get(warp)?;
        let p = self.pos.get_mut(warp)?;
        let inst = prog.get(*p)?.clone();
        *p += 1;
        Some(inst)
    }

    fn code_lines(&self) -> u64 {
        self.code_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use gmh_types::rng::cases;

    fn drain(src: &mut dyn InstSource, warp: usize) -> Vec<Inst> {
        let mut v = Vec::new();
        while let Some(i) = src.next_inst(warp) {
            v.push(i);
        }
        v
    }

    #[test]
    fn record_write_parse_round_trips() {
        let mut spec = catalog::by_name("cfd").unwrap();
        spec.warps_per_core = 3;
        spec.insts_per_warp = 40;
        let bundle = TraceBundle::record(&spec, 2);
        let mut buf = Vec::new();
        bundle.write(&mut buf).unwrap();
        let parsed = TraceBundle::parse(&buf[..]).unwrap();
        assert_eq!(parsed.name(), "cfd");
        assert_eq!(parsed.cores(), 2);
        assert_eq!(parsed.code_lines(), spec.code_lines);
        assert_eq!(parsed.total_insts(), bundle.total_insts());
        for c in 0..2 {
            let mut orig = spec.source_for_core(c);
            let mut replay = parsed.source_for_core(c);
            for w in 0..3 {
                assert_eq!(
                    drain(&mut orig, w),
                    drain(&mut replay, w),
                    "core {c} warp {w} diverged"
                );
            }
        }
    }

    #[test]
    fn replay_is_exhaustible_and_stable() {
        let mut spec = catalog::by_name("sad").unwrap();
        spec.warps_per_core = 2;
        spec.insts_per_warp = 10;
        let bundle = TraceBundle::record(&spec, 1);
        let mut s = bundle.source_for_core(0);
        assert_eq!(drain(&mut s, 0).len(), 10);
        assert!(s.next_inst(0).is_none());
        assert!(s.next_inst(9).is_none(), "unknown warps are empty");
        assert!(bundle.source_for_core(5).next_inst(0).is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let r = TraceBundle::parse("not a trace\n".as_bytes());
        assert!(matches!(r, Err(ParseTraceError::BadMagic)));
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let text = "#gmh-trace v1\nc0 w0 X - 1\n";
        match TraceBundle::parse(text.as_bytes()) {
            Err(ParseTraceError::BadLine(2, why)) => assert!(why.contains("unknown opcode")),
            other => panic!("expected BadLine(2, ..), got {other:?}"),
        }
        let text = "#gmh-trace v1\nc0 w0 L -\n";
        assert!(matches!(
            TraceBundle::parse(text.as_bytes()),
            Err(ParseTraceError::BadLine(2, _))
        ));
        let text = "#gmh-trace v1\nw0 c0 A - 4\n";
        assert!(matches!(
            TraceBundle::parse(text.as_bytes()),
            Err(ParseTraceError::BadLine(2, _))
        ));
        // Indices past any machine, up to the one whose `+ 1` overflows.
        for line in [
            "c18446744073709551615 w0 A - 1",
            "c0 w18446744073709551615 A - 1",
        ] {
            match TraceBundle::parse(format!("#gmh-trace v1\n{line}\n").as_bytes()) {
                Err(ParseTraceError::BadLine(2, why)) => assert!(why.contains("64 cores"), "{why}"),
                other => panic!("{line}: expected BadLine(2, ..), got {other:?}"),
            }
        }
    }

    /// Byte flips, digit runs and truncations of a recorded trace: `parse`
    /// answers each, never panics.
    #[test]
    fn mutated_traces_parse_or_are_refused() {
        let mut spec = catalog::by_name("cfd").unwrap();
        spec.warps_per_core = 3;
        spec.insts_per_warp = 12;
        let mut recorded = Vec::new();
        TraceBundle::record(&spec, 2).write(&mut recorded).unwrap();
        cases("mutated_traces_parse_or_are_refused", 2048, |rng| {
            let mut text = recorded.clone();
            for _ in 0..rng.range(1..4) {
                let at = rng.range(0..text.len());
                match rng.below(3) {
                    0 => text[at] ^= 1 << rng.below(8),
                    1 => {
                        let run: Vec<u8> = (0..rng.range(1..24))
                            .map(|_| b"0123456789"[rng.range(0..10)])
                            .collect();
                        text.splice(at..at, run);
                    }
                    _ => text.truncate(at.max(1)),
                }
            }
            let _ = TraceBundle::parse(&text[..]);
        });
    }

    #[test]
    fn hand_written_trace_parses() {
        let text = "\
#gmh-trace v1
#name handmade
#code_lines 2

c0 w0 L - 100 101
c0 w0 A m 6
c0 w1 S ma 200
";
        let b = TraceBundle::parse(text.as_bytes()).unwrap();
        assert_eq!(b.name(), "handmade");
        assert_eq!(b.total_insts(), 3);
        let mut s = b.source_for_core(0);
        let i0 = s.next_inst(0).unwrap();
        assert!(matches!(i0.kind, InstKind::Load { ref lines } if lines.len() == 2));
        let i1 = s.next_inst(0).unwrap();
        assert!(i1.wait_mem && !i1.wait_alu);
        let i2 = s.next_inst(1).unwrap();
        assert!(i2.wait_mem && i2.wait_alu);
    }
}
