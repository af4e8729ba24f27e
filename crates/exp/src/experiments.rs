//! Report generators, one per table/figure of the paper.
//!
//! Every generator renders a [`Section`]: a plain-text report whose rows
//! mirror the paper's artifact, annotated with the paper's numbers where it
//! gives them (read from [`crate::scorecard`]), and the measured numbers the
//! scorecard scores. Generators that simulate take their runs from one
//! [`Runs`] store, so a run is made once per process. [`ARTIFACTS`] lists
//! them in report order; the `gmh-exp` CLI ([`crate::cli`]) prints any
//! subset, or all of them as a full evaluation report.

use crate::runner::Runs;
use crate::scorecard;
use gmh_core::{area, GpuConfig, SimStats};
use gmh_workloads::{catalog, WorkloadSpec};
use std::fmt::Write as _;

/// One rendered artifact: its text, and the numbers in it that the
/// scorecard scores.
pub struct Section {
    /// The text.
    pub text: String,
    /// Each measured number: its label (a column heading, Table II's
    /// `<bench> P∞`, §VII-C's `<config> <quantity>`), its value, and what
    /// the text prints it times: 100 for a percentage, else 1.
    pub measured: Vec<(String, f64, f64)>,
}

impl From<String> for Section {
    fn from(text: String) -> Self {
        Section {
            text,
            measured: Vec::new(),
        }
    }
}

/// One table or figure of the paper's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Artifact {
    /// The name the CLI takes (`fig8`).
    pub name: &'static str,
    /// One-line description: the text between the `==` of the section title.
    pub about: &'static str,
    /// The generator.
    pub render: Render,
}

/// How an [`Artifact`] is rendered: from the runs of the process's store,
/// adding those it lacks; the simulation-free artifacts ignore the store.
pub type Render = fn(&mut Runs) -> Section;

const fn row(name: &'static str, about: &'static str, render: Render) -> Artifact {
    Artifact {
        name,
        about,
        render,
    }
}

/// Every artifact, in the order of the full report.
#[rustfmt::skip]
pub const ARTIFACTS: [Artifact; 16] = [
    row("table1", "Table I: Baseline architecture parameters", |_| table1().into()),
    row("fig1", "Fig. 1: Issue stalls, L2-AHL and AML (baseline)", fig1),
    row("table2", "Table II: P∞ and P_DRAM speedups", table2),
    row("fig3", "Fig. 3: IPC vs fixed L1 miss latency (normalized to baseline)", fig3),
    row("fig4", "Fig. 4: L2 access queue occupancy (usage lifetime)", fig4),
    row("fig5", "Fig. 5: DRAM access queue occupancy (usage lifetime)", fig5),
    row("fig6", "Fig. 6: Structural hazard illustration", |_| fig6().into()),
    row("fig7", "Fig. 7: Issue-stall distribution", fig7),
    row("fig8", "Fig. 8: L2 stall distribution", fig8),
    row("fig9", "Fig. 9: L1 stall distribution", fig9),
    row("fig10", "Fig. 10: IPC with 4x bandwidth scaling (normalized to baseline)", fig10),
    row("fig11", "Fig. 11: Performance vs core frequency (wall-clock, normalized to 1.4 GHz)", fig11),
    row("fig12", "Fig. 12: Cost-effective configurations (normalized to baseline)", fig12),
    row("table3", "Table III: Consolidated design space", |_| table3().into()),
    row("overhead", "Overhead (paper §VII-C)", |_| overhead()),
    row("ablation", "Ablation: single-knob scaling (speedup over baseline)", ablation),
];

/// Benchmarks in the paper's Fig. 1/4/5/7/8/9 x-axis order.
pub const FIG_ORDER: [&str; 19] = [
    "bfs",
    "cfd",
    "dwt2d",
    "hybridsort",
    "lavaMD",
    "leukocyte",
    "nn",
    "nw",
    "sradv1",
    "sradv2",
    "sc",
    "bfs'",
    "lbm",
    "sad",
    "stencil",
    "ii",
    "mm",
    "pvr",
    "ss",
];

/// Benchmarks used in the paper's Fig. 3 latency sweep.
pub const FIG3_BENCHMARKS: [&str; 8] = ["cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"];

/// L1 miss latencies swept in Fig. 3 (core cycles).
pub const FIG3_LATENCIES: [u64; 17] = [
    0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800,
];

/// Core frequencies swept in Fig. 11 (MHz).
pub const FIG11_FREQS: [u32; 5] = [1200, 1300, 1400, 1500, 1600];

/// Benchmarks shown in Fig. 11.
pub const FIG11_BENCHMARKS: [&str; 6] = ["nn", "hybridsort", "sradv2", "bfs", "cfd", "leukocyte"];

fn specs(names: &[&str]) -> Vec<WorkloadSpec> {
    let spec = |n: &&str| catalog::by_name(n).expect("catalog has every figure workload");
    names.iter().map(spec).collect()
}

/// The baseline run of each named workload.
fn baselines<'a>(runs: &'a mut Runs, names: &[&str]) -> Vec<&'a SimStats> {
    let rows = runs.grid(&specs(names), &[GpuConfig::gtx480_baseline()]);
    rows.into_iter().map(|row| row[0]).collect()
}

/// Each named workload under each labelled config, as a speedup over its
/// baseline run; `speedups[w][c]` is workload `w` under config `c`.
fn speedups<L>(runs: &mut Runs, names: &[&str], configs: &[(L, GpuConfig)]) -> Vec<Vec<f64>> {
    let base = std::iter::once(GpuConfig::gtx480_baseline());
    let configs: Vec<GpuConfig> = base.chain(configs.iter().map(|(_, c)| c.clone())).collect();
    let rows = runs.grid(&specs(names), &configs);
    let over_base =
        |row: &Vec<&SimStats>| row[1..].iter().map(|st| st.speedup_over(row[0])).collect();
    rows.iter().map(over_base).collect()
}

/// How a column of a per-workload table prints its values.
#[derive(Clone, Copy)]
enum Format {
    /// `100 × value` to one decimal with a trailing `%` (inside the width).
    Percent,
    /// The value to this many decimals.
    Fixed(usize),
}
use Format::{Fixed, Percent};

/// A column of a per-workload table: heading, width, format.
#[derive(Clone, Copy)]
struct Col(&'static str, usize, Format);

impl Col {
    /// Appends `v` in this column's width and format.
    fn cell(&self, s: &mut String, v: f64) {
        let w = self.1;
        match self.2 {
            Percent => write!(s, " {:>w$.1}%", 100.0 * v, w = w - 1),
            Fixed(d) => write!(s, " {:>w$.d$}", v),
        }
        .unwrap();
    }
}

/// The one per-workload table of artifact `name`: a row of values per
/// benchmark of [`FIG_ORDER`], then the column means beside the paper's,
/// printed through `footer` (see [`scorecard::footer`]). The means, under
/// their column headings, are what the section measures.
fn table(name: &str, footer: &str, columns: &[Col], rows: Vec<Vec<f64>>) -> Section {
    let artifact = ARTIFACTS.iter().find(|a| a.name == name);
    let title = artifact.expect("a table is an artifact").about;
    let mut s = format!("== {title} ==\n{:<11}", "bench");
    for c in columns {
        write!(s, " {:>w$}", c.0, w = c.1).unwrap();
    }
    writeln!(s).unwrap();
    for (bench, row) in FIG_ORDER.iter().zip(&rows) {
        write!(s, "{bench:<11}").unwrap();
        for (c, v) in columns.iter().zip(row) {
            c.cell(&mut s, *v);
        }
        writeln!(s).unwrap();
    }
    write!(s, "{:<11}", "AVG").unwrap();
    let mut means = Vec::new();
    for (i, c) in columns.iter().enumerate() {
        let mean = rows.iter().map(|row| row[i]).sum::<f64>() / rows.len() as f64;
        c.cell(&mut s, mean);
        let scale = if matches!(c.2, Percent) { 100.0 } else { 1.0 };
        means.push((c.0.to_string(), mean, scale));
    }
    writeln!(s, "   {}", scorecard::footer(name, footer)).unwrap();
    Section {
        text: s,
        measured: means,
    }
}

/// `values(baseline stats)` per benchmark of [`FIG_ORDER`].
fn per_benchmark(runs: &mut Runs, values: impl Fn(&SimStats) -> Vec<f64>) -> Vec<Vec<f64>> {
    let stats = baselines(runs, &FIG_ORDER);
    stats.into_iter().map(values).collect()
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: the baseline architecture parameters, read back from the live
/// configuration so the table cannot drift from the code.
pub fn table1() -> String {
    let c = GpuConfig::gtx480_baseline();
    let t = c.dram.timing;
    let mut s = String::new();
    writeln!(s, "== Table I: Baseline architecture parameters ==").unwrap();
    writeln!(s, "Core                 {} SMs, GTO scheduler", c.n_cores).unwrap();
    writeln!(
        s,
        "Clock                Core @ {} MHz; Crossbar/L2 @ {} MHz; DRAM cmd @ {} MHz",
        c.core_mhz, c.icnt_mhz, c.dram_mhz
    )
    .unwrap();
    writeln!(
        s,
        "Warps per SM         {} (1536 threads)",
        c.core.max_warps
    )
    .unwrap();
    writeln!(
        s,
        "L1 Data Cache        {} KB, 128B line, {}-way, LRU, write-evict, {} MSHRs, {}-entry miss queue",
        c.core.l1d.size_bytes / 1024,
        c.core.l1d.assoc,
        c.core.l1d.mshr_entries,
        c.core.l1d.miss_queue_len
    )
    .unwrap();
    writeln!(
        s,
        "Interconnect         Crossbar, fly topology, {}B request / {}B reply flits",
        c.icnt.req_flit_bytes, c.icnt.rep_flit_bytes
    )
    .unwrap();
    writeln!(
        s,
        "L2 Cache             {} KB total, 128B line, {}-way, LRU, write-back, {} banks, {} MSHRs,",
        c.l2_bank.size_bytes * c.n_l2_banks as u64 / 1024,
        c.l2_bank.assoc,
        c.n_l2_banks,
        c.l2_bank.mshr_entries
    )
    .unwrap();
    writeln!(
        s,
        "                     {}-entry miss queue, {}B data port, {}-entry access queue",
        c.l2_bank.miss_queue_len, c.l2_data_port_bytes, c.l2_access_queue
    )
    .unwrap();
    writeln!(
        s,
        "DRAM                 GDDR5, FR-FCFS, {} partitions, {} banks/channel, {}B/cmd-clock bus,",
        c.n_channels, c.dram.n_banks, c.dram.bus_bytes_per_cycle
    )
    .unwrap();
    writeln!(
        s,
        "                     {}-entry scheduler queue",
        c.dram.sched_queue
    )
    .unwrap();
    writeln!(
        s,
        "DRAM timing          CCD={} RRD={} RCD={} RAS={} RP={} RC={} CL={} WL={} CDLR={} WR={}",
        t.ccd, t.rrd, t.rcd, t.ras, t.rp, t.rc, t.cl, t.wl, t.cdlr, t.wr
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------------
// Fig. 1
// ---------------------------------------------------------------------------

/// Fig. 1: issue-stall %, L2-AHL and AML per benchmark.
pub fn fig1(runs: &mut Runs) -> Section {
    let columns = [
        Col("stall%", 8, Percent),
        Col("L2-AHL", 8, Fixed(0)),
        Col("AML", 8, Fixed(0)),
    ];
    let rows = per_benchmark(runs, |b| {
        vec![b.stall_fraction, b.l2_ahl_core_cycles, b.aml_core_cycles]
    });
    table("fig1", "(paper AVG: {}%, {}, {})", &columns, rows)
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Table II: every catalog workload's P∞ and P_DRAM speedups over the
/// baseline, measured vs. paper, and the averages of all four columns. It
/// measures the 38 speedups.
pub fn table2(runs: &mut Runs) -> Section {
    let names = catalog::names();
    let ideal = [
        ("P∞", GpuConfig::infinite_bw()),
        ("P_DRAM", GpuConfig::infinite_dram()),
    ];
    // The one place the order of Table II's rows is relied on: a P∞ and a
    // P_DRAM row per workload, in catalog order.
    let speedups = speedups(runs, &names, &ideal).concat();
    let cells: Vec<_> = scorecard::rows("table2").zip(speedups).collect();
    let measured = cells
        .iter()
        .map(|(r, v)| (r.1.to_string(), *v, 1.0))
        .collect();
    let rows: Vec<(&str, [f64; 4])> = names
        .iter()
        .zip(cells.chunks(2))
        .map(|(n, c)| (*n, [c[0].1, c[0].0.value(), c[1].1, c[1].0.value()]))
        .collect();
    let avg = |c: usize| rows.iter().map(|(_, row)| row[c]).sum::<f64>() / rows.len() as f64;
    let average = ("Average", [0, 1, 2, 3].map(avg));
    let mut s = "== Table II: P∞ and P_DRAM speedups ==\n".to_string();
    s += "#    bench           P∞  paper | P_DRAM  paper\n";
    for (i, (name, [pinf, ri, pdram, rd])) in rows.iter().chain([&average]).enumerate() {
        let i = if i < rows.len() {
            (i + 1).to_string()
        } else {
            String::new()
        };
        let speedups = format!("{pinf:>6.2} {ri:>6.2} | {pdram:>6.2} {rd:>6.2}");
        writeln!(s, "{i:<4} {name:<11} {speedups}").unwrap();
    }
    Section { text: s, measured }
}

// ---------------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------------

/// Fig. 3: IPC (normalized to baseline) vs. fixed L1 miss latency.
pub fn fig3(runs: &mut Runs) -> Section {
    let sweep = FIG3_LATENCIES.map(|lat| (lat, GpuConfig::fixed_l1_miss_latency(lat)));
    // One normalized-IPC series per benchmark.
    let series = speedups(runs, &FIG3_BENCHMARKS, &sweep);
    let mut s = String::new();
    writeln!(
        s,
        "== Fig. 3: IPC vs fixed L1 miss latency (normalized to baseline) =="
    )
    .unwrap();
    write!(s, "{:<11}", "latency").unwrap();
    for lat in FIG3_LATENCIES {
        write!(s, " {lat:>5}").unwrap();
    }
    writeln!(s).unwrap();
    for (name, series) in FIG3_BENCHMARKS.iter().zip(&series) {
        write!(s, "{name:<11}").unwrap();
        for sp in series {
            write!(s, " {sp:>5.2}").unwrap();
        }
        writeln!(s).unwrap();
    }
    // §III-A's two observations, made quantitative: the 1.0-crossing of
    // each curve is the benchmark's *effective* baseline memory latency; it
    // should track the measured AML and sit far beyond both the
    // latency-tolerance plateau and the uncongested floor (~220 cycles).
    writeln!(s).unwrap();
    writeln!(
        s,
        "{:<11} {:>12} {:>12}   (1.0-crossing vs measured baseline AML)",
        "bench", "crossing", "AML"
    )
    .unwrap();
    let bases = baselines(runs, &FIG3_BENCHMARKS);
    for ((name, series), base) in FIG3_BENCHMARKS.iter().zip(&series).zip(bases) {
        let aml = base.aml_core_cycles;
        let crossing = FIG3_LATENCIES
            .windows(2)
            .zip(series.windows(2))
            .find(|(_, s)| s[0] >= 1.0 && s[1] < 1.0)
            .map(|(l, sp)| {
                // Linear interpolation between the bracketing sweep points.
                let f = (sp[0] - 1.0) / (sp[0] - sp[1]);
                l[0] as f64 + f * (l[1] - l[0]) as f64
            });
        match crossing {
            Some(c) => writeln!(s, "{name:<11} {c:>12.0} {aml:>12.0}"),
            None => writeln!(s, "{:<11} {:>12} {:>12.0}", name, ">800", aml),
        }
        .unwrap();
    }
    writeln!(
        s,
        "(each row should decay with latency; crossings far above the ~220-cycle\n\
         uncongested floor locate the congestion the paper targets)"
    )
    .unwrap();
    s.into()
}

// ---------------------------------------------------------------------------
// Figs. 4 and 5
// ---------------------------------------------------------------------------

fn occupancy_bins() -> [Col; 5] {
    ["(0-25%)", "[25-50)", "[50-75)", "[75-100)", "100%"].map(|h| Col(h, 8, Fixed(2)))
}

/// Fig. 4: occupancy of the L2 access queues over their usage lifetime.
pub fn fig4(runs: &mut Runs) -> Section {
    let rows = per_benchmark(runs, |b| b.l2_access_occupancy.fractions().to_vec());
    table("fig4", "(paper AVG full: {})", &occupancy_bins(), rows)
}

/// Fig. 5: occupancy of the DRAM scheduler queues over their usage
/// lifetime.
pub fn fig5(runs: &mut Runs) -> Section {
    let rows = per_benchmark(runs, |b| b.dram_queue_occupancy.fractions().to_vec());
    table("fig5", "(paper AVG full: {})", &occupancy_bins(), rows)
}

// ---------------------------------------------------------------------------
// Fig. 6
// ---------------------------------------------------------------------------

/// Fig. 6: the structural-hazard illustration — four loads plus an
/// independent multiply, with a 2-entry vs. ample MSHR file. Reproduced as
/// a deterministic micro-trace on a single core against a fixed-latency
/// memory, reporting the cycle each instruction issues at and when each
/// configuration finishes.
pub fn fig6() -> String {
    use gmh_simt::inst::{Inst, ScriptedSource};
    use gmh_simt::{CoreConfig, SimtCore};
    use gmh_types::{LineAddr, MemFetch};

    /// (finish cycle, str-MEM stall cycles, issue cycle per instruction).
    fn run(mshrs: usize) -> (u64, u64, Vec<u64>) {
        let prog = vec![
            Inst::load(vec![LineAddr::new(0x0100)]),
            Inst::load(vec![LineAddr::new(0x0200)]),
            Inst::load(vec![LineAddr::new(0x0300)]),
            Inst::load(vec![LineAddr::new(0x0400)]),
            Inst::alu(4),
        ];
        let mut cfg = CoreConfig::gtx480();
        cfg.max_warps = 1;
        cfg.l1d.mshr_entries = mshrs;
        // Single-entry memory pipeline so a blocked L1 backs up into the
        // issue stage immediately, as drawn in the paper's figure.
        cfg.mem_pipeline_width = 1;
        let src = ScriptedSource::new(vec![prog]).with_code_lines(1);
        let mut core = SimtCore::new(0, cfg, Box::new(src));
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        let mut issued = Vec::new();
        let mut t = 0u64;
        while !core.done() && t < 100_000 {
            t += 1;
            core.cycle(t * 1000);
            while (issued.len() as u64) < core.stats().insts_issued {
                issued.push(t);
            }
            while let Some(f) = core.pop_outgoing() {
                if f.kind.wants_response() {
                    inflight.push((t + 60, f)); // fixed 60-cycle miss latency
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).expect("fifo space");
                } else {
                    i += 1;
                }
            }
        }
        (
            t,
            core.stats().issue.get(gmh_simt::IssueStallKind::StrMem),
            issued,
        )
    }

    let (t_small, str_small, issued_small) = run(2);
    let (t_big, str_big, issued_big) = run(32);
    let mut s = String::new();
    writeln!(s, "== Fig. 6: Structural hazard illustration ==").unwrap();
    writeln!(
        s,
        "Program: LD r1,[0x0100]; LD r2,[0x0200]; LD r3,[0x0300]; LD r4,[0x0400]; MULT"
    )
    .unwrap();
    writeln!(
        s,
        "Memory: fixed 60-cycle L1 miss latency, single warp, single core"
    )
    .unwrap();
    writeln!(
        s,
        "MSHR size 2  : completes at cycle {t_small}, {str_small} str-MEM stall cycles, \
         issued at {issued_small:?}"
    )
    .unwrap();
    writeln!(
        s,
        "MSHR size 32 : completes at cycle {t_big}, {str_big} str-MEM stall cycles, \
         issued at {issued_big:?}"
    )
    .unwrap();
    writeln!(
        s,
        "(the 2-entry MSHR serializes the third load behind the first fill,\n\
         delaying the independent MULT — the paper's Fig. 6 timeline)"
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------------
// Figs. 7, 8, 9
// ---------------------------------------------------------------------------

/// Fig. 7: issue-stall cycle distribution.
pub fn fig7(runs: &mut Runs) -> Section {
    let columns =
        ["data-MEM", "data-ALU", "str-MEM", "str-ALU", "fetch"].map(|h| Col(h, 9, Percent));
    let rows = per_benchmark(runs, |b| b.issue.distribution().to_vec());
    table(
        "fig7",
        "(paper AVG: {} / {} / {} / {} / {})",
        &columns,
        rows,
    )
}

/// Fig. 8: L2 stall distribution.
pub fn fig8(runs: &mut Runs) -> Section {
    let columns = ["bp-ICNT", "port", "cache", "mshr", "bp-DRAM"].map(|h| Col(h, 9, Percent));
    let rows = per_benchmark(runs, |b| b.l2_stalls.fractions().to_vec());
    table(
        "fig8",
        "(paper AVG: {} / {} / {} / {} / {})",
        &columns,
        rows,
    )
}

/// Fig. 9: L1 stall distribution.
pub fn fig9(runs: &mut Runs) -> Section {
    let columns = ["cache", "mshr", "bp-L2"].map(|h| Col(h, 9, Percent));
    let rows = per_benchmark(runs, |b| b.l1_stalls.fractions().to_vec());
    table("fig9", "(paper AVG: {} / {} / {})", &columns, rows)
}

// ---------------------------------------------------------------------------
// Fig. 10
// ---------------------------------------------------------------------------

/// The six scaled configurations of Fig. 10, in presentation order.
pub fn fig10_configs() -> Vec<(&'static str, GpuConfig)> {
    let b = GpuConfig::gtx480_baseline;
    vec![
        ("L1", b().scale_l1(4)),
        ("L2", b().scale_l2(4)),
        ("DRAM", b().scale_dram(4)),
        ("L1+L2", b().scale_l1(4).scale_l2(4)),
        ("L2+DRAM", b().scale_l2(4).scale_dram(4)),
        ("All", b().scale_l1(4).scale_l2(4).scale_dram(4)),
    ]
}

/// Fig. 10: IPC (normalized to baseline) under 4× scaling of L1 / L2 /
/// DRAM and their combinations.
pub fn fig10(runs: &mut Runs) -> Section {
    let footer = "(paper AVG: {} / {} / {} / {} / {} / {})";
    speedup_table(runs, "fig10", footer, &fig10_configs())
}

/// A Fig. 10/12-style table: each benchmark of [`FIG_ORDER`] under each
/// config, as a speedup over its baseline. The cells come from `runs`, so
/// a run another figure made is not repeated, but never from the result
/// cache: its key covers label, config and workload but not the model.
fn speedup_table(
    runs: &mut Runs,
    name: &str,
    footer: &str,
    configs: &[(&'static str, GpuConfig)],
) -> Section {
    let columns: Vec<Col> = configs
        .iter()
        .map(|(label, _)| Col(label, 8, Fixed(2)))
        .collect();
    table(name, footer, &columns, speedups(runs, &FIG_ORDER, configs))
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// Fig. 11: core-frequency sweep (the paper's real-GTX 480 verification of
/// the "L1 request rate vs. L2 bandwidth" mismatch, here on the simulator).
pub fn fig11(runs: &mut Runs) -> Section {
    let sweep = FIG11_FREQS.map(|mhz| GpuConfig::gtx480_baseline().with_core_mhz(mhz));
    let out = runs.grid(&specs(&FIG11_BENCHMARKS), &sweep);
    let mut s = String::new();
    writeln!(
        s,
        "== Fig. 11: Performance vs core frequency (wall-clock, normalized to 1.4 GHz) =="
    )
    .unwrap();
    write!(s, "{:<11}", "bench").unwrap();
    for mhz in FIG11_FREQS {
        write!(s, " {:>7.1}", mhz as f64 / 1000.0).unwrap();
    }
    writeln!(s, "  GHz").unwrap();
    for (name, row) in FIG11_BENCHMARKS.iter().zip(&out) {
        // Wall-clock performance: instructions per second, i.e. IPC x freq.
        let perf = |i: usize| row[i].ipc * FIG11_FREQS[i] as f64;
        let base = perf(2); // 1400 MHz is index 2
        write!(s, "{name:<11}").unwrap();
        for i in 0..FIG11_FREQS.len() {
            write!(s, " {:>7.3}", perf(i) / base).unwrap();
        }
        writeln!(s).unwrap();
    }
    writeln!(
        s,
        "(flat or inverted slopes above 1.4 GHz reproduce the paper's finding\n\
         that raising the L1 request rate without L2 bandwidth is futile)"
    )
    .unwrap();
    s.into()
}

// ---------------------------------------------------------------------------
// Fig. 12 + Table III + overhead
// ---------------------------------------------------------------------------

/// The cost-effective configurations of Fig. 12, in presentation order.
pub fn fig12_configs() -> Vec<(&'static str, GpuConfig)> {
    vec![
        ("16+48", GpuConfig::cost_effective_16_48()),
        ("16+68", GpuConfig::cost_effective_16_68()),
        ("32+52", GpuConfig::cost_effective_32_52()),
        ("HBM", GpuConfig::hbm()),
    ]
}

/// Every configuration a label names: the baseline as `base`, then
/// Fig. 10's and Fig. 12's. A `gmh-serve` job selects one by its label, and
/// `gmh-exp sweep` runs them all.
pub fn config_labels() -> Vec<(&'static str, GpuConfig)> {
    let base = std::iter::once(("base", GpuConfig::gtx480_baseline()));
    base.chain(fig10_configs()).chain(fig12_configs()).collect()
}

/// Fig. 12: the cost-effective configurations vs. HBM.
pub fn fig12(runs: &mut Runs) -> Section {
    let footer = "(paper AVG: {} / {} / {} / {})";
    speedup_table(runs, "fig12", footer, &fig12_configs())
}

/// Table III: baseline, 4×-scaled and cost-effective parameter values,
/// read back from the live configurations.
#[rustfmt::skip] // one row per parameter
pub fn table3() -> String {
    let b = GpuConfig::gtx480_baseline();
    let (l1, l2, dram) = (b.clone().scale_l1(4), b.clone().scale_l2(4), b.clone().scale_dram(4));
    let ce = GpuConfig::cost_effective_16_48();
    let mut s = String::new();
    writeln!(s, "== Table III: Consolidated design space ==").unwrap();
    writeln!(s, "{:<28} {:>10} {:>12} {:>14}", "parameter", "baseline", "scaled(4x)", "cost-effective")
        .unwrap();
    // Each parameter is read from the baseline, from the 4x scaling of the
    // level that owns it, and from the cost-effective configuration.
    let mut row = |name: &str, scaled: &GpuConfig, read: fn(&GpuConfig) -> String| {
        writeln!(s, "{name:<28} {:>10} {:>12} {:>14}", read(&b), read(scaled), read(&ce)).unwrap();
    };
    row("DRAM scheduler queue", &dram, |c| c.dram.sched_queue.to_string());
    row("DRAM banks/channel", &dram, |c| c.dram.n_banks.to_string());
    row("DRAM bus B/cmd-clock", &dram, |c| c.dram.bus_bytes_per_cycle.to_string());
    row("L2 miss queue", &l2, |c| c.l2_bank.miss_queue_len.to_string());
    row("L2 response queue", &l2, |c| c.l2_response_queue.to_string());
    row("L2 MSHRs", &l2, |c| c.l2_bank.mshr_entries.to_string());
    row("L2 access queue", &l2, |c| c.l2_access_queue.to_string());
    row("L2 data port (B)", &l2, |c| c.l2_data_port_bytes.to_string());
    row("Crossbar flits (req+rep B)", &l2, |c| format!("{}+{}", c.icnt.req_flit_bytes, c.icnt.rep_flit_bytes));
    row("L2 banks", &l2, |c| c.n_l2_banks.to_string());
    row("L1 miss queue", &l1, |c| c.core.l1d.miss_queue_len.to_string());
    row("L1D MSHRs", &l1, |c| c.core.l1d.mshr_entries.to_string());
    row("Memory pipeline width", &l1, |c| c.core.mem_pipeline_width.to_string());
    s
}

/// §VII-C: the area-overhead analysis of the cost-effective configurations.
/// It measures every number its rows print, labelled `<config> <column>`.
pub fn overhead() -> Section {
    let b = GpuConfig::gtx480_baseline();
    let mut s = String::new();
    writeln!(s, "== Overhead (paper §VII-C) ==").unwrap();
    writeln!(
        s,
        "{:<8} {:>11} {:>12} {:>10} {:>10} {:>8}",
        "config", "storage KB", "storage mm2", "wire mm2", "total mm2", "% die"
    )
    .unwrap();
    let mut measured = Vec::new();
    for (label, cfg) in fig12_configs() {
        let r = area::overhead(&b, &cfg);
        let columns = [
            ("storage KB", r.storage_kb),
            ("storage mm2", r.storage_mm2),
            ("wire mm2", r.wire_mm2),
            ("total mm2", r.total_mm2()),
            ("% die", r.percent_of_die()),
        ];
        let [kb, storage, wire, total, die] = columns.map(|(_, v)| v);
        writeln!(
            s,
            "{label:<8} {kb:>11.1} {storage:>12.2} {wire:>10.2} {total:>10.2} {die:>7.2}%"
        )
        .unwrap();
        measured.extend(columns.map(|(column, v)| (format!("{label} {column}"), v, 1.0)));
    }
    let footer = "(paper: ~{} KB storage = {} mm2 ~= {}% for 16+48; +{} mm2 wires\n\
                  ~= {}% total for 16+68 / 32+52; HBM overhead not modeled on-die)";
    writeln!(s, "{}", scorecard::footer("overhead", footer)).unwrap();
    Section { text: s, measured }
}

// ---------------------------------------------------------------------------
// Ablation (beyond the paper: single-knob design-space study)
// ---------------------------------------------------------------------------

/// The single-knob ablation configurations: each Table III parameter
/// scaled alone (×4), plus two policy ablations (FCFS DRAM scheduling,
/// loose-round-robin warp scheduling) and a crossbar output-speedup study.
pub fn ablation_configs() -> Vec<(&'static str, GpuConfig)> {
    use gmh_dram::SchedPolicy;
    use gmh_simt::scheduler::WarpSchedPolicy;
    // The baseline with one knob turned.
    let knob = |label, turn: fn(&mut GpuConfig)| {
        let mut c = GpuConfig::gtx480_baseline();
        turn(&mut c);
        (label, c)
    };
    vec![
        // DRAM knobs.
        knob("dram-schedq x4", |c| c.dram.sched_queue *= 4),
        knob("dram-banks x4", |c| c.dram.n_banks *= 4),
        knob("dram-bus x4", |c| c.dram.bus_bytes_per_cycle *= 4),
        knob("dram-fcfs", |c| c.dram.policy = SchedPolicy::Fcfs),
        // L2 knobs.
        knob("l2-missq x4", |c| c.l2_bank.miss_queue_len *= 4),
        knob("l2-respq x4", |c| c.l2_response_queue *= 4),
        knob("l2-mshr x4", |c| c.l2_bank.mshr_entries *= 4),
        knob("l2-accessq x4", |c| c.l2_access_queue *= 4),
        knob("l2-port x4", |c| c.l2_data_port_bytes *= 4),
        knob("icnt-flits x4", |c| {
            c.icnt.req_flit_bytes *= 4;
            c.icnt.rep_flit_bytes *= 4;
        }),
        knob("l2-banks x4", |c| {
            c.l2_bank.size_bytes /= 4;
            c.n_l2_banks *= 4;
            c.l2_bank.set_stride = c.n_l2_banks;
        }),
        // L1 knobs.
        knob("l1-missq x4", |c| c.core.l1d.miss_queue_len *= 4),
        knob("l1-mshr x4", |c| c.core.l1d.mshr_entries *= 4),
        knob("l1-pipe x4", |c| c.core.mem_pipeline_width *= 4),
        // Policies.
        knob("warp-lrr", |c| c.core.sched_policy = WarpSchedPolicy::Lrr),
        knob("icnt-speedup2", |c| c.icnt.output_speedup = 2),
    ]
}

/// Single-knob ablation on an L2-bandwidth-bound workload (`mm`) and a
/// DRAM-bound one (`lbm`): which Table III parameter matters where.
///
/// This extends the paper's §V consolidation: the paper groups parameters
/// into Type '=' (remove stalls) and Type '+' (raise peak throughput) and
/// scales them together; the ablation shows each knob's standalone effect.
pub fn ablation(runs: &mut Runs) -> Section {
    let workloads = ["mm", "lbm"];
    let configs = ablation_configs();
    let out = speedups(runs, &workloads, &configs);
    let mut s = String::new();
    writeln!(
        s,
        "== Ablation: single-knob scaling (speedup over baseline) =="
    )
    .unwrap();
    writeln!(s, "{:<16} {:>8} {:>8}", "knob", "mm", "lbm").unwrap();
    for (ci, (label, _)) in configs.iter().enumerate() {
        write!(s, "{label:<16}").unwrap();
        for row in &out {
            write!(s, " {:>8.2}", row[ci]).unwrap();
        }
        writeln!(s).unwrap();
    }
    writeln!(
        s,
        "(no single knob recovers the synergistic gains of Fig. 10 — the\n\
         paper's central argument for scaling the levels in tandem)"
    )
    .unwrap();
    s.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_configs_are_valid() {
        let configs = ablation_configs();
        assert!(configs.len() >= 16);
        for (label, cfg) in &configs {
            cfg.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        // Labels unique.
        let mut labels: Vec<_> = configs.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), configs.len());
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("15 SMs"));
        assert!(t.contains("768 KB"));
        assert!(t.contains("CCD=2"));
        assert!(t.contains("924 MHz"));
    }

    #[test]
    fn table3_shows_all_three_columns() {
        let t = table3();
        assert!(t.contains("16+48"));
        assert!(t.contains("128+128"));
        assert!(t.contains("32+32"));
    }

    #[test]
    fn overhead_report_is_complete() {
        let o = overhead().text;
        for label in ["16+48", "16+68", "32+52", "HBM"] {
            assert!(o.contains(label), "missing {label}");
        }
    }

    #[test]
    fn fig6_micro_trace_shows_serialization() {
        let f = fig6();
        assert!(f.contains("MSHR size 2"));
        assert!(f.contains("MSHR size 32"));
        // Parse the two completion cycles and verify ordering.
        let cycles: Vec<u64> = f
            .lines()
            .filter_map(|l| {
                l.split("completes at cycle ")
                    .nth(1)?
                    .split(',')
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        assert_eq!(cycles.len(), 2);
        assert!(
            cycles[0] > cycles[1],
            "2-entry MSHR ({}) must finish later than 32 ({})",
            cycles[0],
            cycles[1]
        );
    }

    #[test]
    fn fig_order_covers_all_19() {
        let mut names = FIG_ORDER.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
        for n in FIG_ORDER {
            assert!(catalog::by_name(n).is_some(), "{n} missing from catalog");
        }
    }

    #[test]
    fn config_lists_are_consistent() {
        assert_eq!(fig10_configs().len(), 6);
        assert_eq!(fig12_configs().len(), 4);
        for (_, cfg) in fig10_configs().iter().chain(fig12_configs().iter()) {
            cfg.validate().expect("valid config");
        }
    }
}

#[cfg(test)]
pub(crate) mod report_tests {
    //! Formatting tests of the per-figure report generators, driven by
    //! synthetic statistics so they run in microseconds.

    use super::*;
    use gmh_simt::IssueStallKind;

    /// Fabricates the 19 baseline runs with distinctive, valid statistics.
    pub(crate) fn synthetic_runs() -> Runs {
        let mut runs = Runs::default();
        for (i, w) in catalog::all().iter().enumerate() {
            let mut s = SimStats {
                core_cycles: 1000 + i as u64,
                insts: 5000,
                ipc: 1.0 + i as f64 * 0.1,
                aml_core_cycles: 400.0 + i as f64,
                l2_ahl_core_cycles: 250.0 + i as f64,
                stall_fraction: 0.5,
                dram_efficiency: 0.4,
                l1_miss_rate: 0.8,
                l2_miss_rate: 0.5,
                ..SimStats::default()
            };
            s.issue.record(IssueStallKind::StrMem);
            s.issue.record(IssueStallKind::DataMem);
            s.issue.record(IssueStallKind::Fetch);
            s.issue.issued_cycles.add(10);
            s.l1_stalls.record(gmh_cache_stall::L1StallKind::Mshr);
            s.l1_stalls.record(gmh_cache_stall::L1StallKind::BpL2);
            s.l2_stalls.record(gmh_cache_stall::L2StallKind::BpIcnt);
            s.l2_stalls.record(gmh_cache_stall::L2StallKind::BpDram);
            s.l2_access_occupancy.record(8, 8);
            s.l2_access_occupancy.record(2, 8);
            s.dram_queue_occupancy.record(16, 16);
            runs.insert(&GpuConfig::gtx480_baseline(), w, s);
        }
        runs
    }

    // Re-exported path shim: the stall types live in gmh-cache.
    use gmh_cache as gmh_cache_stall;

    /// Figs. 1, 4, 5, 7, 8 and 9 on the synthetic baselines, byte for
    /// byte: the tables, their AVG rows and the paper's numbers in their
    /// footers.
    #[test]
    fn baseline_figures_render_byte_for_byte() {
        let mut runs = synthetic_runs();
        let figs = [fig1, fig4, fig5, fig7, fig8, fig9].map(|fig| fig(&mut runs).text);
        let expected = include_str!("../testdata/synthetic_figures.txt");
        assert_eq!(figs.join("\n"), expected);
        assert_eq!(runs.sims(), 0, "the figures read the stored baselines");
    }

    #[test]
    fn synthetic_baselines_cover_all_names() {
        let mut runs = synthetic_runs();
        let all = catalog::all();
        let rows = runs.grid(&all, &[GpuConfig::gtx480_baseline()]);
        assert_eq!(rows.len(), 19);
        assert_eq!(runs.sims(), 0, "every catalog workload has a baseline");
    }
}
