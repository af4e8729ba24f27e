//! Report generators, one per table/figure of the paper.
//!
//! Every function returns a plain-text report whose rows mirror the paper's
//! artifact, annotated with the paper's reference numbers where Table II or
//! the text provides them. [`ARTIFACTS`] lists them in report order; the
//! `gmh-exp` CLI ([`crate::cli`]) prints any subset, or all of them as a
//! full evaluation report.

use crate::runner::{par_map, Baselines};
use gmh_core::{area, GpuConfig, GpuSim, SimStats};
use gmh_workloads::{catalog, WorkloadSpec};
use std::fmt::Write as _;

/// How an [`Artifact`] is regenerated.
#[derive(Clone, Copy, Debug)]
pub enum Render {
    /// Needs no baseline runs (it may still simulate, as Fig. 11 does).
    Static(fn() -> String),
    /// Reads the 19 baseline runs, which are collected once and shared.
    Baseline(fn(&Baselines) -> String),
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

const fn row(name: &'static str, about: &'static str, render: Render) -> Artifact {
    Artifact {
        name,
        about,
        render,
    }
}

/// Every artifact, in the order of the full report.
#[rustfmt::skip]
pub const ARTIFACTS: [Artifact; 16] = {
    use Render::{Baseline, Static};
    [
        row("table1", "Table I: Baseline architecture parameters", Static(table1)),
        row("fig1", "Fig. 1: Issue stalls, L2-AHL and AML (baseline)", Baseline(fig1)),
        row("table2", "Table II: P∞ and P_DRAM speedups", Baseline(table2)),
        row("fig3", "Fig. 3: IPC vs fixed L1 miss latency (normalized to baseline)", Baseline(fig3)),
        row("fig4", "Fig. 4: L2 access queue occupancy (usage lifetime)", Baseline(fig4)),
        row("fig5", "Fig. 5: DRAM access queue occupancy (usage lifetime)", Baseline(fig5)),
        row("fig6", "Fig. 6: Structural hazard illustration", Static(fig6)),
        row("fig7", "Fig. 7: Issue-stall distribution", Baseline(fig7)),
        row("fig8", "Fig. 8: L2 stall distribution", Baseline(fig8)),
        row("fig9", "Fig. 9: L1 stall distribution", Baseline(fig9)),
        row("fig10", "Fig. 10: IPC with 4x bandwidth scaling (normalized to baseline)", Baseline(fig10)),
        row("fig11", "Fig. 11: Performance vs core frequency (wall-clock, normalized to 1.4 GHz)", Static(fig11)),
        row("fig12", "Fig. 12: Cost-effective configurations (normalized to baseline)", Baseline(fig12)),
        row("table3", "Table III: Consolidated design space", Static(table3)),
        row("overhead", "Overhead (paper §VII-C)", Static(overhead)),
        row("ablation", "Ablation: single-knob scaling (speedup over baseline)", Baseline(ablation)),
    ]
};

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

fn base<'a>(baselines: &'a Baselines, name: &str) -> &'a SimStats {
    baselines.get(name).expect("baseline ran")
}

/// Simulates every workload under every labelled config; `grid[w][c]` is
/// workload `w` under config `c`. Jobs run workload-major.
fn grid<L>(workloads: &[WorkloadSpec], configs: &[(L, GpuConfig)]) -> Vec<Vec<SimStats>> {
    let jobs = workloads
        .iter()
        .flat_map(|w| configs.iter().map(move |(_, cfg)| (cfg, w)))
        .collect();
    let mut stats = par_map(jobs, |(cfg, w)| GpuSim::new(cfg.clone(), w).run()).into_iter();
    workloads
        .iter()
        .map(|_| stats.by_ref().take(configs.len()).collect())
        .collect()
}

/// [`grid`] over the named workloads, as speedups over their baseline runs.
fn speedups<L>(baselines: &Baselines, names: &[&str], configs: &[(L, GpuConfig)]) -> Vec<Vec<f64>> {
    let rows = names.iter().zip(grid(&specs(names), configs));
    rows.map(|(name, row)| {
        let b = base(baselines, name);
        row.iter().map(|st| st.speedup_over(b)).collect()
    })
    .collect()
}

/// How a column of a per-workload table prints its values.
#[derive(Clone, Copy)]
enum Unit {
    /// `100 × value` to one decimal with a trailing `%` (inside the width).
    Percent,
    /// The value to this many decimals.
    Fixed(usize),
}
use Unit::{Fixed, Percent};

/// A column of a per-workload table: heading, width, unit.
#[derive(Clone, Copy)]
struct Col(&'static str, usize, Unit);

impl Col {
    /// Appends `sum / over` (a row passes its value over 1).
    fn cell(&self, s: &mut String, sum: f64, over: f64) {
        let w = self.1;
        match self.2 {
            Percent => write!(s, " {:>w$.1}%", 100.0 * sum / over, w = w - 1),
            Fixed(d) => write!(s, " {:>w$.d$}", sum / over),
        }
        .unwrap();
    }
}

/// The one per-workload table: a row of `values(row index, baseline stats)`
/// per benchmark of [`FIG_ORDER`], then the column means beside the paper's.
fn baseline_table(
    baselines: &Baselines,
    title: &str,
    columns: &[Col],
    paper_footer: &str,
    values: impl Fn(usize, &SimStats) -> Vec<f64>,
) -> String {
    let mut s = String::new();
    writeln!(s, "== {title} ==").unwrap();
    write!(s, "{:<11}", "bench").unwrap();
    for c in columns {
        write!(s, " {:>w$}", c.0, w = c.1).unwrap();
    }
    writeln!(s).unwrap();
    let mut sums = vec![0.0; columns.len()];
    for (i, name) in FIG_ORDER.iter().enumerate() {
        write!(s, "{name:<11}").unwrap();
        let row = values(i, base(baselines, name));
        for ((c, sum), v) in columns.iter().zip(&mut sums).zip(row) {
            c.cell(&mut s, v, 1.0);
            *sum += v;
        }
        writeln!(s).unwrap();
    }
    write!(s, "{:<11}", "AVG").unwrap();
    for (c, sum) in columns.iter().zip(&sums) {
        c.cell(&mut s, *sum, FIG_ORDER.len() as f64);
    }
    writeln!(s, "   {paper_footer}").unwrap();
    s
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
///
/// Paper averages: 62% stall, 303-cycle L2-AHL, 452-cycle AML.
pub fn fig1(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 1: Issue stalls, L2-AHL and AML (baseline)",
        &[
            Col("stall%", 8, Percent),
            Col("L2-AHL", 8, Fixed(0)),
            Col("AML", 8, Fixed(0)),
        ],
        "(paper AVG: 62%, 303, 452)",
        |_, b| vec![b.stall_fraction, b.l2_ahl_core_cycles, b.aml_core_cycles],
    )
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Every catalog workload (Table II order) with `[P∞, paper's, P_DRAM,
/// paper's]`, the measured two as speedups over the baseline.
fn ideal_memory_speedups(baselines: &Baselines) -> Vec<(&'static str, [f64; 4])> {
    let names = catalog::names();
    let ideal = [
        ("pinf", GpuConfig::infinite_bw()),
        ("pdram", GpuConfig::infinite_dram()),
    ];
    let rows = names.iter().zip(speedups(baselines, &names, &ideal));
    rows.map(|(name, sp)| {
        let (ri, rd) = catalog::paper_reference(name).expect("reference exists");
        (*name, [sp[0], ri, sp[1], rd])
    })
    .collect()
}

/// Table II: P∞ and P_DRAM speedups, measured vs. paper.
pub fn table2(baselines: &Baselines) -> String {
    let rows = ideal_memory_speedups(baselines);
    let mut s = String::new();
    writeln!(s, "== Table II: P∞ and P_DRAM speedups ==").unwrap();
    writeln!(
        s,
        "{:<4} {:<11} {:>6} {:>6} | {:>6} {:>6}",
        "#", "bench", "P∞", "paper", "P_DRAM", "paper"
    )
    .unwrap();
    let mut sums = [0.0; 4];
    for (i, (name, row)) in rows.iter().enumerate() {
        writeln!(
            s,
            "{:<4} {:<11} {:>6.2} {:>6.2} | {:>6.2} {:>6.2}",
            i + 1,
            name,
            row[0],
            row[1],
            row[2],
            row[3]
        )
        .unwrap();
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
    }
    let avg = sums.map(|sum| sum / rows.len() as f64);
    writeln!(
        s,
        "{:<4} {:<11} {:>6.2} {:>6.2} | {:>6.2} {:>6.2}",
        "", "Average", avg[0], avg[1], avg[2], avg[3]
    )
    .unwrap();
    s
}

/// Calibration scorecard: Table II's two speedups beside the baseline
/// statistics the workload models were tuned against.
pub fn calibrate(baselines: &Baselines) -> String {
    let rows = ideal_memory_speedups(baselines);
    let mut s = String::new();
    writeln!(
        s,
        "{:<11} {:>5} {:>5} | {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>4}",
        "name", "Pinf", "ref", "Pdrm", "ref", "stall", "aml", "ahl", "l1mr", "l2mr", "eff"
    )
    .unwrap();
    let (mut si, mut sd) = (0.0, 0.0);
    for (name, [pinf, ri, pdram, rd]) in &rows {
        let b = base(baselines, name);
        writeln!(
            s,
            "{:<11} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} | {:>4.0}% {:>5.0} {:>5.0} {:>5.2} {:>5.2} {:>4.2}",
            name,
            pinf,
            ri,
            pdram,
            rd,
            b.stall_fraction * 100.0,
            b.aml_core_cycles,
            b.l2_ahl_core_cycles,
            b.l1_miss_rate,
            b.l2_miss_rate,
            b.dram_efficiency
        )
        .unwrap();
        si += pinf;
        sd += pdram;
    }
    writeln!(
        s,
        "AVG Pinf={:.2} (paper 2.37)  Pdram={:.2} (paper 1.15)",
        si / rows.len() as f64,
        sd / rows.len() as f64
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------------

/// Fig. 3: IPC (normalized to baseline) vs. fixed L1 miss latency.
pub fn fig3(baselines: &Baselines) -> String {
    let sweep = FIG3_LATENCIES.map(|lat| (lat, GpuConfig::fixed_l1_miss_latency(lat)));
    // One normalized-IPC series per benchmark.
    let series = speedups(baselines, &FIG3_BENCHMARKS, &sweep);
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
    for (name, series) in FIG3_BENCHMARKS.iter().zip(&series) {
        let aml = base(baselines, name).aml_core_cycles;
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
    s
}

// ---------------------------------------------------------------------------
// Figs. 4 and 5
// ---------------------------------------------------------------------------

fn occupancy_bins() -> [Col; 5] {
    ["(0-25%)", "[25-50)", "[50-75)", "[75-100)", "100%"].map(|h| Col(h, 8, Fixed(2)))
}

/// Fig. 4: occupancy of the L2 access queues over their usage lifetime.
/// Paper: full 46% of usage lifetime on average.
pub fn fig4(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 4: L2 access queue occupancy (usage lifetime)",
        &occupancy_bins(),
        "(paper AVG full: 0.46)",
        |_, b| b.l2_access_occupancy.fractions().to_vec(),
    )
}

/// Fig. 5: occupancy of the DRAM scheduler queues over their usage
/// lifetime. Paper: full 39% of usage lifetime on average.
pub fn fig5(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 5: DRAM access queue occupancy (usage lifetime)",
        &occupancy_bins(),
        "(paper AVG full: 0.39)",
        |_, b| b.dram_queue_occupancy.fractions().to_vec(),
    )
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
/// Paper averages: str-MEM 71%, data-MEM 15%, fetch 8%, data-ALU 5.5%,
/// str-ALU 0.5%.
pub fn fig7(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 7: Issue-stall distribution",
        &["data-MEM", "data-ALU", "str-MEM", "str-ALU", "fetch"].map(|h| Col(h, 9, Percent)),
        "(paper AVG: 15 / 5.5 / 71 / 0.5 / 8)",
        |_, b| b.issue.distribution().to_vec(),
    )
}

/// Fig. 8: L2 stall distribution.
/// Paper averages: bp-ICNT 42%, port 12%, cache 8%, MSHR 3%, bp-DRAM 35%.
pub fn fig8(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 8: L2 stall distribution",
        &["bp-ICNT", "port", "cache", "mshr", "bp-DRAM"].map(|h| Col(h, 9, Percent)),
        "(paper AVG: 42 / 12 / 8 / 3 / 35)",
        |_, b| b.l2_stalls.fractions().to_vec(),
    )
}

/// Fig. 9: L1 stall distribution.
/// Paper averages: cache 11%, MSHR 41%, bp-L2 48%.
pub fn fig9(baselines: &Baselines) -> String {
    baseline_table(
        baselines,
        "Fig. 9: L1 stall distribution",
        &["cache", "mshr", "bp-L2"].map(|h| Col(h, 9, Percent)),
        "(paper AVG: 11 / 41 / 48)",
        |_, b| {
            let (cache, mshr, bp_l2) = b.l1_stalls.fractions();
            vec![cache, mshr, bp_l2]
        },
    )
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
///
/// Paper averages: L1 +4%, L2 +59%, DRAM +11%, L1+L2 +69%, L2+DRAM +76%,
/// All +90%.
pub fn fig10(baselines: &Baselines) -> String {
    speedup_table(
        baselines,
        "Fig. 10: IPC with 4x bandwidth scaling (normalized to baseline)",
        &fig10_configs(),
        "(paper AVG: 1.04 / 1.59 / 1.11 / 1.69 / 1.76 / 1.90)",
    )
}

/// A Fig. 10/12-style table: every workload simulated afresh under every
/// config, as speedups over `baselines`. Never read from the result cache —
/// its key covers label, config and workload but not the model.
fn speedup_table(
    baselines: &Baselines,
    title: &str,
    configs: &[(&'static str, GpuConfig)],
    paper_footer: &str,
) -> String {
    let out = speedups(baselines, &FIG_ORDER, configs);
    let columns: Vec<Col> = configs
        .iter()
        .map(|(label, _)| Col(label, 8, Fixed(2)))
        .collect();
    baseline_table(baselines, title, &columns, paper_footer, |wi, _| {
        out[wi].clone()
    })
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// Fig. 11: core-frequency sweep (the paper's real-GTX 480 verification of
/// the "L1 request rate vs. L2 bandwidth" mismatch, here on the simulator).
pub fn fig11() -> String {
    let sweep = FIG11_FREQS.map(|mhz| (mhz, GpuConfig::gtx480_baseline().with_core_mhz(mhz)));
    let out = grid(&specs(&FIG11_BENCHMARKS), &sweep);
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
    s
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

/// Fig. 12: the cost-effective configurations vs. HBM.
///
/// Paper averages: 16+48 +23.4%, 16+68 +29%, 32+52 +25.7%, HBM +11%.
pub fn fig12(baselines: &Baselines) -> String {
    speedup_table(
        baselines,
        "Fig. 12: Cost-effective configurations (normalized to baseline)",
        &fig12_configs(),
        "(paper AVG: 1.234 / 1.29 / 1.257 / 1.11)",
    )
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
pub fn overhead() -> String {
    let b = GpuConfig::gtx480_baseline();
    let mut s = String::new();
    writeln!(s, "== Overhead (paper §VII-C) ==").unwrap();
    writeln!(
        s,
        "{:<8} {:>11} {:>12} {:>10} {:>10} {:>8}",
        "config", "storage KB", "storage mm2", "wire mm2", "total mm2", "% die"
    )
    .unwrap();
    for (label, cfg) in fig12_configs() {
        let r = area::overhead(&b, &cfg);
        writeln!(
            s,
            "{:<8} {:>11.1} {:>12.2} {:>10.2} {:>10.2} {:>7.2}%",
            label,
            r.storage_kb,
            r.storage_mm2,
            r.wire_mm2,
            r.total_mm2(),
            r.percent_of_die()
        )
        .unwrap();
    }
    writeln!(
        s,
        "(paper: ~94 KB storage = 7.48 mm2 ~= 1.1% for 16+48; +3.62 mm2 wires\n\
         ~= 1.6% total for 16+68 / 32+52; HBM overhead not modeled on-die)"
    )
    .unwrap();
    s
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
pub fn ablation(baselines: &Baselines) -> String {
    let workloads = ["mm", "lbm"];
    let configs = ablation_configs();
    let out = speedups(baselines, &workloads, &configs);
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
    s
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
    fn grid_is_rows_of_workloads_by_columns_of_configs() {
        let small = |name: &str| {
            let mut w = catalog::by_name(name).unwrap();
            w.warps_per_core = 2;
            w.insts_per_warp = 40;
            w
        };
        let cores = |n: usize| {
            let mut c = GpuConfig::gtx480_baseline();
            c.n_cores = n;
            (n, c)
        };
        let workloads = [small("leukocyte"), small("mm"), small("mm")];
        let configs = [cores(1), cores(2)];
        let out = grid(&workloads, &configs);
        assert_eq!(out.len(), workloads.len());
        let key = |st: &SimStats| (st.insts, st.core_cycles);
        for (w, row) in workloads.iter().zip(&out) {
            assert_eq!(row.len(), configs.len());
            // Cell [w][c] is workload w under config c, whatever order ran.
            for ((_, cfg), st) in configs.iter().zip(row) {
                let direct = GpuSim::new(cfg.clone(), w).run();
                assert_eq!(key(st), key(&direct), "{} on {} cores", w.name, cfg.n_cores);
            }
        }
        // The cells differ along both axes, so a transposed or shifted grid
        // would have failed above; identical jobs give identical stats.
        assert_ne!(key(&out[0][0]), key(&out[0][1]));
        assert_ne!(key(&out[0][0]), key(&out[1][0]));
        assert_eq!(key(&out[1][1]), key(&out[2][1]));
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
        let o = overhead();
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
mod report_tests {
    //! Formatting tests of the per-figure report generators, driven by
    //! synthetic statistics so they run in microseconds.

    use super::*;
    use crate::runner::Baselines;
    use gmh_simt::IssueStallKind;

    /// Fabricates a Baselines cache with distinctive, valid statistics.
    fn synthetic_baselines() -> Baselines {
        let entries = catalog::all()
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
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
                (w, s)
            })
            .collect();
        Baselines::from_entries(entries)
    }

    // Re-exported path shim: the stall types live in gmh-cache.
    use gmh_cache as gmh_cache_stall;

    #[test]
    fn fig1_lists_every_benchmark_and_average() {
        let r = fig1(&synthetic_baselines());
        for name in FIG_ORDER {
            assert!(r.contains(name), "fig1 missing {name}");
        }
        assert!(r.contains("AVG"));
        assert!(r.contains("paper AVG: 62%"));
    }

    #[test]
    fn fig4_and_fig5_report_full_fractions() {
        let b = synthetic_baselines();
        let f4 = fig4(&b);
        let f5 = fig5(&b);
        assert!(f4.contains("L2 access queue"));
        assert!(f5.contains("DRAM access queue"));
        // The synthetic data has half its L2 samples at 100%.
        assert!(f4.contains("0.50"), "unexpected full fraction:\n{f4}");
        // All DRAM samples are at 100%.
        assert!(f5.contains("1.00"));
    }

    #[test]
    fn fig7_distribution_rows_sum_to_100() {
        let r = fig7(&synthetic_baselines());
        // Three equal stall kinds -> 33.3% each.
        assert!(r.contains("33.3%"), "distribution missing:\n{r}");
        assert!(r.contains("str-MEM"));
    }

    #[test]
    fn fig8_and_fig9_name_the_paper_categories() {
        let b = synthetic_baselines();
        let f8 = fig8(&b);
        assert!(f8.contains("bp-ICNT") && f8.contains("bp-DRAM"));
        assert!(f8.contains("50.0%"), "two equal L2 stall kinds:\n{f8}");
        let f9 = fig9(&b);
        assert!(f9.contains("bp-L2") && f9.contains("mshr"));
        assert!(f9.contains("50.0%"));
    }

    #[test]
    fn synthetic_baselines_cover_all_names() {
        let b = synthetic_baselines();
        for name in catalog::names() {
            assert!(b.get(name).is_some(), "{name} missing from baselines");
        }
        assert!(b.get("nonesuch").is_none());
        assert_eq!(b.iter().count(), 19);
    }
}
