//! Report generators, one per table/figure of the paper.
//!
//! Every function returns a plain-text report whose rows mirror the paper's
//! artifact, annotated with the paper's reference numbers where Table II or
//! the text provides them. Binaries print these; `all_experiments`
//! concatenates them into a full evaluation report.

use crate::runner::{run_jobs, Baselines, Job};
use gmh_core::{area, GpuConfig, SimStats};
use gmh_types::OccupancyHistogram;
use gmh_workloads::{catalog, WorkloadSpec};
use std::fmt::Write as _;

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

fn specs_in_fig_order() -> Vec<WorkloadSpec> {
    FIG_ORDER
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog has all fig workloads"))
        .collect()
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
    let mut s = String::new();
    writeln!(s, "== Fig. 1: Issue stalls, L2-AHL and AML (baseline) ==").unwrap();
    writeln!(
        s,
        "{:<11} {:>8} {:>8} {:>8}",
        "bench", "stall%", "L2-AHL", "AML"
    )
    .unwrap();
    let (mut st, mut ahl, mut aml) = (0.0, 0.0, 0.0);
    for name in FIG_ORDER {
        let b = baselines.get(name).expect("baseline ran");
        writeln!(
            s,
            "{:<11} {:>7.1}% {:>8.0} {:>8.0}",
            name,
            100.0 * b.stall_fraction,
            b.l2_ahl_core_cycles,
            b.aml_core_cycles
        )
        .unwrap();
        st += b.stall_fraction;
        ahl += b.l2_ahl_core_cycles;
        aml += b.aml_core_cycles;
    }
    writeln!(
        s,
        "{:<11} {:>7.1}% {:>8.0} {:>8.0}   (paper AVG: 62%, 303, 452)",
        "AVG",
        100.0 * st / 19.0,
        ahl / 19.0,
        aml / 19.0
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Table II: P∞ and P_DRAM speedups, measured vs. paper.
pub fn table2(baselines: &Baselines) -> String {
    let specs = catalog::all();
    let jobs: Vec<Job> = specs
        .iter()
        .flat_map(|w| {
            [
                Job::new(w.clone(), "pinf", GpuConfig::infinite_bw()),
                Job::new(w.clone(), "pdram", GpuConfig::infinite_dram()),
            ]
        })
        .collect();
    let out = run_jobs(jobs);
    let mut s = String::new();
    writeln!(s, "== Table II: P∞ and P_DRAM speedups ==").unwrap();
    writeln!(
        s,
        "{:<4} {:<11} {:>6} {:>6} | {:>6} {:>6}",
        "#", "bench", "P∞", "paper", "P_DRAM", "paper"
    )
    .unwrap();
    let (mut si, mut sd, mut ri_s, mut rd_s) = (0.0, 0.0, 0.0, 0.0);
    for (i, w) in specs.iter().enumerate() {
        let base = baselines.get(w.name).expect("baseline ran");
        let pinf = out[2 * i].stats.speedup_over(base);
        let pdram = out[2 * i + 1].stats.speedup_over(base);
        let (ri, rd) = catalog::paper_reference(w.name).expect("reference exists");
        writeln!(
            s,
            "{:<4} {:<11} {:>6.2} {:>6.2} | {:>6.2} {:>6.2}",
            i + 1,
            w.name,
            pinf,
            ri,
            pdram,
            rd
        )
        .unwrap();
        si += pinf;
        sd += pdram;
        ri_s += ri;
        rd_s += rd;
    }
    writeln!(
        s,
        "{:<4} {:<11} {:>6.2} {:>6.2} | {:>6.2} {:>6.2}",
        "",
        "Average",
        si / 19.0,
        ri_s / 19.0,
        sd / 19.0,
        rd_s / 19.0
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------------

/// Fig. 3: IPC (normalized to baseline) vs. fixed L1 miss latency.
pub fn fig3(baselines: &Baselines) -> String {
    let jobs: Vec<Job> = FIG3_BENCHMARKS
        .iter()
        .flat_map(|name| {
            let w = catalog::by_name(name).expect("fig3 workload");
            FIG3_LATENCIES.map(move |lat| {
                Job::new(
                    w.clone(),
                    format!("{lat}"),
                    GpuConfig::fixed_l1_miss_latency(lat),
                )
            })
        })
        .collect();
    let out = run_jobs(jobs);
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
    for (bi, name) in FIG3_BENCHMARKS.iter().enumerate() {
        let base = baselines.get(name).expect("baseline ran");
        write!(s, "{name:<11}").unwrap();
        for (li, _) in FIG3_LATENCIES.iter().enumerate() {
            let st = &out[bi * FIG3_LATENCIES.len() + li].stats;
            write!(s, " {:>5.2}", st.speedup_over(base)).unwrap();
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
    for (bi, name) in FIG3_BENCHMARKS.iter().enumerate() {
        let base = baselines.get(name).expect("baseline ran");
        let series: Vec<f64> = (0..FIG3_LATENCIES.len())
            .map(|li| out[bi * FIG3_LATENCIES.len() + li].stats.speedup_over(base))
            .collect();
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
            Some(c) => writeln!(s, "{:<11} {:>12.0} {:>12.0}", name, c, base.aml_core_cycles),
            None => writeln!(
                s,
                "{:<11} {:>12} {:>12.0}",
                name, ">800", base.aml_core_cycles
            ),
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

fn occupancy_report(
    title: &str,
    paper_avg_full: f64,
    pick: impl Fn(&SimStats) -> &OccupancyHistogram,
    baselines: &Baselines,
) -> String {
    let mut s = String::new();
    writeln!(s, "== {title} ==").unwrap();
    writeln!(
        s,
        "{:<11} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "bench", "(0-25%)", "[25-50)", "[50-75)", "[75-100)", "100%"
    )
    .unwrap();
    let mut avg = [0.0; 5];
    for name in FIG_ORDER {
        let b = baselines.get(name).expect("baseline ran");
        let f = pick(b).fractions();
        writeln!(
            s,
            "{:<11} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name, f[0], f[1], f[2], f[3], f[4]
        )
        .unwrap();
        for (a, v) in avg.iter_mut().zip(f.iter()) {
            *a += v;
        }
    }
    writeln!(
        s,
        "{:<11} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   (paper AVG full: {:.2})",
        "AVG",
        avg[0] / 19.0,
        avg[1] / 19.0,
        avg[2] / 19.0,
        avg[3] / 19.0,
        avg[4] / 19.0,
        paper_avg_full
    )
    .unwrap();
    s
}

/// Fig. 4: occupancy of the L2 access queues over their usage lifetime.
/// Paper: full 46% of usage lifetime on average.
pub fn fig4(baselines: &Baselines) -> String {
    occupancy_report(
        "Fig. 4: L2 access queue occupancy (usage lifetime)",
        0.46,
        |s| &s.l2_access_occupancy,
        baselines,
    )
}

/// Fig. 5: occupancy of the DRAM scheduler queues over their usage
/// lifetime. Paper: full 39% of usage lifetime on average.
pub fn fig5(baselines: &Baselines) -> String {
    occupancy_report(
        "Fig. 5: DRAM access queue occupancy (usage lifetime)",
        0.39,
        |s| &s.dram_queue_occupancy,
        baselines,
    )
}

// ---------------------------------------------------------------------------
// Fig. 6
// ---------------------------------------------------------------------------

/// Fig. 6: the structural-hazard illustration — three loads plus an
/// independent multiply, with a 2-entry vs. ample MSHR file. Reproduced as
/// a deterministic micro-trace on a single core against a fixed-latency
/// memory, reporting when each configuration finishes.
pub fn fig6() -> String {
    use gmh_simt::inst::{Inst, ScriptedSource};
    use gmh_simt::{CoreConfig, SimtCore};
    use gmh_types::{LineAddr, MemFetch};

    fn run(mshrs: usize) -> (u64, u64) {
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
        let mut t = 0u64;
        while !core.done() && t < 100_000 {
            t += 1;
            core.cycle(t * 1000);
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
        (t, core.stats().issue.str_mem.get())
    }

    let (t_small, str_small) = run(2);
    let (t_big, str_big) = run(32);
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
        "MSHR size 2  : completes at cycle {t_small}, {str_small} str-MEM stall cycles"
    )
    .unwrap();
    writeln!(
        s,
        "MSHR size 32 : completes at cycle {t_big}, {str_big} str-MEM stall cycles"
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
    let mut s = String::new();
    writeln!(s, "== Fig. 7: Issue-stall distribution ==").unwrap();
    writeln!(
        s,
        "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench", "data-MEM", "data-ALU", "str-MEM", "str-ALU", "fetch"
    )
    .unwrap();
    let mut avg = [0.0; 5];
    for name in FIG_ORDER {
        let d = baselines
            .get(name)
            .expect("baseline ran")
            .issue
            .distribution();
        writeln!(
            s,
            "{:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            100.0 * d[0],
            100.0 * d[1],
            100.0 * d[2],
            100.0 * d[3],
            100.0 * d[4]
        )
        .unwrap();
        for (a, v) in avg.iter_mut().zip(d.iter()) {
            *a += v;
        }
    }
    writeln!(
        s,
        "{:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%   (paper AVG: 15 / 5.5 / 71 / 0.5 / 8)",
        "AVG",
        100.0 * avg[0] / 19.0,
        100.0 * avg[1] / 19.0,
        100.0 * avg[2] / 19.0,
        100.0 * avg[3] / 19.0,
        100.0 * avg[4] / 19.0
    )
    .unwrap();
    s
}

/// Fig. 8: L2 stall distribution.
/// Paper averages: bp-ICNT 42%, port 12%, cache 8%, MSHR 3%, bp-DRAM 35%.
pub fn fig8(baselines: &Baselines) -> String {
    let mut s = String::new();
    writeln!(s, "== Fig. 8: L2 stall distribution ==").unwrap();
    writeln!(
        s,
        "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench", "bp-ICNT", "port", "cache", "mshr", "bp-DRAM"
    )
    .unwrap();
    let mut avg = [0.0; 5];
    for name in FIG_ORDER {
        let f = baselines
            .get(name)
            .expect("baseline ran")
            .l2_stalls
            .fractions();
        writeln!(
            s,
            "{:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            100.0 * f[0],
            100.0 * f[1],
            100.0 * f[2],
            100.0 * f[3],
            100.0 * f[4]
        )
        .unwrap();
        for (a, v) in avg.iter_mut().zip(f.iter()) {
            *a += v;
        }
    }
    writeln!(
        s,
        "{:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%   (paper AVG: 42 / 12 / 8 / 3 / 35)",
        "AVG",
        100.0 * avg[0] / 19.0,
        100.0 * avg[1] / 19.0,
        100.0 * avg[2] / 19.0,
        100.0 * avg[3] / 19.0,
        100.0 * avg[4] / 19.0
    )
    .unwrap();
    s
}

/// Fig. 9: L1 stall distribution.
/// Paper averages: cache 11%, MSHR 41%, bp-L2 48%.
pub fn fig9(baselines: &Baselines) -> String {
    let mut s = String::new();
    writeln!(s, "== Fig. 9: L1 stall distribution ==").unwrap();
    writeln!(
        s,
        "{:<11} {:>9} {:>9} {:>9}",
        "bench", "cache", "mshr", "bp-L2"
    )
    .unwrap();
    let mut avg = [0.0; 3];
    for name in FIG_ORDER {
        let (c, m, bp) = baselines
            .get(name)
            .expect("baseline ran")
            .l1_stalls
            .fractions();
        writeln!(
            s,
            "{:<11} {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            100.0 * c,
            100.0 * m,
            100.0 * bp
        )
        .unwrap();
        avg[0] += c;
        avg[1] += m;
        avg[2] += bp;
    }
    writeln!(
        s,
        "{:<11} {:>8.1}% {:>8.1}% {:>8.1}%   (paper AVG: 11 / 41 / 48)",
        "AVG",
        100.0 * avg[0] / 19.0,
        100.0 * avg[1] / 19.0,
        100.0 * avg[2] / 19.0
    )
    .unwrap();
    s
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

const FIG10_TITLE: &str = "== Fig. 10: IPC with 4x bandwidth scaling (normalized to baseline) ==";
const FIG10_PAPER: &str = "(paper AVG: 1.04 / 1.59 / 1.11 / 1.69 / 1.76 / 1.90)";

/// Fig. 10: IPC (normalized to baseline) under 4× scaling of L1 / L2 /
/// DRAM and their combinations.
///
/// Paper averages: L1 +4%, L2 +59%, DRAM +11%, L1+L2 +69%, L2+DRAM +76%,
/// All +90%.
pub fn fig10(baselines: &Baselines) -> String {
    fig_table(baselines, FIG10_TITLE, &fig10_configs(), FIG10_PAPER)
}

/// Renders a Fig. 10/12-style speedup table: one row per workload of
/// `specs`, one column per config holding `ratio(workload_idx,
/// config_idx)`, and the column means beside the paper's.
fn speedup_table(
    title: &str,
    specs: &[WorkloadSpec],
    configs: &[(&'static str, GpuConfig)],
    paper_footer: &str,
    ratio: impl Fn(usize, usize) -> f64,
) -> String {
    let mut s = String::new();
    writeln!(s, "{title}").unwrap();
    write!(s, "{:<11}", "bench").unwrap();
    for (label, _) in configs {
        write!(s, " {label:>8}").unwrap();
    }
    writeln!(s).unwrap();
    let mut sums = vec![0.0; configs.len()];
    for (wi, w) in specs.iter().enumerate() {
        write!(s, "{:<11}", w.name).unwrap();
        for (ci, sum) in sums.iter_mut().enumerate() {
            let sp = ratio(wi, ci);
            *sum += sp;
            write!(s, " {sp:>8.2}").unwrap();
        }
        writeln!(s).unwrap();
    }
    write!(s, "{:<11}", "AVG").unwrap();
    for sum in &sums {
        write!(s, " {:>8.2}", sum / specs.len() as f64).unwrap();
    }
    writeln!(s, "   {paper_footer}").unwrap();
    s
}

/// Simulates every workload under every config (uncached) and tabulates
/// the speedups over `baselines`.
fn fig_table(
    baselines: &Baselines,
    title: &str,
    configs: &[(&'static str, GpuConfig)],
    paper_footer: &str,
) -> String {
    let specs = specs_in_fig_order();
    let jobs: Vec<Job> = specs
        .iter()
        .flat_map(|w| {
            configs
                .iter()
                .map(|(label, cfg)| Job::new(w.clone(), *label, cfg.clone()))
        })
        .collect();
    let out = run_jobs(jobs);
    speedup_table(title, &specs, configs, paper_footer, |wi, ci| {
        let base = baselines.get(specs[wi].name).expect("baseline ran");
        out[wi * configs.len() + ci].stats.speedup_over(base)
    })
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// Fig. 11: core-frequency sweep (the paper's real-GTX 480 verification of
/// the "L1 request rate vs. L2 bandwidth" mismatch, here on the simulator).
pub fn fig11() -> String {
    let jobs: Vec<Job> = FIG11_BENCHMARKS
        .iter()
        .flat_map(|name| {
            let w = catalog::by_name(name).expect("fig11 workload");
            FIG11_FREQS.map(move |mhz| {
                Job::new(
                    w.clone(),
                    format!("{mhz}"),
                    GpuConfig::gtx480_baseline().with_core_mhz(mhz),
                )
            })
        })
        .collect();
    let out = run_jobs(jobs);
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
    for (bi, name) in FIG11_BENCHMARKS.iter().enumerate() {
        // Wall-clock performance: instructions per second, i.e. IPC x freq.
        let perf = |i: usize| {
            let st = &out[bi * FIG11_FREQS.len() + i].stats;
            st.ipc * FIG11_FREQS[i] as f64
        };
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

const FIG12_TITLE: &str = "== Fig. 12: Cost-effective configurations (normalized to baseline) ==";
const FIG12_PAPER: &str = "(paper AVG: 1.234 / 1.29 / 1.257 / 1.11)";

/// Fig. 12: the cost-effective configurations vs. HBM.
///
/// Paper averages: 16+48 +23.4%, 16+68 +29%, 32+52 +25.7%, HBM +11%.
pub fn fig12(baselines: &Baselines) -> String {
    fig_table(baselines, FIG12_TITLE, &fig12_configs(), FIG12_PAPER)
}

/// Renders a Fig. 10/12-style speedup table through the shared result
/// cache: same rows, columns and footer as the uncached generators, but
/// every run goes through [`crate::Evaluator`] with the established
/// figure labels, so the cache entries are the ones `gmh-serve`, the
/// `design_space` example and the tuner already share — and a warm cache
/// prints the whole table with zero simulations.
///
/// Returns the rendered table and the number of fresh simulations.
///
/// # Errors
///
/// Propagates cache I/O errors from candidate evaluation.
pub fn fig_table_cached(
    cache: &crate::cache::DiskCache,
    title: &str,
    configs: &[(&'static str, GpuConfig)],
    paper_footer: &str,
) -> std::io::Result<(String, usize)> {
    let specs = specs_in_fig_order();
    let ev = crate::Evaluator::new(cache);
    let base = crate::Candidate::new("base", GpuConfig::gtx480_baseline());
    let cands: Vec<crate::Candidate> = configs
        .iter()
        .map(|(label, cfg)| crate::Candidate::new(*label, cfg.clone()))
        .collect();
    // Per workload: the baseline first, then each config, flattened.
    let row = 1 + cands.len();
    let jobs: Vec<(&crate::Candidate, &WorkloadSpec)> = specs
        .iter()
        .flat_map(|w| std::iter::once((&base, w)).chain(cands.iter().map(move |c| (c, w))))
        .collect();
    let runs = ev.eval_batch(&jobs)?;
    let ipc = |i: usize| runs[i].metric("ipc").unwrap_or(f64::NAN);
    let s = speedup_table(title, &specs, configs, paper_footer, |wi, ci| {
        ipc(wi * row + 1 + ci) / ipc(wi * row)
    });
    cache.flush_index()?;
    Ok((s, ev.sims()))
}

/// Cache-backed Fig. 10 (see [`fig_table_cached`]).
///
/// # Errors
///
/// Propagates cache I/O errors from candidate evaluation.
pub fn fig10_cached(cache: &crate::cache::DiskCache) -> std::io::Result<(String, usize)> {
    fig_table_cached(cache, FIG10_TITLE, &fig10_configs(), FIG10_PAPER)
}

/// Cache-backed Fig. 12 (see [`fig_table_cached`]).
///
/// # Errors
///
/// Propagates cache I/O errors from candidate evaluation.
pub fn fig12_cached(cache: &crate::cache::DiskCache) -> std::io::Result<(String, usize)> {
    fig_table_cached(cache, FIG12_TITLE, &fig12_configs(), FIG12_PAPER)
}

/// Table III: baseline, 4×-scaled and cost-effective parameter values,
/// read back from the live configurations.
pub fn table3() -> String {
    let b = GpuConfig::gtx480_baseline();
    let s4_l1 = GpuConfig::gtx480_baseline().scale_l1(4);
    let s4_l2 = GpuConfig::gtx480_baseline().scale_l2(4);
    let s4_d = GpuConfig::gtx480_baseline().scale_dram(4);
    let ce = GpuConfig::cost_effective_16_48();
    let mut s = String::new();
    writeln!(s, "== Table III: Consolidated design space ==").unwrap();
    writeln!(
        s,
        "{:<28} {:>10} {:>12} {:>14}",
        "parameter", "baseline", "scaled(4x)", "cost-effective"
    )
    .unwrap();
    let mut row = |name: &str, base: String, scaled: String, cost: String| {
        writeln!(s, "{name:<28} {base:>10} {scaled:>12} {cost:>14}").unwrap();
    };
    row(
        "DRAM scheduler queue",
        b.dram.sched_queue.to_string(),
        s4_d.dram.sched_queue.to_string(),
        ce.dram.sched_queue.to_string(),
    );
    row(
        "DRAM banks/channel",
        b.dram.n_banks.to_string(),
        s4_d.dram.n_banks.to_string(),
        ce.dram.n_banks.to_string(),
    );
    row(
        "DRAM bus B/cmd-clock",
        b.dram.bus_bytes_per_cycle.to_string(),
        s4_d.dram.bus_bytes_per_cycle.to_string(),
        ce.dram.bus_bytes_per_cycle.to_string(),
    );
    row(
        "L2 miss queue",
        b.l2_bank.miss_queue_len.to_string(),
        s4_l2.l2_bank.miss_queue_len.to_string(),
        ce.l2_bank.miss_queue_len.to_string(),
    );
    row(
        "L2 response queue",
        b.l2_response_queue.to_string(),
        s4_l2.l2_response_queue.to_string(),
        ce.l2_response_queue.to_string(),
    );
    row(
        "L2 MSHRs",
        b.l2_bank.mshr_entries.to_string(),
        s4_l2.l2_bank.mshr_entries.to_string(),
        ce.l2_bank.mshr_entries.to_string(),
    );
    row(
        "L2 access queue",
        b.l2_access_queue.to_string(),
        s4_l2.l2_access_queue.to_string(),
        ce.l2_access_queue.to_string(),
    );
    row(
        "L2 data port (B)",
        b.l2_data_port_bytes.to_string(),
        s4_l2.l2_data_port_bytes.to_string(),
        ce.l2_data_port_bytes.to_string(),
    );
    row(
        "Crossbar flits (req+rep B)",
        format!("{}+{}", b.icnt.req_flit_bytes, b.icnt.rep_flit_bytes),
        format!(
            "{}+{}",
            s4_l2.icnt.req_flit_bytes, s4_l2.icnt.rep_flit_bytes
        ),
        format!("{}+{}", ce.icnt.req_flit_bytes, ce.icnt.rep_flit_bytes),
    );
    row(
        "L2 banks",
        b.n_l2_banks.to_string(),
        s4_l2.n_l2_banks.to_string(),
        ce.n_l2_banks.to_string(),
    );
    row(
        "L1 miss queue",
        b.core.l1d.miss_queue_len.to_string(),
        s4_l1.core.l1d.miss_queue_len.to_string(),
        ce.core.l1d.miss_queue_len.to_string(),
    );
    row(
        "L1D MSHRs",
        b.core.l1d.mshr_entries.to_string(),
        s4_l1.core.l1d.mshr_entries.to_string(),
        ce.core.l1d.mshr_entries.to_string(),
    );
    row(
        "Memory pipeline width",
        b.core.mem_pipeline_width.to_string(),
        s4_l1.core.mem_pipeline_width.to_string(),
        ce.core.mem_pipeline_width.to_string(),
    );
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
    let b = GpuConfig::gtx480_baseline;
    let mut v: Vec<(&'static str, GpuConfig)> = Vec::new();
    // DRAM knobs.
    v.push(("dram-schedq x4", {
        let mut c = b();
        c.dram.sched_queue *= 4;
        c
    }));
    v.push(("dram-banks x4", {
        let mut c = b();
        c.dram.n_banks *= 4;
        c
    }));
    v.push(("dram-bus x4", {
        let mut c = b();
        c.dram.bus_bytes_per_cycle *= 4;
        c
    }));
    v.push(("dram-fcfs", {
        let mut c = b();
        c.dram.policy = SchedPolicy::Fcfs;
        c
    }));
    // L2 knobs.
    v.push(("l2-missq x4", {
        let mut c = b();
        c.l2_bank.miss_queue_len *= 4;
        c
    }));
    v.push(("l2-respq x4", {
        let mut c = b();
        c.l2_response_queue *= 4;
        c
    }));
    v.push(("l2-mshr x4", {
        let mut c = b();
        c.l2_bank.mshr_entries *= 4;
        c
    }));
    v.push(("l2-accessq x4", {
        let mut c = b();
        c.l2_access_queue *= 4;
        c
    }));
    v.push(("l2-port x4", {
        let mut c = b();
        c.l2_data_port_bytes *= 4;
        c
    }));
    v.push(("icnt-flits x4", {
        let mut c = b();
        c.icnt.req_flit_bytes *= 4;
        c.icnt.rep_flit_bytes *= 4;
        c
    }));
    v.push(("l2-banks x4", {
        let mut c = b();
        c.l2_bank.size_bytes /= 4;
        c.n_l2_banks *= 4;
        c.l2_bank.set_stride = c.n_l2_banks;
        c
    }));
    // L1 knobs.
    v.push(("l1-missq x4", {
        let mut c = b();
        c.core.l1d.miss_queue_len *= 4;
        c
    }));
    v.push(("l1-mshr x4", {
        let mut c = b();
        c.core.l1d.mshr_entries *= 4;
        c
    }));
    v.push(("l1-pipe x4", {
        let mut c = b();
        c.core.mem_pipeline_width *= 4;
        c
    }));
    // Policies.
    v.push(("warp-lrr", {
        let mut c = b();
        c.core.sched_policy = WarpSchedPolicy::Lrr;
        c
    }));
    v.push(("icnt-speedup2", {
        let mut c = b();
        c.icnt.output_speedup = 2;
        c
    }));
    v
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
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|name| {
            let w = catalog::by_name(name).expect("ablation workload");
            configs
                .iter()
                .map(move |(label, cfg)| Job::new(w.clone(), *label, cfg.clone()))
        })
        .collect();
    let out = run_jobs(jobs);
    let mut s = String::new();
    writeln!(
        s,
        "== Ablation: single-knob scaling (speedup over baseline) =="
    )
    .unwrap();
    writeln!(s, "{:<16} {:>8} {:>8}", "knob", "mm", "lbm").unwrap();
    for (ci, (label, _)) in configs.iter().enumerate() {
        write!(s, "{label:<16}").unwrap();
        for (wi, name) in workloads.iter().enumerate() {
            let base = baselines.get(name).expect("baseline ran");
            let sp = out[wi * configs.len() + ci].stats.speedup_over(base);
            write!(s, " {sp:>8.2}").unwrap();
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
