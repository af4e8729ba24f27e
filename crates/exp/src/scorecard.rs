//! The paper's numbers, one row per headline, and how far this model is
//! from each.
//!
//! [`ROWS`] is the one place a paper value is written: the figure footers,
//! Table II's paper column and the §VII-C footer print from it, and
//! `gmh-exp scorecard` ([`report`]) prints each row beside the measured
//! value, its error and whether that is inside its unit's band.

use crate::experiments::ARTIFACTS;
use crate::runner::Runs;
use gmh_core::GpuConfig;
use gmh_workloads::catalog;
use std::fmt::Write as _;

/// What a row measures: the unit of its error, and its band.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A share of time or of stalls: the error is in percentage points,
    /// inside at up to 5.
    Share,
    /// A speedup: the error is in points of (speedup − 1) × 100, inside at
    /// up to 5.
    Gain,
    /// Any other quantity: the error is a percentage of the paper value,
    /// inside at up to 10.
    Ratio,
}
use Unit::{Gain, Ratio, Share};

impl Unit {
    /// The signed error of `measured` against `paper` (both a fraction, a
    /// speedup or a plain quantity), and whether it is inside the band; the
    /// slack keeps an error of exactly the band inside however it rounds.
    pub fn error(self, measured: f64, paper: f64) -> (f64, bool) {
        let (over, band) = if self == Ratio {
            (paper, 10.0)
        } else {
            (1.0, 5.0)
        };
        let error = 100.0 * (measured - paper) / over;
        (error, error.abs() <= band + 1e-9)
    }
}

/// One of the paper's numbers: the artifact that prints it (`fig8`); its
/// label (the artifact's column heading, Table II's `<bench> P∞` or
/// §VII-C's `<config> <quantity>`); the value as the paper prints it, in
/// the units the artifact prints the measured value in (`"62"` for Fig. 1's
/// stall percentage, `"0.46"` for Fig. 4's full fraction); its unit.
#[derive(Clone, Copy, Debug)]
pub struct Row(
    pub &'static str,
    pub &'static str,
    pub &'static str,
    pub Unit,
);

impl Row {
    /// The paper value as a number.
    pub fn value(&self) -> f64 {
        // INVARIANT: `every_paper_value_parses` holds each text to a number.
        self.2.parse().expect("a paper value is a number")
    }
}

/// Every paper number, in report order; within an artifact, in the order
/// its footer prints them. 32+52 has 16+68's flit width and storage, so
/// §VII-C's one "1.6% for 16+68 / 32+52" is scored on 16+68.
#[rustfmt::skip]
pub const ROWS: [Row; 71] = [
    Row("fig1", "stall%", "62", Share), Row("fig1", "L2-AHL", "303", Ratio), Row("fig1", "AML", "452", Ratio),
    Row("table2", "mm P∞", "4.90", Ratio), Row("table2", "mm P_DRAM", "1.01", Ratio),
    Row("table2", "lbm P∞", "3.40", Ratio), Row("table2", "lbm P_DRAM", "1.87", Ratio),
    Row("table2", "ss P∞", "3.23", Ratio), Row("table2", "ss P_DRAM", "1.00", Ratio),
    Row("table2", "nn P∞", "3.11", Ratio), Row("table2", "nn P_DRAM", "1.84", Ratio),
    Row("table2", "hybridsort P∞", "3.10", Ratio), Row("table2", "hybridsort P_DRAM", "1.24", Ratio),
    Row("table2", "cfd P∞", "3.08", Ratio), Row("table2", "cfd P_DRAM", "1.06", Ratio),
    Row("table2", "pvr P∞", "2.89", Ratio), Row("table2", "pvr P_DRAM", "1.01", Ratio),
    Row("table2", "bfs P∞", "2.84", Ratio), Row("table2", "bfs P_DRAM", "1.00", Ratio),
    Row("table2", "lavaMD P∞", "2.70", Ratio), Row("table2", "lavaMD P_DRAM", "1.00", Ratio),
    Row("table2", "sc P∞", "2.70", Ratio), Row("table2", "sc P_DRAM", "1.13", Ratio),
    Row("table2", "bfs' P∞", "2.10", Ratio), Row("table2", "bfs' P_DRAM", "1.00", Ratio),
    Row("table2", "ii P∞", "1.98", Ratio), Row("table2", "ii P_DRAM", "1.00", Ratio),
    Row("table2", "sradv1 P∞", "1.51", Ratio), Row("table2", "sradv1 P_DRAM", "1.19", Ratio),
    Row("table2", "sradv2 P∞", "1.49", Ratio), Row("table2", "sradv2 P_DRAM", "1.08", Ratio),
    Row("table2", "nw P∞", "1.43", Ratio), Row("table2", "nw P_DRAM", "1.09", Ratio),
    Row("table2", "stencil P∞", "1.23", Ratio), Row("table2", "stencil P_DRAM", "1.20", Ratio),
    Row("table2", "dwt2d P∞", "1.20", Ratio), Row("table2", "dwt2d P_DRAM", "1.14", Ratio),
    Row("table2", "sad P∞", "1.16", Ratio), Row("table2", "sad P_DRAM", "1.09", Ratio),
    Row("table2", "leukocyte P∞", "1.08", Ratio), Row("table2", "leukocyte P_DRAM", "1.00", Ratio),
    Row("fig4", "100%", "0.46", Share),
    Row("fig5", "100%", "0.39", Share),
    Row("fig7", "data-MEM", "15", Share), Row("fig7", "data-ALU", "5.5", Share), Row("fig7", "str-MEM", "71", Share),
    Row("fig7", "str-ALU", "0.5", Share), Row("fig7", "fetch", "8", Share),
    Row("fig8", "bp-ICNT", "42", Share), Row("fig8", "port", "12", Share), Row("fig8", "cache", "8", Share),
    Row("fig8", "mshr", "3", Share), Row("fig8", "bp-DRAM", "35", Share),
    Row("fig9", "cache", "11", Share), Row("fig9", "mshr", "41", Share), Row("fig9", "bp-L2", "48", Share),
    Row("fig10", "L1", "1.04", Gain), Row("fig10", "L2", "1.59", Gain), Row("fig10", "DRAM", "1.11", Gain),
    Row("fig10", "L1+L2", "1.69", Gain), Row("fig10", "L2+DRAM", "1.76", Gain), Row("fig10", "All", "1.90", Gain),
    Row("fig12", "16+48", "1.234", Gain), Row("fig12", "16+68", "1.29", Gain),
    Row("fig12", "32+52", "1.257", Gain), Row("fig12", "HBM", "1.11", Gain),
    Row("overhead", "16+48 storage KB", "94", Ratio), Row("overhead", "16+48 storage mm2", "7.48", Ratio),
    Row("overhead", "16+48 % die", "1.1", Ratio),
    Row("overhead", "16+68 wire mm2", "3.62", Ratio), Row("overhead", "16+68 % die", "1.6", Ratio),
];

/// Whether `row` is one of the seven whose mean |error| `gmh-benchmark`
/// reports as `exp.paper_err_pp`.
fn in_paper_err(row: &Row) -> bool {
    matches!(
        (row.0, row.1),
        ("fig12", _) | ("fig8", "bp-ICNT" | "bp-DRAM" | "port")
    )
}

/// The rows of one artifact, in footer order.
pub fn rows(artifact: &str) -> impl Iterator<Item = &'static Row> + '_ {
    ROWS.iter().filter(move |r| r.0 == artifact)
}

/// `template` with each `{}` replaced by the paper text of `artifact`'s
/// next row; there is a `{}` for every row.
pub fn footer(artifact: &str, template: &str) -> String {
    let mut papers = rows(artifact).map(|r| r.2);
    let mut parts = template.split("{}");
    let mut s = parts.next().unwrap_or_default().to_string();
    for part in parts {
        s += papers.next().expect("a paper row per {}");
        s += part;
    }
    assert!(papers.next().is_none(), "{artifact}: a row no {{}} prints");
    s
}

/// A row scored: the measured value in the units of the paper's text, the
/// signed error in the row's unit, and whether it is inside the band.
type Score = (&'static Row, f64, f64, bool);

/// Each row of `artifact`, in row order, scored on the measurement of its
/// label. A measurement is a label, a value and what the artifact prints
/// the value times (100 for a percentage), which is the scale the paper's
/// text is in; measurements no row names are not scored.
///
/// # Panics
///
/// If a row of `artifact` has no measurement.
fn scores(artifact: &str, measured: &[(String, f64, f64)]) -> Vec<Score> {
    let score = |row: &'static Row| {
        let found = measured.iter().find(|m| m.0 == row.1);
        let (_, value, scale) = found.unwrap_or_else(|| panic!("{artifact} measures no {}", row.1));
        let (error, inside) = row.3.error(*value, row.value() / scale);
        (row, value * scale, error, inside)
    };
    rows(artifact).map(score).collect()
}

/// The mean |error| of `scores`.
fn mean_abs_error<'a>(scores: impl Iterator<Item = &'a Score>) -> f64 {
    let errors: Vec<f64> = scores.map(|s| s.2.abs()).collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// Every row scored, in report order, on what its artifact's section
/// measured. Cold, that is 228 runs: the 19 baselines, Table II's 38 ideal
/// memories and the Fig. 10 and 12 grids, whose DRAM 4× and HBM columns
/// are one run.
fn score_all(runs: &mut Runs) -> Vec<Score> {
    let mut all = Vec::new();
    for a in ARTIFACTS.iter().filter(|a| rows(a.name).next().is_some()) {
        all.extend(scores(a.name, &(a.render)(runs).measured));
    }
    assert_eq!(all.len(), ROWS.len(), "every row is measured once");
    all
}

/// The scorecard: every row scored, the mean |errors|, then the baseline
/// statistics the workload models are calibrated against.
pub fn report(runs: &mut Runs) -> String {
    let scores = score_all(runs);
    let mut s = "artifact  row                 paper  measured     error  verdict\n".to_string();
    for &(&Row(artifact, label, paper, unit), m, error, inside) in &scores {
        // One decimal more than the paper prints.
        let d = paper.split_once('.').map_or(0, |(_, f)| f.len()) + 1;
        let err = format!("{error:+.2}{}", if unit == Ratio { "%" } else { "pp" });
        let verdict = if inside { "inside" } else { "outside" };
        writeln!(
            s,
            "{artifact:<9} {label:<18} {paper:>6} {m:>9.d$} {err:>9}  {verdict}"
        )
        .unwrap();
    }
    let all = mean_abs_error(scores.iter());
    let seven = mean_abs_error(scores.iter().filter(|s| in_paper_err(s.0)));
    writeln!(
        s,
        "mean |error|, all {} rows (pp and %): {all:.6}",
        ROWS.len()
    )
    .unwrap();
    let what = "the 7 rows of exp.paper_err_pp (Fig. 8 bp-ICNT, bp-DRAM, port; Fig. 12)";
    writeln!(s, "mean |error|, {what}: {seven:.6} pp\n").unwrap();
    s += "baseline    stall   aml   ahl  l1mr  l2mr  eff\n";
    let workloads = catalog::all();
    let baselines = runs.grid(&workloads, &[GpuConfig::gtx480_baseline()]);
    for (w, row) in workloads.iter().zip(baselines) {
        let b = row[0];
        let (name, stall) = (w.name, 100.0 * b.stall_fraction);
        let (aml, ahl) = (b.aml_core_cycles, b.l2_ahl_core_cycles);
        let (l1, l2, eff) = (b.l1_miss_rate, b.l2_miss_rate, b.dram_efficiency);
        writeln!(
            s,
            "{name:<11} {stall:>4.0}% {aml:>5.0} {ahl:>5.0} {l1:>5.2} {l2:>5.2} {eff:>4.2}"
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report_tests::synthetic_runs;
    use crate::experiments::{self, fig12_configs, fig8, overhead};
    use gmh_cache::L2StallKind;
    use gmh_core::{area, SimStats};

    #[test]
    fn every_paper_value_parses() {
        for r in &ROWS {
            assert!(r.value().is_finite(), "{} {}", r.0, r.1);
        }
        let mut keys: Vec<_> = ROWS.iter().map(|r| (r.0, r.1)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ROWS.len(), "a row per (artifact, label)");
    }

    /// Table II has a P∞ and a P_DRAM row per catalog workload, in catalog
    /// order (which Table II's paper column and its measurements rely on),
    /// and none for the synthetic extras.
    #[test]
    fn every_workload_has_paper_reference() {
        let labels: Vec<&str> = rows("table2").map(|r| r.1).collect();
        let expected: Vec<String> = catalog::names()
            .iter()
            .flat_map(|n| [format!("{n} P∞"), format!("{n} P_DRAM")])
            .collect();
        assert_eq!(labels, expected);
        let extras = catalog::extras();
        assert_eq!(extras.len(), 3);
        for w in extras {
            let named = |l: &&str| l.split(' ').next() == Some(w.name);
            assert!(!labels.iter().any(named), "{}: not in Table II", w.name);
        }
    }

    #[test]
    fn table2_order_is_descending_p_inf() {
        let refs: Vec<f64> = rows("table2").step_by(2).map(Row::value).collect();
        assert_eq!(refs.len(), catalog::names().len());
        for pair in refs.windows(2) {
            assert!(pair[0] >= pair[1], "catalog must follow Table II order");
        }
    }

    #[test]
    fn each_unit_is_inside_at_exactly_its_band() {
        // (unit, paper, measured exactly one band away, expected error)
        let cases = [
            (Share, 0.46, 0.51, 5.0),
            (Share, 0.42, 0.37, -5.0),
            (Gain, 1.90, 1.95, 5.0),
            (Gain, 1.234, 1.184, -5.0),
            (Ratio, 303.0, 333.3, 10.0),
            (Ratio, 4.90, 4.41, -10.0),
        ];
        for (unit, paper, measured, expected) in cases {
            let (error, inside) = unit.error(measured, paper);
            assert!((error - expected).abs() < 1e-9, "{unit:?}: {error}");
            assert!(inside, "{unit:?} at its band");
            let beyond = unit.error(measured + (measured - paper) * 1e-3, paper);
            assert!(!beyond.1, "{unit:?} past its band: {}", beyond.0);
        }
    }

    #[test]
    fn footers_print_the_paper_text_verbatim() {
        assert_eq!(footer("fig1", "{}%, {}, {}"), "62%, 303, 452");
        let fig12 = footer("fig12", "{} / {} / {} / {}");
        assert_eq!(fig12, "1.234 / 1.29 / 1.257 / 1.11");
    }

    /// §VII-C's values land on their rows: the area model's numbers for the
    /// 16+48 and 16+68 configurations.
    #[test]
    fn overhead_rows_score_their_own_quantities() {
        let scored = scores("overhead", &overhead().measured);
        let labelled: Vec<(&str, f64)> = scored.iter().map(|s| (s.0 .1, s.1)).collect();
        let base = GpuConfig::gtx480_baseline();
        let a = area::overhead(&base, &GpuConfig::cost_effective_16_48());
        let b = area::overhead(&base, &GpuConfig::cost_effective_16_68());
        let expected = [
            ("16+48 storage KB", a.storage_kb),
            ("16+48 storage mm2", a.storage_mm2),
            ("16+48 % die", a.percent_of_die()),
            ("16+68 wire mm2", b.wire_mm2),
            ("16+68 % die", b.percent_of_die()),
        ];
        assert_eq!(labelled, expected);
    }

    /// Synthetic statistics for `gmh-benchmark`'s full-length sweep:
    /// `stats[w][c]` is catalog workload `w` under `base` (c = 0) or
    /// Fig. 12's config `c - 1`.
    fn synthetic_sweep() -> Vec<Vec<SimStats>> {
        let stall = |i: usize| [L2StallKind::BpIcnt, L2StallKind::Port, L2StallKind::BpDram][i % 3];
        let run = |w: usize, c: usize| {
            let ipc = 1.0 + 0.07 * w as f64 + 0.031 * (c * (w % 4)) as f64;
            let mut s = SimStats {
                ipc,
                ..SimStats::default()
            };
            for i in 0..(w + 2 * c + 3) {
                s.l2_stalls.record(stall(i * (w + 1)));
            }
            s
        };
        (0..19)
            .map(|w| (0..5).map(|c| run(w, c)).collect())
            .collect()
    }

    /// The seven-row mean is `gmh-benchmark`'s `exp.paper_err_pp`: its
    /// `full_length` formula, copied verbatim, on the same statistics.
    #[test]
    fn the_seven_rows_reproduce_the_benchmark_formula() {
        let grid = synthetic_sweep();
        let n_wl = 19.0;

        // --- verbatim from the benchmark's `full_length` ---
        let stats = |w: usize, c: usize| Some(&grid[w][c]);
        // Fig. 12: average speedup of each configuration over `base`, in percent.
        const FIG12_PAPER_PCT: [f64; 4] = [23.4, 29.0, 25.7, 11.0];
        let mut fig12 = Vec::new();
        for (c, paper) in FIG12_PAPER_PCT.iter().enumerate() {
            let mut sum = 0.0;
            for w in 0..19 {
                if let (Some(cfg), Some(base)) = (stats(w, c + 1), stats(w, 0)) {
                    sum += cfg.ipc / base.ipc;
                }
            }
            fig12.push(((sum / n_wl - 1.0) * 100.0 - paper).abs());
        }
        // Fig. 8: mean L2 stall attribution over the 19 `base` runs, in percent.
        const FIG8_PAPER_PCT: [(usize, f64); 3] = [(0, 42.0), (4, 35.0), (1, 12.0)];
        let mut fig8_err = Vec::new();
        for (idx, paper) in FIG8_PAPER_PCT {
            let sum: f64 = (0..19)
                .filter_map(|w| stats(w, 0))
                .map(|s| s.l2_stalls.fractions()[idx])
                .sum();
            fig8_err.push((sum / n_wl * 100.0 - paper).abs());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let all: Vec<f64> = fig12.iter().chain(&fig8_err).copied().collect();
        let paper_err_pp = mean(&all);
        // --- end of the copy ---

        let mut runs = Runs::default();
        let configs = [("base", GpuConfig::gtx480_baseline())]
            .into_iter()
            .chain(fig12_configs());
        let configs: Vec<GpuConfig> = configs.map(|(_, cfg)| cfg).collect();
        for (w, stats) in catalog::all().iter().zip(&grid) {
            for (cfg, st) in configs.iter().zip(stats) {
                runs.insert(cfg, w, st.clone());
            }
        }
        let mut scored = scores("fig8", &fig8(&mut runs).measured);
        scored.extend(scores("fig12", &experiments::fig12(&mut runs).measured));
        assert_eq!(runs.sims(), 0, "the figures read the synthetic runs");
        let seven: Vec<&Score> = scored.iter().filter(|s| in_paper_err(s.0)).collect();
        assert_eq!(seven.len(), 7);
        let ours = mean_abs_error(seven.into_iter());
        assert!(
            (ours - paper_err_pp).abs() < 1e-9,
            "{ours} vs {paper_err_pp}"
        );
        assert!(paper_err_pp > 1.0, "the synthetic errors are not all zero");
    }

    #[test]
    fn scores_are_in_the_papers_units() {
        let scored = scores("fig8", &fig8(&mut synthetic_runs()).measured);
        assert_eq!(scored.len(), 5, "Fig. 8's five rows, nothing else");
        let f8 = |label| *scored.iter().find(|s| s.0 .1 == label).unwrap();
        // Two equal L2 stall kinds: 50 % each against the paper's 42 and 35.
        let (_, measured, error, inside) = f8("bp-ICNT");
        assert!((measured - 50.0).abs() < 1e-9 && (error - 8.0).abs() < 1e-9 && !inside);
        assert!((f8("bp-DRAM").2 - 15.0).abs() < 1e-9);
        assert!((f8("port").2 + 12.0).abs() < 1e-9);
    }
}
